"""Cooperative three-way search over one extension question.

Given an expression G of arity n + 1 with its first n arguments fixed,
three searchers race, interleaved deterministically:

* T1 evaluates G(fixed, y) for y = 0, 1, 2, ... under a fuel meter,
  looking for the least y with value 0.  It never skips a candidate, so
  a diverging candidate stalls it — which is the correct reading of
  minimization's side condition.  It validates and compiles G once per
  run, into a ``CompiledTerm``, and evaluates every candidate with it.
* T2 runs a designated machine under the loop oracle, watching for the
  machine to return to an earlier configuration.
* T3 walks the canonical certificate enumeration, checking each
  candidate against the statement "G(fixed, ·) is nowhere zero".

Scheduling is round-robin with a fixed quantum: every round grants T1
that many fuel units, then T2 that many machine steps, then T3 that
many certificate candidates, always in that order, so ties go to T1
over T2 over T3.  This is cooperative time-slicing in one thread; no
operating-system parallelism is involved, and two runs of the same task
are step-for-step identical.

A candidate's evaluation cost does not depend on the fuel offered, so
T1 may evaluate ahead of its grant: it keeps a finished result, and the
largest fuel known to be too little, across rounds instead of starting
an unfinished candidate again from scratch.  It still commits a result
in exactly the round where the fuel granted so far covers its cost,
so verdicts and counters are those of a search that only ever spends
its grant.  Failed attempts on one candidate at least double their
fuel and never exceed what T1 can still be granted, so the fuel T1
evaluates (``t1_evaluated``) stays within four times ``t1_granted``.

The verdict is fourfold.  Found, SelfTerminated and Proved mirror the
three ways a searcher can win; Exhausted reports that the round budget
ran out with no winner.  The fourth outcome is not decoration: the
other three cannot cover every task, because T1's target may have no
zero, T2's machine may run forever without repeating, and T3's rule set
is incomplete.  ``reading`` is the one reading of a verdict: its tag
(one of ``VERDICT_TAGS``), its detail and its extension value — the
found zero for Found, zero for SelfTerminated and Proved, and an
explicit Undetermined (not a number) for Exhausted.  ``extend``,
``TrioRecord.value`` and the fixture reports all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .machine import Machine
from .oracle import LoopDetected, OracleRun, replay_verify
from .proofs import Certificate, Statement, check_certificate, enumerate_certificates
from .recfun import (
    CompiledTerm,
    FuelExhausted,
    RecExpr,
    arity,
    evaluate_costed,
    oracle_evaluate,
)


@dataclass(frozen=True)
class TrioTask:
    """One extension question plus the resources granted to answer it.

    ``g_body`` must have arity len(fixed_args) + 1, ``fixed_args`` must
    be naturals, ``t2_input`` must use ``t2_machine``'s alphabet, and
    ``t2_history_cap`` must be None or a natural.  ``t2_machine`` is
    part of the task, not derived from the expression: which machine to
    watch is the caller's (or the fixture author's) choice.  ``budget``
    counts whole rounds; ``quantum`` is the per-searcher grant within a
    round.
    """

    g_body: RecExpr
    fixed_args: tuple[int, ...]
    t2_machine: Machine
    quantum: int = 50
    budget: int = 100
    max_cert_size: int = 4
    t2_input: tuple[int, ...] = ()
    t2_history_cap: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_args", tuple(self.fixed_args))
        object.__setattr__(self, "t2_input", tuple(self.t2_input))
        n = arity(self.g_body)
        if n != len(self.fixed_args) + 1:
            raise ValueError(
                f"g_body arity {n} does not match {len(self.fixed_args)} fixed arguments"
            )
        if any(a < 0 for a in self.fixed_args):
            raise ValueError(f"fixed_args must be naturals, got {self.fixed_args}")
        for cell, sym in enumerate(self.t2_input):
            if not 0 <= sym < self.t2_machine.alphabet_size:
                raise ValueError(f"t2_input symbol {sym} at cell {cell} is out of range")
        if self.t2_history_cap is not None and self.t2_history_cap < 0:
            raise ValueError("t2_history_cap must be nonnegative")
        if self.quantum < 1:
            raise ValueError("quantum must be at least 1")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.max_cert_size < 0:
            raise ValueError("max_cert_size must be nonnegative")


@dataclass(frozen=True)
class Found:
    """T1 won: ``k`` is the least zero of G; ``steps`` is T1's fuel spent."""

    k: int
    steps: int


@dataclass(frozen=True)
class SelfTerminated:
    """T2 won: the watched machine revisited a configuration."""

    loop: LoopDetected


@dataclass(frozen=True)
class Proved:
    """T3 won: ``certificate`` checks against the task's statement."""

    certificate: Certificate


@dataclass(frozen=True)
class Exhausted:
    """No searcher won within the round budget.  An honest non-answer."""

    rounds: int


TrioVerdict = Found | SelfTerminated | Proved | Exhausted


class Undetermined:
    """The extension value when the search was exhausted; not a number."""

    _instance: "Undetermined | None" = None

    def __new__(cls) -> "Undetermined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undetermined"


UNDETERMINED = Undetermined()


class TrioRun:
    """One task's interleaved execution, with instrumentation counters.

    ``t1_granted`` / ``t2_granted`` / ``t3_granted`` record the units
    handed to each searcher (quantum per round each, whether or not the
    searcher still had work), so fairness is checkable after the fact.
    ``t1_spent``, ``t2_steps`` and ``t3_checked`` record what was
    actually used; ``t1_evaluated`` is the fuel T1's evaluations
    consumed, lookahead and unfinished attempts included.  ``COUNTERS``
    names all seven.
    """

    COUNTERS = ("t1_granted", "t1_spent", "t1_evaluated", "t2_granted", "t2_steps",
                "t3_granted", "t3_checked")

    def __init__(self, task: TrioTask) -> None:
        self.task = task
        self.statement = Statement(task.g_body, task.fixed_args)
        self.rounds_run = 0
        self.t1_granted = 0
        self.t1_spent = 0
        self.t1_evaluated = 0
        self._t1_g = CompiledTerm(task.g_body)
        self._t1_candidate = 0
        # The largest fuel known to be too little for the current
        # candidate, and its finished (value, cost) once known.
        self._t1_short = 0
        self._t1_pending: tuple[int, int] | None = None
        self.t2_granted = 0
        self._t2 = OracleRun(task.t2_machine, task.t2_input, max_history=task.t2_history_cap)
        self.t3_granted = 0
        self.t3_checked = 0
        self._t3_candidates: Iterator[Certificate] = enumerate_certificates(
            self.statement, task.max_cert_size
        )
        self._verdict: TrioVerdict | None = None

    @property
    def t2_steps(self) -> int:
        return self._t2.steps

    def _advance_t1(self) -> Found | None:
        quantum = self.task.quantum
        self.t1_granted += quantum
        available = self.t1_granted - self.t1_spent
        g = self._t1_g
        fixed = self.task.fixed_args
        while available > 0:
            if self._t1_pending is None:
                short = self._t1_short
                if available <= short:
                    return None
                # Evaluate ahead of the grant, doubling the fuel of the
                # last failure, but never past the most T1 can ever hold.
                # Failed fuels at least double and stay below twice what
                # is available, so t1_evaluated stays within 4 * t1_granted.
                reach = available + quantum * (self.task.budget - self.rounds_run)
                fuel = min(reach, max(available, 2 * short))
                value, cost = evaluate_costed(g, fixed + (self._t1_candidate,), fuel)
                self.t1_evaluated += cost
                if value is None:
                    self._t1_short = fuel
                    return None
                self._t1_pending = (value, cost)
            value, cost = self._t1_pending
            # Commit exactly when the granted fuel covers the cost, the
            # round an evaluation with only that fuel would have finished.
            if cost > available:
                return None
            self._t1_pending = None
            self._t1_short = 0
            self.t1_spent += cost
            available -= cost
            if value == 0:
                return Found(self._t1_candidate, self.t1_spent)
            self._t1_candidate += 1
        return None

    def _advance_t2(self) -> SelfTerminated | None:
        self.t2_granted += self.task.quantum
        outcome = self._t2.advance(self.task.quantum)
        if isinstance(outcome, LoopDetected):
            return SelfTerminated(outcome)
        # Halted or capped leaves T2 with nothing further to say.
        return None

    def _advance_t3(self) -> Proved | None:
        self.t3_granted += self.task.quantum
        for _ in range(self.task.quantum):
            candidate = next(self._t3_candidates, None)
            if candidate is None:
                return None
            self.t3_checked += 1
            if check_certificate(candidate, self.statement):
                return Proved(candidate)
        return None

    def run(self) -> TrioVerdict:
        if self._verdict is not None:
            return self._verdict
        verdict: TrioVerdict | None = None
        for _ in range(self.task.budget):
            self.rounds_run += 1
            verdict = self._advance_t1() or self._advance_t2() or self._advance_t3()
            if verdict is not None:
                break
        if verdict is None:
            verdict = Exhausted(self.task.budget)
        self._verdict = verdict
        return verdict


def run_trio(task: TrioTask) -> TrioVerdict:
    """Run the three searchers to a verdict.  Deterministic in the task."""
    return TrioRun(task).run()


VERDICT_TAGS = ("found", "self_terminated", "proved", "exhausted")


def reading(verdict: TrioVerdict) -> tuple[str, str, int | Undetermined]:
    """A verdict's tag, its detail for reports and its extension value.

    Found yields the witness itself; SelfTerminated and Proved both pin
    the value to 0; Exhausted yields Undetermined, because a spent
    budget justifies no number at all.
    """
    if isinstance(verdict, Found):
        return "found", f"k={verdict.k}", verdict.k
    if isinstance(verdict, SelfTerminated):
        loop = verdict.loop
        return "self_terminated", f"first={loop.first_index} period={loop.period}", 0
    if isinstance(verdict, Proved):
        return "proved", verdict.certificate.compact(), 0
    return "exhausted", f"rounds={verdict.rounds}", UNDETERMINED


def extend(task: TrioTask) -> int | Undetermined:
    """The extension value at the task's fixed arguments, as ``reading`` gives it."""
    return reading(run_trio(task))[2]


@dataclass
class TrioRecord:
    """A verdict plus its audit and the runner's counters, for reports.

    ``value`` is the verdict's extension value as ``reading`` gives it,
    so the two cannot disagree.  ``counters`` holds every ``TrioRun``
    counter: the units granted to each searcher and what each spent.
    """

    label: str
    verdict: TrioVerdict
    audit_passed: bool | None
    rounds_run: int
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def value(self) -> int | Undetermined:
        return reading(self.verdict)[2]


def _audit_found(task: TrioTask, verdict: Found, fuel: int) -> bool:
    # Re-check minimality with the reference evaluator: every earlier
    # candidate converged nonzero, the witness evaluates to zero.
    for candidate in range(verdict.k):
        value = oracle_evaluate(task.g_body, task.fixed_args + (candidate,), fuel)
        if isinstance(value, FuelExhausted) or value == 0:
            return False
    return oracle_evaluate(task.g_body, task.fixed_args + (verdict.k,), fuel) == 0


def classify_corpus_entry(task: TrioTask, label: str = "task") -> TrioRecord:
    """Run one task and audit whatever verdict came out.

    Found is re-verified as a least zero with the reference evaluator;
    SelfTerminated is replayed on the bare machine; Proved is re-checked
    against the statement.  Exhausted has nothing to audit, which the
    record states with an ``audit_passed`` of None.
    """
    runner = TrioRun(task)
    verdict = runner.run()
    if isinstance(verdict, Found):
        audit = _audit_found(task, verdict, max(runner.t1_granted, 1))
    elif isinstance(verdict, SelfTerminated):
        audit = replay_verify(task.t2_machine, task.t2_input, verdict.loop)
    elif isinstance(verdict, Proved):
        audit = check_certificate(verdict.certificate, runner.statement)
    else:
        audit = None
    return TrioRecord(
        label=label,
        verdict=verdict,
        audit_passed=audit,
        rounds_run=runner.rounds_run,
        counters={name: getattr(runner, name) for name in TrioRun.COUNTERS},
    )
