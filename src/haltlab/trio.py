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
is incomplete.  ``extend`` maps verdicts to extension values — the
found zero for Found, zero for SelfTerminated and Proved, and an
explicit Undetermined (not a number) for Exhausted.
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
    consumed, lookahead and unfinished attempts included.
    """

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


def extend(task: TrioTask) -> int | Undetermined:
    """The extension value at the task's fixed arguments.

    Found yields the witness itself; SelfTerminated and Proved both pin
    the value to 0; Exhausted yields Undetermined, because a spent
    budget justifies no number at all.
    """
    verdict = run_trio(task)
    if isinstance(verdict, Found):
        return verdict.k
    if isinstance(verdict, Exhausted):
        return UNDETERMINED
    return 0


@dataclass
class TrioRecord:
    """A verdict plus its audit and the fairness counters, for reports."""

    label: str
    verdict: TrioVerdict
    value: int | Undetermined
    audit_passed: bool | None
    audit_note: str
    rounds_run: int
    t1_granted: int
    t2_granted: int
    t3_granted: int
    counters: dict[str, int] = field(default_factory=dict)


def _audit_found(task: TrioTask, verdict: Found, fuel: int) -> tuple[bool, str]:
    # Re-check minimality with the reference evaluator: every earlier
    # candidate converged nonzero, the witness evaluates to zero.
    for candidate in range(verdict.k):
        value = oracle_evaluate(task.g_body, task.fixed_args + (candidate,), fuel)
        if isinstance(value, FuelExhausted) or value == 0:
            return False, f"candidate {candidate} does not precede the witness"
    value = oracle_evaluate(task.g_body, task.fixed_args + (verdict.k,), fuel)
    if value != 0:
        return False, f"witness {verdict.k} does not evaluate to zero"
    return True, "least-zero witness re-verified"


def classify_corpus_entry(task: TrioTask, label: str = "task") -> TrioRecord:
    """Run one task and audit whatever verdict came out.

    Found is re-verified as a least zero with the reference evaluator;
    SelfTerminated is replayed on the bare machine; Proved is re-checked
    against the statement.  Exhausted has nothing to audit, which the
    record states explicitly.
    """
    runner = TrioRun(task)
    verdict = runner.run()
    if isinstance(verdict, Found):
        audit, note = _audit_found(task, verdict, max(runner.t1_granted, 1))
        value: int | Undetermined = verdict.k
    elif isinstance(verdict, SelfTerminated):
        audit = replay_verify(task.t2_machine, task.t2_input, verdict.loop)
        note = "loop replayed on the bare machine" if audit else "loop replay failed"
        value = 0
    elif isinstance(verdict, Proved):
        audit = check_certificate(verdict.certificate, runner.statement)
        note = "certificate re-checked" if audit else "certificate re-check failed"
        value = 0
    else:
        audit = None
        note = "nothing to audit on an exhausted search"
        value = UNDETERMINED
    return TrioRecord(
        label=label,
        verdict=verdict,
        value=value,
        audit_passed=audit,
        audit_note=note,
        rounds_run=runner.rounds_run,
        t1_granted=runner.t1_granted,
        t2_granted=runner.t2_granted,
        t3_granted=runner.t3_granted,
        counters={
            "t1_spent": runner.t1_spent,
            "t1_evaluated": runner.t1_evaluated,
            "t2_steps": runner.t2_steps,
            "t3_checked": runner.t3_checked,
        },
    )
