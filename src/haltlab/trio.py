"""Cooperative three-way search over one extension question.

Given an expression G of arity n + 1 with its first n arguments fixed,
three searchers race, interleaved deterministically:

* T1 evaluates G(fixed, y) for y = 0, 1, 2, ... under a fuel meter,
  looking for the least y with value 0.  It never skips a candidate, so
  a diverging candidate stalls it — which is the correct reading of
  minimization's side condition.  It validates and compiles G once per
  run, into a ``CompiledTerm``, and evaluates every candidate with it.
* T2 runs a designated machine from the blank tape under the loop
  oracle, watching for the machine to return to an earlier
  configuration.
* T3 walks the canonical certificate enumeration, checking each
  candidate against the statement "G(fixed, ·) is nowhere zero".

Scheduling is round-robin with a fixed quantum: every round grants T1
that many fuel units, then T2 that many machine steps, then T3 that
many certificate candidates, always in that order, so ties go to T1
over T2 over T3.  This is cooperative time-slicing in one thread; no
operating-system parallelism is involved, and two runs of the same task
are step-for-step identical.

A searcher that can no longer win is not stepped again, but its grants
and counters are tallied as if it were.  T2 has lost once its machine
halts, reaches its history cap or is proven to run a translated cycle,
which neither halts nor repeats; T3 has lost once its enumeration runs
dry.  Once both have lost, the rounds in which T1 provably neither
evaluates nor commits are granted at once, so a run's cost grows with
what the searchers do rather than with the rounds it lasts.

A candidate's evaluation cost does not depend on the fuel offered, so
T1 may evaluate ahead of its grant: it keeps a finished result, and the
largest fuel known to be too little, across rounds instead of starting
an unfinished candidate again from scratch.  It still commits a result
in exactly the round where the fuel granted so far covers its cost,
so verdicts and counters are those of a search that only ever spends
its grant.  A new candidate's first try is offered twice the cost of
the one before, which usually covers it, and failed tries on one
candidate at least double their fuel.  No try exceeds what T1 can
still be granted, nor the slack that keeps the fuel T1 evaluates
(``t1_evaluated``) within four times ``t1_granted``.

The verdict is fourfold.  Found, SelfTerminated and Proved mirror the
three ways a searcher can win; Exhausted reports that the round budget
ran out with no winner.  The fourth outcome is not decoration: the
other three cannot cover every task, because T1's target may have no
zero, T2's machine may run forever without repeating, and T3's rule set
is incomplete.  ``reading`` is the one reading of a verdict: its tag
(one of ``VERDICT_TAGS``), its detail and its extension value — the
found zero for Found, zero for SelfTerminated and Proved, and an
explicit Undetermined (not a number) for Exhausted.  ``extend`` and
the fixture reports read it.
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
    be naturals, and ``t2_history_cap`` must be None or a natural.
    ``t2_machine`` is part of the task, not derived from the expression:
    which machine to watch is the caller's (or the fixture author's)
    choice.  T2 watches it from the blank tape.  ``budget``
    counts whole rounds; ``quantum`` is the per-searcher grant within a
    round.
    """

    g_body: RecExpr
    fixed_args: tuple[int, ...]
    t2_machine: Machine
    quantum: int = 50
    budget: int = 100
    max_cert_size: int = 4
    t2_history_cap: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_args", tuple(self.fixed_args))
        n = arity(self.g_body)
        if n != len(self.fixed_args) + 1:
            raise ValueError(
                f"g_body arity {n} does not match {len(self.fixed_args)} fixed arguments"
            )
        if any(a < 0 for a in self.fixed_args):
            raise ValueError(f"fixed_args must be naturals, got {self.fixed_args}")
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
    """The extension value when the search was exhausted; not a number.

    ``UNDETERMINED`` is the one instance: ``reading`` returns it, and
    readers test for it with ``is``.
    """

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

    T1 offers a try ``min(reach, slack, max(available, 2 * short,
    2 * last))`` fuel: ``reach`` is the most it can still be granted,
    ``slack`` is ``4 * t1_granted - t1_evaluated``, ``short`` the largest
    fuel known too little for the current candidate and ``last`` the
    cost of the candidate before.  So ``t1_evaluated <= 4 * t1_granted``,
    and the slack never cuts below ``max(available, 2 * short)``: by
    induction, with nothing pending, failed fuel is at most ``2 *
    t1_spent + 2 * short`` (a candidate's failures double, so they sum
    to under twice the last, which is under its cost), and T1 tries only
    while ``short < available``, when the slack exceeds ``t1_spent + 2 *
    available``.  A failed try cut by ``reach`` is T1's last.

    A lost searcher is no longer stepped; its counters read as if it
    were, and rounds in which no searcher can act are granted in one
    step.  Every counter, ``rounds_run`` and the verdict are those of a
    run that polls all three searchers in every round.
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
        # candidate, its finished (value, cost) once known, and the cost
        # of the candidate committed before it.
        self._t1_short = 0
        self._t1_last = 0
        self._t1_pending: tuple[int, int] | None = None
        self.t2_granted = 0
        self._t2 = OracleRun(task.t2_machine, (), max_history=task.t2_history_cap)
        self.t3_granted = 0
        self.t3_checked = 0
        self._t3_candidates: Iterator[Certificate] = enumerate_certificates(
            self.statement, task.max_cert_size
        )
        self._t3_dry = False
        self._verdict: TrioVerdict | None = None

    @property
    def t2_steps(self) -> int:
        t2 = self._t2
        if t2.outcome is not None:
            return t2.steps
        # Without an outcome T2 has run every unit granted, or would have
        # had a proven cycle not stopped its stepping; its cap clips both.
        cap = t2.max_history
        return self.t2_granted if cap is None else min(self.t2_granted, cap)

    @property
    def _t2_lost(self) -> bool:
        """Halted, capped, looped or proven to cycle: T2 has nothing more to say."""
        return self._t2.outcome is not None or self._t2.translation is not None

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
                # Evaluate ahead of the grant: twice the fuel of the last
                # failure, or twice the cost of the candidate before, but
                # never past the most T1 can ever hold nor past the slack
                # left under 4 * t1_granted, which always exceeds both
                # available and 2 * short (see the class docstring).
                reach = available + quantum * (self.task.budget - self.rounds_run)
                slack = 4 * self.t1_granted - self.t1_evaluated
                fuel = min(reach, slack, max(available, 2 * short, 2 * self._t1_last))
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
            self._t1_last = cost
            self.t1_spent += cost
            available -= cost
            if value == 0:
                return Found(self._t1_candidate, self.t1_spent)
            self._t1_candidate += 1
        return None

    def _advance_t2(self) -> SelfTerminated | None:
        self.t2_granted += self.task.quantum
        if self._t2_lost:
            return None
        outcome = self._t2.advance(self.task.quantum)
        return SelfTerminated(outcome) if isinstance(outcome, LoopDetected) else None

    def _advance_t3(self) -> Proved | None:
        self.t3_granted += self.task.quantum
        if self._t3_dry:
            return None
        for _ in range(self.task.quantum):
            candidate = next(self._t3_candidates, None)
            if candidate is None:
                self._t3_dry = True
                return None
            self.t3_checked += 1
            if check_certificate(candidate, self.statement):
                return Proved(candidate)
        return None

    def run(self) -> TrioVerdict:
        if self._verdict is not None:
            return self._verdict
        verdict: TrioVerdict | None = None
        budget = self.task.budget
        while self.rounds_run < budget:
            if self._t3_dry and self._t2_lost:
                self._grant_idle_rounds()
                if self.rounds_run == budget:
                    break
            self.rounds_run += 1
            verdict = self._advance_t1() or self._advance_t2() or self._advance_t3()
            if verdict is not None:
                break
        if verdict is None:
            verdict = Exhausted(self.task.budget)
        self._verdict = verdict
        return verdict

    def _grant_idle_rounds(self) -> None:
        """Grant at once the coming rounds in which T1 does nothing.

        Only T1 can still act.  It stays idle in a round while what it
        holds after that round's grant is at most the fuel known to be
        too little, or below the cost of the result waiting to commit.
        """
        quantum = self.task.quantum
        pending = self._t1_pending
        bar = self._t1_short if pending is None else pending[1] - 1
        available = self.t1_granted - self.t1_spent
        skip = min(self.task.budget - self.rounds_run, (bar - available) // quantum)
        if skip > 0:
            units = quantum * skip
            self.rounds_run += skip
            self.t1_granted += units
            self.t2_granted += units
            self.t3_granted += units


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

    ``counters`` holds every ``TrioRun`` counter: the units granted to
    each searcher and what each spent.
    """

    label: str
    verdict: TrioVerdict
    audit_passed: bool | None
    rounds_run: int
    counters: dict[str, int] = field(default_factory=dict)


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
        audit = replay_verify(task.t2_machine, (), verdict.loop)
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
