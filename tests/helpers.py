"""Deterministic generators shared across the test suite.

Bulk corpora (the differential sweep, the parser fuzz, the confined
family) are driven by seeded ``random.Random`` instances rather than
hypothesis so their sizes are exact and their contents reproducible;
hypothesis strategies live here too for the property tests that want
shrinking.
"""

from __future__ import annotations

import io
import random
from collections.abc import Iterable
from dataclasses import replace

from hypothesis import strategies as st

from haltlab import experiments
from haltlab.machine import LEFT, RIGHT, Machine
from haltlab.oracle import Halted, LoopDetected, OracleRun
from haltlab.recfun import (
    Compose,
    FuelExhausted,
    Mu,
    PrimRec,
    Proj,
    RecExpr,
    Succ,
    Zero,
    evaluate,
    evaluate_costed,
)
from haltlab.trio import Exhausted, Found, SelfTerminated, TrioRun, TrioVerdict


def gen_leaf(rng: random.Random, n_args: int) -> RecExpr:
    choices: list[RecExpr] = [Proj(i, n_args) for i in range(1, n_args + 1)]
    if n_args == 1:
        choices += [Zero(), Succ()]
    return rng.choice(choices)


def gen_expr(rng: random.Random, n_args: int, depth: int) -> RecExpr:
    """A random well-arity expression of the given arity.

    Leaf-heavy by design: towers of primitive recursion blow up
    evaluation cost fast, and minimization is kept rare because most
    random bodies never reach zero and only burn fuel.
    """
    if n_args < 1:
        raise ValueError("generator only builds positive arities")
    if depth <= 0:
        return gen_leaf(rng, n_args)
    roll = rng.random()
    if roll < 0.30:
        return gen_leaf(rng, n_args)
    if roll < 0.72:
        width = rng.randint(1, 3)
        outer = gen_expr(rng, width, depth - 1)
        inners = tuple(gen_expr(rng, n_args, depth - 1) for _ in range(width))
        return Compose(outer, inners)
    if roll < 0.94 and n_args >= 2:
        base = gen_expr(rng, n_args - 1, depth - 1)
        step = gen_expr(rng, n_args + 1, depth - 1)
        return PrimRec(base, step)
    return Mu(gen_expr(rng, n_args + 1, depth - 1))


def gen_machine(rng: random.Random, states: int, symbols: int, density: float = 0.85) -> Machine:
    """A random partial transition table over the full slot grid."""
    table = {}
    for state in range(states):
        for symbol in range(symbols):
            if rng.random() < density:
                table[(state, symbol)] = (
                    rng.randrange(symbols),
                    LEFT if rng.random() < 0.5 else RIGHT,
                    rng.randrange(states),
                )
    return Machine(states, symbols, table)


def confined_machine(
    rng: random.Random,
    cells: int = 3,
    alphabet: int = 2,
    absent_rate: float = 0.15,
) -> Machine:
    """A machine structurally unable to leave cells 0..cells-1.

    State i is only ever entered with the head on cell i: every
    transition out of state i moves to an adjacent cell and switches to
    that cell's state, and the edge states only move inward.  The head
    therefore stays inside the window whatever the table writes, so on
    blank input at most states * alphabet**cells distinct configurations
    exist.  Missing slots (absent_rate) make some members halt.
    """
    if cells < 2:
        raise ValueError("the window needs at least two cells")
    table = {}
    for cell in range(cells):
        for symbol in range(alphabet):
            if rng.random() < absent_rate:
                continue
            if cell == 0:
                move = RIGHT
            elif cell == cells - 1:
                move = LEFT
            else:
                move = LEFT if rng.random() < 0.5 else RIGHT
            target = cell + 1 if move == RIGHT else cell - 1
            table[(cell, symbol)] = (rng.randrange(alphabet), move, target)
    return Machine(cells, alphabet, table)


def shuttle_machine(k: int) -> Machine:
    """A machine that walks k cells right and k cells back, forever.

    It writes nothing, so it returns to its start configuration after
    exactly 2k steps: a loop the oracle sees late, unlike the bouncer's.
    """
    n = 2 * k
    return Machine(n, 2, {(s, 0): (0, RIGHT if s < k else LEFT, (s + 1) % n) for s in range(n)})


@st.composite
def machines(draw, max_states: int = 3, max_symbols: int = 3):
    """Hypothesis strategy for small valid machines."""
    n = draw(st.integers(1, max_states))
    m = draw(st.integers(1, max_symbols))
    table = {}
    for state in range(n):
        for symbol in range(m):
            if draw(st.booleans()):
                write = draw(st.integers(0, m - 1))
                move = draw(st.sampled_from((LEFT, RIGHT)))
                nxt = draw(st.integers(0, n - 1))
                table[(state, symbol)] = (write, move, nxt)
    return Machine(n, m, table)


def history_len(orun: OracleRun) -> int:
    """The configurations an oracle run's outcome accounts for: s + 1
    after s executed steps (the initial configuration comes before step
    0), less the repeat once a loop is detected.

    A run records them only when it must.  A first slice that a head
    record at or past its end proves loop-free (the record lemma in the
    ``oracle`` module docstring) keeps no history, nor does a run that
    coasts through a proven translated cycle; the count is the same,
    and the history cap (``--history-cap``) counts every step either
    way."""
    return orun.steps + (not isinstance(orun.outcome, LoopDetected))


class NotBooleanError(ValueError):
    """A value outside {0, 1} came out of an expression flagged as a relation."""

    def __init__(self, value: int) -> None:
        super().__init__(f"characteristic value must be 0 or 1, got {value}")
        self.value = value


def char_value(expr: RecExpr, args: Iterable[int], fuel: int) -> int | FuelExhausted:
    """Evaluate an expression flagged as a relation's characteristic function.

    By convention 0 means the relation holds and 1 means it does not.
    Any other value signals a mis-flagged expression and raises
    NotBooleanError.  Fuel exhaustion passes through untouched.
    """
    result = evaluate(expr, args, fuel)
    if isinstance(result, FuelExhausted):
        return result
    if result not in (0, 1):
        raise NotBooleanError(result)
    return result


class RoundByRoundTrioRun(TrioRun):
    """The trio polling all three searchers in every round.

    T2's oracle run is advanced every round, also once it has halted,
    reached its cap or proven a translated cycle, and ``t2_steps`` is
    the run's own count; no round is granted ahead.  ``TrioRun`` must
    match this in the verdict, ``rounds_run`` and every counter.
    """

    @property
    def t2_steps(self) -> int:
        return self._t2.steps

    def _advance_t2(self) -> SelfTerminated | None:
        self.t2_granted += self.task.quantum
        outcome = self._t2.advance(self.task.quantum)
        if isinstance(outcome, LoopDetected):
            return SelfTerminated(outcome)
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


class RestartingTrioRun(RoundByRoundTrioRun):
    """The trio with T1 as first specified: evaluate only within the grant.

    Each round T1 evaluates the current candidate with exactly the fuel
    granted and not yet spent, and a candidate that does not finish is
    evaluated again from scratch next round with the larger allowance.
    It polls every searcher in every round, as ``RoundByRoundTrioRun``
    does.  ``TrioRun`` must match this step for step in every counter
    but ``t1_evaluated``, which this copy leaves at 0.
    """

    def _advance_t1(self) -> Found | None:
        self.t1_granted += self.task.quantum
        available = self.t1_granted - self.t1_spent
        while available > 0:
            value, cost = evaluate_costed(
                self.task.g_body, self.task.fixed_args + (self._t1_candidate,), available
            )
            if value is None:
                return None
            self.t1_spent += cost
            available -= cost
            if value == 0:
                return Found(self._t1_candidate, self.t1_spent)
            self._t1_candidate += 1
        return None


def rowwise_report_csv(report: experiments.ClassificationReport) -> str:
    """A report's CSV rendered one line per row, id by id: the reference
    ``experiments.write_report_csv`` must match byte for byte.  Like it,
    it renders each (outcome object, audit flag) pair's fields once."""
    buffer = io.StringIO()
    buffer.write(experiments._csv_text(experiments.CSV_COLUMNS))
    rendered: dict[tuple[int, bool | None], str] = {}
    for machine_id, outcome, audit in zip(report.ids, report.outcomes, report.audits):
        tail = rendered.get((id(outcome), audit))
        if tail is None:
            flag = "" if audit is None else str(audit).lower()
            tail = experiments._csv_text((*experiments._outcome_fields(outcome), flag))
            rendered[(id(outcome), audit)] = tail
        buffer.write(machine_id + "," + tail)
    return buffer.getvalue()


def rowwise_census(outcomes, audits) -> dict:
    """The census of a report's columns, taken row by row: the reference
    for the one ``experiments.classify_all`` totals from its leaves, as
    ``ClassificationReport`` keyword arguments."""
    tags = ["halted" if isinstance(o, Halted) else "loop_detected"
            if isinstance(o, LoopDetected) else "budget_exceeded" for o in outcomes]
    halts = [o.steps for o in outcomes if isinstance(o, Halted)]
    return {
        "counts": {tag: tags.count(tag) for tag in ("halted", "loop_detected", "budget_exceeded")},
        "max_halt_steps": max(halts, default=None),
        "all_audits_passed": all(a is not False for a in audits),
    }


def orbit_key(
    decided: dict[int, int], states: int, symbols: int, mirrors: bool
) -> tuple[tuple[int, int], ...]:
    """The spelling every leaf of one sweep orbit shares, under relabelling
    the non-start states and, when ``mirrors``, L<->R mirroring.

    The states are relabelled in order of first appearance along
    ``decided``, whose slots come in the order the walk decided them, and
    the leaf is spelled as its (slot, option) pairs in that order; with
    ``mirrors``, the smaller of that spelling and its mirror image.  An
    absent entry (option 0) names only its slot's state.  This is the
    sweep's old per-node orbit key, kept as the reference for its
    grouping of leaves.
    """
    label = {0: 0}
    plain, mirror = [], []
    for k, d in decided.items():
        state, symbol = divmod(k, symbols)
        label.setdefault(state, len(label))
        slot = label[state] * symbols + symbol
        if not d:
            plain.append((slot, 0))
            mirror.append((slot, 0))
            continue
        # Option d >= 1 is 1 + (write, move, next state) in mixed radix,
        # so pair = write * 2 + move, and L = 0.
        pair, nxt = divmod(d - 1, states)
        label.setdefault(nxt, len(label))
        plain.append((slot, 1 + pair * states + label[nxt]))
        mirror.append((slot, 1 + (pair ^ 1) * states + label[nxt]))
    return min(tuple(plain), tuple(mirror)) if mirrors else tuple(plain)


def tamper_one_leaf(monkeypatch, kind: type) -> list[dict[int, int]]:
    """Make ``experiments.sweep_leaves`` yield one false claim: the first
    leaf of outcome type ``kind`` that covers more than one machine halts
    one step late (Halted) or, among loops of period 2 or more, loops
    with its period plus one (LoopDetected).  Neither depends on the
    order the walk yields its leaves in.  The real walk still runs, and
    still refuses bad arguments at its call.  Returns the list that
    receives the tampered leaf's decided slots."""
    walk = experiments.sweep_leaves
    tampered: list[dict[int, int]] = []

    def sweep_leaves(mclass, *args, **kwargs):
        leaves = walk(mclass, *args, **kwargs)
        slots = mclass.state_count * mclass.alphabet_size

        def tampering():
            for decided, outcome, ran in leaves:
                if not tampered and isinstance(outcome, kind) and len(decided) < slots:
                    if kind is Halted:
                        outcome = replace(outcome, steps=outcome.steps + 1)
                        tampered.append(decided)
                    elif outcome.period >= 2:
                        outcome = replace(outcome, period=outcome.period + 1)
                        tampered.append(decided)
                yield decided, outcome, ran

        return tampering()

    monkeypatch.setattr(experiments, "sweep_leaves", sweep_leaves)
    return tampered
