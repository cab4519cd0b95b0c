"""Deterministic generators shared across the test suite.

Bulk corpora (the differential sweep, the parser fuzz, the confined
family) are driven by seeded ``random.Random`` instances rather than
hypothesis so their sizes are exact and their contents reproducible;
hypothesis strategies live here too for the property tests that want
shrinking.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import replace

from hypothesis import strategies as st

from haltlab import experiments
from haltlab.machine import LEFT, RIGHT, Machine
from haltlab.oracle import Halted, LoopDetected
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
from haltlab.trio import Found, TrioRun


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


class RestartingTrioRun(TrioRun):
    """The trio with T1 as first specified: evaluate only within the grant.

    Each round T1 evaluates the current candidate with exactly the fuel
    granted and not yet spent, and a candidate that does not finish is
    evaluated again from scratch next round with the larger allowance.
    ``TrioRun`` must match this step for step in every counter but
    ``t1_evaluated``, which this copy leaves at 0.
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


def tamper_one_leaf(monkeypatch, kind: type) -> list[dict[int, int]]:
    """Make ``experiments.sweep_leaves`` yield one false claim: the first
    leaf of outcome type ``kind`` halts one step late (Halted) or loops
    with its period plus one (LoopDetected), which is false for a loop of
    period 2 or more.  The real walk still runs, and still refuses bad
    arguments at its call.  Returns the list that receives the tampered
    leaf's decided slots."""
    walk = experiments.sweep_leaves
    tampered: list[dict[int, int]] = []

    def sweep_leaves(*args, **kwargs):
        leaves = walk(*args, **kwargs)

        def tampering():
            for decided, outcome, ran in leaves:
                if not tampered and isinstance(outcome, kind):
                    if kind is Halted:
                        outcome = replace(outcome, steps=outcome.steps + 1)
                    else:
                        outcome = replace(outcome, period=outcome.period + 1)
                    tampered.append(decided)
                yield decided, outcome, ran

        return tampering()

    monkeypatch.setattr(experiments, "sweep_leaves", sweep_leaves)
    return tampered
