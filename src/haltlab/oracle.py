"""Loop detection by exhaustive configuration recording.

``run_with_oracle`` simulates a machine while recording every
configuration it passes through.  The moment the current configuration
equals an earlier one, the run is reported as looping, with the index of
the first occurrence and the period.  Determinism makes this sound: once
a configuration repeats, the machine replays the same segment forever.

The recorder is hash-indexed.  Each configuration contributes a 64-bit
fingerprint maintained incrementally (one step changes at most one cell,
the head, and the state, so the fingerprint is updated in constant
time).  A fingerprint hit is never trusted on its own: the candidate
earlier configuration is rebuilt by deterministic re-simulation and
compared field by field.  False fingerprint collisions therefore cost
time, never correctness, and the recorder needs only a constant amount
of memory per recorded step no matter how large the tape grows.

Detection checks the configuration reached *after* each executed step
against all earlier ones, so a loop that first returns to index i with
period p is reported at step i + p exactly.  Budgets count executed
steps; discovering that no transition applies consumes none, so a halt
at step s is reported as Halted(s) even when s equals the budget.

Two loops step a machine here.  ``PlainRun.execute`` is the one plain
kernel: ``run``, every branch of ``replay_verify``, the re-simulation
that confirms a fingerprint hit, and the experiments' growth profile
all rest on it.  ``OracleRun.advance`` is the one recording loop.  It
stays separate because it folds each step's cell, head and state change
into the fingerprint and probes the history as it goes; routing it
through the kernel would cost a call per step on the path that decides
every verdict.  ``machine.step`` remains the independent reference both
are tested against.

The one outcome this module cannot produce is "runs forever without
repeating".  Machines that grow their tape monotonically (the
right-runner is the canonical witness) never revisit a configuration,
and every budget ends in BudgetExceeded.  That gap is structural, not a
bug; the experiments module demonstrates it explicitly.  No attempt is
made to recognize translated or otherwise transformed recurrences:
equality here is exact equality of configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .machine import (
    BLANK,
    InstantaneousDescription,
    Machine,
    RIGHT,
    initial_id,
)

_M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64 finalizer; the fingerprint tables are filled from it."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


# Lazily filled fingerprint tables, deterministic across runs and
# processes (no dependence on PYTHONHASHSEED).  Cell keys fold the cell
# index and symbol together; the multiplier keeps them injective for any
# alphabet a desk-scale experiment will ever use.
_Z_CELL: dict[int, int] = {}
_Z_STATE: dict[int, int] = {}
_Z_HEAD: dict[int, int] = {}
_CELL_FOLD = 1048573


def _zcell(cell: int, symbol: int) -> int:
    key = cell * _CELL_FOLD + symbol
    v = _Z_CELL.get(key)
    if v is None:
        v = _Z_CELL[key] = _mix(key * 3 + 1)
    return v


def _zstate(state: int) -> int:
    v = _Z_STATE.get(state)
    if v is None:
        v = _Z_STATE[state] = _mix(state * 3 + 2)
    return v


def _zhead(head: int) -> int:
    v = _Z_HEAD.get(head)
    if v is None:
        v = _Z_HEAD[head] = _mix(head * 3)
    return v


@dataclass(frozen=True)
class Halted:
    """The machine ran out of applicable transitions after ``steps`` steps."""

    steps: int
    final_id: InstantaneousDescription


@dataclass(frozen=True)
class LoopDetected:
    """The configuration at ``first_index`` recurred ``period`` steps later."""

    first_index: int
    period: int


@dataclass(frozen=True)
class BudgetExceeded:
    """Neither halt nor repetition within the allotted resources.

    ``history_capped`` distinguishes "step budget spent" from "recorder
    entry cap reached"; both are honest non-answers.
    """

    steps: int
    last_id: InstantaneousDescription
    history_capped: bool = False


RunOutcome = Halted | LoopDetected | BudgetExceeded


class PlainRun:
    """The plain stepping kernel: a resumable run with no recording.

    ``execute(n)`` runs at most n steps in place on ``state``, ``head``,
    ``tape`` and ``steps`` and says whether the machine halted first.
    """

    def __init__(self, machine: Machine, input_symbols: Iterable[int] = ()) -> None:
        start = initial_id(machine, tuple(input_symbols))
        self._m = m = machine.alphabet_size
        # (state, symbol) folded to one int key; moves as head offsets
        self._table = {
            s * m + r: (w, 1 if mv == RIGHT else -1, ns)
            for (s, r), (w, mv, ns) in machine.transitions.items()
        }
        self.state = start.state
        self.head = start.head
        self.tape = start.tape_dict()
        self.steps = 0

    def snapshot(self) -> InstantaneousDescription:
        return InstantaneousDescription.from_tape(self.state, self.head, self.tape)

    def at_halt(self) -> bool:
        scanned = self.tape.get(self.head, BLANK)
        return (self.state * self._m + scanned) not in self._table

    def execute(self, n: int) -> bool:
        table = self._table
        m = self._m
        tape = self.tape
        state = self.state
        head = self.head
        for done in range(n):
            rule = table.get(state * m + tape.get(head, 0))
            if rule is None:
                self.state, self.head, self.steps = state, head, self.steps + done
                return True
            write, move, state = rule
            if write:
                tape[head] = write
            else:
                tape.pop(head, None)
            head += move
        self.state, self.head, self.steps = state, head, self.steps + max(n, 0)
        return False


class OracleRun(PlainRun):
    """An incremental oracle-observed run, advanced in bounded slices.

    ``advance(n)`` executes at most n steps and returns the outcome as
    soon as one is decided, else None.  Once decided, the outcome is
    sticky.  ``history_len`` counts recorded configurations; after s
    executed steps with no repetition it is exactly s + 1 (the initial
    configuration is recorded before step 0).  Steps go through
    ``advance`` only: the inherited ``execute`` skips the fingerprint.
    """

    def __init__(
        self,
        machine: Machine,
        input_symbols: Iterable[int] = (),
        max_history: int | None = None,
    ) -> None:
        self.machine = machine
        self.input = tuple(input_symbols)
        super().__init__(machine, self.input)
        self.max_history = max_history
        self.outcome: RunOutcome | None = None
        h = _zstate(self.state) ^ _zhead(self.head)
        for cell, sym in self.tape.items():
            h ^= _zcell(cell, sym)
        self._hash = h
        # fingerprint -> first step index, or list of step indices when
        # distinct configurations happen to share a fingerprint
        self._hist: dict[int, int | list[int]] = {h: 0}
        self.history_len = 1
        if max_history is not None and self.history_len > max_history:
            self.outcome = BudgetExceeded(0, self.snapshot(), history_capped=True)

    def _confirmed_first_index(self, bucket: int | list[int]) -> int | None:
        """Re-simulate to weed fingerprint collisions out of a hit.

        Returns the smallest recorded index whose configuration equals
        the current one, or None if every index in the bucket was a
        false collision.
        """
        indices = (bucket,) if isinstance(bucket, int) else bucket
        past = PlainRun(self.machine, self.input)
        for index in indices:  # ascending, and all before the current step
            past.execute(index - past.steps)
            if past.state == self.state and past.head == self.head and past.tape == self.tape:
                return index
        return None

    def advance(self, n: int) -> RunOutcome | None:
        if self.outcome is not None:
            return self.outcome
        table = self._table
        tape = self.tape
        hist = self._hist
        m = self._m
        cap = self.max_history
        state = self.state
        head = self.head
        h = self._hash
        t = self.steps
        outcome: RunOutcome | None = None
        for _ in range(n):
            scanned = tape.get(head, 0)
            rule = table.get(state * m + scanned)
            if rule is None:
                self.state, self.head, self._hash, self.steps = state, head, h, t
                outcome = Halted(t, self.snapshot())
                break
            write, move, nxt = rule
            if write != scanned:
                if scanned:
                    h ^= _zcell(head, scanned)
                if write:
                    h ^= _zcell(head, write)
                    tape[head] = write
                else:
                    del tape[head]
            h ^= _zhead(head)
            head += move
            h ^= _zhead(head)
            if nxt != state:
                h ^= _zstate(state) ^ _zstate(nxt)
                state = nxt
            t += 1
            prev = hist.get(h)
            if prev is not None:
                self.state, self.head, self._hash, self.steps = state, head, h, t
                first = self._confirmed_first_index(prev)
                if first is not None:
                    outcome = LoopDetected(first, t - first)
                    break
                if isinstance(prev, int):
                    hist[h] = [prev, t]
                else:
                    prev.append(t)
            else:
                hist[h] = t
            self.history_len += 1
            if cap is not None and self.history_len > cap:
                self.state, self.head, self._hash, self.steps = state, head, h, t
                outcome = BudgetExceeded(t, self.snapshot(), history_capped=True)
                break
        self.state, self.head, self._hash, self.steps = state, head, h, t
        if outcome is not None:
            self.outcome = outcome
        return outcome


def run(machine: Machine, input_symbols: Iterable[int] = (), budget: int = 10_000) -> Halted | BudgetExceeded:
    """Plain bounded simulation, no recording.

    The baseline the oracle is audited against: it shares the step
    semantics but none of the detection machinery.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    plain = PlainRun(machine, input_symbols)
    plain.execute(budget)
    if plain.at_halt():
        return Halted(plain.steps, plain.snapshot())
    return BudgetExceeded(plain.steps, plain.snapshot())


def run_with_oracle(
    machine: Machine,
    input_symbols: Iterable[int] = (),
    budget: int = 10_000,
    max_history: int | None = None,
) -> RunOutcome:
    """Simulate under the repetition recorder.

    Exactly one of the three outcomes is returned.  A halt discovered
    after the final budgeted step still reports Halted, because checking
    for an applicable transition executes nothing.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    oracle = OracleRun(machine, input_symbols, max_history=max_history)
    outcome = oracle.advance(budget)
    if outcome is not None:
        return outcome
    if oracle.at_halt():
        return Halted(oracle.steps, oracle.snapshot())
    return BudgetExceeded(oracle.steps, oracle.snapshot())


def replay_verify(machine: Machine, input_symbols: Iterable[int], outcome: RunOutcome) -> bool:
    """Audit an outcome by re-simulating without the oracle.

    Halted must halt at the exact step with the exact configuration;
    LoopDetected must satisfy configuration(first_index) ==
    configuration(first_index + period); BudgetExceeded must reach the
    claimed step count alive with the claimed last configuration.
    """
    if isinstance(outcome, LoopDetected):
        if outcome.first_index < 0 or outcome.period < 1:
            return False
        plain = PlainRun(machine, input_symbols)
        if plain.execute(outcome.first_index):
            return False
        seen = (plain.state, plain.head, dict(plain.tape))
        return not plain.execute(outcome.period) and seen == (plain.state, plain.head, plain.tape)
    if not isinstance(outcome, (Halted, BudgetExceeded)) or outcome.steps < 0:
        return False
    plain = PlainRun(machine, input_symbols)
    if plain.execute(outcome.steps):
        return False
    if isinstance(outcome, Halted):
        return plain.at_halt() and plain.snapshot() == outcome.final_id
    return plain.snapshot() == outcome.last_id
