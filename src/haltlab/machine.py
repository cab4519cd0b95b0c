"""Deterministic single-tape Turing machines.

The model is deliberately small: states and tape symbols are integers,
symbol 0 is the blank, and the tape is unbounded in both directions.  A
machine's transition table is a partial map; a configuration with no
applicable transition halts.  There is no stay-put move.

Configurations ("instantaneous descriptions") are immutable values with
structural equality, so they can key dictionaries and be compared across
independent runs.  The tape inside a configuration is canonical: blank
cells are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

BLANK = 0
LEFT = "L"
RIGHT = "R"
MOVES = (LEFT, RIGHT)

# (write symbol, move, next state)
Transition = tuple[int, str, int]


class MachineError(ValueError):
    """Raised when a machine or an input is structurally invalid."""


@dataclass(frozen=True)
class Machine:
    """A deterministic Turing machine with a partial transition table.

    ``transitions`` maps (state, scanned symbol) to (write symbol, move,
    next state).  Determinism is inherent to the map representation; a
    missing key means the machine halts in that configuration.  All
    indices are validated eagerly, so simulation never range-checks.
    """

    state_count: int
    alphabet_size: int
    transitions: Mapping[tuple[int, int], Transition]
    start_state: int = 0

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise MachineError("state_count must be at least 1")
        if self.alphabet_size < 1:
            raise MachineError("alphabet_size must be at least 1")
        if not 0 <= self.start_state < self.state_count:
            raise MachineError(f"start state {self.start_state} out of range")
        table = {}
        for key, rule in dict(self.transitions).items():
            state, symbol = key
            write, move, nxt = rule
            if not 0 <= state < self.state_count:
                raise MachineError(f"transition {key}: state {state} out of range")
            if not 0 <= symbol < self.alphabet_size:
                raise MachineError(f"transition {key}: symbol {symbol} out of range")
            if not 0 <= write < self.alphabet_size:
                raise MachineError(f"transition {key}: write symbol {write} out of range")
            if move not in MOVES:
                raise MachineError(f"transition {key}: move must be L or R, got {move!r}")
            if not 0 <= nxt < self.state_count:
                raise MachineError(f"transition {key}: next state {nxt} out of range")
            table[(state, symbol)] = (write, move, nxt)
        object.__setattr__(self, "transitions", table)


@dataclass(frozen=True)
class InstantaneousDescription:
    """One machine configuration: control state, head position, tape.

    ``tape`` is a tuple of (cell, symbol) pairs sorted by cell, with
    blank cells omitted.  That canonical form makes equality and hashing
    structural: two descriptions are the same configuration exactly when
    the dataclass fields compare equal.
    """

    state: int
    head: int
    tape: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_tape(cls, state: int, head: int, cells: Mapping[int, int]) -> "InstantaneousDescription":
        """Build a canonical description from any cell mapping."""
        pruned = tuple(sorted((p, s) for p, s in cells.items() if s != BLANK))
        return cls(state, head, pruned)

    def tape_dict(self) -> dict[int, int]:
        return dict(self.tape)

    def symbol_at(self, cell: int) -> int:
        for pos, sym in self.tape:
            if pos == cell:
                return sym
        return BLANK


def initial_id(machine: Machine, input_symbols: Iterable[int] = ()) -> InstantaneousDescription:
    """The starting configuration: input written at cells 0.., head at 0.

    Blank symbols inside the input are simply not stored, which keeps the
    tape canonical.  Out-of-range symbols are rejected.
    """
    cells = {}
    for i, sym in enumerate(input_symbols):
        if not 0 <= sym < machine.alphabet_size:
            raise MachineError(f"input symbol {sym} at cell {i} out of range")
        if sym != BLANK:
            cells[i] = sym
    return InstantaneousDescription.from_tape(machine.start_state, 0, cells)


def step(machine: Machine, desc: InstantaneousDescription) -> InstantaneousDescription | None:
    """Apply one transition.  Returns the successor, or None on halt.

    A single step touches only the scanned cell, so the successor differs
    from ``desc`` in at most that cell, the head position, and the state.
    """
    scanned = desc.symbol_at(desc.head)
    rule = machine.transitions.get((desc.state, scanned))
    if rule is None:
        return None
    write, move, nxt = rule
    cells = desc.tape_dict()
    if write == BLANK:
        cells.pop(desc.head, None)
    else:
        cells[desc.head] = write
    head = desc.head + (1 if move == RIGHT else -1)
    return InstantaneousDescription.from_tape(nxt, head, cells)
