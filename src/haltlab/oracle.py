"""Loop detection by exhaustive configuration recording.

``run_with_oracle`` simulates a machine while recording every
configuration it passes through.  The moment the current configuration
equals an earlier one, the run is reported as looping, with the index of
the first occurrence and the period.  Determinism makes this sound: once
a configuration repeats, the machine replays the same segment forever.

The recorder is hash-indexed.  The tape carries a 64-bit Zobrist
fingerprint maintained incrementally (one step changes at most one
cell, so it is updated in constant time), and each configuration is
keyed by that fingerprint xor head * state_count + state: head and
state are small integers and enter the key exactly.  A key hit is never
trusted on its own: the candidate earlier configuration is rebuilt by
deterministic re-simulation and compared field by field.  False
fingerprint collisions therefore cost time, never correctness, and the
recorder needs only a constant amount of memory per recorded step no
matter how large the tape grows.

Detection checks the configuration reached *after* each executed step
against all earlier ones, so a loop that first returns to index i with
period p is reported at step i + p exactly.  Budgets count executed
steps; discovering that no transition applies consumes none, so a halt
at step s is reported as Halted(s) even when s equals the budget.

Two loops step a machine here.  ``PlainRun.execute`` is the one plain
kernel: ``run``, every branch of ``replay_verify``, the re-simulation
that confirms a fingerprint hit, and the experiments' growth profile
all rest on it.  ``OracleRun.advance`` is the one recording loop.  It
stays separate because it folds each step's cell change into the
fingerprint and probes the history as it goes; routing it through the
kernel would cost a call per step on the path that decides every
verdict.  ``machine.step`` remains the independent reference both
are tested against.  A run that stops without a decided outcome asks
``PlainRun.stopped()`` for it, which is how ``run`` and
``run_with_oracle`` end; ``replay_verify`` judges its claims itself,
because a capped BudgetExceeded may stop on a halting configuration.

The one verdict this module does not give is "runs forever without
repeating".  Machines that grow their tape monotonically (the
right-runner is the canonical witness) never revisit a configuration,
and every budget ends in BudgetExceeded.  That gap is structural, not a
bug; the experiments module demonstrates it explicitly.

What the recording loop does recognize is a translated cycle, the
decider of that name in the bbchallenge project, in the spirit of
Marxen & Buntrock's macro machines.  A record is a step that takes the
head to a new rightmost (leftmost) cell lying beyond every nonblank
input cell, so the record cell and everything ahead of it are blank.
Take two right records in the same state, (t1, r1) and (t2, r2), and
let D = r1 - (the leftmost head position over [t1, t2]).  If
tape[r1-D .. r1] at t1 equals tape[r2-D .. r2] at t2, the run from t2
repeats the run from t1 shifted by s = r2 - r1 with period p = t2 - t1:
it reads only shifted copies of the cells the first stretch read.  It
never halts and never repeats a configuration.  Left records mirror
this.  Only consecutive records in one state are compared, so a cycle
whose period holds two records in a state with different cells behind
them goes unproven and is recorded step by step as before.

Once a cycle is proven the run stops recording and coasts.  Each whole
period lays one more copy of the same |s| cells behind the window and
carries the window s cells on, so skipping k periods adds k to a count
of laid copies and moves the window: the cost does not grow with k.
The copies stay out of the live tape dict, which keeps only what the
plain kernel can still reach, and a snapshot merges them back in.  The
lead-in and the remainder of a slice go through the plain kernel.  The
outcome is still the BudgetExceeded the recording loop would have
reached, at the same step and with the same configuration, because the
verdict's contract has no "never halts" case.  ``replay_verify`` never
relies on the proof: it steps every claim from the start.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
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
    """splitmix64 finalizer; each run's fingerprint table is filled from it."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


# Cell keys fold the cell index and symbol together; the multiplier
# keeps them injective for any alphabet a desk-scale experiment will
# ever use.
_CELL_FOLD = 1048573


class _CellTable(dict):
    """One run's fingerprint values by cell key, filled lazily from _mix.

    The values are pure functions of the keys, the same in every run and
    process (no dependence on PYTHONHASHSEED).  Each OracleRun holds its
    own table and drops it with its history once a cycle is proven, so
    no table outlives its run.  The fingerprint covers the tape only;
    head and state are small integers and enter the history key exactly.
    """

    def __missing__(self, key: int) -> int:
        value = self[key] = _mix(key * 3 + 1)
        return value


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
    entry cap reached"; both are honest non-answers.  ``last_id`` is the
    configuration the run stopped in, except in a sweep's budget leaves
    and report rows (``experiments.sweep_leaves``, ``classify_all``),
    which keep only the step count and the cap flag and hold None there.
    """

    steps: int
    last_id: InstantaneousDescription | None
    history_capped: bool = False


RunOutcome = Halted | LoopDetected | BudgetExceeded


class PlainRun:
    """The plain stepping kernel: a resumable run with no recording.

    ``execute(n)`` runs at most n steps in place on ``state``, ``head``,
    ``tape`` and ``steps`` and says whether the machine halted first.
    ``tape`` never holds a blank: the input is stored without its
    blanks, and a step that writes a blank pops the cell.  So the dict
    is already canonical, and ``snapshot`` only sorts it.
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
        # sorted gives a list, which tuple copies at its final size
        return InstantaneousDescription(self.state, self.head, tuple(sorted(self.tape.items())))

    def cell_count(self) -> int:
        """The number of non-blank cells."""
        return len(self.tape)

    def at_halt(self) -> bool:
        scanned = self.tape.get(self.head, BLANK)
        return (self.state * self._m + scanned) not in self._table

    def stopped(self) -> Halted | BudgetExceeded:
        """The outcome of stopping here: Halted when no rule applies, else
        BudgetExceeded.  Finding that no rule applies executes nothing."""
        if self.at_halt():
            return Halted(self.steps, self.snapshot())
        return BudgetExceeded(self.steps, self.snapshot())

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
    sticky.  ``history_len`` counts the configurations the history
    accounts for: s + 1 after s executed steps (the initial
    configuration is recorded before step 0), less the repeat once a
    loop is detected.  ``max_history``, None or a natural, caps it (a
    negative cap raises ValueError), and ``advance`` decides that stop:
    it runs no further than step ``max_history`` and reports reaching
    that step as a capped BudgetExceeded, unless the step closed a loop.
    The cap counts every step, also after a translated cycle is proven
    and the run stops storing fingerprints.
    ``translation`` is the proven cycle's witness.  Steps go through
    ``advance`` only: the inherited ``execute`` skips the fingerprint.

    ``tape`` is the whole tape until the run first skips periods of a
    proven cycle.  From then on it holds the cells before the laid
    region, the window, and the copies the kernel laid since the last
    skip; the copies behind them are kept as one count (see ``_jump``).
    ``snapshot`` and ``cell_count`` take them into account.
    """

    def __init__(
        self,
        machine: Machine,
        input_symbols: Iterable[int] = (),
        max_history: int | None = None,
    ) -> None:
        if max_history is not None and max_history < 0:
            raise ValueError("history cap must be nonnegative")
        self.machine = machine
        self.input = tuple(input_symbols)
        super().__init__(machine, self.input)
        self.max_history = max_history
        self.outcome: RunOutcome | None = None
        z = _CellTable()
        self._zobrist: _CellTable | None = z
        h = 0
        for cell, sym in self.tape.items():
            h ^= z[cell * _CELL_FOLD + sym]
        self._hash = h
        # key -> first step index, or list of step indices when distinct
        # configurations happen to share a key.  The key is the tape's
        # fingerprint xor head * state_count + state, so configurations
        # with equal tapes share one only when head and state agree too.
        key = h ^ (self.head * machine.state_count + self.state)
        self._hist: dict[int, int | list[int]] | None = {key: 0}
        # lo and hi start at the input's ends, so records start past the
        # input and every cell ahead of one is blank.  low (high) is the
        # leftmost (rightmost) head position since the last right (left)
        # record.
        ends = [self.head, *self.tape]
        self._lo, self._hi = min(ends), max(ends)
        self._low = self._high = self.head
        # per direction: state -> [step, cell, depth, window], see _record
        self._records: tuple[dict[int, list], dict[int, list]] | None = ({}, {})
        # first record step, period, shift, depth of a proven cycle
        self._cycle: tuple[int, int, int, int] | None = None
        # [start, copies, block] once a period is skipped, see _jump
        self._laid: list | None = None

    @property
    def translation(self) -> tuple[int, int, int] | None:
        """(first record step, period, shift) of the proven translated cycle, or None."""
        return None if self._cycle is None else self._cycle[:3]

    @property
    def history_len(self) -> int:
        """Configurations the history accounts for; see the class docstring."""
        return self.steps + (not isinstance(self.outcome, LoopDetected))

    def snapshot(self) -> InstantaneousDescription:
        pairs = sorted(self.tape.items())
        if self._laid is not None:
            start, copies, block = self._laid
            _, _, shift, _ = self._cycle
            width = len(block)
            size = copies * width
            if shift < 0:  # laid leftward from start
                start, block = start - size + 1, block[::-1]
            # one ascending run of pairs per non-blank cell of the block
            runs = [
                zip(range(start + i, start + size, width), repeat(sym))
                for i, sym in enumerate(block)
                if sym
            ]
            laid = list(runs[0]) if len(runs) == 1 else list(chain.from_iterable(zip(*runs)))
            # no live cell lies inside the region, so it goes in whole
            at = bisect_left(pairs, (start,))
            laid[:0] = pairs[:at]
            laid += pairs[at:]
            pairs = laid
        return InstantaneousDescription(self.state, self.head, tuple(pairs))

    def cell_count(self) -> int:
        if self._laid is None:
            return len(self.tape)
        _, copies, block = self._laid
        return len(self.tape) + copies * (len(block) - block.count(BLANK))

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
        cap = self.max_history
        if cap is not None:
            n = min(n, cap - self.steps)
        if self._cycle is None:
            n -= self._observe(n)
        if self.outcome is None and self._cycle is not None:
            self._coast(n)
        if self.outcome is None and cap is not None and self.steps >= cap:
            self.outcome = BudgetExceeded(self.steps, self.snapshot(), history_capped=True)
        return self.outcome

    def _observe(self, n: int) -> int:
        """The recording loop: at most n steps, stopping early at an
        outcome or at a proven translated cycle.  Returns the steps run."""
        table = self._table
        tape = self.tape
        hist = self._hist
        z = self._zobrist
        m = self._m
        states = self.machine.state_count
        state = self.state
        head = self.head
        h = self._hash
        t = start = self.steps
        lo, hi, low, high = self._lo, self._hi, self._low, self._high
        rights, lefts = self._records
        for _ in range(n):
            scanned = tape.get(head, 0)
            rule = table.get(state * m + scanned)
            if rule is None:
                self.state, self.head, self.steps = state, head, t
                self.outcome = Halted(t, self.snapshot())
                break
            write, move, state = rule
            if write != scanned:
                if scanned:
                    h ^= z[head * _CELL_FOLD + scanned]
                if write:
                    h ^= z[head * _CELL_FOLD + write]
                    tape[head] = write
                else:
                    del tape[head]
            head += move
            t += 1
            key = h ^ (head * states + state)
            prev = hist.get(key)
            if prev is not None:
                self.state, self.head, self.steps = state, head, t
                first = self._confirmed_first_index(prev)
                if first is not None:
                    self.outcome = LoopDetected(first, t - first)
                    break
                if isinstance(prev, int):
                    hist[key] = [prev, t]
                else:
                    prev.append(t)
            else:
                hist[key] = t
            if head > high:
                high = head
                if head > hi:
                    hi = head
                    if self._record(rights, t, head, state, low, 1):
                        break
                    low = head
            elif head < low:
                low = head
                if head < lo:
                    lo = head
                    if self._record(lefts, t, head, state, high, -1):
                        break
                    high = head
        self.state, self.head, self._hash, self.steps = state, head, h, t
        self._lo, self._hi, self._low, self._high = lo, hi, low, high
        if self._cycle is not None:
            self._hist = self._zobrist = self._records = None
        return t - start

    def _record(self, records: dict[int, list], t: int, head: int, state: int, far: int, d: int) -> bool:
        """Note a record toward d (1 right, -1 left); True once it proves a cycle.

        ``far`` is as far back as the head went since the previous
        record toward d.  Each state's entry holds its last record's
        step and cell, how far the head has fallen back behind that cell
        since, and the cells behind it at the time, nearest first.  That
        window is as long as the depth its own record measured, and a
        cycle is tested only when it covers the new depth.  The step at
        ``max_history`` proves nothing: its configuration is past the cap.
        """
        for entry in records.values():
            back = d * (entry[1] - far)
            if back > entry[2]:
                entry[2] = back
        entry = records.get(state)
        depth = 0 if entry is None else entry[2]
        tape = self.tape
        behind = tuple(tape.get(head - d * i, 0) for i in range(1, depth + 1))
        if entry is not None and t != self.max_history and depth <= len(entry[3]) and entry[3][:depth] == behind:
            self._cycle = (entry[0], t - entry[0], head - entry[1], depth)
            return True
        records[state] = [t, head, 0, behind]
        return False

    def _coast(self, n: int) -> None:
        """Run up to n steps of the proven cycle without recording.

        Whole periods from a step aligned with the proving records go
        through ``_jump``; the lead-in and the remainder go through the
        plain kernel, which cannot halt here.
        """
        first, period, _, _ = self._cycle
        target = self.steps + max(n, 0)
        lead = (first - self.steps) % period
        if lead <= target - self.steps:
            self.execute(lead)
            self._jump((target - self.steps) // period)
        self.execute(target - self.steps)

    def _jump(self, k: int) -> None:
        """Skip k whole periods from an aligned step.

        The head is on a record cell.  Behind it lie the window (the
        depth's cells and the head's own) and, behind that, a block of
        |shift| cells; everything ahead is blank.  Each period lays one
        more copy of the block and carries the window on by the shift.
        The copies are kept as a count, ``_laid`` = [start, copies,
        block]: from cell ``start`` on, toward the shift, ``copies``
        copies of ``block`` (its cells in that order), none of them in
        ``tape``.  The first jump makes the block behind the window the
        region's first copy.  The copies the kernel laid since the last
        jump lie between the region and the window; they equal the
        block by the proof, so each jump folds them into the count.
        The kernel never reads them, nor anything behind the window.
        """
        if k <= 0:
            return
        _, period, shift, depth = self._cycle
        d = 1 if shift > 0 else -1
        width = shift * d
        tape = self.tape
        edge = self.head - d * (depth + 1)  # the cell just behind the window
        if self._laid is None:
            start = edge - d * (width - 1)
            self._laid = [start, 0, tuple([tape.get(start + d * i, BLANK) for i in range(width)])]
        start, copies, _ = self._laid
        near = start + d * copies * width  # the first cell past the region
        gap = d * (edge - near) + 1  # whole copies, up to the window
        for i in range(gap):
            tape.pop(near + d * i, None)
        self._laid[1] = copies + gap // width + k
        window = [tape.pop(edge + d * i, BLANK) for i in range(1, depth + 2)]
        edge += k * shift
        for i, sym in enumerate(window, 1):
            if sym:
                tape[edge + d * i] = sym
        self.head += k * shift
        self.steps += k * period


def run(machine: Machine, input_symbols: Iterable[int] = (), budget: int = 10_000) -> Halted | BudgetExceeded:
    """Plain bounded simulation, no recording.

    The baseline the oracle is audited against: it shares the step
    semantics but none of the detection machinery.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    plain = PlainRun(machine, input_symbols)
    plain.execute(budget)
    return plain.stopped()


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
    return oracle.advance(budget) or oracle.stopped()


def replay_verify(machine: Machine, input_symbols: Iterable[int], outcome: RunOutcome) -> bool:
    """Audit an outcome by re-simulating without the oracle.

    Halted must halt at the exact step with the exact configuration;
    LoopDetected must satisfy configuration(first_index) ==
    configuration(first_index + period); BudgetExceeded must reach the
    claimed step count alive with the claimed last configuration.  A
    BudgetExceeded whose ``last_id`` is None, as a sweep report's budget
    rows are, claims no configuration to replay to, so it returns False
    before any step is replayed.
    """
    if isinstance(outcome, LoopDetected):
        if outcome.first_index < 0 or outcome.period < 1:
            return False
        plain = PlainRun(machine, input_symbols)
        if plain.execute(outcome.first_index):
            return False
        seen = (plain.state, plain.head, dict(plain.tape))
        return not plain.execute(outcome.period) and seen == (plain.state, plain.head, plain.tape)
    claimed = outcome.final_id if isinstance(outcome, Halted) else getattr(outcome, "last_id", None)
    if claimed is None or outcome.steps < 0:
        return False
    plain = PlainRun(machine, input_symbols)
    if plain.execute(outcome.steps):
        return False
    if isinstance(outcome, Halted):
        return plain.at_halt() and plain.snapshot() == claimed
    return plain.snapshot() == claimed
