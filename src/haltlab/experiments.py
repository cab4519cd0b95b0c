"""Desk-scale experiments: enumerate, classify, report.

Machine classes are enumerated exhaustively — every partial transition
table over the given state and symbol counts, in one canonical order —
and each machine is classified under the loop oracle from the blank tape
(the usual convention for enumeration experiments; other inputs are a
parameter away).  A run reads only the transitions it consults, so
machines that agree on those share one outcome.  ``sweep_leaves``
walks the tree-normal-form prefix tree of Brady (1983) and yields each
leaf, the slots it decides and its outcome, once.  Relabelling the
non-start states, and mirroring L<->R when no input cell past cell 0
is non-blank, map the tree's nodes onto each other with their
outcomes.  So the walk visits only the one canonical node of each
orbit of that group, runs the oracle there, and yields each canonical
leaf followed by its images with the outcome mapped; at budget 10^3,
2x2 has 297 leaves and 149 runs, 3x2 85,021 leaves and 21,257 runs.
That walk is the one place the tree is walked; its readers take what
they need from the leaves, and a budget leaf's run builds no snapshot.
``classify_all`` is one: it writes each leaf's outcome, by slices, at
the canonical index of every machine below it, audits each
halting or looping leaf by one oracle-free replay against the leaf's
own partial table, and flags each slice of the leaf's rows at once,
passing it only when every row in it provably agrees with the leaf on
every slot the leaf decides.  The census (rows per outcome, the
longest halt, whether every audit passed) is totalled from the leaves
as they come, so no reader scans the rows for it.
A report is two columns addressed by canonical index, outcomes and
audit flags; a machine's id is derived from its index, so no id is
stored and no row object is ever built.  Classification reports are
plain CSV with a fixed schema and no timestamps, written by runs of
rows, so two runs of the same experiment produce byte-identical files;
wall-clock time lives only in the human-readable summary beside the data.

The module also holds the right-runner demonstration, where the oracle
provably cannot answer — the machine writes a fresh cell every step,
never revisits a configuration, and every budget ends in
BudgetExceeded.  It is the counterexample to any hope that
self-termination detection alone decides halting.  One coasting oracle
run answers its whole budget ladder and samples its growth profile.
``cell_growth_profile`` stays oracle-free: it is the reference the
tests hold that profile to, as ``run_with_oracle`` at each budget is
the reference for the rungs.  The demonstration's counterpart, the
bounded-tape family where the oracle provably cannot miss, lives with
the tests (``tests/helpers.confined_machine`` and the acceptance suite).
"""

from __future__ import annotations

import csv
import io
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, permutations, product
from operator import is_not, or_
from pathlib import Path
from typing import TextIO

from .dsl import ParseError, load_program, parse_natural, parse_naturals, significant_lines
from .machine import LEFT, InstantaneousDescription, Machine, RIGHT, Transition
from .oracle import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    OracleRun,
    PlainRun,
    RunOutcome,
    replay_verify,
    run,  # not called here; the benchmark tracer wraps experiments.run
    run_with_oracle,  # not called here; the benchmark tracer wraps it by name
)
from .trio import TrioRecord, TrioTask, UNDETERMINED, VERDICT_TAGS, classify_corpus_entry, reading

# Refuse to enumerate beyond this many machines; desk scale means the
# whole class fits in one sitting.
CLASS_SIZE_GUARD = 10_000_000

DEFAULT_BUDGET = 10_000
DEFAULT_HISTORY_CAP = 100_000

CSV_COLUMNS = ("machine_id", "outcome", "steps", "loop_first", "loop_period", "audit")


@dataclass(frozen=True)
class MachineClass:
    """All machines with exactly this many states and tape symbols."""

    state_count: int
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.state_count < 1 or self.alphabet_size < 1:
            raise ValueError("a machine class needs at least one state and one symbol")

    @property
    def size(self) -> int:
        """Closed-form count of partial transition tables.

        Each of the state*symbol table slots is either absent or one of
        write * move * next-state choices, independently.
        """
        slots = self.state_count * self.alphabet_size
        per_slot = 2 * self.state_count * self.alphabet_size + 1
        return per_slot**slots


def _options(mclass: MachineClass) -> list[Transition | None]:
    """The options each of the class's table slots cycles through,
    "absent" (None) first; refuses oversized classes."""
    # Multiply one slot at a time instead of reading ``mclass.size``:
    # that power can run to thousands of digits.  per_slot is at least
    # 3, so the product passes the guard within 15 factors.
    count = mclass.state_count * mclass.alphabet_size
    per_slot = 2 * count + 1
    size = 1
    for _ in range(count):
        size *= per_slot
        if size > CLASS_SIZE_GUARD:
            raise ValueError(
                f"class holds {per_slot}**{count} machines, beyond the guard of {CLASS_SIZE_GUARD}"
            )
    options: list[Transition | None] = [None]
    options += [
        (write, move, nxt)
        for write in range(mclass.alphabet_size)
        for move in (LEFT, RIGHT)
        for nxt in range(mclass.state_count)
    ]
    return options


def _machine(
    mclass: MachineClass, options: Sequence[Transition | None], chosen: Iterable[tuple[int, int]]
) -> Machine:
    """The machine with option d at slot k for each (k, d) chosen; the
    slots left out, and those with option 0, are absent.  Slots are
    state-major, so slot k is (state, symbol) = divmod(k, alphabet size)."""
    table = {divmod(k, mclass.alphabet_size): options[d] for k, d in chosen if d}
    return Machine(mclass.state_count, mclass.alphabet_size, table)


def _halt_slot(mclass: MachineClass, outcome: Halted) -> int:
    """The index of the slot whose absent rule stopped a halted run:
    slots are state-major, so it is state times symbols plus symbol."""
    final = outcome.final_id
    return final.state * mclass.alphabet_size + final.symbol_at(final.head)


def _moved(outcome: RunOutcome, states: Sequence[int], mirrored: bool) -> RunOutcome:
    """A leaf's outcome carried to its image under a relabelling (state q
    becomes ``states[q]``), mirrored or not: a halt's final state is
    relabelled and, mirrored, its head and cells negated; other outcomes
    keep."""
    if not isinstance(outcome, Halted):
        return outcome
    final = outcome.final_id
    head, tape = final.head, final.tape
    if mirrored:  # negating the cells reverses their sorted order
        head, tape = -head, tuple((-cell, symbol) for cell, symbol in reversed(tape))
    return Halted(outcome.steps, InstantaneousDescription(states[final.state], head, tape))


def enumerate_class(mclass: MachineClass) -> Iterator[Machine]:
    """Every machine in the class, in canonical order, start state 0.

    Slots are ordered state-major then symbol; each slot cycles through
    "absent" first, then (write, move, next state) lexicographically
    with L before R.  The order is part of the report contract: row k of
    a classification always names the same machine.
    """
    options = _options(mclass)
    slots = mclass.state_count * mclass.alphabet_size
    for digits in product(range(len(options)), repeat=slots):
        yield _machine(mclass, options, enumerate(digits))


def _rule_code(rule: Transition | None) -> str:
    """One slot of the compact encoding: write digit, move letter, next
    state letter, or --- when absent."""
    if rule is None:
        return "---"
    write, move, nxt = rule
    return f"{write}{move}{chr(65 + nxt)}"


def machine_code(machine: Machine) -> str:
    """Canonical one-token encoding of a machine.

    Small tables use the compact convention (per state, per symbol:
    write digit, move letter, next state letter, or --- when absent);
    anything too large for single characters falls back to an explicit
    semicolon-joined listing.  A start state other than 0 follows an
    ``@``, as a letter in the compact form and a number in the listing,
    so class members, which start in state 0, carry none.  Either way
    the encoding is injective, so it serves as the machine's identifier
    in reports.
    """
    start = machine.start_state
    if machine.alphabet_size <= 10 and machine.state_count <= 26:
        table = "_".join(
            "".join(
                _rule_code(machine.transitions.get((state, symbol)))
                for symbol in range(machine.alphabet_size)
            )
            for state in range(machine.state_count)
        )
        return f"{table}@{chr(65 + start)}" if start else table
    parts = [
        f"{state}.{symbol}:{write}{move}{nxt}"
        for (state, symbol), (write, move, nxt) in sorted(machine.transitions.items())
    ]
    header = f"s{machine.state_count}a{machine.alphabet_size}" + (f"@{start}" if start else "")
    return f"{header};" + ";".join(parts)


class MachineIds(Sequence[str]):
    """The ``machine_code`` of every machine in a class, by canonical index.

    Canonical order is state-major, so a machine's code is its states'
    segments joined by ``_``, where a state's segment concatenates the
    codes of its slots.  The radix**alphabet ``segments`` are built once;
    the id at index k reads k's digits in base len(segments), and
    iteration is the product of the segments, one per state: a block of
    len(segments) ids shares one of ``prefixes()``.  Every class within
    ``CLASS_SIZE_GUARD`` has at most 10 symbols and 26 states, so the
    compact encoding always applies.
    """

    def __init__(self, mclass: MachineClass) -> None:
        codes = [_rule_code(rule) for rule in _options(mclass)]
        self.segments = ["".join(t) for t in product(codes, repeat=mclass.alphabet_size)]
        self._states = mclass.state_count

    def __len__(self) -> int:
        return len(self.segments) ** self._states

    def __getitem__(self, index: int) -> str:
        index = range(len(self))[index]
        parts = []
        for _ in range(self._states):
            index, digit = divmod(index, len(self.segments))
            parts.append(self.segments[digit])
        return "_".join(reversed(parts))

    def __iter__(self) -> Iterator[str]:
        return map("_".join, product(self.segments, repeat=self._states))

    def prefixes(self) -> Iterator[str]:
        """Each block's shared start, in order: every state's segment but
        the last, each followed by ``_``."""
        return map("".join, product([s + "_" for s in self.segments], repeat=self._states - 1))


@dataclass
class ClassificationReport:
    """One classification run, as columns addressed by canonical index:
    ``outcomes[k]`` and ``audits[k]`` belong to the machine ``ids[k]``.

    A leaf's rows share its one outcome object.  A budget row's outcome
    keeps the step count and the cap flag only, with ``last_id`` None:
    the CSV prints no configuration, and keeping one per budget leaf
    made up almost all of a report (57 MiB of the 2x2 report at budget
    10^4, about 1.3 GB of the 3x2 run at 10^3).

    ``counts`` (rows per outcome tag), ``max_halt_steps`` (None when
    nothing halts) and ``all_audits_passed`` are the census of those
    columns.  ``classify_all`` totals it from its leaves, and a report
    built by hand passes its own; nothing here derives it from the rows.
    """

    mclass: MachineClass
    budget: int
    history_cap: int | None
    input_symbols: tuple[int, ...]
    outcomes: Sequence[RunOutcome]
    audits: Sequence[bool | None]
    wall_seconds: float
    counts: dict[str, int]
    max_halt_steps: int | None
    all_audits_passed: bool
    oracle_runs: int = 0

    @property
    def ids(self) -> MachineIds:
        return MachineIds(self.mclass)


def _outcome_fields(outcome: RunOutcome) -> tuple[str, int, int | str, int | str]:
    """(tag, steps, loop first, loop period) as reports print an outcome.

    A loop's steps are its first index plus its period, the step that
    closed it; the loop fields are empty for the other outcomes.
    """
    if isinstance(outcome, LoopDetected):
        first, period = outcome.first_index, outcome.period
        return "loop_detected", first + period, first, period
    tag = "halted" if isinstance(outcome, Halted) else "budget_exceeded"
    return tag, outcome.steps, "", ""


def sweep_leaves(
    mclass: MachineClass,
    budget: int = DEFAULT_BUDGET,
    history_cap: int | None = DEFAULT_HISTORY_CAP,
    input_symbols: tuple[int, ...] = (),
) -> Iterator[tuple[dict[int, int], RunOutcome, bool]]:
    """Walk the class's prefix tree, yielding each leaf as (decided, outcome, ran).

    A deterministic run, its fingerprint confirmations and its final
    halt lookup read only the slots it consults, so every machine that
    agrees on those slots gets the same outcome.  A node of the tree is
    a choice of option index for some slots, ``decided`` (slot index to
    option index, 0 meaning absent, in the order the walk decided them),
    and has the outcome of one oracle run on those rules.  A run that
    halts on an undecided slot branches there, one child per option; the
    "absent" child has the node's own table, so it reuses this outcome
    and is a leaf.  Any other outcome makes the node itself a leaf,
    shared by every choice of its undecided slots.  So each node yields
    exactly one leaf, and the leaves partition the class.

    Relabelling the non-start states maps a node to another node with
    the same outcome, up to the same relabelling; so does mirroring
    L<->R when no input cell past cell 0 is non-blank, which makes the
    input its own mirror image.  Both fix the root's halting slot, so
    the tree is closed under them, and each orbit holds one canonical
    node: it names its states 0, 1, 2, ... in order of first appearance
    along ``decided`` and, when mirroring applies, its first rule moves
    L.  A child adds one rule to its parent, so a canonical node's child
    is canonical when the rule's next state is already named or the next
    fresh label, and, at the root, when the rule moves L.  The walk runs
    the canonical nodes only, depth first from a stack of at most slots
    times (radix - 1) waiting nodes.  Each canonical leaf that names n
    states comes first with ``ran`` true, then each of its images: one
    per way to place its n - 1 named non-start states among the
    non-start states, also mirrored when mirroring applies and the leaf
    holds a rule, with the leaf's outcome mapped (``_moved``) and ``ran``
    false.  So the leaves with ``ran`` true count the walk's oracle runs.

    A machine's canonical index is the mixed-radix number its option
    indices spell, slot 0 first.  The leaves come in a fixed order, but
    not by index; ``classify_all`` writes each leaf at its machines'
    indices.  A budget leaf yields ``BudgetExceeded(steps, None,
    history_capped)``: no reader keeps the last configuration, so the
    walk snapshots none for a run that ``advance`` leaves undecided.

    The class guard, the budget check and building the root's
    ``OracleRun``, which checks the cap and the input, happen at the
    call, so bad arguments raise ValueError before any reader allocates
    anything.  The root runs when the walk is first read.
    """
    options = _options(mclass)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    input_symbols = tuple(input_symbols)
    states, symbols = mclass.state_count, mclass.alphabet_size
    radix = len(options)
    mirrors = not any(input_symbols[1:])

    def oracle_of(decided: dict[int, int]) -> OracleRun:
        return OracleRun(_machine(mclass, options, decided.items()), input_symbols, history_cap)

    def outcome_of(oracle: OracleRun) -> RunOutcome:
        # run_with_oracle's outcome, except that a budget outcome keeps
        # only its steps and cap flag (advance gives one only at the cap).
        outcome = oracle.advance(budget)
        if isinstance(outcome, (Halted, LoopDetected)):
            return outcome
        return BudgetExceeded(oracle.steps, None, outcome is not None)

    def images(
        decided: dict[int, int], named: int, outcome: RunOutcome
    ) -> Iterator[tuple[dict[int, int], RunOutcome, bool]]:
        flips = (0, 1) if mirrors and any(decided.values()) else (0,)
        ran = True
        for placed in permutations(range(1, states), named - 1):
            label = (0, *placed)
            for flip in flips:
                image = {}
                for k, d in decided.items():
                    state, symbol = divmod(k, symbols)
                    pair, nxt = divmod(d - 1, states)  # unused when d is 0, absent
                    image[label[state] * symbols + symbol] = d and 1 + (pair ^ flip) * states + label[nxt]
                yield image, _moved(outcome, label, flip), ran
                ran = False

    def walk(root: OracleRun) -> Iterator[tuple[dict[int, int], RunOutcome, bool]]:
        # Canonical nodes waiting to run, with how many states each names.
        waiting: list[tuple[dict[int, int], int]] = [({}, 1)]
        while waiting:
            decided, named = waiting.pop()
            outcome = outcome_of(oracle_of(decided) if decided else root)
            if isinstance(outcome, Halted):
                k = _halt_slot(mclass, outcome)
                if k not in decided:
                    # Pushed last to first, so children run in option order.
                    # Option d >= 1 is 1 + (write, move, next state) in mixed
                    # radix, so pair = write * 2 + move, and L = 0.
                    for d in range(radix - 1, 0, -1):
                        pair, nxt = divmod(d - 1, states)
                        if nxt <= named and not (mirrors and not decided and pair & 1):
                            waiting.append(({**decided, k: d}, max(named, nxt + 1)))
                    decided = {**decided, k: 0}
            yield from images(decided, named, outcome)

    return walk(oracle_of({}))


def classify_all(
    mclass: MachineClass,
    budget: int = DEFAULT_BUDGET,
    history_cap: int | None = DEFAULT_HISTORY_CAP,
    input_symbols: tuple[int, ...] = (),
) -> ClassificationReport:
    """Run the oracle over the whole class and audit every verdict.

    One reader of ``sweep_leaves``, which refuses bad arguments at its
    call, before any column is allocated.  The report holds two columns
    addressed by canonical index: each leaf writes its one outcome
    object at each of its machines' indices in ``outcomes``, and
    ``report.ids`` derives each machine's id from its index
    (``MachineIds``).  ``oracle_runs`` counts the leaves the walk ran the
    oracle for, one per orbit; the others took a mapped outcome.

    A Halted or LoopDetected leaf, whether its outcome was run or
    mapped, is audited by one oracle-free replay of its verdict against
    the leaf's machine, the table with only its decided slots present.
    A halt must also stop on a slot the leaf decides absent.  The leaf's
    rows are written as slices, and each slice's flag in ``audits`` is
    that result and a check that every row in it agrees with the leaf:
    its option index at each slot the leaf decides, read as that digit
    of its canonical index, equals the leaf's.  One check per slice
    proves that for all its rows (see the loop).  Machines that merely
    ran out of budget keep the flag None.  This vouches for every row as
    a replay against its own machine would:

    - Every undecided slot is absent in the leaf's machine, so a replay
      that reaches the claimed verdict consulted only decided rules.
      Consulting an undecided slot would have halted it early and failed
      the claim.
    - A halt's final lookup falls on a slot decided absent (``k: 0``),
      so no row has a rule there.
    - Every row agrees with the leaf on those slots, so by determinism
      its run is the leaf's run, step for step, to the same verdict.

    The report's census is totalled leaf by leaf: each leaf adds its
    rows to its outcome's count, a halted leaf its steps to the longest
    halt, and an audited slice its flag to ``all_audits_passed``.
    """
    input_symbols = tuple(input_symbols)
    started = time.perf_counter()
    leaves = sweep_leaves(mclass, budget, history_cap, input_symbols)
    options = _options(mclass)
    radix, slots = len(options), mclass.state_count * mclass.alphabet_size
    outcomes: list = [None] * mclass.size
    audits: list[bool | None] = [None] * mclass.size
    counts = dict.fromkeys(("halted", "loop_detected", "budget_exceeded"), 0)
    halts: list[int] = []
    passed, runs = True, 0
    for decided, outcome, ran in leaves:
        runs += ran
        # Slot k is the digit of weight radix**(slots-1-k).  The leaf's
        # last run of free slots, a..b-1 (empty when it decides them
        # all), and its decided slots past b lay its rows out as one
        # arithmetic progression per choice of the slots before a:
        # radix**(b-a) rows, radix**(slots-b) apart, from an offset the
        # digits past b fix.  One slice each.
        b = slots
        while b and b - 1 in decided:
            b -= 1
        a = b
        while a and a - 1 not in decided:
            a -= 1
        step, count = radix ** (slots - b), radix ** (b - a)
        offset = sum(decided[k] * radix ** (slots - 1 - k) for k in range(b, slots))
        starts = [0]
        for k in range(a):
            choice = (decided[k],) if k in decided else range(radix)
            starts = [i * radix + d for i in starts for d in choice]
        span = radix ** (slots - a)
        ranges = [range(i * span + offset, i * span + offset + count * step, step) for i in starts]
        block = [outcome] * count
        for r in ranges:
            outcomes[r.start : r.stop : r.step] = block
        tag = _outcome_fields(outcome)[0]
        counts[tag] += count * len(ranges)
        if tag == "budget_exceeded":
            continue
        leaf = _machine(mclass, options, decided.items())
        ok = replay_verify(leaf, input_symbols, outcome)
        if isinstance(outcome, Halted):
            halts.append(outcome.steps)
            ok = ok and decided.get(_halt_slot(mclass, outcome)) == 0
        # A slice agrees with the leaf on every row when its start does
        # and it steps by radix**(slots-b) inside one block of
        # radix**(slots-a) rows: adding a multiple of that step keeps
        # the digits of slots b.., and the block keeps those before a.
        digits = [(radix ** (slots - 1 - k), d) for k, d in decided.items()]
        for r in ranges:
            inside = r.step == radix ** (slots - b) and r[-1] // span == r.start // span
            flag = ok and inside and all(r.start // weight % radix == d for weight, d in digits)
            audits[r.start : r.stop : r.step] = [flag] * count
            passed = passed and flag
    return ClassificationReport(
        mclass=mclass,
        budget=budget,
        history_cap=history_cap,
        input_symbols=input_symbols,
        outcomes=outcomes,
        audits=audits,
        wall_seconds=time.perf_counter() - started,
        counts=counts,
        max_halt_steps=max(halts, default=None),
        all_audits_passed=passed,
        oracle_runs=runs,
    )


def _csv_text(fields: Iterable) -> str:
    """One CSV line, quoted as ``csv`` quotes it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()


def write_report_csv(report: ClassificationReport, stream: TextIO) -> None:
    """Write the fixed-schema CSV to ``stream`` a few thousand lines at a
    time.  Nothing non-deterministic goes in.

    A row's fields after its id depend only on its outcome object and
    audit flag, so each such pair is rendered once and shared.  Ids are
    compact machine codes, which ``csv`` never quotes.  Within a block
    of ids (``MachineIds.prefixes``), each run of rows with one outcome
    object and flag is one join of its segments.  Raises ValueError,
    before anything is written, when the columns do not cover the
    class, one entry per machine.
    """
    ids, outcomes, audits = report.ids, report.outcomes, report.audits
    lengths = (len(ids), len(outcomes), len(audits))
    if len(set(lengths)) > 1:
        mclass = report.mclass
        raise ValueError(
            f"report columns do not cover the {mclass.state_count}x{mclass.alphabet_size} class:"
            f" {lengths[0]} ids, {lengths[1]} outcomes, {lengths[2]} audits"
        )
    segments, prefixes = ids.segments, ids.prefixes()
    width = len(segments)
    rendered: dict[tuple[int, bool | None], str] = {}
    # One write per few thousand lines: a write per line costs more than
    # rendering the line.
    chunk, lines, limit = [_csv_text(CSV_COLUMNS)], 0, 4096
    # A run ends where the next row holds another outcome object or flag
    # (flags are True, False or None, so identity compares them too).
    changed = map(
        or_,
        map(is_not, outcomes, islice(outcomes, 1, None)),
        map(is_not, audits, islice(audits, 1, None)),
    )
    # The current run is rows start..stop; the current block ends at row end.
    start = end = 0
    for stop in chain(compress(count(1), changed), (len(outcomes),)):
        outcome, audit = outcomes[start], audits[start]
        key = (id(outcome), audit)
        tail = rendered.get(key)
        if tail is None:
            flag = "" if audit is None else str(audit).lower()
            tail = rendered[key] = _csv_text((*_outcome_fields(outcome), flag))
        while start < stop:
            if start == end:
                prefix = next(prefixes)
                end += width
            upto = min(stop, end, start + limit)
            rows = segments[start - end + width : upto - end + width]
            chunk.append(prefix + ("," + tail + prefix).join(rows) + "," + tail)
            lines += upto - start
            start = upto
            if lines >= limit:
                stream.write("".join(chunk))
                chunk, lines = [], 0
    if chunk:
        stream.write("".join(chunk))


def report_to_csv(report: ClassificationReport) -> str:
    """The fixed-schema CSV body as one string (see ``write_report_csv``)."""
    buffer = io.StringIO()
    write_report_csv(report, buffer)
    return buffer.getvalue()


def summary_text(report: ClassificationReport) -> str:
    """The sidecar summary: counts, extremes, and the wall time."""
    counts = report.counts
    cap = "none" if report.history_cap is None else str(report.history_cap)
    lines = [
        f"class: states={report.mclass.state_count}"
        f" symbols={report.mclass.alphabet_size} machines={len(report.outcomes)}",
        f"budget: {report.budget} steps, history cap {cap}",
        f"halted: {counts['halted']}",
        f"loop_detected: {counts['loop_detected']}",
        f"budget_exceeded: {counts['budget_exceeded']}",
        f"max halting step: {report.max_halt_steps if report.max_halt_steps is not None else 'n/a'}",
        f"audits: {'all passed' if report.all_audits_passed else 'FAILURES PRESENT'}",
        f"oracle runs: {report.oracle_runs} for {len(report.outcomes)} machines",
        f"wall time: {report.wall_seconds:.2f}s",
    ]
    return "\n".join(lines) + "\n"


# --- standing demonstration machines ----------------------------------------


def right_runner() -> Machine:
    """Writes a mark and moves right, forever.  Never halts, never repeats."""
    return Machine(1, 2, {(0, 0): (1, RIGHT, 0)})


def bouncer() -> Machine:
    """Shuttles between two cells without writing; repeats immediately."""
    return Machine(2, 2, {(0, 0): (0, RIGHT, 1), (1, 0): (0, LEFT, 0)})


def _profile_marks(budget: int, samples: int) -> list[int]:
    """The distinct steps a growth profile samples, evenly spaced over
    0..budget and ascending."""
    if samples < 2:
        raise ValueError("need at least two sample points")
    return sorted({round(i * budget / (samples - 1)) for i in range(samples)})


def cell_growth_profile(
    machine: Machine,
    input_symbols: tuple[int, ...] = (),
    budget: int = DEFAULT_BUDGET,
    samples: int = 10,
) -> list[tuple[int, int]]:
    """(step, non-blank cell count) at evenly spaced steps along a run.

    Instrumentation for the no-repetition argument: a strictly growing
    cell count means no configuration can recur.  Runs without the
    oracle, once, sampling at each mark; a machine that halts early just
    truncates the profile (one that halts exactly on a mark repeats that
    sample before the profile stops).  It is the oracle-free reference
    the tests hold ``falsify_demo``'s profile to.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    plain = PlainRun(machine, input_symbols)
    profile = []
    for mark in _profile_marks(budget, samples):
        halted = plain.execute(mark - plain.steps)
        profile.append((plain.steps, plain.cell_count()))
        if halted:
            break
    return profile


@dataclass
class FalsifyReport:
    """The right-runner demonstration across a ladder of budgets."""

    budgets: tuple[int, ...]
    outcomes: list[RunOutcome]
    profile: list[tuple[int, int]]
    strictly_monotone: bool

    @property
    def all_budget_exceeded(self) -> bool:
        return all(isinstance(o, BudgetExceeded) for o in self.outcomes)


def falsify_demo(
    budgets: tuple[int, ...] = (100, 1_000, 10_000, 100_000, 1_000_000),
) -> FalsifyReport:
    """The right-runner under the oracle at each budget of a ladder.

    Refuses an empty ladder and any negative budget before any work.
    One oracle run serves every rung and the profile: it advances in
    slices through the distinct budgets and the 10 marks that
    ``cell_growth_profile`` samples over the largest budget.  A rung's
    outcome is the one ``advance`` decided, else BudgetExceeded there,
    as ``run_with_oracle`` reads it, so it equals that of the rung's own
    run; a repeated budget shares one outcome.  At a mark the sample is
    the step and the non-blank cell count, exact also while the run coasts
    through a proven translated cycle, since ``cell_count`` counts the
    copies that skipped periods lay.  The right-runner never halts or
    repeats, so no mark is cut short.  The recorder is given room for
    every configuration (its entries cost constant memory), so the
    BudgetExceeded outcomes are genuine step budget exhaustions, not cap
    artifacts.
    """
    budgets = tuple(budgets)
    if not budgets:
        raise ValueError("the ladder needs at least one budget")
    if min(budgets) < 0:
        raise ValueError("budget must be nonnegative")
    marks = _profile_marks(max(budgets), 10)
    oracle = OracleRun(right_runner(), (), max_history=None)
    at: dict[int, RunOutcome] = {}
    profile = []
    for point in sorted({*budgets, *marks}):
        outcome = oracle.advance(point - oracle.steps)
        if point in budgets:
            at[point] = outcome or BudgetExceeded(oracle.steps, oracle.snapshot())
        if point in marks:
            profile.append((oracle.steps, oracle.cell_count()))
    counts = [cells for _, cells in profile]
    monotone = all(a < b for a, b in zip(counts, counts[1:]))
    return FalsifyReport(budgets, [at[b] for b in budgets], profile, monotone)


def falsify_text(report: FalsifyReport) -> str:
    lines = [
        "right-runner: one state, writes a mark and moves right, forever.",
        "",
        f"{'budget':>10}  {'outcome':<16} {'steps':>10}",
    ]
    for budget, outcome in zip(report.budgets, report.outcomes):
        tag, steps, _, _ = _outcome_fields(outcome)
        lines.append(f"{budget:>10}  {tag:<16} {steps:>10}")
    lines.append("")
    profile = " ".join(f"{step}:{cells}" for step, cells in report.profile)
    lines.append(f"non-blank cells along the longest run (step:cells): {profile}")
    lines.append(
        "strictly increasing: " + ("yes" if report.strictly_monotone else "NO")
    )
    lines.append(
        "no configuration ever repeats, so the repetition recorder can never fire:"
    )
    lines.append(
        "every budget ends in budget_exceeded, and a bigger budget only moves the wall."
    )
    return "\n".join(lines) + "\n"


# --- trio fixture suites ------------------------------------------------------


class FixtureError(ValueError):
    """A task descriptor or its referenced files are unusable; names the file."""


@dataclass
class TrioFixture:
    name: str
    task: TrioTask
    expect: str | None


_REQUIRED_TASK_KEYS = frozenset({"g", "entry", "machine", "quantum", "budget", "max_cert_size"})
_OPTIONAL_TASK_KEYS = frozenset({"args", "expect", "history_cap"})


def load_fixture(path: str | Path) -> TrioFixture:
    """Read one ``.task`` descriptor and the files it references.

    Descriptors are key=value lines with ``#`` comments, after an
    optional ``format=`` marker on the first non-blank line, read as in
    function and machine files (``dsl.significant_lines``).  Required
    keys: ``g`` (a function file), ``entry`` (the definition to use),
    ``machine`` (a machine file), ``quantum``, ``budget``,
    ``max_cert_size``.  Optional: ``args`` (comma-separated naturals),
    ``expect`` (a verdict tag), ``history_cap`` (a natural; without it
    the recorder is unbounded).  File paths resolve relative to the
    descriptor.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise FixtureError(f"{p}: {err.strerror or err}") from None
    except UnicodeDecodeError:
        raise FixtureError(f"{p}: not valid UTF-8") from None
    try:
        lines, _ = significant_lines(text)
    except ParseError as err:
        raise FixtureError(f"{p}: {err.reason}") from None
    pairs: dict[str, str] = {}
    for number, stripped in lines:
        if "=" not in stripped:
            raise FixtureError(f"{p}: line {number}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise FixtureError(f"{p}: line {number}: duplicate key {key!r}")
        pairs[key] = value
    missing = _REQUIRED_TASK_KEYS - pairs.keys()
    if missing:
        raise FixtureError(f"{p}: missing keys {sorted(missing)}")
    unknown = pairs.keys() - _REQUIRED_TASK_KEYS - _OPTIONAL_TASK_KEYS
    if unknown:
        raise FixtureError(f"{p}: unknown keys {sorted(unknown)}")

    def natural(what: str, text: str) -> int:
        value = parse_natural(text)
        if value is None:
            raise FixtureError(f"{p}: {what} must be a natural, got {text!r}")
        return value

    try:
        functions = load_program(p.parent / pairs["g"]).functions
        machines = load_program(p.parent / pairs["machine"]).machines
    except ParseError as err:
        raise FixtureError(f"{p}: {err}") from None
    except OSError as err:
        raise FixtureError(f"{p}: {err.filename}: {err.strerror}") from None
    entry = pairs["entry"]
    if entry not in functions:
        raise FixtureError(f"{p}: {pairs['g']} does not define {entry!r}")
    if not machines:
        raise FixtureError(f"{p}: {pairs['machine']} defines no machine")
    machine = next(iter(machines.values()))
    args = parse_naturals(
        pairs.get("args", ""),
        lambda item: FixtureError(f"{p}: args entry must be a natural, got {item!r}"),
    )
    expect = pairs.get("expect")
    if expect is not None and expect not in VERDICT_TAGS:
        raise FixtureError(f"{p}: expect must be one of {sorted(VERDICT_TAGS)}")
    cap = natural("history_cap", pairs["history_cap"]) if "history_cap" in pairs else None
    quantum = natural("quantum", pairs["quantum"])
    budget = natural("budget", pairs["budget"])
    max_cert_size = natural("max_cert_size", pairs["max_cert_size"])
    try:
        task = TrioTask(
            g_body=functions[entry],
            fixed_args=args,
            t2_machine=machine,
            quantum=quantum,
            budget=budget,
            max_cert_size=max_cert_size,
            t2_history_cap=cap,
        )
    except ValueError as err:
        raise FixtureError(f"{p}: {err}") from None
    return TrioFixture(name=p.stem, task=task, expect=expect)


@dataclass
class SuiteReport:
    fixtures: list[TrioFixture]
    records: list[TrioRecord]
    mismatches: list[str] = field(default_factory=list)

    @property
    def all_audits_passed(self) -> bool:
        return all(rec.audit_passed is not False for rec in self.records)

    @property
    def ok(self) -> bool:
        return self.all_audits_passed and not self.mismatches


def run_fixture_suite(directory: str | Path) -> SuiteReport:
    """Classify every ``.task`` under ``directory`` (sorted by name).

    A directory with no descriptors yields an empty report, which counts
    as ok; a missing directory is an error.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FixtureError(f"{root}: not a directory")
    paths = sorted(root.glob("*.task"))
    fixtures = [load_fixture(p) for p in paths]
    records = []
    mismatches = []
    for fixture in fixtures:
        record = classify_corpus_entry(fixture.task, label=fixture.name)
        records.append(record)
        got = reading(record.verdict)[0]
        if fixture.expect is not None and got != fixture.expect:
            mismatches.append(
                f"{fixture.name}: expected {fixture.expect}, got {got}"
            )
    return SuiteReport(fixtures=fixtures, records=records, mismatches=mismatches)


def suite_to_csv(report: SuiteReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["fixture", "verdict", "detail", "value", "audit", "rounds", "expected", "matched"]
    )
    for fixture, record in zip(report.fixtures, report.records):
        tag, detail, value = reading(record.verdict)
        value = "undetermined" if value is UNDETERMINED else str(value)
        audit = "" if record.audit_passed is None else str(record.audit_passed).lower()
        expected = fixture.expect or ""
        matched = "" if fixture.expect is None else str(tag == fixture.expect).lower()
        writer.writerow(
            [record.label, tag, detail, value, audit, record.rounds_run, expected, matched]
        )
    return buffer.getvalue()


def suite_text(report: SuiteReport) -> str:
    lines = []
    for fixture, record in zip(report.fixtures, report.records):
        tag, _, value = reading(record.verdict)
        value = "undetermined" if value is UNDETERMINED else str(value)
        audit = "-" if record.audit_passed is None else ("ok" if record.audit_passed else "FAILED")
        expect = f" expected={fixture.expect}" if fixture.expect else ""
        lines.append(
            f"{fixture.name}: {tag} value={value} audit={audit}"
            f" rounds={record.rounds_run}{expect}"
        )
    for mismatch in report.mismatches:
        lines.append(f"MISMATCH {mismatch}")
    lines.append("suite: " + ("ok" if report.ok else "FAILED"))
    return "\n".join(lines) + "\n"
