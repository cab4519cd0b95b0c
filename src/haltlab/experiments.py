"""Desk-scale experiments: enumerate, classify, report.

Machine classes are enumerated exhaustively — every partial transition
table over the given state and symbol counts, in one canonical order —
and each machine is classified under the loop oracle from the blank tape
(the usual convention for enumeration experiments; other inputs are a
parameter away).  A run reads only the transitions it consults, so
machines that agree on those share one oracle run: the sweep walks the
tree-normal-form prefix tree of Brady (1983) depth first, runs each
distinct consulted prefix once, and writes every machine below a leaf
straight to its canonical row, while every verdict is still audited by
replay against its own machine.  Classification reports are plain CSV
with a fixed schema and no timestamps, so two runs of the same
experiment produce byte-identical files; wall-clock time lives only in
the human-readable summary beside the data.

The module also owns the two standing demonstrations: the bounded-tape
family, where the oracle provably cannot miss, and the right-runner,
where it provably cannot answer — the machine writes a fresh cell every
step, never revisits a configuration, and every budget ends in
BudgetExceeded.  The second one is the counterexample to any hope that
self-termination detection alone decides halting.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator

from .dsl import ParseError, _significant_lines, load_program, parse_natural
from .machine import LEFT, Machine, RIGHT, Transition
from .oracle import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    PlainRun,
    RunOutcome,
    replay_verify,
    run,  # not called here; the benchmark tracer wraps experiments.run
    run_with_oracle,
)
from .trio import TrioRecord, TrioTask, UNDETERMINED, classify_corpus_entry

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


def _slots_and_options(
    mclass: MachineClass,
) -> tuple[list[tuple[int, int]], list[Transition | None]]:
    """The class's table slots in canonical order and the options each
    slot cycles through, "absent" (None) first; refuses oversized classes."""
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
    slots = [
        (state, symbol)
        for state in range(mclass.state_count)
        for symbol in range(mclass.alphabet_size)
    ]
    options: list[Transition | None] = [None]
    options += [
        (write, move, nxt)
        for write in range(mclass.alphabet_size)
        for move in (LEFT, RIGHT)
        for nxt in range(mclass.state_count)
    ]
    return slots, options


def enumerate_class(mclass: MachineClass) -> Iterator[Machine]:
    """Every machine in the class, in canonical order, start state 0.

    Slots are ordered state-major then symbol; each slot cycles through
    "absent" first, then (write, move, next state) lexicographically
    with L before R.  The order is part of the report contract: row k of
    a classification always names the same machine.
    """
    slots, options = _slots_and_options(mclass)
    for assignment in product(options, repeat=len(slots)):
        table = {
            slot: rule for slot, rule in zip(slots, assignment) if rule is not None
        }
        yield Machine(mclass.state_count, mclass.alphabet_size, table)


def machine_code(machine: Machine) -> str:
    """Canonical one-token encoding of a transition table.

    Small tables use the compact convention (per state, per symbol:
    write digit, move letter, next state letter, or --- when absent);
    anything too large for single characters falls back to an explicit
    semicolon-joined listing.  Either way the encoding is injective, so
    it serves as the machine's identifier in reports.
    """
    if machine.alphabet_size <= 10 and machine.state_count <= 26:
        states = []
        for state in range(machine.state_count):
            cells = []
            for symbol in range(machine.alphabet_size):
                rule = machine.transitions.get((state, symbol))
                if rule is None:
                    cells.append("---")
                else:
                    write, move, nxt = rule
                    cells.append(f"{write}{move}{chr(65 + nxt)}")
            states.append("".join(cells))
        return "_".join(states)
    parts = [
        f"{state}.{symbol}:{write}{move}{nxt}"
        for (state, symbol), (write, move, nxt) in sorted(machine.transitions.items())
    ]
    return f"s{machine.state_count}a{machine.alphabet_size};" + ";".join(parts)


@dataclass(frozen=True)
class ClassificationRow:
    machine_id: str
    outcome: RunOutcome
    audit_passed: bool | None


@dataclass
class ClassificationReport:
    mclass: MachineClass
    budget: int
    history_cap: int | None
    input_symbols: tuple[int, ...]
    rows: list[ClassificationRow]
    wall_seconds: float
    oracle_runs: int = 0

    @property
    def counts(self) -> dict[str, int]:
        out = {"halted": 0, "loop_detected": 0, "budget_exceeded": 0}
        for row in self.rows:
            out[_outcome_tag(row.outcome)] += 1
        return out

    @property
    def max_halt_steps(self) -> int | None:
        steps = [row.outcome.steps for row in self.rows if isinstance(row.outcome, Halted)]
        return max(steps) if steps else None

    @property
    def all_audits_passed(self) -> bool:
        return all(row.audit_passed is not False for row in self.rows)


def _outcome_tag(outcome: RunOutcome) -> str:
    if isinstance(outcome, Halted):
        return "halted"
    if isinstance(outcome, LoopDetected):
        return "loop_detected"
    return "budget_exceeded"


def classify_all(
    mclass: MachineClass,
    budget: int = DEFAULT_BUDGET,
    history_cap: int | None = DEFAULT_HISTORY_CAP,
    input_symbols: tuple[int, ...] = (),
) -> ClassificationReport:
    """Run the oracle over the whole class and audit every verdict.

    A deterministic run, its fingerprint confirmations and its final
    halt lookup read only the slots it consults, so every machine that
    agrees on those slots gets the same outcome.  The sweep therefore
    walks the prefix tree over partial tables depth first: a node is a
    choice of option index for some slots and costs one oracle run on
    those rules.  A run that halts on an undecided slot branches there,
    one child per option; the "absent" child has the node's own table,
    so it reuses this outcome without running again.  Any other outcome
    is a leaf shared by every choice of the undecided slots, and each of
    those machines lands at its canonical index, the mixed-radix number
    its option indices spell in enumeration order.  The report's rows
    share the leaves' outcome objects, and ``oracle_runs`` counts the
    runs made, one per distinct consulted prefix, not one per machine.

    Halted and LoopDetected rows are re-checked by oracle-free replay,
    each against its own machine; rows that merely ran out of budget
    carry no audit flag.  Rows appear in enumeration order.
    """
    input_symbols = tuple(input_symbols)
    slots, options = _slots_and_options(mclass)
    position = {slot: k for k, slot in enumerate(slots)}
    radix = len(options)
    weights = [radix ** (len(slots) - 1 - k) for k in range(len(slots))]
    rows: list = [None] * mclass.size
    runs = 0

    def build(chosen: Iterable[tuple[int, int]]) -> Machine:
        """The machine with option d at slot k for each (k, d) chosen."""
        table = {slots[k]: options[d] for k, d in chosen if d}
        return Machine(mclass.state_count, mclass.alphabet_size, table)

    def explore(decided: dict[int, int], outcome: RunOutcome | None) -> None:
        nonlocal runs
        if outcome is None:
            partial = build(decided.items())
            outcome = run_with_oracle(partial, input_symbols, budget, history_cap)
            runs += 1
            if isinstance(outcome, Halted):
                final = outcome.final_id
                k = position[(final.state, final.symbol_at(final.head))]
                if k not in decided:
                    for d in range(radix):
                        explore({**decided, k: d}, None if d else outcome)
                    return
        choices = [(decided[k],) if k in decided else range(radix) for k in range(len(slots))]
        for digits in product(*choices):
            machine = build(enumerate(digits))
            audit = None
            if isinstance(outcome, (Halted, LoopDetected)):
                audit = replay_verify(machine, input_symbols, outcome)
            index = sum(d * w for d, w in zip(digits, weights))
            rows[index] = ClassificationRow(machine_code(machine), outcome, audit)

    started = time.perf_counter()
    explore({}, None)
    wall = time.perf_counter() - started
    return ClassificationReport(
        mclass=mclass,
        budget=budget,
        history_cap=history_cap,
        input_symbols=input_symbols,
        rows=rows,
        wall_seconds=wall,
        oracle_runs=runs,
    )


def report_to_csv(report: ClassificationReport) -> str:
    """Render the fixed-schema CSV body.  Nothing non-deterministic goes in."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        outcome = row.outcome
        if isinstance(outcome, LoopDetected):
            steps = outcome.first_index + outcome.period
            first, period = outcome.first_index, outcome.period
        else:
            steps = outcome.steps
            first = period = ""
        audit = "" if row.audit_passed is None else str(row.audit_passed).lower()
        writer.writerow(
            [row.machine_id, _outcome_tag(outcome), steps, first, period, audit]
        )
    return buffer.getvalue()


def summary_text(report: ClassificationReport) -> str:
    """The sidecar summary: counts, extremes, and the wall time."""
    counts = report.counts
    cap = "none" if report.history_cap is None else str(report.history_cap)
    lines = [
        f"class: states={report.mclass.state_count}"
        f" symbols={report.mclass.alphabet_size} machines={len(report.rows)}",
        f"budget: {report.budget} steps, history cap {cap}",
        f"halted: {counts['halted']}",
        f"loop_detected: {counts['loop_detected']}",
        f"budget_exceeded: {counts['budget_exceeded']}",
        f"max halting step: {report.max_halt_steps if report.max_halt_steps is not None else 'n/a'}",
        f"audits: {'all passed' if report.all_audits_passed else 'FAILURES PRESENT'}",
        f"oracle runs: {report.oracle_runs} for {len(report.rows)} machines",
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
    sample before the profile stops).
    """
    if samples < 2:
        raise ValueError("need at least two sample points")
    marks = sorted({round(i * budget / (samples - 1)) for i in range(samples)})
    plain = PlainRun(machine, input_symbols)
    profile = []
    for mark in marks:
        halted = plain.execute(mark - plain.steps)
        profile.append((plain.steps, len(plain.tape)))
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
    """Run the right-runner under the oracle at each budget.

    The recorder is given room for every configuration (its entries cost
    constant memory), so the BudgetExceeded outcomes are genuine step
    budget exhaustions, not cap artifacts.  The cell-count profile over
    the largest budget supplies the strict-growth evidence.
    """
    machine = right_runner()
    outcomes = [run_with_oracle(machine, (), b, max_history=None) for b in budgets]
    top = max(budgets) if budgets else DEFAULT_BUDGET
    profile = cell_growth_profile(machine, (), top, samples=10)
    counts = [cells for _, cells in profile]
    monotone = all(a < b for a, b in zip(counts, counts[1:]))
    return FalsifyReport(tuple(budgets), outcomes, profile, monotone)


def falsify_text(report: FalsifyReport) -> str:
    lines = [
        "right-runner: one state, writes a mark and moves right, forever.",
        "",
        f"{'budget':>10}  {'outcome':<16} {'steps':>10}",
    ]
    for budget, outcome in zip(report.budgets, report.outcomes):
        tag = _outcome_tag(outcome)
        steps = outcome.steps if not isinstance(outcome, LoopDetected) else outcome.first_index + outcome.period
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


_VERDICT_TAGS = {
    "Found": "found",
    "SelfTerminated": "self_terminated",
    "Proved": "proved",
    "Exhausted": "exhausted",
}

_EXPECT_TAGS = set(_VERDICT_TAGS.values())


def verdict_tag(verdict) -> str:
    return _VERDICT_TAGS[type(verdict).__name__]


def load_fixture(path: str | Path) -> TrioFixture:
    """Read one ``.task`` descriptor and the files it references.

    Descriptors are key=value lines with ``#`` comments.  Required keys:
    ``g`` (a function file), ``entry`` (the definition to use),
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
    pairs: dict[str, str] = {}
    for number, stripped in _significant_lines(text):
        if "=" not in stripped:
            raise FixtureError(f"{p}: line {number}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise FixtureError(f"{p}: line {number}: duplicate key {key!r}")
        pairs[key] = value
    if pairs.get("format", "1") != "1":
        raise FixtureError(f"{p}: unsupported format version {pairs['format']!r}")
    missing = {"g", "entry", "machine", "quantum", "budget", "max_cert_size"} - pairs.keys()
    if missing:
        raise FixtureError(f"{p}: missing keys {sorted(missing)}")
    known = {
        "format", "g", "entry", "machine", "quantum", "budget",
        "max_cert_size", "args", "expect", "history_cap",
    }
    unknown = pairs.keys() - known
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
    parts = [part.strip() for part in pairs.get("args", "").split(",")]
    args = tuple(natural("args entry", part) for part in parts if part)
    expect = pairs.get("expect")
    if expect is not None and expect not in _EXPECT_TAGS:
        raise FixtureError(f"{p}: expect must be one of {sorted(_EXPECT_TAGS)}")
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
        got = verdict_tag(record.verdict)
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
        verdict = record.verdict
        tag = verdict_tag(verdict)
        if tag == "found":
            detail = f"k={verdict.k}"
        elif tag == "self_terminated":
            detail = f"first={verdict.loop.first_index} period={verdict.loop.period}"
        elif tag == "proved":
            detail = verdict.certificate.compact()
        else:
            detail = f"rounds={verdict.rounds}"
        value = "undetermined" if record.value is UNDETERMINED else str(record.value)
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
        tag = verdict_tag(record.verdict)
        value = "undetermined" if record.value is UNDETERMINED else str(record.value)
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
