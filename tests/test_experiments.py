"""Enumeration, classification, demonstration, and fixture-suite tests."""

import hashlib
import io
import itertools
import random
import shutil
import tracemalloc
from dataclasses import replace

import pytest

from haltlab.dsl import ParseError, load_program
from haltlab.machine import LEFT, RIGHT, Machine
from haltlab.oracle import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    replay_verify,
    run,
    run_with_oracle,
)
from haltlab import experiments
from haltlab.experiments import (
    CLASS_SIZE_GUARD,
    ClassificationReport,
    FixtureError,
    MachineClass,
    MachineIds,
    bouncer,
    cell_growth_profile,
    classify_all,
    enumerate_class,
    falsify_demo,
    falsify_text,
    load_fixture,
    machine_code,
    report_to_csv,
    right_runner,
    run_fixture_suite,
    suite_text,
    suite_to_csv,
    summary_text,
    sweep_leaves,
    write_report_csv,
)
from haltlab.recfun import MONUS, Compose, Proj, const_expr
from haltlab.trio import UNDETERMINED, reading
from tests.helpers import orbit_key, rowwise_census, rowwise_report_csv, tamper_one_leaf

FIXTURES = "fixtures/trio"


def test_class_sizes_match_the_closed_form():
    assert MachineClass(1, 1).size == 3
    assert MachineClass(1, 2).size == 25
    assert MachineClass(2, 2).size == 6561


def test_class_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        MachineClass(0, 2)
    with pytest.raises(ValueError):
        MachineClass(1, 0)


def test_tiny_class_enumerates_in_canonical_order():
    codes = [machine_code(m) for m in enumerate_class(MachineClass(1, 1))]
    assert codes == ["---", "0LA", "0RA"]


def test_enumeration_count_and_determinism():
    first = list(enumerate_class(MachineClass(1, 2)))
    second = list(enumerate_class(MachineClass(1, 2)))
    assert first == second
    assert len(first) == 25
    assert first[0].transitions == {}
    assert len(set(machine_code(m) for m in first)) == 25


def test_enumeration_guard_refuses_oversized_classes():
    big = MachineClass(3, 3)
    assert big.size > CLASS_SIZE_GUARD
    with pytest.raises(ValueError):
        list(enumerate_class(big))
    with pytest.raises(ValueError):
        classify_all(big, budget=10)


def test_machine_codes_are_frozen():
    assert machine_code(right_runner()) == "1RA---"
    assert machine_code(bouncer()) == "0RB---_0LA---"
    assert machine_code(Machine(1, 2, {})) == "------"


def test_machine_codes_spell_a_nonzero_start_state():
    table = {(0, 0): (1, RIGHT, 1)}
    assert machine_code(Machine(2, 2, table, start_state=0)) == "1RB---_------"
    assert machine_code(Machine(2, 2, table, start_state=1)) == "1RB---_------@B"
    assert machine_code(Machine(2, 11, table, start_state=0)) == "s2a11;0.0:1R1"
    assert machine_code(Machine(2, 11, table, start_state=1)) == "s2a11@1;0.0:1R1"


def test_machine_codes_fall_back_verbosely_for_wide_alphabets():
    wide = Machine(1, 11, {(0, 0): (10, RIGHT, 0)})
    code = machine_code(wide)
    assert code == "s1a11;0.0:10R0"


def test_one_state_class_has_no_loops_from_blank_tape():
    """Hand-verified census: a single state either halts at step 0 or
    drifts forever; exact configuration recurrence is impossible."""
    report = classify_all(MachineClass(1, 2), budget=100)
    assert report.counts == {"halted": 5, "loop_detected": 0, "budget_exceeded": 20}
    assert report.all_audits_passed
    assert report.max_halt_steps == 0


def _per_machine_rows(mclass, budget, history_cap, input_symbols):
    """The sweep as one oracle run per machine: the reference for the tree,
    as (machine code, outcome, audit flag) triples in enumeration order."""
    rows = []
    for machine in enumerate_class(mclass):
        outcome = run_with_oracle(machine, input_symbols, budget, history_cap)
        audit = None
        if isinstance(outcome, (Halted, LoopDetected)):
            audit = replay_verify(machine, input_symbols, outcome)
        rows.append((machine_code(machine), outcome, audit))
    return rows


@pytest.mark.parametrize(
    "states, symbols, budget, history_cap, input_symbols",
    [
        (1, 1, 300, None, ()),
        (1, 2, 300, None, ()),
        (1, 3, 300, None, (1, 2)),
        (2, 1, 300, 5, ()),
        (2, 2, 0, 1, (1, 0, 1)),
        (2, 2, 0, 40, (1, 0, 1)),
        (2, 2, 0, None, (1, 0, 1)),
        (2, 2, 300, 1, (1, 0, 1)),
        (2, 2, 300, 40, (1, 0, 1)),
        (2, 2, 300, None, (1, 0, 1)),
        (1, 4, 300, None, (3,)),
        (3, 1, 200, 50, ()),
        # Blank and single-cell inputs: mirroring pairs nodes.
        (2, 2, 300, 5, ()),
        (2, 2, 300, 40, ()),
        (2, 2, 300, None, (1,)),
        # Relabelling three non-start states: its group has 3-cycles.
        (4, 1, 300, None, ()),
    ],
)
def test_prefix_tree_sweep_matches_one_run_per_machine(
    states, symbols, budget, history_cap, input_symbols
):
    mclass = MachineClass(states, symbols)
    report = classify_all(mclass, budget, history_cap, input_symbols)
    expected = _per_machine_rows(mclass, budget, history_cap, input_symbols)
    _, outcomes, audits = zip(*expected)
    reference = ClassificationReport(
        mclass, budget, history_cap, input_symbols, outcomes, audits, 0.0,
        **rowwise_census(outcomes, audits),
    )
    assert report_to_csv(report) == report_to_csv(reference)
    assert 1 <= report.oracle_runs <= mclass.size

    # The columns, read by canonical index, are the reference rows, except
    # that a budget row keeps its step count and cap flag, not the
    # configuration it stopped in.
    ids = report.ids
    assert len(ids) == len(report.outcomes) == len(report.audits) == len(expected) == mclass.size
    kept = [
        (machine_id, BudgetExceeded(o.steps, None, o.history_capped), audit)
        if isinstance(o, BudgetExceeded) else (machine_id, o, audit)
        for machine_id, o, audit in expected
    ]
    assert list(zip(ids, report.outcomes, report.audits)) == kept
    for k in {0, 1, len(expected) // 2, len(expected) - 1}:
        assert ids[k] == expected[k][0]
        assert ids[k - len(expected)] == expected[k - len(expected)][0]
    for k in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            ids[k]
    assert list(ids) == [machine_code(m) for m in enumerate_class(mclass)]

    # The census totalled from the leaves is the one a walk over the
    # reference rows takes.
    census = rowwise_census(outcomes, audits)
    assert {name: getattr(report, name) for name in census} == census

    # The walk's leaves partition the class; the oracle ran for some of
    # them, one per orbit.
    leaves = list(sweep_leaves(mclass, budget, history_cap, input_symbols))
    slots, radix = states * symbols, 2 * states * symbols + 1
    assert sum(radix ** (slots - len(decided)) for decided, _, _ in leaves) == mclass.size
    written = []
    for decided, outcome, _ in leaves:
        choices = [(decided[k],) if k in decided else range(radix) for k in range(slots)]
        indices = [sum(d * radix ** (slots - 1 - k) for k, d in enumerate(digits))
                   for digits in itertools.product(*choices)]
        assert all(report.outcomes[i] == outcome for i in indices)
        written += indices
    assert len(set(written)) == len(written) == mclass.size
    assert report.oracle_runs == sum(ran for _, _, ran in leaves) <= len(leaves)

    # Each leaf that ran is canonical (its states named in order of first
    # appearance and, with mirroring, its first rule moving L) and heads
    # its orbit: the leaves up to the next run leaf share its orbit key,
    # and no orbit has two heads.  The order is fixed from walk to walk.
    mirrors = not any(input_symbols[1:])
    assert leaves[0][2]
    heads: set = set()
    for decided, _, ran in leaves:
        key = orbit_key(decided, states, symbols, mirrors)
        if ran:
            assert key not in heads
            heads.add(key)
            head = key
            assert orbit_key(decided, states, symbols, False) == tuple(decided.items())
            rules = [d for d in decided.values() if d]
            assert not (mirrors and rules) or (rules[0] - 1) // states % 2 == 0
        assert key == head, decided
    assert list(sweep_leaves(mclass, budget, history_cap, input_symbols)) == leaves


@pytest.mark.parametrize("kind", [Halted, LoopDetected])
def test_the_leaf_audit_fails_every_row_of_a_false_leaf(monkeypatch, kind):
    """One replay audits a whole leaf, so a false leaf fails all its rows
    and only those."""
    tampered = tamper_one_leaf(monkeypatch, kind)
    report = classify_all(MachineClass(2, 2), budget=1_000)
    (decided,) = tampered
    radix, slots = 9, 4
    in_leaf = 0
    rows = zip(itertools.product(range(radix), repeat=slots), report.outcomes, report.audits)
    for digits, outcome, audit in rows:
        if all(digits[k] == d for k, d in decided.items()):
            in_leaf += 1
            assert isinstance(outcome, kind) and audit is False
        elif isinstance(outcome, (Halted, LoopDetected)):
            assert audit is True
        else:
            assert audit is None
    assert in_leaf == radix ** (slots - len(decided)) > 1
    assert not report.all_audits_passed
    assert report_to_csv(report).splitlines(True) == rowwise_report_csv(report).splitlines(True)


def test_the_leaf_audit_fails_a_halt_on_an_undecided_slot(monkeypatch):
    """A halted leaf must decide its halting slot absent; one that leaves
    it undecided also claims the halt for machines with a rule there."""
    walk = experiments.sweep_leaves

    def undecided_halt(*args, **kwargs):
        for decided, outcome, ran in walk(*args, **kwargs):
            yield ({} if decided == {0: 0} else decided), outcome, ran

    monkeypatch.setattr(experiments, "sweep_leaves", undecided_halt)
    report = classify_all(MachineClass(1, 2), budget=50)
    # The empty table halts at once on slot 0, so the widened leaf claims
    # that halt for all 25 machines and fails on each of them.
    assert isinstance(report.outcomes[0], Halted)
    assert report.audits == [False] * 25


def test_compact_ids_cover_every_class_within_the_guard():
    """The verbose machine code needs more than 10 symbols or 26 states;
    the smallest such classes are already past the guard."""
    for mclass in (MachineClass(1, 11), MachineClass(27, 1)):
        assert mclass.size > CLASS_SIZE_GUARD
        with pytest.raises(ValueError, match="beyond the guard"):
            MachineIds(mclass)
        with pytest.raises(ValueError, match="beyond the guard"):
            classify_all(mclass, budget=1)


def test_two_state_sweep_shares_runs_between_machines():
    report = classify_all(MachineClass(2, 2), budget=1_000)
    # 297 leaves, one per node of the prefix tree; mirroring pairs them
    # into 149 orbits, and the oracle runs once per orbit.
    leaves = list(sweep_leaves(MachineClass(2, 2), budget=1_000))
    assert len(leaves) == 297
    assert report.oracle_runs == sum(ran for _, _, ran in leaves) == 149
    assert report.counts == {"halted": 1165, "loop_detected": 274, "budget_exceeded": 5122}
    assert report.all_audits_passed
    assert "oracle runs: 149 for 6561 machines" in summary_text(report)
    # The CSV bytes of the per-machine sweep, pinned before rows became columns.
    digest = hashlib.sha256(report_to_csv(report).encode("utf-8")).hexdigest()
    assert digest == "a4e4be1dc6010618733d6230b5e1a2b1d4de063795f861c1eefa13b2101de35c"
    # S(2,2) = 6 counts the halting transition; here a halt is an absent
    # rule and executes no step, so the class's longest halt reads 5.
    assert report.max_halt_steps == 5
    assert most_cells_at_a_halt(report) == 4  # Sigma(2,2) = 4


def most_cells_at_a_halt(report):
    """The most non-blank cells a halted row of ``report`` ends with,
    read off its distinct outcome objects: taken by identity, so the
    rows are not hashed."""
    distinct = dict(zip(map(id, report.outcomes), report.outcomes)).values()
    return max(len(o.final_id.tape) for o in distinct if isinstance(o, Halted))


def census_at(mclass, leaves, budget):
    """The census at ``budget`` read off the leaves of a walk at a budget
    of at least ``budget``: a run takes the same steps under any budget,
    so a leaf halts by ``budget`` when its halt takes at most that many
    steps, loops when its loop is detected by then, and runs out of
    budget otherwise.  A leaf stands for every choice of the slots it
    leaves undecided."""
    slots = mclass.state_count * mclass.alphabet_size
    radix = round(mclass.size ** (1 / slots))
    assert radix**slots == mclass.size
    counts = dict.fromkeys(("halted", "loop_detected", "budget_exceeded"), 0)
    for decided, outcome, _ in leaves:
        if isinstance(outcome, Halted) and outcome.steps <= budget:
            tag = "halted"
        elif isinstance(outcome, LoopDetected) and outcome.first_index + outcome.period <= budget:
            tag = "loop_detected"
        else:
            tag = "budget_exceeded"
        counts[tag] += radix ** (slots - len(decided))
    return counts


def test_one_walk_gives_the_census_at_every_smaller_budget():
    mclass = MachineClass(2, 2)
    leaves = list(sweep_leaves(mclass, budget=10**4))
    for budget in (*range(1, 9), 10, 10**2, 10**3):
        assert census_at(mclass, leaves, budget) == classify_all(mclass, budget=budget).counts, budget
    # The census still moves up to budget 7, where it reaches its final form.
    assert census_at(mclass, leaves, 1) == {"halted": 1053, "loop_detected": 0, "budget_exceeded": 5508}
    assert census_at(mclass, leaves, 6) != census_at(mclass, leaves, 7)
    assert census_at(mclass, leaves, 7) == {"halted": 1165, "loop_detected": 274, "budget_exceeded": 5122}


def test_one_walk_gives_the_three_state_census_at_smaller_budgets():
    mclass = MachineClass(3, 2)
    leaves = list(sweep_leaves(mclass, budget=10))
    for budget in (1, 3, 5):
        assert census_at(mclass, leaves, budget) == classify_all(mclass, budget=budget).counts, budget


class _Unreadable:
    """A column that has a length but refuses to be read."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        raise AssertionError("the column was read")

    def __getitem__(self, index):
        raise AssertionError("the column was read")


def test_the_summary_reads_the_census_not_the_columns():
    """``classify_all`` stores the census it totalled from its leaves, so
    the summary and the audit verdict need no row of either column."""
    report = classify_all(MachineClass(2, 2), budget=1_000)
    sealed = replace(
        report, outcomes=_Unreadable(len(report.outcomes)), audits=_Unreadable(len(report.audits))
    )
    assert summary_text(sealed) == summary_text(report)
    assert sealed.all_audits_passed is report.all_audits_passed is True


@pytest.mark.parametrize(
    "states, symbols, budget, history_cap, input_symbols, reduced",
    [
        (2, 2, 300, 40, (), True),
        (2, 2, 300, None, (1,), True),
        (3, 1, 200, 50, (), True),
        (4, 1, 300, None, (), True),
        # An input cell past cell 0 turns mirroring off, and two states
        # leave nothing to relabel.
        (2, 2, 300, None, (1, 0, 1), False),
    ],
)
def test_every_leaf_has_the_outcome_of_its_own_table(
    states, symbols, budget, history_cap, input_symbols, reduced
):
    """A leaf whose outcome was mapped from its orbit's one run has the
    outcome of a run on its own partial table, as a run leaf has."""
    options = [None, *itertools.product(range(symbols), (LEFT, RIGHT), range(states))]
    leaves = list(sweep_leaves(MachineClass(states, symbols), budget, history_cap, input_symbols))
    for decided, outcome, _ in leaves:
        table = {divmod(k, symbols): options[d] for k, d in decided.items() if d}
        own = run_with_oracle(Machine(states, symbols, table), input_symbols, budget, history_cap)
        if isinstance(own, BudgetExceeded):
            own = BudgetExceeded(own.steps, None, own.history_capped)
        assert outcome == own, decided
    mapped = [outcome for _, outcome, ran in leaves if not ran]
    assert any(isinstance(outcome, Halted) for outcome in mapped) == reduced
    assert bool(mapped) == reduced


class _Sha256Stream:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode("utf-8"))


@pytest.mark.parametrize(
    "states, symbols, counts, max_halt, runs, digest, most_cells",
    [
        (
            3, 2, {"halted": 790_025, "loop_detected": 282_044, "budget_exceeded": 3_754_740},
            20, 21_257, "0b3b323c0d6354614d33e425c815831b37705e23f9371c8e97c15b97f2f38bce", 6,
        ),
        (
            2, 3, {"halted": 645_595, "loop_detected": 136_730, "budget_exceeded": 4_044_484},
            37, 21_787, "a1b5461688741127a54248343e78682ec68ca01fd47d47e18bad809c9682291e", 9,
        ),
    ],
)
def test_three_state_and_three_symbol_sweeps_are_pinned(
    states, symbols, counts, max_halt, runs, digest, most_cells
):
    """The 3x2 and 2x3 sweeps at budget 10^3, pinned by their CSV bytes as
    the sweep wrote them with one oracle run per prefix; 3x2 is the
    smallest class where relabelling states maps one node to another."""
    report = classify_all(MachineClass(states, symbols), budget=1_000)
    assert report.counts == counts
    # One less than S(3,2) = 21 and S(2,3) = 38: a halt executes no step.
    assert report.max_halt_steps == max_halt
    # Sigma(3,2) = 6 and Sigma(2,3) = 9.
    assert most_cells_at_a_halt(report) == most_cells
    assert report.all_audits_passed
    assert report.oracle_runs == runs
    stream = _Sha256Stream()
    write_report_csv(report, stream)
    assert stream.hash.hexdigest() == digest


@pytest.mark.parametrize(
    "budget, history_cap, capped, limit",
    [(10_000, 100_000, False, 1_000_000), (300, 40, True, None)],
)
def test_sweep_budget_rows_keep_the_step_count_not_the_configuration(
    budget, history_cap, capped, limit
):
    """Budget leaves drop their last configuration, which no row prints; at
    budget 10^4 the 2x2 report retained 57 MiB of them and now fits in 1 MB."""
    tracemalloc.start()
    try:
        report = classify_all(MachineClass(2, 2), budget, history_cap)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if limit is not None:
        assert retained < limit
    steps = history_cap if capped else budget
    rows = [o for o in report.outcomes if isinstance(o, BudgetExceeded)]
    assert len(rows) == 5122
    assert set(rows) == {BudgetExceeded(steps, None, history_capped=capped)}
    assert report.counts == {"halted": 1165, "loop_detected": 274, "budget_exceeded": 5122}
    assert report.all_audits_passed
    # A budget row cannot be replayed: it claims no configuration.
    machines = enumerate(enumerate_class(MachineClass(2, 2)))
    k, machine = next((k, m) for k, m in machines if isinstance(report.outcomes[k], BudgetExceeded))
    assert report.audits[k] is None
    assert not replay_verify(machine, (), report.outcomes[k])


def test_classification_csv_is_stable():
    report_a = classify_all(MachineClass(1, 2), budget=50)
    report_b = classify_all(MachineClass(1, 2), budget=50)
    csv_a = report_to_csv(report_a)
    assert csv_a == report_to_csv(report_b)
    lines = csv_a.splitlines()
    assert lines[0] == "machine_id,outcome,steps,loop_first,loop_period,audit"
    assert lines[1] == "------,halted,0,,,true"
    assert len(lines) == 26
    assert "wall" not in csv_a  # timing never contaminates the body


def test_csv_row_shapes_for_all_outcomes():
    # The 1x1 class has three machines: ---, 0LA and 0RA.
    outcomes = [
        Halted(steps=0, final_id=None),
        LoopDetected(first_index=0, period=2),
        BudgetExceeded(steps=9, last_id=None),
    ]
    audits = [True, True, None]
    report = ClassificationReport(
        mclass=MachineClass(1, 1),
        budget=9,
        history_cap=None,
        input_symbols=(),
        outcomes=outcomes,
        audits=audits,
        wall_seconds=1.23,
        **rowwise_census(outcomes, audits),
    )
    assert report_to_csv(report).splitlines() == [
        "machine_id,outcome,steps,loop_first,loop_period,audit",
        "---,halted,0,,,true",
        "0LA,loop_detected,2,0,2,true",
        "0RA,budget_exceeded,9,,,",
    ]
    summary = summary_text(report)
    assert "wall time" in summary
    assert "halted: 1" in summary
    assert "machines=3" in summary


def test_csv_refuses_columns_that_do_not_cover_the_class():
    """Short columns are refused before the first line is written, also
    when they are longer than one chunk of lines."""
    outcome = BudgetExceeded(steps=1, last_id=None)
    for states, size, outcomes, audits in ((1, 25, 24, 24), (2, 6561, 6560, 6560), (2, 6561, 6561, 6560)):
        report = ClassificationReport(
            mclass=MachineClass(states, 2),
            budget=1,
            history_cap=None,
            input_symbols=(),
            outcomes=[outcome] * outcomes,
            audits=[None] * audits,
            wall_seconds=0.0,
            **rowwise_census([outcome] * outcomes, [None] * audits),
        )
        stream = io.StringIO()
        expected = f"the {states}x2 class: {size} ids, {outcomes} outcomes, {audits} audits"
        with pytest.raises(ValueError, match=expected):
            write_report_csv(report, stream)
        assert stream.getvalue() == ""


@pytest.mark.parametrize(
    "states, symbols, input_symbols",
    # 1x2's ids have an empty prefix; (1,) is no input for one symbol.
    [(1, 2, ()), (1, 2, (1,)), (2, 1, ()), (3, 1, ()), (2, 2, ()), (2, 2, (1,))],
)
def test_the_csv_written_by_runs_matches_the_rowwise_writer(states, symbols, input_symbols):
    for budget, history_cap in itertools.product((0, 1, 50, 1_000), (None, 0, 5)):
        report = classify_all(MachineClass(states, symbols), budget, history_cap, input_symbols)
        written = report_to_csv(report).splitlines(True)
        assert written == rowwise_report_csv(report).splitlines(True), (budget, history_cap)


@pytest.mark.parametrize("states, symbols", [(2, 2), (1, 5)])
def test_the_csv_runs_break_at_each_new_outcome_object_or_flag(states, symbols):
    """Equal but distinct outcome objects and flipped flags end a run.  Runs
    also cross last-state blocks (81 rows in 2x2) and, in 1x5's one block
    of 161,051 rows, the 4096-line chunk: a write holds at most two."""
    rng = random.Random(23)
    mclass = MachineClass(states, symbols)
    shared = [Halted(2, None), LoopDetected(0, 2), BudgetExceeded(9, None)]
    outcomes, audits = [], []
    while len(outcomes) < mclass.size:
        outcome = rng.choice(shared)
        if rng.random() < 0.5:
            outcome = replace(outcome)  # equal, not the same object
        length = rng.choice((1, 2, 3, 80, 81, 82, 5_000))
        outcomes += [outcome] * length
        if rng.random() < 0.5:
            audits += [rng.choice((True, False, None))] * length
        else:
            audits += [rng.choice((True, False, None)) for _ in range(length)]
    outcomes, audits = outcomes[: mclass.size], audits[: mclass.size]
    report = ClassificationReport(
        mclass, 9, None, (), outcomes, audits, 0.0, **rowwise_census(outcomes, audits)
    )
    writes = []
    write_report_csv(report, type("Recorder", (), {"write": staticmethod(writes.append)})())
    assert "".join(writes).splitlines(True) == rowwise_report_csv(report).splitlines(True)
    assert max(text.count("\n") for text in writes) <= 2 * 4096


def test_growth_profile_of_the_runner_is_the_identity():
    profile = cell_growth_profile(right_runner(), (), budget=100, samples=5)
    assert profile == [(0, 0), (25, 25), (50, 50), (75, 75), (100, 100)]


def test_growth_profile_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        cell_growth_profile(right_runner(), (), budget=-5, samples=4)


def test_growth_profile_of_a_shuttler_is_flat():
    profile = cell_growth_profile(bouncer(), (), budget=40, samples=4)
    counts = [count for _, count in profile]
    assert all(count == 0 for count in counts)


def _profile_by_reruns(machine, input_symbols, budget, samples):
    """The growth profile as one plain run from step 0 per mark."""
    marks = sorted({round(i * budget / (samples - 1)) for i in range(samples)})
    profile = []
    for mark in marks:
        outcome = run(machine, input_symbols, mark)
        snapshot = outcome.final_id if isinstance(outcome, Halted) else outcome.last_id
        profile.append((outcome.steps, len(snapshot.tape)))
        if isinstance(outcome, Halted) and outcome.steps < mark:
            break
    return profile


def test_growth_profile_matches_one_run_per_mark():
    rng = random.Random(20260)
    options = [None] + [(w, mv, n) for w in range(2) for mv in (LEFT, RIGHT) for n in range(2)]
    halting = 0
    for _ in range(400):
        table = {(s, a): rng.choice(options) for s in range(2) for a in range(2)}
        machine = Machine(2, 2, {slot: rule for slot, rule in table.items() if rule})
        tape = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
        budget, samples = rng.randrange(30), rng.randrange(2, 9)
        profile = cell_growth_profile(machine, tape, budget, samples)
        assert profile == _profile_by_reruns(machine, tape, budget, samples)
        halting += isinstance(run(machine, tape, budget), Halted)
    assert halting > 50


def test_growth_profile_repeats_a_halt_that_lands_on_a_mark():
    # Halts after exactly two steps, which is the second of marks 0, 2, 4.
    walker = Machine(2, 2, {(0, 0): (1, RIGHT, 1), (1, 0): (1, LEFT, 0)})
    assert cell_growth_profile(walker, (), budget=4, samples=3) == [(0, 0), (2, 2), (2, 2)]


def test_falsify_demo_small_ladder():
    report = falsify_demo(budgets=(10, 50))
    assert report.all_budget_exceeded
    assert report.strictly_monotone
    assert [o.steps for o in report.outcomes] == [10, 50]
    text = falsify_text(report)
    assert "budget_exceeded" in text
    assert "10" in text and "50" in text


@pytest.mark.parametrize(
    "budgets",
    [(100, 1_000, 10_000, 100_000), (10_000, 100, 100, 0), (0,), (7,), (12_345, 3)],
)
def test_falsify_demo_matches_a_run_per_rung_and_the_plain_profile(budgets):
    report = falsify_demo(budgets)
    assert report.budgets == budgets
    assert report.outcomes == [
        run_with_oracle(right_runner(), (), b, max_history=None) for b in budgets
    ]
    assert report.profile == cell_growth_profile(right_runner(), (), max(budgets), 10)
    assert report.all_budget_exceeded
    assert report.strictly_monotone


@pytest.mark.parametrize("budgets", [(), (100, -1), (-1,)])
def test_falsify_demo_refuses_a_bad_ladder_before_any_work(budgets, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the ladder was run")

    monkeypatch.setattr(experiments, "OracleRun", no_run)
    monkeypatch.setattr(experiments, "run_with_oracle", no_run)
    with pytest.raises(ValueError):
        falsify_demo(budgets)


def test_fixture_loading_resolves_files_and_expectations():
    fixture = load_fixture(f"{FIXTURES}/found_min_zero.task")
    assert fixture.name == "found_min_zero"
    assert fixture.expect == "found"
    task = fixture.task
    assert task.quantum == 100
    assert task.budget == 100
    assert task.max_cert_size == 3
    assert task.t2_machine == right_runner()
    assert task.g_body == Compose(MONUS, (const_expr(3, 1), Proj(1, 1)))
    assert task.fixed_args == ()


def test_fixture_diagnostics_name_the_broken_file(tmp_path):
    task = tmp_path / "bad.task"
    task.write_text(
        "g=missing.rf\nentry=g\nmachine=also_missing.tm\nquantum=1\nbudget=1\nmax_cert_size=1\n",
        encoding="utf-8",
    )
    with pytest.raises(FixtureError, match="missing.rf"):
        load_fixture(task)

    incomplete = tmp_path / "incomplete.task"
    incomplete.write_text("entry=g\n", encoding="utf-8")
    with pytest.raises(FixtureError, match="incomplete.task"):
        load_fixture(incomplete)

    bad_expect = tmp_path / "surprise.task"
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 1 1)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    bad_expect.write_text(
        "g=g.rf\nentry=g\nmachine=m.tm\nquantum=1\nbudget=1\nmax_cert_size=1\nexpect=solved\n",
        encoding="utf-8",
    )
    with pytest.raises(FixtureError, match="expect"):
        load_fixture(bad_expect)


_FOUND_MIN_ZERO = [
    "format=1",
    "g=find_zero.rf",
    "entry=g",
    "machine=runner.tm",
    "quantum=100",
    "budget=100",
    "max_cert_size=3",
]


@pytest.mark.parametrize(
    "lines, reason",
    [
        (_FOUND_MIN_ZERO + ["budget"], "line 8: expected key=value"),
        (_FOUND_MIN_ZERO + ["quantum = 5"], "line 8: duplicate key 'quantum'"),
        (["format=2"] + _FOUND_MIN_ZERO[1:], "unsupported format version '2'"),
        (_FOUND_MIN_ZERO + ["colour=red"], r"unknown keys \['colour'\]"),
        (_FOUND_MIN_ZERO[:-1], r"missing keys \['max_cert_size'\]"),
        ([line.replace("entry=g", "entry=h") for line in _FOUND_MIN_ZERO], "does not define 'h'"),
        ([line.replace("runner.tm", "find_zero.rf") for line in _FOUND_MIN_ZERO], "defines no machine"),
        ([line.replace("runner.tm", "walker.tm") for line in _FOUND_MIN_ZERO], "walker.tm"),
        ([line.replace("find_zero.rf", "broken.rf") for line in _FOUND_MIN_ZERO], r"broken\.rf: line \d+, column \d+: expected '\('"),
        (None, "not valid UTF-8"),
        # The marker is read on the first significant line only.
        (_FOUND_MIN_ZERO[1:] + ["format=1"], r"unknown keys \['format'\]"),
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
    ],
)
def test_fixture_descriptor_diagnostics(tmp_path, lines, reason):
    for name in ("find_zero.rf", "runner.tm"):
        shutil.copy(f"{FIXTURES}/{name}", tmp_path / name)
    (tmp_path / "broken.rf").write_text("def g = zero\ndef h = compose succ\n", encoding="utf-8")
    task = tmp_path / "case.task"
    if lines is None:
        task.write_bytes(b"g=find_zero.rf\nentry=\xff\n")
    elif lines == "directory":
        task.mkdir()
    elif lines != "missing":
        task.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FixtureError, match=reason) as err:
        load_fixture(task)
    assert str(err.value).startswith(str(task))


@pytest.mark.parametrize(
    "marker, accepted",
    [("1", True), ("01", True), ("2", False), ("x", False), ("", False), ("1 2", False), ("1\u00a0", True)],
)
@pytest.mark.parametrize("suffix", [".rf", ".tm", ".task"])
def test_every_format_reads_its_version_marker_as_a_natural(tmp_path, suffix, marker, accepted):
    """Function, machine and task files read ``format=`` by one rule: its
    value is a natural, and it must equal ``FORMAT_VERSION``; any other
    value is refused in the same words."""
    for name in ("find_zero.rf", "runner.tm"):
        shutil.copy(f"{FIXTURES}/{name}", tmp_path / name)
    body = {
        ".rf": "def g = zero\n",
        ".tm": "states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n",
        ".task": "\n".join(_FOUND_MIN_ZERO[1:]) + "\n",
    }[suffix]
    path = tmp_path / f"case{suffix}"
    path.write_text(f"format={marker}\n{body}", encoding="utf-8")
    load = load_fixture if suffix == ".task" else load_program
    if accepted:
        load(path)
    else:
        with pytest.raises((ParseError, FixtureError), match=f"unsupported format version '{marker}'"):
            load(path)


def test_fixture_history_cap_must_be_a_natural(tmp_path):
    for name in ("nonzero_opaque.rf", "runner.tm"):
        shutil.copy(f"{FIXTURES}/{name}", tmp_path / name)
    text = open(f"{FIXTURES}/exhausted_budget.task", encoding="utf-8").read()
    task = tmp_path / "exhausted_budget.task"
    task.write_text(text + "history_cap = 7\n", encoding="utf-8")
    assert load_fixture(task).task.t2_history_cap == 7
    for value in ("lots", "-3", ""):
        task.write_text(text + f"history_cap = {value}\n", encoding="utf-8")
        with pytest.raises(FixtureError, match=r"exhausted_budget\.task: history_cap"):
            load_fixture(task)


def test_fixture_args_must_be_naturals(tmp_path):
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 2 2)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    task = tmp_path / "fixed.task"
    head = "g=g.rf\nentry=g\nmachine=m.tm\nquantum=5\nbudget=20\nmax_cert_size=3\n"
    task.write_text(head + "args = 4\n", encoding="utf-8")
    assert load_fixture(task).task.fixed_args == (4,)
    for value in ("-3", "x", "+4", "\u00b2", "4.0", "1" * 5000):
        task.write_text(head + f"args = {value}\n", encoding="utf-8")
        with pytest.raises(FixtureError, match=r"fixed\.task: args entry must be a natural"):
            load_fixture(task)
    for value in ("1,,0", "100,", ",5"):
        task.write_text(head + f"args = {value}\n", encoding="utf-8")
        with pytest.raises(FixtureError, match=r"fixed\.task: args entry must be a natural, got ''$"):
            load_fixture(task)
    # An empty value is still no arguments; g's arity then refuses the task.
    task.write_text(head + "args=\n", encoding="utf-8")
    with pytest.raises(FixtureError, match="arity"):
        load_fixture(task)


def test_fixture_numbers_are_reported_once_with_the_path(tmp_path):
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 2 2)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    task = tmp_path / "X.task"
    for key in ("quantum", "budget", "max_cert_size"):
        pairs = {"quantum": "5", "budget": "20", "max_cert_size": "3", key: "lots"}
        body = "".join(f"{k}={v}\n" for k, v in pairs.items())
        task.write_text("g=g.rf\nentry=g\nmachine=m.tm\nargs=4\n" + body, encoding="utf-8")
        with pytest.raises(FixtureError, match=f"{key} must be a natural") as err:
            load_fixture(task)
        assert str(err.value).count("X.task") == 1


def test_shipped_suite_is_green_and_byte_stable():
    report = run_fixture_suite(FIXTURES)
    assert report.ok
    assert report.all_audits_passed
    assert not report.mismatches
    assert [f.name for f in report.fixtures] == [
        "exhausted_budget",
        "found_min_zero",
        "loop_self_termination",
        "proved_nonzero",
    ]
    assert suite_to_csv(report) == (
        "fixture,verdict,detail,value,audit,rounds,expected,matched\n"
        "exhausted_budget,exhausted,rounds=60,undetermined,,60,exhausted,true\n"
        "found_min_zero,found,k=3,3,true,1,found,true\n"
        "loop_self_termination,self_terminated,first=0 period=2,0,true,1,self_terminated,true\n"
        "proved_nonzero,proved,succ_head,0,true,1,proved,true\n"
    )
    assert "suite: ok" in suite_text(report)
    values = [reading(record.verdict)[2] for record in report.records]
    assert values == [UNDETERMINED, 3, 0, 0]


def test_empty_fixture_directory_is_ok(tmp_path):
    report = run_fixture_suite(tmp_path)
    assert report.ok
    assert report.records == []


def test_missing_fixture_directory_is_an_error(tmp_path):
    with pytest.raises(FixtureError):
        run_fixture_suite(tmp_path / "nope")


def test_expectation_mismatches_fail_the_suite(tmp_path):
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 1 1)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    (tmp_path / "wrong.task").write_text(
        "g=g.rf\nentry=g\nmachine=m.tm\nquantum=5\nbudget=20\nmax_cert_size=3\nexpect=found\n",
        encoding="utf-8",
    )
    report = run_fixture_suite(tmp_path)
    assert report.all_audits_passed
    assert not report.ok
    assert report.mismatches == ["wrong: expected found, got proved"]
    assert "MISMATCH" in suite_text(report)


@pytest.mark.parametrize(
    "bad, reason",
    [
        ({"budget": -1}, "budget must be nonnegative"),
        ({"history_cap": -1}, "history cap must be nonnegative"),
        ({"input_symbols": (7,)}, "input symbol 7 at cell 0 out of range"),
    ],
)
def test_a_sweep_refuses_bad_arguments_before_any_work(bad, reason):
    # The 3x2 class has 4,826,809 machines: two columns of that many
    # pointers would take tens of megabytes.
    mclass = MachineClass(3, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=reason):
            classify_all(mclass, **bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # The walk refuses at its call, before its first leaf is asked for.
    with pytest.raises(ValueError, match=reason):
        sweep_leaves(mclass, **bad)
