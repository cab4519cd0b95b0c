"""Enumeration, classification, demonstration, and fixture-suite tests."""

import random
import shutil

import pytest

from haltlab.machine import LEFT, RIGHT, Machine
from haltlab.oracle import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    replay_verify,
    run,
    run_with_oracle,
)
from haltlab.experiments import (
    CLASS_SIZE_GUARD,
    ClassificationReport,
    ClassificationRow,
    FixtureError,
    MachineClass,
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
)
from haltlab.recfun import MONUS, Compose, Proj, const_expr
from haltlab.trio import UNDETERMINED

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


def _per_machine_csv(mclass, budget, history_cap, input_symbols):
    """The sweep as one oracle run per machine: the reference for the tree."""
    rows = []
    for machine in enumerate_class(mclass):
        outcome = run_with_oracle(machine, input_symbols, budget, history_cap)
        audit = None
        if isinstance(outcome, (Halted, LoopDetected)):
            audit = replay_verify(machine, input_symbols, outcome)
        rows.append(ClassificationRow(machine_code(machine), outcome, audit))
    report = ClassificationReport(mclass, budget, history_cap, input_symbols, rows, 0.0)
    return report_to_csv(report)


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
    ],
)
def test_prefix_tree_sweep_matches_one_run_per_machine(
    states, symbols, budget, history_cap, input_symbols
):
    mclass = MachineClass(states, symbols)
    report = classify_all(mclass, budget, history_cap, input_symbols)
    assert report_to_csv(report) == _per_machine_csv(mclass, budget, history_cap, input_symbols)
    assert 1 <= report.oracle_runs <= mclass.size


def test_two_state_sweep_shares_runs_between_machines():
    report = classify_all(MachineClass(2, 2), budget=1_000)
    assert report.oracle_runs == 297
    assert report.counts == {"halted": 1165, "loop_detected": 274, "budget_exceeded": 5122}
    assert report.all_audits_passed
    assert "oracle runs: 297 for 6561 machines" in summary_text(report)


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
    rows = [
        ClassificationRow("------", Halted(steps=0, final_id=None), True),
        ClassificationRow("0RB---_0LA---", LoopDetected(first_index=0, period=2), True),
        ClassificationRow("1RA---", BudgetExceeded(steps=9, last_id=None), None),
    ]
    report = ClassificationReport(
        mclass=MachineClass(2, 2),
        budget=9,
        history_cap=None,
        input_symbols=(),
        rows=rows,
        wall_seconds=1.23,
    )
    assert report_to_csv(report).splitlines() == [
        "machine_id,outcome,steps,loop_first,loop_period,audit",
        "------,halted,0,,,true",
        "0RB---_0LA---,loop_detected,2,0,2,true",
        "1RA---,budget_exceeded,9,,,",
    ]
    summary = summary_text(report)
    assert "wall time" in summary
    assert "halted: 1" in summary


def test_growth_profile_of_the_runner_is_the_identity():
    profile = cell_growth_profile(right_runner(), (), budget=100, samples=5)
    assert profile == [(0, 0), (25, 25), (50, 50), (75, 75), (100, 100)]


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
    ],
)
def test_fixture_descriptor_diagnostics(tmp_path, lines, reason):
    for name in ("find_zero.rf", "runner.tm"):
        shutil.copy(f"{FIXTURES}/{name}", tmp_path / name)
    (tmp_path / "broken.rf").write_text("def g = zero\ndef h = compose succ\n", encoding="utf-8")
    task = tmp_path / "case.task"
    if lines is None:
        task.write_bytes(b"g=find_zero.rf\nentry=\xff\n")
    else:
        task.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FixtureError, match=reason) as err:
        load_fixture(task)
    assert str(err.value).startswith(str(task))


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
    values = [record.value for record in report.records]
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
