"""Loop-oracle tests: detection, budgets, history accounting, replay audits."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltlab import oracle
from haltlab.experiments import MachineClass, classify_all, enumerate_class, falsify_demo, machine_code, report_to_csv
from haltlab.machine import LEFT, RIGHT, InstantaneousDescription, Machine, initial_id, step
from haltlab.oracle import (
    BudgetExceeded,
    Halted,
    LoopDetected,
    OracleRun,
    PlainRun,
    replay_verify,
    run,
    run_with_oracle,
)
from tests.helpers import gen_machine, history_len, machines


def ping_pong() -> Machine:
    """Two states shuttling over blank tape; the start configuration recurs at step 2."""
    return Machine(2, 2, {(0, 0): (0, RIGHT, 1), (1, 0): (0, LEFT, 0)})


def marked_ping_pong() -> Machine:
    """Writes one mark, then shuttles: the loop starts at step 1, period 2."""
    return Machine(
        2,
        2,
        {(0, 0): (1, RIGHT, 1), (1, 0): (0, LEFT, 1), (1, 1): (1, RIGHT, 1)},
    )


def runner() -> Machine:
    return Machine(1, 2, {(0, 0): (1, RIGHT, 0)})


def test_empty_table_halts_immediately():
    m = Machine(1, 2, {})
    outcome = run_with_oracle(m, (), budget=10)
    assert outcome == Halted(steps=0, final_id=initial_id(m))


def test_ping_pong_loops_from_the_start():
    assert run_with_oracle(ping_pong(), (), budget=100) == LoopDetected(first_index=0, period=2)


def test_loop_detection_fires_at_first_recurrence():
    # Detection happens at step first_index + period, not later.
    assert run_with_oracle(ping_pong(), (), budget=2) == LoopDetected(first_index=0, period=2)
    assert run_with_oracle(marked_ping_pong(), (), budget=3) == LoopDetected(first_index=1, period=2)


def test_budget_short_of_the_recurrence_reports_budget():
    out = run_with_oracle(marked_ping_pong(), (), budget=2)
    assert out == BudgetExceeded(
        steps=2,
        last_id=InstantaneousDescription.from_tape(1, 0, {0: 1}),
        history_capped=False,
    )


def test_runner_exhausts_any_budget():
    out = run_with_oracle(runner(), (), budget=100)
    assert isinstance(out, BudgetExceeded)
    assert out.steps == 100
    assert not out.history_capped
    assert out.last_id.state == 0
    assert out.last_id.head == 100
    assert len(out.last_id.tape) == 100  # one mark per executed step


def test_halt_at_exactly_the_budget_still_counts_as_halting():
    m = Machine(1, 2, {(0, 0): (1, RIGHT, 0)})
    # Input pins a 1 at cell 2, so the machine halts after exactly 2 steps.
    out = run_with_oracle(m, (0, 0, 1), budget=2)
    assert isinstance(out, Halted)
    assert out.steps == 2
    assert run(m, (0, 0, 1), budget=2) == out


def test_budget_zero_decides_nothing_for_a_live_machine():
    out = run_with_oracle(runner(), (), budget=0)
    assert out == BudgetExceeded(steps=0, last_id=initial_id(runner()), history_capped=False)
    m = Machine(1, 2, {})
    assert run_with_oracle(m, (), budget=0) == Halted(steps=0, final_id=initial_id(m))


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError):
        run(runner(), (), budget=-1)
    with pytest.raises(ValueError):
        run_with_oracle(runner(), (), budget=-1)


def test_a_negative_history_cap_is_refused_by_the_oracle():
    for refuse in (
        lambda: OracleRun(runner(), (), max_history=-1),
        lambda: run_with_oracle(runner(), (), 10, max_history=-1),
        lambda: classify_all(MachineClass(1, 2), budget=10, history_cap=-1),
    ):
        with pytest.raises(ValueError, match="history cap must be nonnegative"):
            refuse()


def test_both_runs_stop_alike_at_the_edges_of_the_budget():
    # Input pins a 1 at cell 2, so the machine halts after exactly 2 steps.
    m, tape = runner(), (0, 0, 1)
    halted = Halted(2, InstantaneousDescription.from_tape(0, 2, {0: 1, 1: 1, 2: 1}))
    expected = {
        0: BudgetExceeded(0, initial_id(m, tape)),
        1: BudgetExceeded(1, InstantaneousDescription.from_tape(0, 1, {0: 1, 2: 1})),
        2: halted,  # found on the last budgeted step
        3: halted,
    }
    for budget, outcome in expected.items():
        assert run(m, tape, budget) == outcome
        assert run_with_oracle(m, tape, budget) == outcome
    empty = Machine(1, 2, {})
    assert run(empty, (), 0) == run_with_oracle(empty, (), 0) == Halted(0, initial_id(empty))


def test_plain_run_never_claims_loops():
    assert run(ping_pong(), (), budget=50) == BudgetExceeded(
        steps=50, last_id=InstantaneousDescription.from_tape(0, 0, {})
    )


def test_history_cap_zero_stops_before_the_first_step():
    m = marked_ping_pong()
    assert run_with_oracle(m, (), 10, max_history=0) == BudgetExceeded(0, initial_id(m), history_capped=True)
    orun = OracleRun(Machine(1, 2, {}), (), max_history=0)
    assert orun.advance(0) == BudgetExceeded(0, initial_id(Machine(1, 2, {})), history_capped=True)
    assert history_len(orun) == 1


def test_the_capped_step_proves_no_cycle():
    # The runner's cycle is proven at step 2, by its second record.
    for cap, witness in ((2, None), (3, (1, 1, 1))):
        orun = OracleRun(runner(), (), max_history=cap)
        assert orun.advance(10) == BudgetExceeded(cap, run(runner(), (), cap).last_id, history_capped=True)
        assert orun.translation == witness


def test_history_cap_converts_to_budget_outcome():
    out = run_with_oracle(runner(), (), budget=100, max_history=5)
    assert isinstance(out, BudgetExceeded)
    assert out.history_capped
    assert out.steps == 5
    # The capped outcome is still a true statement about the run.
    assert replay_verify(runner(), (), out)


def test_incremental_advance_matches_one_shot():
    one_shot = run_with_oracle(marked_ping_pong(), (), budget=100)
    stepped = OracleRun(marked_ping_pong(), ())
    outcome = None
    for _ in range(100):
        outcome = stepped.advance(1)
        if outcome is not None:
            break
    assert outcome == one_shot


def test_outcome_is_sticky_and_stops_the_run():
    orun = OracleRun(ping_pong(), ())
    first = orun.advance(10)
    assert first == LoopDetected(first_index=0, period=2)
    assert orun.steps == 2
    assert orun.advance(10) == first
    assert orun.steps == 2


def test_a_slice_that_ends_on_a_halting_configuration_returns_halted():
    """A halt is decided by the slice that reaches it, also when it falls
    exactly at the slice's end, and the outcome is sticky."""
    empty = Machine(1, 2, {})
    orun = OracleRun(empty, ())
    first = orun.advance(0)
    assert first == Halted(0, initial_id(empty))
    assert orun.advance(10) is first and orun.steps == 0
    # Input pins a 1 at cell 2, so the runner halts after exactly 2 steps.
    orun = OracleRun(runner(), (0, 0, 1))
    first = orun.advance(2)
    assert first == Halted(2, InstantaneousDescription.from_tape(0, 2, {0: 1, 1: 1, 2: 1}))
    assert orun.advance(10) is first and orun.steps == 2


def test_the_cap_is_decided_before_a_halt_on_the_capped_step():
    last = InstantaneousDescription.from_tape(0, 2, {0: 1, 1: 1, 2: 1})
    capped = BudgetExceeded(2, last, history_capped=True)
    orun = OracleRun(runner(), (0, 0, 1), max_history=2)
    assert orun.advance(10) == capped
    assert orun.advance(10) is orun.outcome and orun.steps == 2
    assert run_with_oracle(runner(), (0, 0, 1), 10, max_history=2) == capped
    assert replay_verify(runner(), (0, 0, 1), capped)


def test_history_records_exactly_one_entry_per_configuration():
    orun = OracleRun(runner(), ())
    assert history_len(orun) == 1
    assert orun.advance(50) is None
    assert history_len(orun) == 51


def test_replay_accepts_true_outcomes():
    cases = [
        (Machine(1, 2, {}), (), run_with_oracle(Machine(1, 2, {}), (), budget=5)),
        (ping_pong(), (), run_with_oracle(ping_pong(), (), budget=50)),
        (marked_ping_pong(), (), run_with_oracle(marked_ping_pong(), (), budget=50)),
        (runner(), (), run_with_oracle(runner(), (), budget=80)),
    ]
    for machine, input_symbols, outcome in cases:
        assert replay_verify(machine, input_symbols, outcome)


def test_replay_rejects_corrupted_outcomes():
    m = Machine(1, 2, {(0, 0): (1, RIGHT, 0)})
    true_halt = run_with_oracle(m, (0, 0, 1), budget=10)
    assert isinstance(true_halt, Halted)
    assert not replay_verify(m, (0, 0, 1), Halted(true_halt.steps - 1, true_halt.final_id))
    wrong_tape = InstantaneousDescription.from_tape(0, 2, {0: 1})
    assert not replay_verify(m, (0, 0, 1), Halted(true_halt.steps, wrong_tape))

    assert not replay_verify(ping_pong(), (), LoopDetected(first_index=0, period=3))
    assert not replay_verify(runner(), (), LoopDetected(first_index=0, period=2))

    assert not replay_verify(m, (0, 0, 1), BudgetExceeded(steps=10, last_id=wrong_tape))

    # Claims that run past the halt at step 2.
    past = true_halt.steps + 1
    assert not replay_verify(m, (0, 0, 1), Halted(past, true_halt.final_id))
    assert not replay_verify(m, (0, 0, 1), BudgetExceeded(steps=past, last_id=true_halt.final_id))
    assert not replay_verify(m, (0, 0, 1), LoopDetected(first_index=past, period=1))
    assert not replay_verify(m, (0, 0, 1), LoopDetected(first_index=0, period=past))

    # Claims no run can make.
    assert not replay_verify(ping_pong(), (), LoopDetected(first_index=-1, period=2))
    assert not replay_verify(ping_pong(), (), LoopDetected(first_index=0, period=0))
    assert not replay_verify(m, (0, 0, 1), Halted(-1, true_halt.final_id))
    assert not replay_verify(m, (0, 0, 1), true_halt.final_id)


def test_replay_refuses_a_budget_claim_without_a_configuration(monkeypatch):
    """A sweep's budget rows keep no last configuration, so there is
    nothing to replay to: the audit says False, never a pass, and takes
    no step to say it."""
    outcome = run_with_oracle(runner(), (), budget=10)
    assert isinstance(outcome, BudgetExceeded) and replay_verify(runner(), (), outcome)

    def refuse(self, n):
        raise AssertionError("replayed a claim with no configuration")

    monkeypatch.setattr(oracle.PlainRun, "execute", refuse)
    for capped in (False, True):
        for steps in (outcome.steps, 10**6):
            bare = BudgetExceeded(steps, None, history_capped=capped)
            assert not replay_verify(runner(), (), bare)


def test_replay_accepts_any_true_recurrence_not_only_the_first():
    # The loop claim is existential; a doubled period is still a fact.
    assert replay_verify(ping_pong(), (), LoopDetected(first_index=0, period=4))


@settings(max_examples=120, deadline=None)
@given(machines())
def test_every_oracle_verdict_survives_replay(machine):
    outcome = run_with_oracle(machine, (), budget=200)
    assert replay_verify(machine, (), outcome)


def seen_set_outcome(machine: Machine, tape: tuple[int, ...], budget: int, cap: int | None = None):
    """The outcome exhaustive recording gives, from ``machine.step`` and
    a seen-set: the first recurrence by step min(budget, cap), else a
    halt before the cap, else the budget or, when the cap is no larger,
    the capped step."""
    desc = initial_id(machine, tape)
    seen = {desc: 0}
    limit = budget if cap is None else min(budget, cap)
    for t in range(1, limit + 1):
        nxt = step(machine, desc)
        if nxt is None:
            return Halted(t - 1, desc)
        desc = nxt
        if desc in seen:
            return LoopDetected(seen[desc], t - seen[desc])
        seen[desc] = t
    if cap is not None and cap <= budget:
        return BudgetExceeded(cap, desc, history_capped=True)
    return Halted(limit, desc) if step(machine, desc) is None else BudgetExceeded(limit, desc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_agrees_with_plain_simulation(data):
    """The oracle refines the plain run: halts match, loops imply budget
    there.  The seen-set reference holds it to all three outcomes, so a
    BudgetExceeded hides no recurrence and a loop's first_index is the
    first."""
    machine = data.draw(machines())
    symbols = st.integers(0, machine.alphabet_size - 1)
    tape = tuple(data.draw(st.lists(symbols, max_size=6)))
    # short budgets end most often just after a loop closes, before a stall
    budget = data.draw(st.integers(0, 30) | st.integers(0, 200))
    cap = data.draw(st.none() | st.integers(0, 250))
    oracle = run_with_oracle(machine, tape, budget, max_history=cap)
    assert oracle == seen_set_outcome(machine, tape, budget, cap)
    plain = run(machine, tape, budget)
    if isinstance(oracle, Halted):
        assert plain == oracle
    elif isinstance(oracle, LoopDetected):
        assert isinstance(plain, BudgetExceeded)
    elif not oracle.history_capped:
        assert plain == BudgetExceeded(steps=oracle.steps, last_id=oracle.last_id)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plain_run_matches_the_reference_step(data):
    """``run`` rests on the plain kernel; ``machine.step`` is the reference."""
    machine = data.draw(machines())
    symbols = st.integers(0, machine.alphabet_size - 1)
    tape = tuple(data.draw(st.lists(symbols, min_size=1, max_size=6)))
    budget = data.draw(st.integers(0, 60))
    desc = initial_id(machine, tape)
    expected = None
    for t in range(budget):
        nxt = step(machine, desc)
        if nxt is None:
            expected = Halted(t, desc)
            break
        desc = nxt
    if expected is None:
        halts = step(machine, desc) is None
        expected = Halted(budget, desc) if halts else BudgetExceeded(budget, desc)
    assert run(machine, tape, budget) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plain_snapshot_is_the_canonical_description(data):
    """``snapshot`` sorts the live dict as it stands; ``from_tape`` is the
    reference canonicalisation, which also drops blanks."""
    machine = data.draw(machines())
    symbols = st.integers(0, machine.alphabet_size - 1)
    tape = tuple(data.draw(st.lists(symbols, max_size=8)))
    plain = PlainRun(machine, tape)
    for n in data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=6)):
        plain.execute(n)
        reference = InstantaneousDescription.from_tape(plain.state, plain.head, plain.tape)
        assert plain.snapshot() == reference
        assert plain.cell_count() == len(reference.tape)


# --- translated cycles ------------------------------------------------------


def shift_two_cycler() -> Machine:
    """A 2x2 sweep member: period 6, shift +2, falling back 2 cells behind each record."""
    return Machine(
        2,
        2,
        {(0, 0): (1, RIGHT, 1), (0, 1): (0, LEFT, 1), (1, 0): (1, LEFT, 0), (1, 1): (1, RIGHT, 0)},
    )


def left_cycler() -> Machine:
    """A 2x2 sweep member: period 5, shift -1, reaching 2 cells back behind each record."""
    return Machine(
        2,
        2,
        {(0, 0): (0, LEFT, 1), (0, 1): (1, RIGHT, 1), (1, 0): (1, RIGHT, 0), (1, 1): (1, LEFT, 1)},
    )


def three_cycler() -> Machine:
    """Period 11, shift +3, depth 1: each period lays the block 1, 0, 0."""
    return Machine(
        3,
        2,
        {
            (0, 0): (1, RIGHT, 2),
            (0, 1): (1, LEFT, 2),
            (1, 0): (1, LEFT, 0),
            (1, 1): (1, RIGHT, 1),
            (2, 0): (1, RIGHT, 1),
            (2, 1): (0, RIGHT, 2),
        },
    )


def sweeper() -> Machine:
    """1LB0RA_0RB1RA, a 2x2 sweep member: period 6, shift +2.  Its right
    records in state 0 alternate between two windows, so only records
    two apart prove the cycle."""
    return Machine(
        2,
        2,
        {(0, 0): (1, LEFT, 1), (0, 1): (0, RIGHT, 0), (1, 0): (0, RIGHT, 1), (1, 1): (1, RIGHT, 0)},
    )


def mirrored(machine: Machine) -> Machine:
    """The same machine with every move reversed: its cycles shift the other way."""
    flip = {LEFT: RIGHT, RIGHT: LEFT}
    rules = {slot: (w, flip[mv], n) for slot, (w, mv, n) in machine.transitions.items()}
    return Machine(machine.state_count, machine.alphabet_size, rules)


CYCLERS = [
    (shift_two_cycler(), (9, 6, 2)),
    (left_cycler(), (11, 5, -1)),
    (mirrored(shift_two_cycler()), (9, 6, -2)),
    (three_cycler(), (7, 11, 3)),
    (mirrored(three_cycler()), (7, 11, -3)),
    (sweeper(), (6, 6, 2)),
    (mirrored(sweeper()), (6, 6, -2)),
]


def test_right_runner_coasts_to_its_closed_form():
    orun = OracleRun(runner(), ())
    assert orun.advance(10**6) is None
    assert orun.translation == (1, 1, 1)
    assert (orun.state, orun.head, orun.steps, history_len(orun)) == (0, 10**6, 10**6, 10**6 + 1)
    closed = InstantaneousDescription(0, 10**6, tuple([(cell, 1) for cell in range(10**6)]))
    assert orun.snapshot() == closed and orun.cell_count() == 10**6
    # Coasting records nothing: the proof dropped the fingerprint table,
    # and the skipped copies are a count, not cells.
    assert orun._zobrist is None and orun._hist is None
    depth = orun._cycle[3]
    assert len(orun.tape) <= depth + 1
    assert run_with_oracle(runner(), (), budget=10**6) == BudgetExceeded(10**6, closed)


def bouncer() -> Machine:
    """1LB1RA_0RA1LB, a 2x2 sweep member: it sweeps back and forth over
    a block of marks that grows by one cell a sweep, so it never repeats
    a configuration and no translated cycle fits it."""
    return Machine(
        2,
        2,
        {(0, 0): (1, LEFT, 1), (0, 1): (1, RIGHT, 0), (1, 0): (0, RIGHT, 0), (1, 1): (1, LEFT, 1)},
    )


def test_no_fingerprint_state_outlives_a_run():
    def module_dicts() -> dict[str, int]:
        return {name: len(v) for name, v in vars(oracle).items() if isinstance(v, dict)}

    before = module_dicts()
    orun = OracleRun(bouncer(), ())
    # Its records prove the first slice loop-free, with no table at all.
    assert orun.advance(20_000) is None and orun._zobrist is None
    # A later slice records from step 0: 20 001 steps of the bouncer
    # fill 141 fingerprint table entries, all of them the run's own.
    assert orun.advance(1) is None
    assert len(orun._zobrist) == 141
    assert module_dicts() == before


def test_false_fingerprint_collisions_change_no_verdict(monkeypatch):
    """With every tape sharing one fingerprint, only the replay tells
    configurations with the same head and state apart."""
    expected = report_to_csv(classify_all(MachineClass(2, 2), budget=300, history_cap=None))
    confirm = OracleRun._confirmed_first_index
    false_hits = []

    def counted(self, bucket):
        first = confirm(self, bucket)
        if first is None:
            false_hits.append(bucket)
        return first

    monkeypatch.setattr(oracle, "_mix", lambda x: 0)
    monkeypatch.setattr(OracleRun, "_confirmed_first_index", counted)
    collided = report_to_csv(classify_all(MachineClass(2, 2), budget=300, history_cap=None))
    assert collided == expected
    assert false_hits and any(isinstance(bucket, list) for bucket in false_hits)


@pytest.mark.parametrize("machine, witness", CYCLERS)
def test_translated_cyclers_are_proven_and_skipped_exactly(machine, witness):
    orun = OracleRun(machine, ())
    assert orun.advance(20_000) is None
    assert orun.translation == witness
    plain = PlainRun(machine, ())
    assert not plain.execute(20_000)
    assert (orun.state, orun.head, orun.snapshot()) == (plain.state, plain.head, plain.snapshot())
    assert orun.cell_count() == plain.cell_count()
    # One slice: the cells laid before the proof and at most a period's
    # worth since the jump are all the live tape holds.
    first, period, _ = witness
    assert len(orun.tape) <= first + 2 * period
    assert history_len(orun) == 20_001
    assert run_with_oracle(machine, (), budget=20_000) == run(machine, (), budget=20_000)


@pytest.mark.parametrize("machine, witness", CYCLERS)
def test_slices_that_end_on_an_aligned_step_resume_exactly(machine, witness):
    first, period, _ = witness
    # The first slice ends on an aligned step right after a jump, so the
    # second starts with no kernel-laid copy to fold; later slices end
    # mid-period, and the lead-in finishes the period before the next jump.
    slices = [first + 10 * period, 10 * period, 5 * period + 1, period - 1, 7 * period, 3, 1]
    orun = OracleRun(machine, ())
    plain = PlainRun(machine, ())
    live = []
    for n in slices:
        assert orun.advance(n) is None
        assert not plain.execute(n)
        assert (orun.state, orun.head, orun.steps) == (plain.state, plain.head, plain.steps)
        assert orun.snapshot() == plain.snapshot()
        assert orun.cell_count() == plain.cell_count()
        live.append(len(orun.tape))
    assert orun.translation == witness
    assert live[1] == live[0]  # the second jump moved only the window


@pytest.mark.parametrize("machine, witness", CYCLERS)
def test_history_cap_mid_period_after_a_jump(machine, witness):
    first, period, _ = witness
    cap = first + 20 * period + period // 2
    orun = OracleRun(machine, (), max_history=cap)
    assert orun.advance(10**4) == BudgetExceeded(cap, run(machine, (), cap).last_id, history_capped=True)
    assert orun.translation == witness and orun._laid is not None


def _laid_pairs(orun: OracleRun, snap: InstantaneousDescription) -> list:
    """The pairs of ``snap`` that lie in ``orun``'s laid region."""
    start, copies, block = orun._laid
    size = copies * len(block)
    low, high = (start, start + size) if orun.translation[2] > 0 else (start - size + 1, start + 1)
    return [pair for pair in snap.tape if low <= pair[0] < high]


@pytest.mark.parametrize("machine", [runner(), *(machine for machine, _ in CYCLERS)])
def test_coasting_snapshots_reuse_the_pairs_they_showed(machine):
    orun = OracleRun(machine, ())
    plain = PlainRun(machine, ())
    shown = []
    # growing steps, aligned or not, the first ones before any jump
    for n in (3, 20, 1, 176, 800, 37, 4_000, 1, 15_000):
        assert orun.advance(n) is None
        assert not plain.execute(n)
        snap = orun.snapshot()
        assert snap == plain.snapshot()
        later = {pair[0]: pair for pair in snap.tape}
        assert all(later[pair[0]] is pair for pair in shown)
        if orun._laid is not None:
            shown = _laid_pairs(orun, snap)
    assert len(shown) > 1_000


def test_the_falsify_ladder_builds_each_laid_pair_once():
    tapes = [outcome.last_id.tape for outcome in falsify_demo().outcomes]
    assert [len(tape) for tape in tapes] == [10**2, 10**3, 10**4, 10**5, 10**6]
    # Each rung builds anew only the copies laid since the rung before
    # and its live tape, which here is one cell: cell 0, just before the
    # laid region (the window is the blank head cell).
    distinct = len({id(pair) for tape in tapes for pair in tape})
    assert distinct <= len(tapes[-1]) + len(tapes)


def test_records_start_only_past_the_input():
    # The runner halts on the mark at cell 5; records inside the input
    # would wrongly prove it a cycler before it gets there.
    mark_halts = Machine(1, 2, {(0, 0): (1, RIGHT, 0)})
    stop = run_with_oracle(mark_halts, (0, 0, 0, 0, 0, 1), budget=100)
    assert stop == run(mark_halts, (0, 0, 0, 0, 0, 1), budget=100)
    assert isinstance(stop, Halted) and stop.steps == 5

    flipper = Machine(1, 2, {(0, 0): (1, RIGHT, 0), (0, 1): (0, RIGHT, 0)})
    orun = OracleRun(flipper, (1, 0, 1, 1))
    assert orun.advance(500) is None
    assert orun.translation == (4, 1, 1)  # the first record lands on cell 4
    assert orun.snapshot() == run(flipper, (1, 0, 1, 1), budget=500).last_id


def test_records_two_apart_prove_a_cycle_that_consecutive_ones_cannot():
    # Each record in state 0 looks back one cell, where the marks
    # alternate 2, 1, 2, ...: consecutive records in that state never
    # match, and taking them for a cycle would lay the wrong marks.
    # Records two apart do match, and prove a period of 6.
    alternator = Machine(
        4,
        3,
        {
            (0, 0): (0, LEFT, 1),
            (1, 0): (1, RIGHT, 2),
            (1, 1): (1, RIGHT, 2),
            (1, 2): (2, RIGHT, 3),
            (2, 0): (2, RIGHT, 0),
            (3, 0): (1, RIGHT, 0),
        },
    )
    orun = OracleRun(alternator, ())
    for _ in range(30):
        assert orun.advance(20) is None
    assert orun.translation == (6, 6, 2)
    assert orun.snapshot() == run(alternator, (), budget=600).last_id


def test_a_bouncer_proves_no_cycle():
    # No two of its records in one state see the same cells behind
    # them, so it is stepped one step at a time to the budget and skips
    # no period.
    orun = OracleRun(bouncer(), ())
    assert orun.advance(20_000) is None
    assert orun.translation is None and orun._laid is None
    assert orun.snapshot() == run(bouncer(), (), budget=20_000).last_id


# Each of these runs has two records in one state whose windows agree
# only on too short a stretch behind the head.  A test that accepted a
# window shorter than its depth, measured the older record's depth only
# up to the newer record, or held the older record to the newer one's
# depth would prove a false cycle and lay the wrong cells.
FULL_DEPTH_ONLY = [
    # 1LB0LB_1RB1LA
    (
        Machine(2, 2, {(0, 0): (1, LEFT, 1), (0, 1): (0, LEFT, 1), (1, 0): (1, RIGHT, 1), (1, 1): (1, LEFT, 0)}),
        (9, 9, -3),
    ),
    # 0LC0RA_1RA1RA_1RB1LC
    (
        Machine(
            3,
            2,
            {
                (0, 0): (0, LEFT, 2),
                (0, 1): (0, RIGHT, 0),
                (1, 0): (1, RIGHT, 0),
                (1, 1): (1, RIGHT, 0),
                (2, 0): (1, RIGHT, 1),
                (2, 1): (1, LEFT, 2),
            },
        ),
        (25, 22, 2),
    ),
    # 1RB1RA_0LC1LC_1RA1LB, a bouncer: its tape grows like the square
    # root of the steps, so no translated cycle fits it
    (
        Machine(
            3,
            2,
            {
                (0, 0): (1, RIGHT, 1),
                (0, 1): (1, RIGHT, 0),
                (1, 0): (0, LEFT, 2),
                (1, 1): (1, LEFT, 2),
                (2, 0): (1, RIGHT, 0),
                (2, 1): (1, LEFT, 1),
            },
        ),
        None,
    ),
]


@pytest.mark.parametrize("machine, witness", FULL_DEPTH_ONLY)
def test_records_prove_a_cycle_only_over_their_full_depth(machine, witness):
    orun = OracleRun(machine, ())
    assert orun.advance(3000) is None
    assert orun.translation == witness
    plain = PlainRun(machine, ())
    assert not plain.execute(3000)
    assert (orun.state, orun.head, orun.snapshot()) == (plain.state, plain.head, plain.snapshot())


def test_history_cap_mid_period_in_one_step_slices():
    machine = left_cycler()
    cap = 40  # 29 steps past the first record: 5 periods and 4 steps
    orun = OracleRun(machine, (), max_history=cap)
    plain = PlainRun(machine, ())
    outcome = None
    while outcome is None:
        outcome = orun.advance(1)
        plain.execute(1)
        assert (orun.state, orun.head, orun.tape, orun.steps) == (plain.state, plain.head, plain.tape, plain.steps)
    assert orun.translation == (11, 5, -1)
    assert outcome == BudgetExceeded(cap, run(machine, (), cap).last_id, history_capped=True)
    assert orun.advance(1) is outcome and orun.steps == cap


def test_the_oracle_agrees_with_the_plain_kernel_over_small_classes():
    """Every 2x2 machine and a seeded uniform sample of 3x2 and 2x3
    machines, each run to one fixed step with and without the oracle.

    A sweep row keeps no tape, so the sweep tests miss an unsound
    translated-cycle proof.  Such a proof coasts the run to a wrong tape,
    or past a halt, and this comparison shows either without naming a
    machine.
    """
    rng = random.Random(1)
    # 12 of a slot's 13 options are rules, so this density is uniform over the class
    sample = [gen_machine(rng, n, m, density=12 / 13) for n, m in ((3, 2), (2, 3)) for _ in range(10_000)]
    wrong = []
    for machine in chain(enumerate_class(MachineClass(2, 2)), sample):
        outcome, plain = run_with_oracle(machine, (), 200), run(machine, (), 200)
        if isinstance(outcome, LoopDetected):
            agrees = isinstance(plain, BudgetExceeded) and replay_verify(machine, (), outcome)
        else:
            agrees = outcome == plain
        if not agrees:
            wrong.append(machine_code(machine))
    assert wrong == []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sliced_oracle_tracks_the_plain_kernel(data):
    """Without history, recording or coasting, every slice ends where the
    plain kernel does, with the outcome the seen-set reference gives."""
    machine = data.draw(machines(max_states=4))
    symbols = st.integers(0, machine.alphabet_size - 1)
    tape = tuple(data.draw(st.lists(symbols, min_size=1, max_size=6)))
    cap = data.draw(st.none() | st.integers(0, 400))
    slices = data.draw(st.lists(st.integers(0, 50), max_size=30))
    orun = OracleRun(machine, tape, max_history=cap)
    plain = PlainRun(machine, tape)
    for n in slices:
        outcome = orun.advance(n)
        decided = outcome or BudgetExceeded(orun.steps, orun.snapshot())
        assert decided == seen_set_outcome(machine, tape, orun.steps, cap)
        halted = plain.execute(orun.steps - plain.steps)
        assert (orun.state, orun.head, orun.steps) == (plain.state, plain.head, plain.steps)
        assert orun.snapshot() == plain.snapshot()
        assert orun.cell_count() == plain.cell_count()
        if isinstance(outcome, LoopDetected):
            assert history_len(orun) == orun.steps
            break
        assert history_len(orun) == orun.steps + 1
        if isinstance(outcome, Halted):
            assert halted or plain.at_halt()
            break
        assert not halted
        if outcome is None:
            assert not plain.at_halt()
        else:
            # the cap can fall on the step where the machine halts
            ref = run(machine, tape, cap)
            last = ref.final_id if isinstance(ref, Halted) else ref.last_id
            assert outcome == BudgetExceeded(cap, last, history_capped=True)
            break


def walker_then_shuttle(k: int) -> Machine:
    """Walks k cells right over blank tape, a record at every step, then
    shuttles between cells k - 1 and k: the configuration at step k
    recurs at step k + 2, and a run without history stalls at step
    3k + 9, the first past 3k + 8."""
    rules = {(s, 0): (1, RIGHT, s + 1) for s in range(k)}
    rules[(k, 0)] = (0, LEFT, k + 1)
    rules[(k + 1, 1)] = (1, RIGHT, k)
    return Machine(k + 2, 2, rules)


def test_a_loop_after_many_records_is_found_on_both_sides_of_its_stall(monkeypatch):
    """Below its stall the first slice reaches its end, and the copy that
    looks past it finds no record; past its stall the run stops early.
    Either way it goes back to step 0 and records, and finds the loop."""
    k = 30
    machine = walker_then_shuttle(k)
    restarts = []
    restart = OracleRun._record_from_start

    def spied(self):
        restarts.append(self.steps)
        restart(self)

    monkeypatch.setattr(OracleRun, "_record_from_start", spied)
    expected = {
        k - 1: None,  # still making records: certified, no history
        k + 1: k + 1,  # one step short of the recurrence: the certificate fails
        k + 2: k + 2,
        3 * k + 8: 3 * k + 8,  # the last step before the stall
        3 * k + 10: 3 * k + 9,  # stalled a step before the end
        10_000: 3 * k + 9,
    }
    for budget, restarted_at in expected.items():
        restarts.clear()
        outcome = run_with_oracle(machine, (), budget)
        assert outcome == seen_set_outcome(machine, (), budget)
        if budget >= k + 2:
            assert outcome == LoopDetected(k, 2)
        assert restarts == ([] if restarted_at is None else [restarted_at])


def test_every_two_state_loop_is_found_at_every_budget():
    """Each of the 274 machines of 2x2 that loop from blank tape gets the
    seen-set reference's outcome at every budget up to 40: before its
    loop closes, at the step it closes, up to its stall and past it."""
    loopers = 0
    for machine in enumerate_class(MachineClass(2, 2)):
        if isinstance(seen_set_outcome(machine, (), 40), LoopDetected):
            loopers += 1
            for budget in range(41):
                assert run_with_oracle(machine, (), budget) == seen_set_outcome(machine, (), budget)
    assert loopers == 274
