"""Interleaved-searcher tests: verdicts, fairness, resumption, audits.

The three searchers advance strictly in T1, T2, T3 order inside each
round, one quantum apiece, so every verdict below is a deterministic
consequence of the task parameters; several tests pin down exactly
which round resolves and why.
"""

import random
import typing

import pytest

from haltlab import recfun
from haltlab.oracle import LoopDetected
from haltlab.proofs import Certificate
from haltlab.recfun import (
    ADD,
    MONUS,
    SUCC,
    Compose,
    FuelExhausted,
    Mu,
    Proj,
    const_expr,
    evaluate_costed,
    oracle_evaluate,
)
from haltlab.trio import (
    UNDETERMINED,
    VERDICT_TAGS,
    Exhausted,
    Found,
    Proved,
    SelfTerminated,
    TrioRun,
    TrioTask,
    TrioVerdict,
    Undetermined,
    classify_corpus_entry,
    extend,
    reading,
    run_trio,
)
from haltlab.experiments import bouncer, load_fixture, right_runner
from tests.helpers import RestartingTrioRun, gen_expr, shuttle_machine

THREE_MINUS_Y = Compose(MONUS, (const_expr(3, 1), Proj(1, 1)))
SUCC_OF_Y = Compose(SUCC, (Proj(1, 1),))
# 1 - (y - y) in truncated arithmetic: constantly 1, but headed by a
# subtraction no certificate rule can read.
OPAQUE_ONE = Compose(
    MONUS,
    (const_expr(1, 1), Compose(MONUS, (Proj(1, 1), Proj(1, 1)))),
)
# mu z. z + 1 = 0: diverges at every argument.
DIVERGES = Mu(Compose(SUCC, (Proj(2, 2),)))


def make_task(g, machine, quantum, budget, max_cert_size=3):
    return TrioTask(
        g_body=g,
        fixed_args=(),
        t2_machine=machine,
        quantum=quantum,
        budget=budget,
        max_cert_size=max_cert_size,
    )


def test_task_validation():
    with pytest.raises(ValueError):
        make_task(THREE_MINUS_Y, right_runner(), quantum=0, budget=10)
    with pytest.raises(ValueError):
        make_task(THREE_MINUS_Y, right_runner(), quantum=10, budget=-1)
    with pytest.raises(ValueError):
        TrioTask(
            g_body=SUCC_OF_Y,
            fixed_args=(1, 2),
            t2_machine=right_runner(),
            quantum=1,
            budget=1,
            max_cert_size=3,
        )
    # Inputs the run would only trip on later are refused up front too.
    valid = dict(
        g_body=Compose(SUCC, (Proj(2, 2),)),
        fixed_args=(1,),
        t2_machine=right_runner(),
        quantum=1,
        budget=1,
        max_cert_size=3,
    )
    TrioTask(**valid, t2_input=(1, 0), t2_history_cap=0)
    for bad, what in (
        ({"fixed_args": (-3,)}, "fixed_args"),
        ({"t2_input": (5,)}, "t2_input"),
        ({"t2_history_cap": -1}, "t2_history_cap"),
    ):
        with pytest.raises(ValueError, match=what):
            TrioTask(**{**valid, **bad})


def test_zero_budget_exhausts_immediately():
    task = make_task(THREE_MINUS_Y, right_runner(), quantum=10, budget=0)
    assert run_trio(task) == Exhausted(rounds=0)


def test_value_search_wins_and_reports_true_cost():
    # candidate evaluations cost 11 + 21 + 30 + 38 fuel: exactly one
    # 100-unit quantum resolves the search in the first round.
    task = make_task(THREE_MINUS_Y, right_runner(), quantum=100, budget=100)
    runner = TrioRun(task)
    verdict = runner.run()
    assert verdict == Found(k=3, steps=100)
    assert runner.rounds_run == 1
    assert extend(task) == 3


def test_value_search_resumes_across_rounds():
    """A quantum smaller than one candidate's cost still makes progress.

    Unfinished evaluations do not charge the committed meter, so the
    available allowance grows by a quantum per round until the candidate
    fits; the reported cost stays the sum of completed evaluations.
    """
    task = make_task(THREE_MINUS_Y, right_runner(), quantum=30, budget=100)
    runner = TrioRun(task)
    verdict = runner.run()
    assert verdict == Found(k=3, steps=100)
    assert runner.rounds_run == 4
    assert runner.t1_granted == 120
    # polling short-circuits on a verdict, so the searchers behind the
    # winner received one grant fewer
    assert runner.t2_granted == 90
    assert runner.t3_granted == 90


def test_machine_watcher_wins_on_a_live_loop():
    task = make_task(OPAQUE_ONE, bouncer(), quantum=10, budget=50)
    runner = TrioRun(task)
    verdict = runner.run()
    assert verdict == SelfTerminated(loop=LoopDetected(first_index=0, period=2))
    assert runner.rounds_run == 1
    assert runner.t2_steps == 2
    assert extend(task) == 0


def test_machine_watcher_needs_enough_accumulated_steps():
    task = make_task(OPAQUE_ONE, bouncer(), quantum=1, budget=50)
    runner = TrioRun(task)
    assert runner.run() == SelfTerminated(loop=LoopDetected(first_index=0, period=2))
    assert runner.rounds_run == 2


def test_a_zero_history_cap_holds_the_watcher_at_step_zero():
    task = TrioTask(
        g_body=OPAQUE_ONE,
        fixed_args=(),
        t2_machine=bouncer(),
        quantum=10,
        budget=5,
        max_cert_size=3,
        t2_history_cap=0,
    )
    runner = TrioRun(task)
    assert runner.run() == Exhausted(rounds=5)
    assert runner.t2_steps == 0


def test_scheduling_order_gives_the_watcher_priority_over_proofs():
    # With a big quantum both T2 and T3 could fire in round one; T2 is
    # polled first, so the loop wins over the available certificate.
    task = make_task(SUCC_OF_Y, bouncer(), quantum=10, budget=50)
    assert isinstance(run_trio(task), SelfTerminated)


def test_proof_search_wins_for_successor_heads():
    task = make_task(SUCC_OF_Y, right_runner(), quantum=2, budget=50)
    runner = TrioRun(task)
    verdict = runner.run()
    assert verdict == Proved(certificate=Certificate("succ_head"))
    assert runner.rounds_run == 1
    assert runner.t3_checked == 2  # const_nonzero rejected, then succ_head
    assert extend(task) == 0


def test_proof_search_paces_by_quantum():
    task = make_task(SUCC_OF_Y, right_runner(), quantum=1, budget=50)
    runner = TrioRun(task)
    assert runner.run() == Proved(certificate=Certificate("succ_head"))
    assert runner.rounds_run == 2
    assert runner.t3_checked == 2


def test_exhaustion_is_the_fourth_outcome():
    task = make_task(OPAQUE_ONE, right_runner(), quantum=50, budget=60)
    runner = TrioRun(task)
    verdict = runner.run()
    assert verdict == Exhausted(rounds=60)
    assert runner.rounds_run == 60
    assert runner.t1_granted == 3000
    assert runner.t2_granted == 3000
    assert runner.t3_granted == 3000
    assert runner.t2_steps == 3000  # the runner never stops consuming
    assert runner.t3_checked == 18  # the whole size-3 catalogue was tried
    assert extend(task) is UNDETERMINED
    assert not isinstance(UNDETERMINED, int)
    assert isinstance(UNDETERMINED, Undetermined)


def test_verdicts_are_deterministic():
    task = make_task(THREE_MINUS_Y, right_runner(), quantum=7, budget=200)
    assert run_trio(task) == run_trio(task)


def test_corpus_entry_records_verdict_audit_and_counters():
    record = classify_corpus_entry(
        make_task(THREE_MINUS_Y, right_runner(), quantum=100, budget=100), label="probe"
    )
    assert record.label == "probe"
    assert record.verdict == Found(k=3, steps=100)
    assert record.value == 3
    assert record.audit_passed is True
    assert record.rounds_run == 1
    # T1 resolved in round one, so the proof searcher was never polled
    assert record.counters["t3_checked"] == 0
    # every candidate finished within its first evaluation
    assert record.counters["t1_evaluated"] == record.counters["t1_spent"] == 100
    # all seven runner counters, the granted counts included, as a
    # fresh run of the same task leaves them
    fresh = TrioRun(make_task(THREE_MINUS_Y, right_runner(), quantum=100, budget=100))
    fresh.run()
    seven = {"t1_granted", "t1_spent", "t1_evaluated", "t2_granted", "t2_steps",
             "t3_granted", "t3_checked"}
    assert record.counters.keys() == seven
    assert record.counters == {name: getattr(fresh, name) for name in seven}
    assert record.counters["t1_granted"] == 100

    proved = classify_corpus_entry(
        make_task(SUCC_OF_Y, right_runner(), quantum=5, budget=50), label="p"
    )
    assert proved.audit_passed is True

    exhausted = classify_corpus_entry(
        make_task(OPAQUE_ONE, right_runner(), quantum=5, budget=5), label="e"
    )
    assert exhausted.audit_passed is None
    assert exhausted.value is UNDETERMINED


def test_found_audit_rejects_a_non_minimal_witness():
    from haltlab.trio import _audit_found

    task = make_task(THREE_MINUS_Y, right_runner(), quantum=100, budget=100)
    assert _audit_found(task, Found(k=3, steps=100), 10_000) is True
    assert _audit_found(task, Found(k=1, steps=100), 10_000) is False


def test_reading_covers_every_verdict_and_extend_is_the_record_value():
    """The shipped fixtures give one verdict of each kind: ``reading``
    tags them in ``TrioVerdict``'s order, and ``extend`` gives each
    task's record value."""
    names = ("found_min_zero", "loop_self_termination", "proved_nonzero", "exhausted_budget")
    tasks = [load_fixture(f"fixtures/trio/{name}.task").task for name in names]
    records = [classify_corpus_entry(task) for task in tasks]
    verdicts = [record.verdict for record in records]
    assert tuple(type(verdict) for verdict in verdicts) == typing.get_args(TrioVerdict)
    assert tuple(reading(verdict)[0] for verdict in verdicts) == VERDICT_TAGS
    values = [extend(task) for task in tasks]
    assert values == [record.value for record in records] == [3, 0, 0, UNDETERMINED]


def test_agreement_with_a_directly_computed_ground_truth():
    """Whenever the trio answers Found, the answer is the true least zero;
    whenever it answers Proved, no zero exists in the scanned range."""
    rng = random.Random(0xBEEF)
    tested = 0
    for _ in range(40):
        g = gen_expr(rng, 1, rng.randint(0, 3))
        truth = None
        for k in range(61):
            value = oracle_evaluate(g, (k,), 4000)
            if isinstance(value, FuelExhausted):
                truth = "stuck"
                break
            if value == 0:
                truth = k
                break
        if truth == "stuck":
            continue  # the scan itself ran out of fuel; nothing to compare
        # Modest budgets keep T1's evaluation work small: at most four
        # times its grant of 500 * 60 fuel.
        task = make_task(g, right_runner(), quantum=500, budget=60)
        verdict = run_trio(task)
        if isinstance(verdict, Found):
            # Sequential search cannot skip: a found zero inside the
            # scanned range must be the scan's least zero.
            if verdict.k <= 60:
                assert truth == verdict.k
                tested += 1
            else:
                assert truth is None
        elif isinstance(verdict, Proved):
            assert truth is None
            tested += 1
    assert tested >= 10  # the corpus actually exercises the claim


def trio_counters(runner):
    return (
        runner.rounds_run,
        runner.t1_granted,
        runner.t2_granted,
        runner.t3_granted,
        runner.t1_spent,
        runner.t2_steps,
        runner.t3_checked,
    )


def test_shipped_fixtures_keep_their_timing():
    """Rounds and every counter are pinned: lookahead in T1 must not move
    the round in which any searcher finishes, nor what it is charged."""
    pinned = {
        "exhausted_budget": (60, 3000, 3000, 3000, 2920, 3000, 18),
        "found_min_zero": (1, 100, 0, 0, 100, 0, 0),
        "loop_self_termination": (1, 50, 50, 0, 34, 2, 0),
        "proved_nonzero": (1, 50, 50, 50, 48, 50, 2),
    }
    for name, expected in pinned.items():
        runner = TrioRun(load_fixture(f"fixtures/trio/{name}.task").task)
        runner.run()
        assert trio_counters(runner) == expected, name
        assert runner.t1_evaluated <= 4 * runner.t1_granted, name


# --- differential tests against the restarting value search ---------------


def run_against_reference(task):
    """Run the task both ways; everything observable must agree."""
    runner = TrioRun(task)
    reference = RestartingTrioRun(task)
    verdict = runner.run()
    assert verdict == reference.run(), task
    assert trio_counters(runner) == trio_counters(reference), task
    assert runner.t1_evaluated <= 4 * runner.t1_granted, task
    return runner, verdict


def random_task(rng, g, machine, max_quantum=60):
    return TrioTask(
        g_body=g,
        fixed_args=(),
        t2_machine=machine,
        quantum=rng.randint(1, max_quantum),
        budget=rng.randint(0, 80),
        max_cert_size=rng.randint(0, 4),
    )


def test_lookahead_matches_the_restarting_search_on_random_tasks():
    rng = random.Random(0x7210)
    for _ in range(150):
        g = DIVERGES if rng.random() < 0.15 else gen_expr(rng, 1, rng.randint(0, 4))
        machine = bouncer() if rng.random() < 0.5 else right_runner()
        run_against_reference(random_task(rng, g, machine))


def test_lookahead_on_diverging_candidates():
    for budget in (0, 1, 2, 3, 4, 5, 8, 9, 40):
        task = make_task(DIVERGES, right_runner(), quantum=1, budget=budget)
        runner, verdict = run_against_reference(task)
        assert verdict == Exhausted(rounds=budget)
        assert runner.t1_spent == 0
    # Fuel 1, 2, 4, 8, 16, then capped at the 20 units T1 can ever hold;
    # a search restarting each round would evaluate 1 + 2 + ... + 20.
    runner, _ = run_against_reference(make_task(DIVERGES, right_runner(), quantum=1, budget=20))
    assert runner.t1_evaluated == 1 + 2 + 4 + 8 + 16 + 20


def test_lookahead_when_t2_or_t3_wins_with_a_result_pending():
    """T1 has finished a candidate it may not commit yet when another
    searcher wins; the early result must leave no trace."""
    rng = random.Random(0x9E4D)
    pending_wins = {SelfTerminated: 0, Proved: 0}
    for _ in range(120):
        g = gen_expr(rng, 1, rng.randint(0, 3))
        # T2 wins late on a shuttle, after 2k steps.
        shuttle = random_task(rng, g, shuttle_machine(rng.randint(1, 12)), max_quantum=3)
        # T3 wins late: a sum with a successor-headed summand needs a
        # certificate of two nodes, or three when summed once more.
        s = Compose(SUCC, (gen_expr(rng, 1, rng.randint(0, 2)),))
        summed = Compose(ADD, (g, s) if rng.random() < 0.5 else (s, g))
        if rng.random() < 0.5:
            summed = Compose(ADD, (gen_expr(rng, 1, 1), summed))
        proof = random_task(rng, summed, right_runner(), max_quantum=3)
        for task in (shuttle, proof):
            runner, verdict = run_against_reference(task)
            if type(verdict) in pending_wins and runner._t1_pending is not None:
                pending_wins[type(verdict)] += 1
    assert min(pending_wins.values()) >= 2, pending_wins


def test_lookahead_when_a_cost_exceeds_what_t1_can_be_granted():
    # 3 - y costs 11, 21, ... and quantum 5 for 6 rounds grants 30: the
    # second candidate never fits in the 19 units left after the first.
    task = make_task(THREE_MINUS_Y, right_runner(), quantum=5, budget=6)
    runner, verdict = run_against_reference(task)
    assert verdict == Exhausted(rounds=6)
    assert runner.t1_spent == 11
    # Candidate 0 fails at 5 and 10 and finishes within 20; candidate 1
    # fails at 4, 9 and 18, and its last try stops at the 19 units in reach.
    assert runner.t1_evaluated == 5 + 10 + 11 + 4 + 9 + 18 + 19

    rng = random.Random(0x5EAC)
    beyond = 0
    for _ in range(100):
        g = gen_expr(rng, 1, rng.randint(1, 4))
        task = random_task(rng, g, right_runner(), max_quantum=20)
        runner, verdict = run_against_reference(task)
        reach = task.quantum * task.budget - runner.t1_spent
        if isinstance(verdict, Exhausted) and reach > 0:
            args = (runner._t1_candidate,)
            beyond += evaluate_costed(g, args, reach)[0] is None
    assert beyond >= 5


def test_t1_validates_its_term_once_per_run(monkeypatch):
    real_arity = recfun.arity
    calls = 0

    def counting_arity(expr):
        nonlocal calls
        calls += 1
        return real_arity(expr)

    seen = {}
    for budget in (100, 2000):
        task = make_task(SUCC_OF_Y, right_runner(), quantum=5, budget=budget, max_cert_size=0)
        calls = 0
        monkeypatch.setattr(recfun, "arity", counting_arity)
        runner = TrioRun(task)
        verdict = runner.run()
        monkeypatch.undo()
        assert verdict == Exhausted(rounds=budget)
        seen[budget] = (calls, runner._t1_candidate)
    # Twenty times the candidates, the same number of term checks.
    assert seen[2000][1] > 10 * seen[100][1]
    assert seen[2000][0] == seen[100][0]
