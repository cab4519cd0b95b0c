"""Output checkers for the benchmark workloads.

Each checker judges what the package returned against a computation
made apart from the code under test (the single-step reference
``machine.step`` with a seen-set, the reference evaluator
``oracle_evaluate``, closed forms) or against a property the method
must have.  A checker returns the number of operations that failed; an
operation is a CSV row, a ladder rung or a trio task, and a failed
whole-output property (row order, census, CSV identity) fails every
operation of that output.
"""

from __future__ import annotations

import csv
import io
import random
from itertools import product

from haltlab.machine import LEFT, RIGHT, InstantaneousDescription, Machine, initial_id, step
from haltlab.oracle import BudgetExceeded
from haltlab.recfun import FuelExhausted, oracle_evaluate
from haltlab.trio import Exhausted, Found, Proved, SelfTerminated

SWEEP_HEADER = ["machine_id", "outcome", "steps", "loop_first", "loop_period", "audit"]
# The 2-state 2-symbol census holds at every budget from 10 steps up:
# the longest halt takes 6 steps and every loop closes by step 7.
SWEEP_CENSUS = {"halted": 1165, "loop_detected": 274, "budget_exceeded": 5122}
SWEEP_BUDGET_SAMPLE = 6
# Every budget row is also replayed this far, which catches any 2x2
# machine mislabelled as running out of budget.
SWEEP_BUDGET_PREFIX = 16
# Fuel for the reference evaluator when it re-checks trio verdicts.
CHECK_FUEL = 1_000_000
PROVED_SWEEP_POINTS = 12


def canonical_tables(states: int, symbols: int):
    """(machine_id, transitions) for the whole class, in report order.

    Written apart from ``experiments.enumerate_class``: slots run
    state-major then symbol; each slot takes "absent" first, then
    (write, move, next state) with L before R.
    """
    options = [None] + [
        (write, move, nxt)
        for write in range(symbols)
        for move in (LEFT, RIGHT)
        for nxt in range(states)
    ]
    slots = [(s, a) for s in range(states) for a in range(symbols)]
    for assignment in product(options, repeat=len(slots)):
        cells = [
            "---" if rule is None else f"{rule[0]}{rule[1]}{chr(65 + rule[2])}"
            for rule in assignment
        ]
        code = "_".join(
            "".join(cells[s * symbols:(s + 1) * symbols]) for s in range(states)
        )
        table = {slot: rule for slot, rule in zip(slots, assignment) if rule is not None}
        yield code, table


def reference_run(machine: Machine, budget: int, input_symbols=()):
    """Classify one run with ``machine.step`` and a seen-set.

    Returns (outcome tag, steps, first index, period, final description),
    with the oracle's conventions: a repeat is noticed after the step
    that closes it, and a halt found after the last budgeted step is
    still a halt.
    """
    desc = initial_id(machine, input_symbols)
    seen = {desc: 0}
    for t in range(1, budget + 1):
        nxt = step(machine, desc)
        if nxt is None:
            return "halted", t - 1, None, None, desc
        desc = nxt
        first = seen.get(desc)
        if first is not None:
            return "loop_detected", t, first, t - first, desc
        seen[desc] = t
    if step(machine, desc) is None:
        return "halted", budget, None, None, desc
    return "budget_exceeded", budget, None, None, desc


def check_sweep(csv_text: str, states: int, symbols: int, budget: int, rng: random.Random) -> int:
    """Failed rows of a ``report_to_csv`` body for the whole class."""
    expected = list(canonical_tables(states, symbols))
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER or len(rows) != len(expected) + 1:
        return len(expected)
    rows = rows[1:]
    if [row[0] for row in rows] != [code for code, _ in expected]:
        return len(expected)
    census = {tag: 0 for tag in SWEEP_CENSUS}
    for row in rows:
        census[row[1]] = census.get(row[1], 0) + 1
    if census != SWEEP_CENSUS:
        return len(expected)
    failed = 0
    budget_rows = []
    for index, ((_, table), row) in enumerate(zip(expected, rows)):
        if len(row) != len(SWEEP_HEADER):
            failed += 1
        elif row[1] == "budget_exceeded":
            budget_rows.append(index)
            machine = Machine(states, symbols, table)
            prefix = reference_run(machine, min(budget, SWEEP_BUDGET_PREFIX))[0]
            failed += row[2:] != [str(budget), "", "", ""] or prefix != "budget_exceeded"
        else:
            failed += row[1:] != _reference_row(Machine(states, symbols, table), budget)
    for index in rng.sample(budget_rows, min(SWEEP_BUDGET_SAMPLE, len(budget_rows))):
        table = expected[index][1]
        failed += rows[index][1:] != _reference_row(Machine(states, symbols, table), budget)
    return failed


def _reference_row(machine: Machine, budget: int) -> list[str]:
    tag, steps, first, period, _ = reference_run(machine, budget)
    if tag == "budget_exceeded":
        return [tag, str(budget), "", "", ""]
    loop = ["", ""] if first is None else [str(first), str(period)]
    return [tag, str(steps), *loop, "true"]


def right_runner_id(steps: int) -> InstantaneousDescription:
    """Closed form: after s steps the right-runner sits in state 0 at
    cell s with ones on cells 0..s-1."""
    return InstantaneousDescription(0, steps, tuple((cell, 1) for cell in range(steps)))


def check_falsify(report, budgets: tuple[int, ...]) -> int:
    """Failed rungs of a ``falsify_demo`` report.  The growth profile is
    taken over the top rung, so a bad profile fails that rung."""
    if tuple(report.budgets) != tuple(budgets) or len(report.outcomes) != len(budgets):
        return len(budgets)
    oks = [
        isinstance(outcome, BudgetExceeded)
        and outcome.steps == budget
        and not outcome.history_capped
        and outcome.last_id == right_runner_id(budget)
        for budget, outcome in zip(budgets, report.outcomes)
    ]
    marks = [s for s, _ in report.profile]
    profile_ok = (
        len(report.profile) == 10
        and marks[0] == 0
        and marks[-1] == max(budgets)
        and all(a < b for a, b in zip(marks, marks[1:]))
        and all(s == cells for s, cells in report.profile)
        and report.strictly_monotone
    )
    if not profile_ok:
        oks[budgets.index(max(budgets))] = False
    return oks.count(False)


def check_trio(report, expectations: dict) -> int:
    """Failed tasks of a ``run_fixture_suite`` report.

    ``expectations`` maps a fixture name to a dict with ``tag`` and the
    task's own construction: ``g``/``args`` for the evaluator checks,
    ``machine`` for the loop replay, ``k``, ``cert_size`` or ``rounds``
    where the construction fixes them.
    """
    names = [fixture.name for fixture in report.fixtures]
    if (report.mismatches or sorted(names) != sorted(expectations)
            or len(report.records) != len(names)):
        return len(expectations)
    failed = 0
    for fixture, record in zip(report.fixtures, report.records):
        exp = expectations[fixture.name]
        verdict = record.verdict
        kind = {Found: "found", SelfTerminated: "self_terminated", Proved: "proved",
                Exhausted: "exhausted"}.get(type(verdict))
        ok = kind == exp["tag"] and record.label == fixture.name
        if ok and kind == "found":
            ok = verdict.k == exp.get("k", verdict.k) and _least_zero(
                exp["g"], exp["args"], verdict.k
            )
        elif ok and kind == "self_terminated":
            tag, _, first, period, _ = reference_run(exp["machine"], verdict.loop.first_index
                                                     + verdict.loop.period)
            ok = tag == "loop_detected" and (first, period) == (
                verdict.loop.first_index, verdict.loop.period
            )
        elif ok and kind == "proved":
            ok = verdict.certificate.size == exp.get("cert_size", verdict.certificate.size)
            ok = ok and _nowhere_zero(exp["g"], exp["args"])
        elif ok:
            ok = verdict.rounds == exp["rounds"] == record.rounds_run
        audited = record.audit_passed is (None if kind == "exhausted" else True)
        failed += not (ok and audited)
    return failed


def _least_zero(g, args: tuple[int, ...], k: int) -> bool:
    for y in range(k):
        value = oracle_evaluate(g, args + (y,), CHECK_FUEL)
        if isinstance(value, FuelExhausted) or value == 0:
            return False
    return oracle_evaluate(g, args + (k,), CHECK_FUEL) == 0


def _nowhere_zero(g, args: tuple[int, ...]) -> bool:
    return all(
        oracle_evaluate(g, args + (y,), CHECK_FUEL) != 0 for y in range(PROVED_SWEEP_POINTS)
    )
