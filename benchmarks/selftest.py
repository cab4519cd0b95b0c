"""Show that each workload's checker passes real output and rejects a
deliberately corrupted copy of it.

    python3 benchmarks/selftest.py

Uses short budgets (the 2x2 census is the same from 10 steps up), so it
finishes in a few seconds.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from haltlab import experiments  # noqa: E402
from haltlab.oracle import LoopDetected  # noqa: E402
from haltlab.trio import Found, SelfTerminated  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402

BUDGET = 50
LADDER = (100, 1_000)


class SweepChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        report = experiments.classify_all(experiments.MachineClass(2, 2), budget=BUDGET)
        cls.lines = experiments.report_to_csv(report).splitlines(keepends=True)

    def failed(self, lines) -> int:
        return checks.check_sweep("".join(lines), 2, 2, BUDGET, random.Random(0))

    def first_row(self, outcome: str) -> int:
        return next(i for i, line in enumerate(self.lines) if line.split(",")[1] == outcome)

    def test_real_output_passes(self):
        self.assertEqual(self.failed(self.lines), 0)

    def test_flipped_outcome_is_rejected(self):
        # Swap the claims of a halted row and a budget row: the census
        # still holds, so only the per-row checks can catch it.
        lines = list(self.lines)
        halted, budget = self.first_row("halted"), self.first_row("budget_exceeded")
        h_id, h_claim = lines[halted].split(",", 1)
        b_id, b_claim = lines[budget].split(",", 1)
        lines[halted], lines[budget] = f"{h_id},{b_claim}", f"{b_id},{h_claim}"
        self.assertEqual(self.failed(lines), 2)

    def test_loop_period_off_by_one_is_rejected(self):
        lines = list(self.lines)
        row = self.first_row("loop_detected")
        fields = lines[row].rstrip("\n").split(",")
        fields[4] = str(int(fields[4]) + 1)
        lines[row] = ",".join(fields) + "\n"
        self.assertEqual(self.failed(lines), 1)


class FalsifyChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = experiments.falsify_demo(LADDER)

    def test_real_output_passes(self):
        self.assertEqual(checks.check_falsify(self.report, LADDER), 0)

    def test_profile_pair_out_of_order_is_rejected(self):
        profile = list(self.report.profile)
        profile[3], profile[4] = profile[4], profile[3]
        corrupted = dataclasses.replace(self.report, profile=profile)
        self.assertEqual(checks.check_falsify(corrupted, LADDER), 1)


class TrioChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        directory = ROOT / "benchmarks" / "out" / "selftest-corpus"
        cls.expectations = corpus.build(directory, seed=7)
        cls.report = experiments.run_fixture_suite(directory)

    def corrupted(self, tag: str, change) -> int:
        records = list(self.report.records)
        index = next(
            i for i, fixture in enumerate(self.report.fixtures)
            if fixture.name.startswith("gen") and self.expectations[fixture.name]["tag"] == tag
        )
        record = records[index]
        records[index] = dataclasses.replace(record, verdict=change(record.verdict))
        return checks.check_trio(dataclasses.replace(self.report, records=records),
                                 self.expectations)

    def test_real_output_passes(self):
        self.assertEqual(checks.check_trio(self.report, self.expectations), 0)

    def test_found_witness_that_is_not_the_least_zero_is_rejected(self):
        # k - y is zero at every y >= k, so k + 1 is a zero but not the least.
        self.assertEqual(self.corrupted("found", lambda v: Found(v.k + 1, v.steps)), 1)

    def test_loop_period_off_by_one_is_rejected(self):
        def longer(verdict):
            loop = verdict.loop
            return SelfTerminated(LoopDetected(loop.first_index, loop.period + 1))

        self.assertEqual(self.corrupted("self_terminated", longer), 1)


if __name__ == "__main__":
    unittest.main()
