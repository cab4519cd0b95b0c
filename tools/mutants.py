"""Recorded mutants: break the code on purpose and check that the tests notice.

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file, one or more edits (an exact
snippet of that file and its replacement) and the tests that must fail
once the edits are made.  For each mutant the tool copies the tree into
a temporary directory, makes the edits there, runs each listed test
with its own pytest against the copy's ``src``, and prints the mutant's
name and verdict, with the surviving tests or stale snippets below it:

- ``killed``: every listed test exited non-zero (a failure or a
  collection error), or ran past ``TIMEOUT`` seconds (a mutant that
  hangs the tests is caught too);
- ``survived``: some listed test passed (they are named);
- ``stale``: a snippet does not occur exactly once in its file, so the
  mutant no longer applies and must be re-pointed or retired.

The working tree is never edited.  Exits 1 when any mutant survived or
is stale, else 0.  A test is a pytest node id without its parameters;
it fails when any of its parametrized cases fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TIMEOUT = 900

# Left out of the copy: history, caches and benchmark results.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


@dataclass(frozen=True)
class Mutant:
    """A named break of ``path``: each (snippet, replacement) of ``edits``
    in turn, and the test node ids that must fail because of it."""

    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]


_SWEEP = "tests/test_experiments.py::test_prefix_tree_sweep_matches_one_run_per_machine"
_PINNED = "tests/test_experiments.py::test_two_state_sweep_shares_runs_between_machines"
_OWN_TABLE = "tests/test_experiments.py::test_every_leaf_has_the_outcome_of_its_own_table"
_ONE_STATE = "tests/test_experiments.py::test_one_state_class_has_no_loops_from_blank_tape"
_EXPERIMENTS = "src/haltlab/experiments.py"
_ORACLE = "src/haltlab/oracle.py"
_REUSE = "tests/test_oracle.py::test_coasting_snapshots_reuse_the_pairs_they_showed"
_SKIPPED = "tests/test_oracle.py::test_translated_cyclers_are_proven_and_skipped_exactly"
_ALIGNED = "tests/test_oracle.py::test_slices_that_end_on_an_aligned_step_resume_exactly"
_FULL_DEPTH = "tests/test_oracle.py::test_records_prove_a_cycle_only_over_their_full_depth"
_SMALL_CLASSES = "tests/test_oracle.py::test_the_oracle_agrees_with_the_plain_kernel_over_small_classes"
_CAP_FIRST = "tests/test_oracle.py::test_the_cap_is_decided_before_a_halt_on_the_capped_step"
_CAP_ZERO = "tests/test_oracle.py::test_history_cap_zero_stops_before_the_first_step"
_CLOSED_FORM = "tests/test_oracle.py::test_right_runner_coasts_to_its_closed_form"
_CANONICAL = "tests/test_oracle.py::test_plain_snapshot_is_the_canonical_description"
_RECFUN = "src/haltlab/recfun.py"
_AT_EVERY_FUEL = "tests/test_recfun.py::test_projection_step_recursion_matches_the_reference_at_every_fuel"
_NO_LOOP = "tests/test_recfun.py::test_a_projection_step_recursion_costs_no_loop"
_FROZEN = "tests/test_recfun.py::test_frozen_arithmetic_values_on_both_evaluators"
_FALSIFY_RUNS = "tests/test_experiments.py::test_falsify_demo_matches_a_run_per_rung_and_the_plain_profile"
_FALSIFY_SMALL = "tests/test_experiments.py::test_falsify_demo_small_ladder"
_FALSIFY_REFUSES = "tests/test_experiments.py::test_falsify_demo_refuses_a_bad_ladder_before_any_work"
_CSV_RUNS = "tests/test_experiments.py::test_the_csv_runs_break_at_each_new_outcome_object_or_flag"
_CSV_ROWWISE = "tests/test_experiments.py::test_the_csv_written_by_runs_matches_the_rowwise_writer"
_CSV_COVER = "tests/test_experiments.py::test_csv_refuses_columns_that_do_not_cover_the_class"
_BUDGET_ROWS = "tests/test_experiments.py::test_sweep_budget_rows_keep_the_step_count_not_the_configuration"
_TRIO = "src/haltlab/trio.py"
_SKIP_CORPUS = "tests/test_trio.py::test_skipping_matches_the_round_by_round_run_on_the_benchmark_corpus"
_SKIP_RANDOM = "tests/test_trio.py::test_skipping_matches_the_round_by_round_run_on_random_tasks"
_CAPPED_CYCLE = "tests/test_trio.py::test_a_proven_cycle_is_tallied_up_to_its_history_cap"
_PENDING = "tests/test_trio.py::test_lookahead_when_t2_or_t3_wins_with_a_result_pending"
_DSL = "src/haltlab/dsl.py"
_EMPTY_ITEMS = "tests/test_cli.py::test_comma_lists_refuse_empty_items"
_FIXTURE_ARGS = "tests/test_experiments.py::test_fixture_args_must_be_naturals"
_MARKERS = "tests/test_experiments.py::test_every_format_reads_its_version_marker_as_a_natural"
_SNIFFING = "tests/test_dsl.py::test_sniffing_agrees_with_the_suffix_on_every_shipped_and_generated_file"
_LINE_AND_COLUMN = "tests/test_dsl.py::test_diagnostics_carry_line_and_column"

MUTANTS = (
    # The strided fill of a leaf's rows (classify_all).
    Mutant(
        "fill-offset-plus-one",
        _EXPERIMENTS,
        (
            (
                "offset = sum(decided[k] * radix ** (slots - 1 - k) for k in range(b, slots))",
                "offset = sum(decided[k] * radix ** (slots - 1 - k) for k in range(b, slots)) + 1",
            ),
        ),
        (_ONE_STATE, _PINNED),
    ),
    Mutant(
        "fill-step-too-wide",
        _EXPERIMENTS,
        (
            (
                "step, count = radix ** (slots - b), radix ** (b - a)",
                "step, count = radix ** (slots - b) * radix, radix ** (b - a)",
            ),
        ),
        (_SWEEP, _PINNED),
    ),
    Mutant(
        "fill-count-plus-one-unchecked",
        _EXPERIMENTS,
        (
            (
                "step, count = radix ** (slots - b), radix ** (b - a)",
                "step, count = radix ** (slots - b), radix ** (b - a) + 1",
            ),
            (
                "inside = r.step == radix ** (slots - b) and r[-1] // span == r.start // span",
                "inside = r.step == radix ** (slots - b)",
            ),
        ),
        (_ONE_STATE, _PINNED),
    ),
    # The leaf audit's digit check (classify_all).
    Mutant(
        "audit-digits-reversed",
        _EXPERIMENTS,
        (("digits = [(radix ** (slots - 1 - k), d)", "digits = [(radix ** k, d)"),),
        (_SWEEP, _PINNED),
    ),
    # The CSV writer's runs and its column check (write_report_csv).
    Mutant(
        "csv-column-check-dropped",
        _EXPERIMENTS,
        (("if len(set(lengths)) > 1:", "if False:"),),
        (_CSV_COVER,),
    ),
    Mutant(
        "csv-run-ignores-block-end",
        _EXPERIMENTS,
        (("upto = min(stop, end, start + limit)", "upto = min(stop, start + limit)"),),
        (_CSV_RUNS, _CSV_ROWWISE),
    ),
    Mutant(
        "csv-run-ignores-flag",
        _EXPERIMENTS,
        (("map(is_not, audits, islice(audits, 1, None)),", "map(is_not, outcomes, islice(outcomes, 1, None)),"),),
        (_CSV_RUNS,),
    ),
    Mutant(
        "csv-long-runs-not-split",
        _EXPERIMENTS,
        (("upto = min(stop, end, start + limit)", "upto = min(stop, end)"),),
        (_CSV_RUNS,),
    ),
    # The canonical walk and its images (sweep_leaves).
    Mutant(
        "walk-no-fresh-state",
        _EXPERIMENTS,
        (("if nxt <= named and", "if nxt < named and"),),
        (_SWEEP, _PINNED),
    ),
    Mutant(
        "walk-root-both-moves",
        _EXPERIMENTS,
        (("if nxt <= named and not (mirrors and not decided and pair & 1):", "if nxt <= named:"),),
        (_SWEEP, _PINNED),
    ),
    Mutant(
        "walk-reruns-absent-child",
        _EXPERIMENTS,
        (("for d in range(radix - 1, 0, -1):", "for d in range(radix - 1, -1, -1):"),),
        (_SWEEP, _PINNED),
    ),
    Mutant(
        "walk-mirrors-any-input",
        _EXPERIMENTS,
        (("mirrors = not any(input_symbols[1:])", "mirrors = True"),),
        (_SWEEP, _OWN_TABLE),
    ),
    Mutant(
        "images-never-mirror",
        _EXPERIMENTS,
        (("pair ^ flip", "pair"),),
        (_SWEEP, _PINNED),
    ),
    Mutant(
        "images-all-ran",
        _EXPERIMENTS,
        (("                ran = False\n", ""),),
        (_SWEEP, _PINNED),
    ),
    Mutant(
        "images-outcome-unmoved",
        _EXPERIMENTS,
        (("_moved(outcome, label, flip)", "outcome"),),
        (_SWEEP, _OWN_TABLE),
    ),
    Mutant(
        "moved-tape-not-negated",
        _EXPERIMENTS,
        (
            (
                "head, tape = -head, tuple((-cell, symbol) for cell, symbol in reversed(tape))",
                "head = -head",
            ),
        ),
        (_OWN_TABLE, _BUDGET_ROWS),
    ),
    # The falsify ladder (falsify_demo).
    Mutant(
        "falsify-negative-budget-accepted",
        _EXPERIMENTS,
        (
            (
                '    if min(budgets) < 0:\n        raise ValueError("budget must be nonnegative")\n    marks',
                "    marks",
            ),
        ),
        (_FALSIFY_REFUSES,),
    ),
    Mutant(
        "falsify-rungs-sorted",
        _EXPERIMENTS,
        (("[at[b] for b in budgets]", "[at[b] for b in sorted(budgets)]"),),
        (_FALSIFY_RUNS,),
    ),
    Mutant(
        "falsify-live-cell-count",
        _EXPERIMENTS,
        (("profile.append((oracle.steps, oracle.cell_count()))", "profile.append((oracle.steps, len(oracle.tape)))"),),
        (_FALSIFY_RUNS, _FALSIFY_SMALL),
    ),
    # Deciding an oracle run's outcome (OracleRun.advance).
    Mutant(
        "advance-halt-before-cap",
        _ORACLE,
        (
            (
                "        if self.outcome is None and cap is not None and self.steps >= cap:\n"
                "            self.outcome = BudgetExceeded(self.steps, self.snapshot(), history_capped=True)\n"
                "        if self.outcome is None and self.at_halt():\n"
                "            self.outcome = Halted(self.steps, self.snapshot())\n",
                "        if self.outcome is None and self.at_halt():\n"
                "            self.outcome = Halted(self.steps, self.snapshot())\n"
                "        if self.outcome is None and cap is not None and self.steps >= cap:\n"
                "            self.outcome = BudgetExceeded(self.steps, self.snapshot(), history_capped=True)\n",
            ),
        ),
        (_CAP_FIRST, _CAP_ZERO),
    ),
    # The plain kernel (PlainRun.execute) never stores a blank.
    Mutant(
        "kernel-keeps-blanks",
        _ORACLE,
        (
            (
                "            if write:\n                tape[head] = write\n            else:\n"
                "                tape.pop(head, None)\n",
                "            tape[head] = write\n",
            ),
        ),
        (_CANONICAL, _SMALL_CLASSES),
    ),
    # Skipping whole periods of a proven cycle (OracleRun._jump, cell_count).
    Mutant(
        "jump-fold-dropped",
        _ORACLE,
        (("self._laid[1] = copies + gap // width + k", "self._laid[1] = copies + k"),),
        (_SKIPPED, _ALIGNED),
    ),
    Mutant(
        "cell-count-region-dropped",
        _ORACLE,
        (
            (
                "return len(self.tape) + copies * (len(block) - block.count(BLANK))",
                "return len(self.tape)",
            ),
        ),
        (_CLOSED_FORM, _SKIPPED),
    ),
    # The coasting snapshot (OracleRun.snapshot).
    Mutant(
        "snapshot-region-appended",
        _ORACLE,
        (("at = bisect_left(pairs, (low,))", "at = len(pairs)"),),
        (_SKIPPED, _ALIGNED),
    ),
    Mutant(
        "snapshot-runs-concatenated",
        _ORACLE,
        (("list(chain.from_iterable(zip(*runs)))", "list(chain.from_iterable(runs))"),),
        (_SKIPPED, _ALIGNED),
    ),
    Mutant(
        "snapshot-left-no-reverse",
        _ORACLE,
        (("end, block = start - shown * width + 1, block[::-1]", "end = start - shown * width + 1"),),
        (_SKIPPED, _REUSE),
    ),
    Mutant(
        "snapshot-reuse-wrong-end",
        _ORACLE,
        (("laid += past[at : at + n]", "laid[:0] = past[at : at + n]"),),
        (_ALIGNED, _REUSE),
    ),
    # The translated-cycle records (OracleRun._record).
    Mutant(
        "record-older-depth-not-updated",
        _ORACLE,
        (("            for entry in pair:\n                back", "            for entry in pair[:1]:\n                back"),),
        (_FULL_DEPTH, _SMALL_CLASSES),
    ),
    Mutant(
        "record-older-at-newer-depth",
        _ORACLE,
        (("depth = entry[2]", "depth = pair[0][2]"),),
        (_FULL_DEPTH, _SMALL_CLASSES),
    ),
    Mutant(
        "record-short-window-accepted",
        _ORACLE,
        (("if entry[3][:depth] == behind[:depth]:", "if entry[3] == behind[: len(entry[3])]:"),),
        (_FULL_DEPTH, _SMALL_CLASSES),
    ),
    # A primitive recursion whose step is a projection (recfun's primrec_proj).
    Mutant(
        "primrec-proj-exhausts-late",
        _RECFUN,
        (("if remaining < y:", "if remaining < y - 1:"),),
        (_AT_EVERY_FUEL, _NO_LOOP),
    ),
    Mutant(
        "primrec-proj-step-unit-short",
        _RECFUN,
        (("                remaining -= y\n", "                remaining -= y - 1\n"),),
        (_AT_EVERY_FUEL, _NO_LOOP),
    ),
    Mutant(
        "primrec-proj-level-y",
        _RECFUN,
        (("return y - 1 if i == len(front) else acc", "return y if i == len(front) else acc"),),
        (_AT_EVERY_FUEL, _NO_LOOP),
    ),
    Mutant(
        "primrec-proj-zero-case-dropped",
        _RECFUN,
        (("                if y == 0:\n                    return acc\n", ""),),
        (_AT_EVERY_FUEL, _FROZEN),
    ),
    # Lost trio searchers and idle rounds (TrioRun.t2_steps, _grant_idle_rounds).
    Mutant(
        "trio-cap-clip-dropped",
        _TRIO,
        (("return self.t2_granted if cap is None else min(self.t2_granted, cap)", "return self.t2_granted"),),
        (_CAPPED_CYCLE, _SKIP_CORPUS),
    ),
    Mutant(
        "trio-pending-bar-one-high",
        _TRIO,
        (("else pending[1] - 1", "else pending[1]"),),
        (_PENDING, _SKIP_CORPUS),
    ),
    Mutant(
        "trio-skip-rounded-up",
        _TRIO,
        (("(bar - available) // quantum)", "-((available - bar) // quantum))"),),
        (_CAPPED_CYCLE, _SKIP_RANDOM),
    ),
    Mutant(
        "trio-skip-t3-not-granted",
        _TRIO,
        (("            self.t3_granted += units\n", ""),),
        (_CAPPED_CYCLE, _SKIP_RANDOM),
    ),
    # Comma lists (dsl.parse_naturals).
    Mutant(
        "naturals-empty-items-dropped",
        _DSL,
        (
            (
                'items = [item.strip() for item in text.split(",")] if text.strip() else []',
                'items = [item.strip() for item in text.split(",") if item.strip()]',
            ),
        ),
        (_EMPTY_ITEMS, _FIXTURE_ARGS),
    ),
    # The lines both grammars read (dsl._cut_lines), the version marker
    # (dsl.significant_lines) and the function grammar's tokens.
    Mutant(
        "rf-marker-line-not-skipped",
        _DSL,
        (("for number, line in lines[marker:]:", "for number, line in lines:"),),
        (_MARKERS, _SNIFFING),
    ),
    Mutant(
        "rf-end-ignores-final-break",
        _DSL,
        (('(text + "#").splitlines()', '(text or "#").splitlines()'),),
        (_LINE_AND_COLUMN,),
    ),
    Mutant(
        "marker-value-to-first-blank",
        _DSL,
        (('value = marker.partition("=")[2].strip()', 'value = marker.partition("=")[2].strip().partition(" ")[0]'),),
        (_MARKERS,),
    ),
)


def stale_edits(mutant: Mutant, root: Path = ROOT) -> list[str]:
    """The snippets of ``mutant`` that do not occur exactly once in its
    file under ``root``, in the order the edits apply them."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    stale = []
    for snippet, replacement in mutant.edits:
        if text.count(snippet) != 1:
            stale.append(snippet)
        else:
            text = text.replace(snippet, replacement)
    return stale


def run_mutant(mutant: Mutant) -> tuple[str, list[str]]:
    """(verdict, detail): ``killed`` with no detail (or the timeout),
    ``survived`` with the listed tests that passed, or ``stale`` with the
    unmatched snippets."""
    stale = stale_edits(mutant)
    if stale:
        return "stale", stale
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        for snippet, replacement in mutant.edits:
            text = text.replace(snippet, replacement)
        target.write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        survivors = []
        for test in mutant.tests:
            try:
                run = subprocess.run([*command, test], cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                return "killed", [f"{test} timed out after {TIMEOUT} s"]
            if run.returncode == 0:
                survivors.append(test)
    return ("survived", survivors) if survivors else ("killed", [])


def main() -> int:
    clean = True
    for mutant in MUTANTS:
        verdict, detail = run_mutant(mutant)
        clean = clean and verdict == "killed"
        print(f"{mutant.name}: {verdict}" + "".join(f"\n    {line}" for line in detail), flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
