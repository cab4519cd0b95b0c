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
_RECFUN = "src/haltlab/recfun.py"
_AT_EVERY_FUEL = "tests/test_recfun.py::test_projection_step_recursion_matches_the_reference_at_every_fuel"
_NO_LOOP = "tests/test_recfun.py::test_a_projection_step_recursion_costs_no_loop"
_DSL = "src/haltlab/dsl.py"
_MARKERS = "tests/test_experiments.py::test_every_format_reads_its_version_marker_as_a_natural"
_SNIFFING = "tests/test_dsl.py::test_sniffing_agrees_with_the_suffix_on_every_shipped_and_generated_file"

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
    # The coasting snapshot (OracleRun.snapshot).
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
    # The version marker (dsl.significant_lines and the function grammar).
    Mutant(
        "rf-marker-tokens-not-skipped",
        _DSL,
        (("_tokenize(text)[3 * marked :]", "_tokenize(text)"),),
        (_MARKERS, _SNIFFING),
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
