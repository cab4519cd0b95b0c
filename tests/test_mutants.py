"""The mutant registry still points at the code and tests it names.

Running the mutants takes a few minutes (``python tools/mutants.py``); this
only checks that each one would apply: every snippet occurs exactly once
in its file, the mutated file still compiles (the tool counts a
collection error as a kill, so a syntax error would kill a mutant
without testing anything), and every test meant to kill it exists.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_registered_mutant_still_applies(mutant):
    assert mutant.edits and mutant.tests
    assert all(snippet != replacement for snippet, replacement in mutant.edits)
    text, stale = mutants.apply_edits(mutant)
    assert stale == []
    compile(text, mutant.path, "exec")
    for test in mutant.tests:
        path, _, name = test.partition("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name)}\(", text, re.MULTILINE), test
