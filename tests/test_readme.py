"""The README's examples are run, so the documentation cannot drift."""

import re
from pathlib import Path

from haltlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(heading: str) -> list[tuple[str, str]]:
    """(language, body) of each fenced block in the section under ``heading``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    level = heading.split(" ", 1)[0]
    end = text.find(f"\n{level} ", start + len(heading) + 2)
    return FENCE.findall(text[start : end if end >= 0 else len(text)])


def test_library_example_runs():
    sources = [body for lang, body in _blocks("## Library") if lang == "python"]
    assert sources
    for source in sources:
        exec(compile(source, str(README), "exec"), {})


def test_trio_sample_is_the_real_output(capsys):
    sample = [body for lang, body in _blocks("### trio — run the fixture suite") if not lang]
    assert main(["trio", "--fixtures", "fixtures/trio"]) == 0
    assert capsys.readouterr().out == sample[0]


def test_classify_sample_rows_appear_in_report_order(tmp_path, capsys):
    command, sample = _blocks("### classify — sweep a whole machine class")[:2]
    argv = command[1].split()
    assert argv[:2] == ["haltlab", "classify"]
    out = tmp_path / "report.csv"
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv[1:]) == 0
    assert "oracle runs: 149 for 6561 machines" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    wanted = sample[1].splitlines()
    assert lines[0] == wanted[0]
    positions = [lines.index(row) for row in wanted]
    assert positions == sorted(positions)
