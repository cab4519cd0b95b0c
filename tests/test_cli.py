"""Command-line interface tests: subcommands, exit codes, output routing."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from haltlab import cli
from haltlab.cli import main
from haltlab.oracle import Halted, LoopDetected, OracleRun
from tests.helpers import tamper_one_leaf

FIXTURES = "fixtures/trio"


def test_classify_writes_csv_to_stdout_and_summary_to_stderr(capsys):
    code = main(["classify", "--states", "1", "--symbols", "2", "--budget", "50"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("machine_id,outcome,steps,loop_first,loop_period,audit\n")
    assert captured.out.count("\n") == 26
    assert "halted: 5" in captured.err
    assert "budget_exceeded: 20" in captured.err


def test_classify_out_flag_redirects_the_csv(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main(
        ["classify", "--states", "1", "--symbols", "2", "--budget", "50", "--out", str(target)]
    )
    captured = capsys.readouterr()
    assert code == 0
    body = target.read_text(encoding="utf-8")
    assert body.startswith("machine_id,outcome")
    assert "halted: 5" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("kind", [Halted, LoopDetected])
def test_classify_exits_1_on_a_failed_audit(monkeypatch, capsys, kind):
    tampered = tamper_one_leaf(monkeypatch, kind)
    code = main(["classify", "--states", "2", "--symbols", "2", "--budget", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert "audits: FAILURES PRESENT" in captured.err
    (decided,) = tampered
    assert captured.out.count(",false\n") == 9 ** (4 - len(decided)) > 1


def test_classify_runs_the_oracle_once_per_orbit(tmp_path, monkeypatch, capsys):
    """The argument check before --out is opened runs no step, so the
    command advances one OracleRun per orbit of the prefix tree."""
    calls = []
    advance = OracleRun.advance

    def counted(self, n):
        calls.append(n)
        return advance(self, n)

    monkeypatch.setattr(OracleRun, "advance", counted)
    target = tmp_path / "report.csv"
    argv = ["classify", "--states", "2", "--symbols", "2", "--budget", "1000", "--out", str(target)]
    assert main(argv) == 0
    assert "oracle runs: 149 for 6561 machines" in capsys.readouterr().out
    assert len(calls) == 149
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "a4e4be1dc6010618733d6230b5e1a2b1d4de063795f861c1eefa13b2101de35c"


def test_classify_refuses_oversized_classes(capsys):
    code = main(["classify", "--states", "3", "--symbols", "3"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_classify_guard_refuses_huge_classes_by_their_shape(capsys):
    # 8001**4000 has more digits than int-to-str conversion allows.
    for states, shape in (("2000", "8001**4000"), ("100000", "400001**200000")):
        assert main(["classify", "--states", states, "--symbols", "2"]) == 2
        err = capsys.readouterr().err
        assert f"holds {shape} machines, beyond the guard" in err


def test_unwritable_out_files_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (
        ["classify", "--states", "1", "--symbols", "1", "--out", str(missing / "r.csv")],
        ["trio", "--fixtures", FIXTURES, "--out", str(missing / "s.csv")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(missing) in lines[0]


def test_classify_checks_out_and_arguments_before_sweeping(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran before the arguments were checked")

    monkeypatch.setattr(cli, "classify_all", refuse)
    target = tmp_path / "kept.csv"
    target.write_text("previous report\n", encoding="utf-8")
    for argv in (
        ["--states", "1", "--symbols", "2", "--out", str(tmp_path / "missing" / "x.csv")],
        ["--states", "3", "--symbols", "3", "--out", str(target)],
        ["--states", "1", "--symbols", "2", "--input", "1,2", "--out", str(target)],
        ["--states", "1", "--symbols", "2", "--history-cap", "-5", "--out", str(target)],
        ["--states", "1", "--symbols", "2", "--budget", "-5", "--out", str(target)],
    ):
        assert main(["classify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert target.read_text(encoding="utf-8") == "previous report\n"


def test_classify_validates_flag_values(capsys):
    assert main(["classify", "--states", "0", "--symbols", "2"]) == 2
    assert main(["classify", "--states", "1", "--symbols", "2", "--budget", "-5"]) == 2
    assert main(["classify", "--states", "1", "--symbols", "2", "--input", "9"]) == 2
    capsys.readouterr()


def test_classify_history_cap_zero_means_unlimited(capsys):
    code = main(
        ["classify", "--states", "1", "--symbols", "2", "--budget", "50", "--history-cap", "0"]
    )
    assert code == 0
    capsys.readouterr()


def test_trio_runs_the_shipped_fixtures(capsys):
    code = main(["trio", "--fixtures", FIXTURES])
    captured = capsys.readouterr()
    assert code == 0
    assert "suite: ok" in captured.out
    assert "found_min_zero: found value=3" in captured.out


def test_trio_out_flag_writes_the_record_csv(tmp_path, capsys):
    target = tmp_path / "suite.csv"
    code = main(["trio", "--fixtures", FIXTURES, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("fixture,verdict,detail")


def test_trio_missing_directory_is_a_usage_error(tmp_path, capsys):
    code = main(["trio", "--fixtures", str(tmp_path / "nowhere")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_trio_expectation_mismatch_is_an_audit_error(tmp_path, capsys):
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 1 1)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    (tmp_path / "wrong.task").write_text(
        "g=g.rf\nentry=g\nmachine=m.tm\nquantum=5\nbudget=20\nmax_cert_size=3\nexpect=found\n",
        encoding="utf-8",
    )
    code = main(["trio", "--fixtures", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "MISMATCH" in captured.out


def test_trio_negative_fixture_argument_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 2 2)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    (tmp_path / "negative.task").write_text(
        "g=g.rf\nentry=g\nmachine=m.tm\nquantum=5\nbudget=20\nmax_cert_size=3\nargs=-3\n",
        encoding="utf-8",
    )
    code = main(["trio", "--fixtures", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "negative.task: args entry must be a natural" in captured.err


def test_trio_arity_mismatch_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "g.rf").write_text("def g = compose succ (proj 2 2)\n", encoding="utf-8")
    (tmp_path / "m.tm").write_text("states=1 alphabet=2 start=0\n0 0 -> 1 R 0\n", encoding="utf-8")
    (tmp_path / "short.task").write_text(
        "g=g.rf\nentry=g\nmachine=m.tm\nquantum=5\nbudget=20\nmax_cert_size=3\n",
        encoding="utf-8",
    )
    code = main(["trio", "--fixtures", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "short.task: g_body arity 2 does not match 0 fixed arguments" in captured.err
    assert captured.err.count("short.task") == 1


def test_eval_prints_the_value(capsys):
    code = main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "1\n"


def test_eval_prints_values_past_the_integer_conversion_limit(tmp_path, capsys):
    program = tmp_path / "s.rf"
    program.write_text("def s = succ\n", encoding="utf-8")
    code = main(["eval", "--program", str(program), "--name", "s", "--args", "9" * 4300])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "1" + "0" * 4300 + "\n"


def test_eval_reports_fuel_exhaustion_without_failing(capsys):
    code = main(
        ["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", "2", "--fuel", "3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "fuel exhausted after 3 units\n"


def test_eval_negative_fuel_is_the_evaluators_usage_error(capsys):
    code = main(
        ["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", "2", "--fuel", "-1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "fuel" in lines[0]


def test_eval_usage_errors(tmp_path, capsys):
    assert main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "nope"]) == 2
    assert main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", "x"]) == 2
    assert main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", ""]) == 2
    assert main(["eval", "--program", str(tmp_path / "missing.rf"), "--name", "g"]) == 2
    broken = tmp_path / "broken.rf"
    broken.write_text("def g = compose\n", encoding="utf-8")
    assert main(["eval", "--program", str(broken), "--name", "g"]) == 2
    capsys.readouterr()


def test_eval_unknown_name_lists_the_available_names(capsys):
    assert main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "nosuch"]) == 2
    assert capsys.readouterr().err == (
        "error: no definition 'nosuch' (available: g, monus, p2, pred, three)\n"
    )


def test_non_ascii_digits_are_usage_errors(tmp_path, capsys):
    superscript = tmp_path / "super.rf"
    superscript.write_text("def g = proj \u00b2 1\n", encoding="utf-8")
    assert main(["eval", "--program", str(superscript), "--name", "g", "--args", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {superscript}: line 1, column 14: ") and "unexpected character" in err
    for value in ("\u00b2", "1" * 5000):
        assert main(["classify", "--states", "1", "--symbols", "2", "--input", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input must be comma-separated naturals, got ")
    assert main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", "\u00b2"]) == 2
    assert "--args must be comma-separated naturals" in capsys.readouterr().err


def test_comma_lists_refuse_empty_items(capsys):
    flags = {
        "--input": ["classify", "--states", "1", "--symbols", "2"],
        "--budgets": ["demo", "falsify"],
        "--args": ["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g"],
    }
    for flag, argv in flags.items():
        for value in ("1,,0", "100,", ",5", " , "):
            assert main([*argv, flag, value]) == 2
            assert capsys.readouterr().err == (
                f"error: {flag} must be comma-separated naturals, got ''\n"
            )
    # Text that is empty as a whole is still no items at all.
    assert main(["classify", "--states", "1", "--symbols", "2", "--input", ""]) == 0
    assert "machines=25" in capsys.readouterr().err
    assert main(["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", ""]) == 2
    assert capsys.readouterr().err == "error: term: expected 1 arguments, got 0\n"


def test_demo_falsify_reports_the_ladder(capsys):
    code = main(["demo", "falsify", "--budgets", "10,50"])
    captured = capsys.readouterr()
    assert code == 0
    assert "right-runner" in captured.out
    assert "budget_exceeded" in captured.out


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], "99d46ce142ab97278d435d4782b23bd460e4f93d51f15886549742e998e60886"),
        (["--budgets", "10000,100,100,0"],
         "77a9e11d11d706a07a96aaa973ae36f2a1748dd7b412a8b78127945343a95093"),
    ],
)
def test_demo_falsify_prints_the_pinned_text(argv, digest, capsys):
    """Pinned from the demo that ran each rung and the profile on its own."""
    assert main(["demo", "falsify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_the_module_entry_point_prints_what_main_prints(capsys):
    """``python -m haltlab`` goes through ``__main__`` and ``cli.entry``."""
    argv = ["demo", "falsify", "--budgets", "100,1000"]
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-m", "haltlab", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_demo_falsify_validates_budgets(capsys):
    assert main(["demo", "falsify", "--budgets", ""]) == 2
    assert main(["demo", "falsify", "--budgets", "ten"]) == 2
    assert main(["demo", "falsify", "--budgets", ","]) == 2
    capsys.readouterr()


def test_argparse_usage_failures_exit_with_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["demo", "unknown"])
    assert err.value.code == 2
    capsys.readouterr()
