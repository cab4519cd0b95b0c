"""Command-line interface tests: subcommands, exit codes, output routing."""

import pytest

from haltlab.cli import main

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


def test_eval_reports_fuel_exhaustion_without_failing(capsys):
    code = main(
        ["eval", "--program", f"{FIXTURES}/find_zero.rf", "--name", "g", "--args", "2", "--fuel", "3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "fuel exhausted after 3 units\n"


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


def test_demo_falsify_reports_the_ladder(capsys):
    code = main(["demo", "falsify", "--budgets", "10,50"])
    captured = capsys.readouterr()
    assert code == 0
    assert "right-runner" in captured.out
    assert "budget_exceeded" in captured.out


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
