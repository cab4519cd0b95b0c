"""Command-line front end.

Four subcommands: ``classify`` enumerates a machine class and writes
the classification CSV, ``trio`` runs a directory of task fixtures,
``eval`` applies a function from a definition file, and ``demo
falsify`` prints the right-runner demonstration.  All configuration is
flags; nothing is read from the environment.

Exit codes: 0 on success, 1 when an audit or expectation fails, 2 for
unusable invocations or inputs.  argparse uses 2 for flag errors on its
own; ``main`` is the one place that turns every other error into 2: a
diagnostic from the package, an input that cannot be read, and an
``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .dsl import load_program, parse_natural
from .experiments import (
    DEFAULT_BUDGET,
    DEFAULT_HISTORY_CAP,
    MachineClass,
    classify_all,
    falsify_demo,
    falsify_text,
    report_to_csv,
    run_fixture_suite,
    suite_text,
    suite_to_csv,
    summary_text,
)
from .recfun import FuelExhausted, evaluate

USAGE_ERROR = 2
AUDIT_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haltlab",
        description="Loop-detection oracle, recursive-function evaluator, and classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="enumerate a machine class and classify every member"
    )
    p_classify.add_argument("--states", type=int, required=True, help="states per machine")
    p_classify.add_argument("--symbols", type=int, required=True, help="tape symbols, blank included")
    p_classify.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="step budget per machine")
    p_classify.add_argument(
        "--history-cap",
        type=int,
        default=DEFAULT_HISTORY_CAP,
        help="recorded configurations per machine; 0 means unlimited",
    )
    p_classify.add_argument(
        "--input",
        default="",
        help="comma-separated input symbols (default: blank tape)",
    )
    p_classify.add_argument("--out", help="write the CSV here instead of stdout")
    p_classify.set_defaults(run=_cmd_classify)

    p_trio = sub.add_parser("trio", help="run every .task fixture in a directory")
    p_trio.add_argument("--fixtures", required=True, help="directory of .task files")
    p_trio.add_argument("--out", help="also write a CSV of the records here")
    p_trio.set_defaults(run=_cmd_trio)

    p_eval = sub.add_parser("eval", help="apply a defined function to arguments")
    p_eval.add_argument("--program", required=True, help="a .rf definition file")
    p_eval.add_argument("--name", required=True, help="which definition to apply")
    p_eval.add_argument("--args", default="", help="comma-separated naturals")
    p_eval.add_argument("--fuel", type=int, default=100_000, help="evaluation fuel")
    p_eval.set_defaults(run=_cmd_eval)

    p_demo = sub.add_parser("demo", help="standing demonstrations")
    p_demo.add_argument("what", choices=["falsify"], help="which demonstration")
    p_demo.add_argument(
        "--budgets",
        default="100,1000,10000,100000,1000000",
        help="comma-separated step budgets",
    )
    p_demo.set_defaults(run=_cmd_demo)

    return parser


def _parse_naturals(text: str, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    values = []
    for part in parts:
        value = parse_natural(part)
        if value is None:
            raise ValueError(f"{what} must be comma-separated naturals, got {part!r}")
        values.append(value)
    return tuple(values)


def _cmd_classify(ns: argparse.Namespace) -> int:
    mclass = MachineClass(ns.states, ns.symbols)
    input_symbols = _parse_naturals(ns.input, "--input")
    cap = None if ns.history_cap == 0 else ns.history_cap
    if ns.budget < 0 or (cap is not None and cap < 1):
        raise ValueError("budget must be nonnegative and history cap positive")
    report = classify_all(mclass, ns.budget, cap, input_symbols)
    body = report_to_csv(report)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
        print(summary_text(report), end="")
    else:
        sys.stdout.write(body)
        print(summary_text(report), end="", file=sys.stderr)
    return 0 if report.all_audits_passed else AUDIT_ERROR


def _cmd_trio(ns: argparse.Namespace) -> int:
    report = run_fixture_suite(ns.fixtures)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(suite_to_csv(report))
    print(suite_text(report), end="")
    return 0 if report.ok else AUDIT_ERROR


def _cmd_eval(ns: argparse.Namespace) -> int:
    program = load_program(ns.program)
    expr = program.functions.get(ns.name)
    if expr is None:
        names = ", ".join(sorted(program.functions)) or "none"
        raise ValueError(f"no definition {ns.name!r} (available: {names})")
    args = _parse_naturals(ns.args, "--args")
    if ns.fuel < 0:
        raise ValueError("--fuel must be nonnegative")
    result = evaluate(expr, args, ns.fuel)
    if isinstance(result, FuelExhausted):
        print(f"fuel exhausted after {result.consumed} units")
    else:
        print(result)
    return 0


def _cmd_demo(ns: argparse.Namespace) -> int:
    budgets = _parse_naturals(ns.budgets, "--budgets")
    if not budgets:
        raise ValueError("--budgets must name at least one budget")
    report = falsify_demo(budgets)
    print(falsify_text(report), end="")
    ok = report.all_budget_exceeded and report.strictly_monotone
    return 0 if ok else AUDIT_ERROR


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except (ValueError, OSError) as err:
        # Every package diagnostic is a ValueError; OSError covers an
        # input that cannot be read and an --out that cannot be written.
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
