"""The benchmark's contact points with the package.

``benchmarks/tracing.py`` wraps package attributes by name, and
``benchmarks/selftest.py`` shows that each workload's checker accepts
real output and rejects corrupted output.  Both break silently when a
refactor renames what they reach for, so both run here.
"""

import io
import unittest
from pathlib import Path

import pytest

from haltlab import experiments, machine, oracle, proofs, trio

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def benchmarks_on_path(monkeypatch):
    # Undone at teardown, together with what the benchmark modules add.
    monkeypatch.syspath_prepend(str(BENCHMARKS))


def test_the_tracer_wraps_live_attributes_and_restores_them(benchmarks_on_path):
    import tracing

    owners = (
        experiments,
        machine,
        oracle,
        proofs,
        trio,
        machine.InstantaneousDescription,
        oracle.OracleRun,
        trio.TrioRun,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    # Raises if an attribute the tracer wraps is gone.
    tracer.install()
    try:
        report = experiments.classify_all(experiments.MachineClass(1, 2), budget=50)
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        for attr, value in saved.items():
            assert now[attr] is value, f"{owner.__name__}.{attr} was not restored"
    decided_leaves = [
        outcome
        for _, outcome in experiments.sweep_leaves(experiments.MachineClass(1, 2), budget=50)
        if isinstance(outcome, (oracle.Halted, oracle.LoopDetected))
    ]
    layers = tracer.per_layer(
        ["experiments.classify_all.calls", "oracle.run_with_oracle.calls", "oracle.replay_verify.calls"]
    )
    assert layers == {
        "experiments.classify_all.calls": 1,
        # One run per distinct consulted prefix, the root's included.
        "oracle.run_with_oracle.calls": report.oracle_runs,
        # One replay per halted or looped leaf, not one per row.
        "oracle.replay_verify.calls": len(decided_leaves),
    }
    assert len(decided_leaves) == 1 < report.counts["halted"]


def test_the_benchmark_checkers_pass_their_self_tests(benchmarks_on_path):
    # Writes its corpus under the git-ignored benchmarks/out/.
    import selftest

    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun > 0
    assert result.wasSuccessful(), result.failures + result.errors
