"""The three workloads: set-up, the timed call into the package, the check.

Each workload is a ``Workload`` whose ``setup(seed, workdir)`` builds
the inputs, ``call(inputs)`` makes the one timed call through the
package's public functions, and ``check(inputs, output, seed)`` returns
how many of its ``operations`` failed.  Calls go through module
attributes (``experiments.classify_all``), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import gc
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from haltlab import experiments

import checks
import corpus

# The census is the same at 10^3 as at the classify default of 10^4,
# and a 10^3 sweep takes a tenth of the time and memory.
SWEEP_BUDGET = 1_000
SWEEP_HISTORY_CAP = 100_000
LADDER = (100, 1_000, 10_000, 100_000, 1_000_000)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], object]
    call: Callable[[object], object]
    check: Callable[[object, object, int], int]
    operations: Callable[[object], int]
    # For the sweep: the report whose bytes are measured, and the CSV
    # that must be byte-identical across runs.
    report: Callable[[object], object] | None = None
    csv: Callable[[object], str] | None = None


def _sweep_call(_):
    report = experiments.classify_all(
        experiments.MachineClass(2, 2), budget=SWEEP_BUDGET, history_cap=SWEEP_HISTORY_CAP
    )
    return report, experiments.report_to_csv(report)


def _sweep_check(_, output, seed: int) -> int:
    return checks.check_sweep(output[1], 2, 2, SWEEP_BUDGET, random.Random(seed))


WORKLOADS = {
    "sweep-2x2": Workload(
        setup=lambda seed, workdir: None,
        call=_sweep_call,
        check=_sweep_check,
        operations=lambda _: sum(checks.SWEEP_CENSUS.values()),
        report=lambda output: output[0],
        csv=lambda output: output[1],
    ),
    "falsify-ladder": Workload(
        setup=lambda seed, workdir: None,
        call=lambda _: experiments.falsify_demo(),
        check=lambda _, report, seed: checks.check_falsify(report, LADDER),
        operations=lambda _: len(LADDER),
    ),
    "trio-corpus": Workload(
        setup=lambda seed, workdir: (
            workdir / "corpus", corpus.build(workdir / "corpus", seed)
        ),
        call=lambda inputs: experiments.run_fixture_suite(inputs[0]),
        check=lambda inputs, report, seed: checks.check_trio(report, inputs[1]),
        operations=lambda inputs: len(inputs[1]),
    ),
}


def deep_size(root) -> int:
    """Bytes held by ``root`` and everything it references, each object
    once; classes and modules are shared, so they are not counted."""
    seen: set[int] = set()
    stack = [root]
    size = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or type(obj).__name__ == "module":
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return size
