"""One round of one workload, in a fresh process.

Run by ``run.py`` as ``python3 benchmarks/round.py '<json spec>'``.  The
spec names the workload, the seed, the mode and the monotonic clock
reading taken just before this process was started:

* ``time``: set up, make the timed call, check, report.  A CSV
  byte-identical to ``verified_digest`` (one that passed every check
  earlier in the same run, under the same seed) is not checked again.
* ``setup``: set up and report the set-up time only.
* ``trace``: as ``time`` with the tracer installed around the call; the
  spans go to ``trace_file`` and the per-layer metrics into the report.
* ``memory``: the top rung of the falsify ladder alone under
  ``tracemalloc``, reporting its peak bytes per step.

In every mode but ``memory`` the round pins itself to one CPU and runs
the speed probe of ``probe.py`` beside its work; ``setup_s`` and
``wall_s`` are reported in the probe's reference seconds, the raw wall
times beside them.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]


def main() -> None:
    spec = json.loads(sys.argv[1])
    probe = None
    if spec["mode"] != "memory":
        import probe as speed

        # One CPU for both threads, so the probe samples the CPU the
        # call runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        probe = speed.Probe()
        probe.start()
    import haltlab

    if Path(haltlab.__file__).resolve().parent != ROOT / "src" / "haltlab":
        raise SystemExit(f"imported haltlab from {haltlab.__file__}, not from this checkout")
    from haltlab import experiments

    import workloads

    if spec["mode"] == "memory":
        import tracemalloc

        tracemalloc.start()
        outcome = experiments.run_with_oracle(
            experiments.right_runner(), (), max(workloads.LADDER), max_history=None
        )
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(json.dumps({"peak_bytes_per_step": peak / outcome.steps}))
        return

    workload = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    inputs = workload.setup(seed, Path(spec["workdir"]))
    ready = time.monotonic()
    setup_raw_s = ready - spec["spawned_at"]
    setup_s = probe.reference_s(spec["spawned_at"], ready)
    if spec["mode"] == "setup":
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return

    tracer = None
    if spec["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    started = time.monotonic()
    output = workload.call(inputs)
    ended = time.monotonic()
    probe.stop()
    wall_raw_s = ended - started
    wall_s = probe.reference_s(started, ended)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer = None
    if tracer is not None:
        tracer.uninstall()
        if workload.report is not None:
            report_bytes = workloads.deep_size(workload.report(output))
            tracer.counts["experiments.report_bytes"] = report_bytes
        spec_file = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer = tracer.per_layer([metric["name"] for metric in spec_file["per_layer"]])
        origin = tracer.spans[0][2] if tracer.spans else 0.0
        Path(spec["trace_file"]).write_text(json.dumps({
            "workload": spec["workload"],
            "seed": seed,
            "wall_s": wall_s,
            "wall_raw_s": wall_raw_s,
            "metrics": layer,
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": [[n, p, s - origin, e - origin] for n, p, s, e in tracer.spans],
        }), encoding="utf-8")
    digest = None
    if workload.csv is not None:
        digest = hashlib.sha256(workload.csv(output).encode("utf-8")).hexdigest()
    if digest is not None and digest == spec.get("verified_digest"):
        # Byte-identical to a CSV that passed every check under this seed.
        failed = 0
    else:
        failed = workload.check(inputs, output, seed)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.operations(inputs),
        "failed": failed,
        "digest": digest,
        "layer": layer,
    }))


if __name__ == "__main__":
    main()
