"""The haltlab benchmark: one workload, whole rounds, each in a fresh process.

    python3 benchmarks/run.py --workload sweep-2x2 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, nothing is installed.  Every round runs in a new
process because ``oracle.py`` keeps process-lifetime fingerprint tables
that make any later run in the same process faster.  Rounds start until
``--seconds`` have passed; each round sets up, makes one timed call into
the package and checks the outputs.  A few set-up-only processes run
first, so the set-up median rests on more samples than the rounds.

With ``--trace 0`` the result carries the end-to-end metrics (medians
over the rounds; times in the reference seconds of ``probe.py``); with ``--trace 1`` every round runs under the tracer
and the result carries the per-layer metrics, with the last round's
spans written to ``benchmarks/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``;
``--workload all`` prints one such block per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"
SETUP_PROBES = 5
# Every run must end within 180 s; no round may start past this point.
DEADLINE_S = 150
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])


def child(spec: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    spec = dict(spec, spawned_at=time.monotonic())
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "round.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"round {spec['mode']} of {spec['workload']} failed "
                         f"with exit code {done.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "haltlab").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "haltlab" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {ROOT / 'src' / 'haltlab'}")
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args.seed, args.seconds, args.trace)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Run one workload's rounds and print its result block."""
    started = time.monotonic()
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    base = {"workload": workload, "seed": seed, "workdir": str(OUT / "work"),
            "trace_file": str(trace_file)}

    def remaining() -> float:
        return max(1.0, 175 - (time.monotonic() - started))

    setups = [child(dict(base, mode="setup"), remaining())["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds = []
    mode = "trace" if trace else "time"
    first = time.monotonic()
    verified = None
    while not rounds or (time.monotonic() - first < seconds
                         and time.monotonic() - started < DEADLINE_S):
        rounds.append(child(dict(base, mode=mode, verified_digest=verified), remaining()))
        if rounds[-1]["failed"] == 0:
            verified = rounds[-1]["digest"]
    setups += [r["setup_s"] for r in rounds]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = {r["digest"] for r in rounds}
    if digests != {None}:
        # The CSV must be byte-identical across every run of one source tree.
        stored = OUT / f"csv-{workload}-{source_digest()}.sha256"
        if not stored.exists():
            stored.write_text(min(digests) + "\n", encoding="utf-8")
        if digests != {stored.read_text(encoding="utf-8").strip()}:
            failed = attempted

    if trace:
        values = {name: statistics.median(r["layer"][name] for r in rounds)
                  for name in rounds[0]["layer"]}
        if workload == "falsify-ladder":
            probe = child(dict(base, mode="memory"), remaining())
            values["oracle.peak_bytes_per_step"] = probe["peak_bytes_per_step"]
        declared = SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {workload}  seed {seed}  rounds {len(rounds)}  "
          f"operations attempted {attempted}  failed {failed}")
    print("  wall_s by round: " + " ".join(f"{r['wall_s']:.4f}" for r in rounds))
    if not trace:
        print("  raw wall seconds: " + " ".join(f"{r['wall_raw_s']:.4f}" for r in rounds))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
