"""Run every workload in fresh processes and print every metric by name and unit.

    python3 perfbench/report.py --seeds 0 --seconds 34
    python3 perfbench/report.py --seeds 0,1,2,3,4,5,6,7,8,9 --seconds 34 --json perfbench/baseline.json

Each workload runs once untraced per seed, and once traced on the first seed.
For each end-to-end metric the report gives the median over the seeds and
the quartile spread ((Q3 - Q1) / median, by ``statistics.quantiles``). The
traced run gives the per-layer metrics, the tracing overhead and the share
of the traced instance time that the layer spans account for. The overhead
pairs each instance of the traced run with the same instance of the
untraced run on the first seed (both runs go through the same deck) and
takes the median of the per-instance differences and ratios of scaled
times: the traced run's first, traced pass against the untraced run's
median over its passes. Failing instances are listed
by name. The report exits non-zero if any run fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: a run ends within 180 s; leave room for the first run's byte-compilation
RUN_TIMEOUT_S = 300


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    failing = [f"{r['name']}: {'; '.join(r['failures'])}"
               for r in record["instances"] if r["failures"]]
    times = {r["name"]: r["seconds"] for r in record["instances"]}  # scaled, per pass
    return result, failing, times


def tracing_overhead(traced: dict, untraced: dict) -> tuple[float, float]:
    """Median over the instances both runs timed of traced minus untraced
    seconds, and of traced over untraced seconds minus 1."""
    common = traced.keys() & untraced.keys()
    if not common:
        raise SystemExit("the traced and untraced runs share no instance")
    return (statistics.median(traced[n] - untraced[n] for n in common),
            statistics.median(traced[n] / untraced[n] - 1 for n in common))


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--json", type=Path, help="also write the results here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
        },
        "seeds": seeds, "seconds": args.seconds, "workloads": {},
    }
    ok = True
    for name, workload in WORKLOADS.items():
        runs = [run_one(name, seed, args.seconds, 0) for seed in seeds]
        traced, _, traced_times = run_one(name, seeds[0], args.seconds, 1)
        e2e = {}
        print(f"\n{name}  (closed loop, 1 client; tail = p{workload.tail_percentile})")
        for metric, first in runs[0][0]["metrics"].items():
            values = [r[0]["metrics"][metric]["value"] for r in runs]
            e2e[metric] = {"unit": first["unit"], "median": statistics.median(values),
                           "spread": spread(values), "values": values}
            print(f"  {metric:45s} {statistics.median(values):12.6g} {first['unit']:6s}"
                  f" spread {spread(values):.3f}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        # only the first pass of the traced run is traced
        overhead_s, overhead_ratio = tracing_overhead(
            {n: t[0] for n, t in traced_times.items()},
            {n: statistics.median(t) for n, t in runs[0][2].items()})
        covered = 1 - (layers["trace.unaccounted_s"] + layers["bench.own.busy_s"]) / layers["trace.instance_busy_s"]
        for metric, entry in traced["metrics"].items():
            print(f"  {metric:45s} {entry['value']:12.6g} {entry['unit']}")
        print(f"  tracing overhead per instance (median of pairs): {overhead_s:+.4g} s"
              f" ({overhead_ratio:+.2%}); layer spans cover {covered:.2%} of traced instance time")
        ok = ok and all(r[0]["correct"] for r in runs) and traced["correct"]
        summary["workloads"][name] = {
            "tail_percentile": workload.tail_percentile,
            "instances": [r[0]["attempted"] for r in runs],
            "failed": [r[0]["failed"] for r in runs],
            "correct": [r[0]["correct"] for r in runs],
            "end_to_end": e2e,
            "per_layer": layers,
            "tracing_overhead_s": overhead_s,
            "tracing_overhead_ratio": overhead_ratio,
            "layer_share_of_instance_time": covered,
            "failing_instances_first_seed": runs[0][1],
        }
        for line in runs[0][1]:
            print(f"  FAILED {line}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
