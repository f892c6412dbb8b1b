"""Benchmark for skorokhod2d: wall time to a certified answer.

    python3 perfbench/run.py --workload walk-certify --seed 0 --seconds 34 --trace 0

Runs one workload (``walk-certify``, ``near-critical`` or ``spiral``, see
``workloads.py``) as a closed loop with one caller in this process. The run
goes through the workload's fixed deck of instances once, then round again,
cheapest first, until ``--seconds`` seconds have passed, and checks every
verdict of every pass against the known answer. Each instance's time is the
median over its passes, scaled to the reference machine speed (see
``speed.py``). The run prints each metric by name and unit, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``,
where ``attempted`` is the deck size and ``failed`` the number of deck
instances that failed in any pass.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` records, during
the first pass, a span around every call the benchmark makes into the
package, replays the ROADMAP item-1 path primitives on the pipeline's own
inputs, and reports per-layer busy times and counts of that pass instead;
the spans are written to ``perfbench/out``.

The package is imported from ``src/`` of the checkout this file sits in.
When it is missing, or an output check cannot run, the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Verdicts  # noqa: E402

#: set-ups per run, each in a fresh interpreter; the median of their scaled
#: times is ``setup_s``
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

#: one set-up sample, run as ``python3 -c`` with this directory and a workload
#: name as arguments: the clock starts before numpy and the package are imported
_SETUP_SAMPLE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import run, workloads
run.warm_up(workloads.WORKLOADS[sys.argv[2]])
print(time.perf_counter() - t0)
"""

_EXPORTS = {
    "skorokhod2d": (
        "ReflectionMatrix2 SolveConfig SolutionTriple PLPath2 Dyadic "
        "solve_fixed_point solve_grid skorokhod_1d verify compare_solutions "
        "build_counterexample check_identities solution_gap "
        "refine path_min jordan_decompose sup_distance matrix_apply"
    ),
    "skorokhod2d.paths": "with_times",
    "skorokhod2d.serialize": (
        "path_from_json solution_to_json matrix_to_json triple_from_json "
        "bundle_to_json bundle_from_json"
    ),
}

END_TO_END = {
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "segments_per_s": "1/s",
    "checks_passed_ratio": "ratio",
    "controls_rejected_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; ``.busy_s`` is span time summed over the run
PER_LAYER = {
    "serialize.path_from_json.busy_s": "s",
    "serialize.solution_roundtrip.busy_s": "s",
    "serialize.bundle_to_json.busy_s": "s",
    "serialize.bundle_from_json.busy_s": "s",
    "serialize.bytes": "bytes",
    "solver.solve_fixed_point.busy_s": "s",
    "solver.fixed.sweeps": "count",
    "solver.fixed.grid_growth": "ratio",
    "solver.solve_grid.busy_s": "s",
    "solver.grid.events": "count",
    "verifier.verify.busy_s": "s",
    "verifier.verify.points": "count",
    "verifier.compare_solutions.busy_s": "s",
    "counterexample.build_counterexample.busy_s": "s",
    "counterexample.check_identities.busy_s": "s",
    "counterexample.solution_gap.busy_s": "s",
    "dyadic.max_mantissa_bits": "bits",
    "paths.with_times.busy_s": "s",
    "paths.refine.busy_s": "s",
    "paths.path_min.busy_s": "s",
    "paths.jordan_decompose.busy_s": "s",
    "paths.sup_distance.busy_s": "s",
    "solver.skorokhod_1d.busy_s": "s",
    "bench.own.busy_s": "s",
    "trace.instance_busy_s": "s",
    "trace.unaccounted_s": "s",
    "trace.instance_p50_s": "s",
    "trace.instances": "count",
}

_COUNTERS = (
    "serialize.bytes", "solver.fixed.sweeps", "solver.grid.events",
    "verifier.verify.points", "dyadic.max_mantissa_bits",
)


class HarnessError(Exception):
    """The benchmark itself cannot run or cannot check an output."""


@dataclass
class Record:
    """One deck instance over all its passes."""

    name: str
    segments: int
    seconds: list[float] = field(default_factory=list)  # scaled, one per pass
    raw_seconds: list[float] = field(default_factory=list)  # wall clock
    failures: list[str] = field(default_factory=list)
    broken: bool = False
    control_rejected: bool | None = None
    raised: bool = False

    def add(self, seconds: float, raw_seconds: float, v: Verdicts) -> None:
        """Add one pass; the instance fails if any pass fails."""
        self.seconds.append(seconds)
        self.raw_seconds.append(raw_seconds)
        self.failures += [f for f in v.failures if f not in self.failures]
        self.broken = self.broken or v.broken
        self.raised = self.raised or v.raised
        if v.control_rejected is not None:
            self.control_rejected = v.control_rejected and self.control_rejected is not False

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)

    def failed_checks(self, checks: int) -> int:
        return checks if self.raised else min(len(self.failures), checks)


# --- program loading ---------------------------------------------------------


def load_program() -> types.SimpleNamespace:
    """Import skorokhod2d from this checkout's ``src``."""
    if not (SRC / "skorokhod2d" / "__init__.py").is_file():
        raise HarnessError(f"no skorokhod2d package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    prog = types.SimpleNamespace()
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(module_name)
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise HarnessError(f"{module_name} was imported from {module.__file__}")
        for name in names.split():
            setattr(prog, name, getattr(module, name))
    return prog


# --- statistics -------------------------------------------------------------------


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    mass of each rank, so the estimate does not hang on the one instance
    that sits at rank qn; that instance may have run during a slow spell of
    a shared machine.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, m = len(x), 64  # m midpoints per rank interval
    t = (np.arange(n * m) + 0.5) / (n * m)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, m).sum(axis=1)
    return float(w @ x / w.sum())


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile with at least ``beyond`` of n samples beyond
    its nearest-rank sample."""
    qs = [q for q in range(1, 100) if n - math.ceil(q * n / 100) >= beyond]
    return qs[-1] if qs else None


def end_to_end_metrics(records: list[Record], setup_times: list[float],
                       tail_q: int, checks: int) -> dict:
    times = [r.median_s for r in records]
    failed_checks = sum(r.failed_checks(checks) for r in records)
    controls = [r.control_rejected for r in records if r.control_rejected is not None]
    if not controls:
        raise HarnessError("the run holds no negative control")
    return {
        "instance_p50_s": hd_quantile(times, 0.5),
        "instance_tail_s": hd_quantile(times, tail_q / 100),
        "segments_per_s": hd_quantile([r.segments / t for r, t in zip(records, times)], 0.5),
        "checks_passed_ratio": 1 - failed_checks / (checks * len(records)),
        "controls_rejected_ratio": sum(controls) / len(controls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tr: Tracer, records: list[Record]) -> dict:
    out = {}
    for name in PER_LAYER:
        if name.endswith(".busy_s") and not name.startswith("bench."):
            out[name] = tr.busy(name[: -len(".busy_s")])
    for name in _COUNTERS:
        out[name] = tr.counts.get(name, 0)
    points_in = tr.counts.get("solver.fixed.points_in", 0)
    out["solver.fixed.grid_growth"] = (
        tr.counts.get("solver.fixed.points_out", 0) / points_in if points_in else 0.0
    )
    instance_busy = tr.busy("instance")
    own = tr.busy("bench.control")
    out["bench.own.busy_s"] = own
    out["trace.instance_busy_s"] = instance_busy
    out["trace.unaccounted_s"] = instance_busy - tr.child_busy("instance")
    out["trace.instance_p50_s"] = hd_quantile([r.raw_seconds[0] for r in records], 0.5)
    out["trace.instances"] = len(records)
    return out


# --- the run ---------------------------------------------------------------------


def warm_up(workload) -> types.SimpleNamespace:
    """Import the package and run the workload's untimed warm-up instance."""
    prog = load_program()
    workload.run(prog, workload.warm_up_instance(), Tracer(False))
    return prog


def set_up(workload) -> tuple[types.SimpleNamespace, list[float]]:
    """Warm up in this process, then time SETUP_REPEATS set-ups, each in a
    fresh interpreter, so that every sample imports numpy and the package
    from scratch. Each sample is scaled by probes taken just before and
    after it."""
    prog = warm_up(workload)
    samples = []
    probes = speed.Probes()
    cmd = [sys.executable, "-c", _SETUP_SAMPLE, str(HERE), workload.name]
    for _ in range(SETUP_REPEATS):
        probes.take()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        end = time.perf_counter()
        probes.take()
        if proc.returncode != 0:
            raise HarnessError(f"a set-up sample failed:\n{proc.stderr}")
        samples.append((float(proc.stdout.split()[-1]), start, end))
    return prog, [t * probes.scale(start, end) for t, start, end in samples]


def run_loop(workload, prog, seed: int, seconds: float, tr: Tracer) -> list[Record]:
    """Closed loop, one caller: instance i+1 starts when instance i is done.

    The first pass goes through the deck in order, traced by ``tr``. Until
    ``seconds`` have passed since the start, later passes go round the deck
    again cheapest first, by first-pass time, and a pass ends at the first
    instance whose first-pass time no longer fits before the deadline. The
    cheap instances, which vary most from pass to pass, so get the most
    passes, and the run does not overrun its time by an expensive instance.
    Speed probes run right before and right after each instance, outside its
    timed span, and scale its times once the run is over.
    """
    passes = []  # (deck index, start, end, verdicts)
    probes = speed.Probes()
    untraced = Tracer(False)
    deadline = time.perf_counter() + seconds

    def run_one(k: int, t: Tracer) -> Instance:
        with t.span("bench.generate"):
            inst = workload.make(k, seed)
        probes.take()
        t.instance = inst.name
        with t.span("instance"):
            start = time.perf_counter()
            try:
                out, error = workload.run(prog, inst, t), None
            except Exception as exc:  # a failing instance is a measured outcome
                out, error = None, exc
            end = time.perf_counter()
        probes.take()
        if error is not None:
            verdicts = Verdicts([f"raised {type(error).__name__}: {error}"], raised=True)
        else:
            try:
                with t.span("bench.check"):
                    verdicts = workload.check(prog, inst, out)
                if t.enabled:
                    with t.span("bench.trace_extra"):
                        workload.trace_extra(prog, inst, out, t)
            except Exception as exc:
                raise HarnessError(f"cannot check {inst.name}") from exc
        t.instance = None
        passes.append((k, start, end, verdicts))
        return inst

    records = []
    for k in range(workload.deck):
        inst = run_one(k, tr)
        records.append(Record(inst.name, inst.segments))
    first = [end - start for _, start, end, _ in passes]
    by_cost = sorted(range(workload.deck), key=first.__getitem__)
    while time.perf_counter() + first[by_cost[0]] < deadline:
        for k in by_cost:
            if time.perf_counter() + first[k] >= deadline:
                break
            run_one(k, untraced)
    for k, start, end, verdicts in passes:
        records[k].add((end - start) * probes.scale(start, end), end - start, verdicts)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tr = Tracer(bool(args.trace))
    try:
        prog, setup_times = set_up(workload)
        records = run_loop(workload, prog, args.seed, args.seconds, tr)
        if args.trace:
            metrics, units = per_layer_metrics(tr, records), PER_LAYER
        else:
            metrics = end_to_end_metrics(records, setup_times, workload.tail_percentile,
                                         workload.checks)
            units = END_TO_END
    except HarnessError:
        traceback.print_exc()
        return 2

    failed = [r for r in records if r.failures]
    correct = not any(r.broken for r in records)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": setup_times, "instances": [asdict(r) for r in records],
    }, indent=1))
    if args.trace:
        tr.write(OUT / f"{tag}-spans.json")

    passes = sum(len(r.seconds) for r in records) / len(records)
    raw_p50 = hd_quantile([statistics.median(r.raw_seconds) for r in records], 0.5)
    print(f"{args.workload} seed={args.seed}: {len(records)} instances, "
          f"{passes:.2f} passes, {len(failed)} failed, tail = p{workload.tail_percentile}, "
          f"unscaled instance p50 {raw_p50:.4g} s")
    for r in failed:
        print(f"  FAILED {r.name}: {'; '.join(r.failures)}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
