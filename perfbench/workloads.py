"""The three benchmark workloads: instance decks, timed pipelines and checks.

Every workload is a closed loop with one caller: the next instance starts
when the previous one has returned its last verdict. An instance is made from
the run's seed and its index before the clock starts; ``run`` is the timed
part and only calls the package, in the order the CLI would
(``solve --out`` -> ``verify --triple`` -> ``compare``, and
``counterexample --verify --out``); ``check`` compares every verdict with the
known answer after the clock stops.

The properties that set an instance's cost or its known verdict (segment
count, time horizon, amplitude, the matrix entries, depth, and which
candidate is a negative control) come from a blocked Latin hypercube:
every aligned block of ``BLOCK`` instances takes one value in each stratum
of every range. A run times a fixed deck of whole blocks, instances 0 to
``deck - 1``, so every run sees the same mix of costs and known verdicts
whatever the seed and however fast the machine is. The seed draws
everything else: the random walks and where the negative controls
perturb.

A negative control is a candidate whose ``g`` or ``m`` was perturbed, so its
correct verdict is FAIL. A verifier that always says PASS certifies every
one, which ``controls_rejected_ratio`` shows on every workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: solver stopping tolerance and verify tolerance, relative to sup |f|
SOLVE_TOL = 1e-12
VERIFY_TOL = 1e-9
#: size of a float negative-control perturbation, relative to sup |f|
CONTROL_BUMP = 1e-3
#: a control raises this many consecutive breakpoints, so a verifier that
#: merges one of them into a close neighbour still sees the others
CONTROL_RUN = 8
#: exact spirals are certified at tol 0, float ones at the CLI's 2^-40
FLOAT_SPIRAL_TOL = 2.0**-40


#: instances per stratified block; every deck is whole blocks. An odd
#: count puts the median in the middle of a stratum, not between two.
BLOCK = 5


def radical_inverse(i: int, base: int) -> float:
    """i-th point of the van der Corput sequence in ``base``, in [0, 1)."""
    x, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        x += digit * scale
        scale /= base
    return x


def _offset(block: int) -> float:
    """Position inside its stratum, in [0, 1], for every instance of a block.

    Blocks 0 and 1 take the two ends, so every deck of two or more blocks
    contains the largest and the smallest instance. Block 2 takes the
    middle, and later blocks come
    in pairs mirrored about the middle (1/4 and 3/4, 3/8 and 5/8, 1/8 and
    7/8, ...), so the positions fill the stratum evenly while their median
    stays at its middle.
    """
    if block < 3:
        return (0.0, 1.0, 0.5)[block]
    k, second = divmod(block - 3, 2)
    d = radical_inverse(k + 1, 2) / 2
    return 0.5 + d if second else 0.5 - d


def stratified(i: int, dim: int) -> float:
    """Coordinate ``dim`` of instance i, in [0, 1].

    Position r of block b lies in stratum ``order[r]``, where ``order`` is the
    identity for dim 0 (so each block starts with its most expensive
    instance) and a fixed permutation per block otherwise.
    """
    block, r = divmod(i, BLOCK)
    order = np.random.default_rng([dim, block]).permutation(BLOCK) if dim else range(BLOCK)
    return (order[r] + _offset(block)) / BLOCK


def control_kind(i: int, positions: int = BLOCK) -> str | None:
    """One negative control per block, cycling over the first ``positions``
    positions, alternating between a perturbed g and a perturbed m."""
    block, r = divmod(i, BLOCK)
    if r != block % positions:
        return None
    return "gm"[(block + block // positions) % 2]


#: instance index of the untimed warm-up instance
WARM_UP = 2**32 - 1


def _rng(seed: int, i: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, i, salt])


@dataclass
class Instance:
    name: str
    segments: int
    params: dict
    control: str | None = None  # None, "g" or "m"
    doc: dict | None = None


@dataclass
class Verdicts:
    """Outcome of ``check``: why the instance failed, whether it broke a
    guarantee that already holds at the baseline, and, for a negative
    control, whether ``verify`` rejected it. Only exact spirals carry a
    guarantee: at tol 0 every check, negative controls included, must come
    out right. Float verdicts can go wrong through defects the
    baseline already has (ROADMAP item 2), so they count as failures."""

    failures: list[str] = field(default_factory=list)  # one per failed check
    broken: bool = False
    control_rejected: bool | None = None  # None when not a control
    raised: bool = False  # the pipeline raised, so no check could pass


# --- shared float pipeline pieces ------------------------------------------


def walk_doc(rng: np.random.Generator, n: int, horizon: float, amp: float,
             start: float, drift: float) -> dict:
    """Gaussian random walk on n equal segments of [0, horizon].

    Amplitude ``amp`` sets the spread of the walk and ``start * amp`` its
    starting point; ``drift`` pulls both coordinates towards the corner by
    ``drift`` over the horizon.
    """
    times = np.linspace(0.0, horizon, n + 1)
    steps = rng.standard_normal((n, 2)) * (amp / math.sqrt(n))
    values = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    values += start * amp
    values -= drift * (times / horizon)[:, None]
    values[0] = np.maximum(values[0], 0.0)  # solvers need f(start) >= 0
    return {"mode": "float", "times": times.tolist(), "values": values.tolist()}


def sup_norm(doc: dict) -> float:
    return float(np.max(np.abs(np.asarray(doc["values"]))))


def bump_indices(params: dict, length: int) -> range:
    """The run of at most CONTROL_RUN consecutive breakpoints a control raises."""
    start = int(params["bump_at"] * max(length - CONTROL_RUN, 0))
    return range(start, min(start + CONTROL_RUN, length))


def keeps_breakpoints(driver_times, path) -> bool:
    """True when every driver breakpoint is a breakpoint of ``path``."""
    return bool(np.isin(np.asarray(driver_times), np.asarray(path.times, dtype=float)).all())


def union_points(*paths) -> int:
    """Size of the union of the paths' breakpoint grids (exact equality)."""
    if paths[0].mode == "float":
        return int(np.unique(np.concatenate([np.asarray(p.times, dtype=float) for p in paths])).size)
    return len(set().union(*(p.times for p in paths)))


def _check_float_solve(v: Verdicts, label: str, result, driver_times) -> None:
    if not result.converged:
        v.failures.append(f"{label} did not converge")
    if not keeps_breakpoints(driver_times, result.g):
        v.failures.append(f"{label} output is missing a driver breakpoint")


def _check_verdict(v: Verdicts, label: str, report, control: bool) -> None:
    if control:
        v.control_rejected = not report.passed
        if report.passed:
            v.failures.append(f"verify({label}) certified a negative control")
    elif not report.passed:
        v.failures.append(f"verify({label}) rejected a correct solution")


def perturbed_triple(prog, triple, control: str, params: dict, bump):
    """Copy of ``triple`` with ``g`` or ``m`` raised by ``bump`` on a run of breakpoints."""
    path = triple.g if control == "g" else triple.m
    values = list(path.values)
    for k in bump_indices(params, len(values)):
        point = list(values[k])
        point[params["bump_coord"]] += bump
        values[k] = tuple(point)
    bumped = prog.PLPath2(path.times, tuple(values), path.mode)
    g, m = (bumped, triple.m) if control == "g" else (triple.g, bumped)
    return prog.SolutionTriple(triple.R, triple.f, g, m, triple.tail_bound)


def _float_replays(prog, tr, f, m_fixed, m_grid, g_fixed) -> None:
    """Time the ROADMAP item-1 primitives on the inputs the pipeline uses:
    verify regrids f, g and m; compare subtracts the two regulators."""
    with tr.span("paths.refine"):
        f_ref, _ = prog.refine(f, g_fixed)
    with tr.span("paths.with_times"):
        prog.with_times(m_fixed, f_ref.times)
    with tr.span("paths.sup_distance"):
        prog.sup_distance(m_fixed, m_grid)
    with tr.span("paths.path_min"):
        prog.path_min(m_fixed, m_grid)
    with tr.span("paths.jordan_decompose"):
        prog.jordan_decompose(f)
    f1 = np.asarray(f.component(0), dtype=float)
    with tr.span("solver.skorokhod_1d"):
        prog.skorokhod_1d(f1)


def _count_float(tr, f, fixed, grid, triples) -> None:
    tr.add("solver.fixed.sweeps", fixed.iterations)
    tr.add("solver.fixed.points_in", len(f))
    tr.add("solver.fixed.points_out", len(fixed.g))
    tr.add("solver.grid.events", len(grid.g) - len(f))
    for t in triples:
        tr.add("verifier.verify.points", union_points(t.f, t.g, t.m))


# --- walk-certify --------------------------------------------------------------


class WalkCertify:
    """Random-walk drivers from 10^3 to 10^5 segments over twelve decades of
    time and amplitude; both solvers, both verdicts and the comparison.

    The deck is blocks 2 to 4 of the hypercube, whose instances sit at 1/2,
    1/4 and 3/4 of their strata: 15 distinct sizes from 1259 to 79433
    segments, at most a factor 1.6 apart, the middle one 10^4. Blocks 0 and
    1 would add the two ends, 10^3 and 10^5, and put two instances of each
    size in the deck, so the median would fall in a gap of a factor 2.5 in
    size.
    """

    name = "walk-certify"
    deck = 15
    first_block = 2
    checks = 7  # per solver: converged, keeps breakpoints; two verdicts; compare
    tail_percentile = 80

    def make(self, i: int, seed: int) -> Instance:
        j = i + self.first_block * BLOCK
        n = round(10 ** (5 - 2 * stratified(j, 0)))
        horizon = 10 ** (-6 + 12 * stratified(j, 1))
        amp = 10 ** (-6 + 12 * stratified(j, 2))
        same_sign = stratified(j, 3) >= 0.5
        radius = 0.05 + 0.45 * stratified(j, 4)
        skew = math.exp(stratified(j, 5) - 0.5)
        s1 = 1.0 if stratified(j, 6) < 0.5 else -1.0
        return self._instance(f"{self.name}/s{seed}/i{i}", _rng(seed, i, 0),
                              n, horizon, amp, same_sign, radius, control_kind(j), skew, s1)

    def warm_up_instance(self) -> Instance:
        return self._instance(f"{self.name}/warm-up", _rng(0, WARM_UP, 0),
                              4000, 1.0, 1.0, False, 0.25, None)

    def _instance(self, name, rng, n, horizon, amp, same_sign, radius, control,
                  skew=1.0, s1=1.0) -> Instance:
        s2 = s1 if same_sign else -s1
        a1, a2 = s1 * radius * skew, s2 * radius / skew
        doc = walk_doc(rng, n, horizon, amp, start=0.25, drift=0.0)
        sup = sup_norm(doc)
        label = f"{name}:n={n},T={horizon:.1e},A={amp:.1e},R=({a1:+.3f},{a2:+.3f})"
        if control:
            label += f",control={control}"
        return Instance(label, n, {
            "a1": a1, "a2": a2, "solve_tol": SOLVE_TOL * sup,
            "tol": VERIFY_TOL * sup, "bump": CONTROL_BUMP * sup,
            "bump_at": rng.random(), "bump_coord": int(rng.integers(2)),
        }, control, doc)

    def run(self, prog, inst: Instance, tr) -> dict:
        p = inst.params
        with tr.span("serialize.path_from_json"):
            f = prog.path_from_json(inst.doc)
        R = prog.ReflectionMatrix2(p["a1"], p["a2"])
        cfg = prog.SolveConfig(tol=p["solve_tol"])
        with tr.span("solver.solve_fixed_point"):
            fixed = prog.solve_fixed_point(R, f, cfg)
        with tr.span("serialize.solution_roundtrip"):
            sol = prog.solution_to_json(fixed.g, fixed.m, fixed.iterations,
                                        fixed.converged, fixed.residual)
        if inst.control:
            with tr.span("bench.control"):
                values = sol[inst.control]["values"]
                for k in bump_indices(p, len(values)):
                    values[k][p["bump_coord"]] += p["bump"]
        with tr.span("serialize.solution_roundtrip"):
            s1 = prog.triple_from_json({
                "matrix": prog.matrix_to_json(R, "float"),
                "f": inst.doc, "g": sol["g"], "m": sol["m"],
            })
        with tr.span("verifier.verify"):
            rep1 = prog.verify(s1, p["tol"])
        with tr.span("solver.solve_grid"):
            grid = prog.solve_grid(R, f, cfg)
        s2 = prog.SolutionTriple(R, f, grid.g, grid.m)
        with tr.span("verifier.verify"):
            rep2 = prog.verify(s2, p["tol"])
        with tr.span("verifier.compare_solutions"):
            diag = prog.compare_solutions(s1, s2, p["tol"])
        return {"f": f, "fixed": fixed, "grid": grid, "s1": s1, "s2": s2,
                "rep1": rep1, "rep2": rep2, "diag": diag, "sol": sol}

    def check(self, prog, inst: Instance, out: dict) -> Verdicts:
        v = Verdicts()
        p = inst.params
        times = inst.doc["times"]
        _check_float_solve(v, "solve_fixed_point", out["fixed"], times)
        _check_float_solve(v, "solve_grid", out["grid"], times)
        _check_verdict(v, "fixed-point", out["rep1"], inst.control is not None)
        _check_verdict(v, "grid", out["rep2"], False)
        max_v = float(out["diag"].max_v)
        if inst.control == "m":
            if max_v < p["bump"] / 2:
                v.failures.append("compare_solutions missed the perturbed m")
        elif max_v > p["tol"]:
            v.failures.append(f"the two solvers disagree: max_v={max_v:.3g}")
        return v

    def trace_extra(self, prog, inst: Instance, out: dict, tr) -> None:
        _count_float(tr, out["f"], out["fixed"], out["grid"], (out["s1"], out["s2"]))
        tr.add("serialize.bytes", len(json.dumps(inst.doc)) + len(json.dumps(out["sol"])))
        _float_replays(prog, tr, out["f"], out["s1"].m, out["grid"].m, out["s1"].g)


# --- near-critical ---------------------------------------------------------


class NearCritical:
    """10^4-segment drivers drifting into the corner; rotational matrices
    with radius in [0.9, 0.99] and the critical (-1, 1) at damping 0.5.

    The walk on top of the drift ``5t * (1, 1)`` has amplitude 0.02, so the
    radius sets the number of Picard sweeps to within a few percent. Under
    a rotational matrix one coordinate's push nearly cancels the other's
    drift, and the walk decides how much that coordinate is pushed: with
    amplitude 1, one walk in sixteen ended in a few sweeps instead of
    thousands, and at 0.1 the sweeps at radius 0.984 still ranged from 615
    to 8785 over eight seeds.
    """

    walk_amp = 0.02

    name = "near-critical"
    deck = 15
    checks = 6  # per solver: converged, keeps breakpoints; two verdicts
    tail_percentile = 80
    segments = 10_000

    def make(self, i: int, seed: int) -> Instance:
        name, rng, control = f"{self.name}/s{seed}/i{i}", _rng(seed, i, 1), control_kind(i)
        if i % BLOCK == BLOCK - 1:
            return self._instance(name, rng, self.segments, -1.0, 1.0, 0.5, control)
        radius = 0.99 - 0.09 * stratified(i, 0) / 0.8
        sign = 1.0 if stratified(i, 1) < 0.5 else -1.0
        return self._instance(name, rng, self.segments, -sign * radius, sign * radius,
                              1.0, control)

    def warm_up_instance(self) -> Instance:
        return self._instance(f"{self.name}/warm-up", _rng(0, WARM_UP, 1),
                              3000, -0.9, 0.9, 1.0, None)

    def _instance(self, name, rng, n, a1, a2, damping, control) -> Instance:
        doc = walk_doc(rng, n, 1.0, self.walk_amp, start=0.0, drift=5.0)
        sup = sup_norm(doc)
        label = f"{name}:R=({a1:+.4f},{a2:+.4f}),damping={damping}"
        if control:
            label += f",control={control}"
        return Instance(label, n, {
            "a1": a1, "a2": a2, "damping": damping, "solve_tol": SOLVE_TOL * sup,
            "tol": VERIFY_TOL * sup, "bump": CONTROL_BUMP * sup,
            "bump_at": rng.random(), "bump_coord": int(rng.integers(2)),
        }, control, doc)

    def run(self, prog, inst: Instance, tr) -> dict:
        p = inst.params
        with tr.span("serialize.path_from_json"):
            f = prog.path_from_json(inst.doc)
        R = prog.ReflectionMatrix2(p["a1"], p["a2"])
        cfg = prog.SolveConfig(tol=p["solve_tol"], max_iter=100_000, damping=p["damping"])
        with tr.span("solver.solve_fixed_point"):
            fixed = prog.solve_fixed_point(R, f, cfg)
        s1 = prog.SolutionTriple(R, f, fixed.g, fixed.m)
        if inst.control:
            with tr.span("bench.control"):
                s1 = perturbed_triple(prog, s1, inst.control, p, p["bump"])
        with tr.span("verifier.verify"):
            rep1 = prog.verify(s1, p["tol"])
        with tr.span("solver.solve_grid"):
            grid = prog.solve_grid(R, f, cfg)
        s2 = prog.SolutionTriple(R, f, grid.g, grid.m)
        with tr.span("verifier.verify"):
            rep2 = prog.verify(s2, p["tol"])
        return {"f": f, "fixed": fixed, "grid": grid, "s1": s1, "s2": s2,
                "rep1": rep1, "rep2": rep2}

    def check(self, prog, inst: Instance, out: dict) -> Verdicts:
        v = Verdicts()
        times = inst.doc["times"]
        _check_float_solve(v, "solve_fixed_point", out["fixed"], times)
        _check_float_solve(v, "solve_grid", out["grid"], times)
        _check_verdict(v, "fixed-point", out["rep1"], inst.control is not None)
        _check_verdict(v, "grid", out["rep2"], False)
        return v

    def trace_extra(self, prog, inst: Instance, out: dict, tr) -> None:
        _count_float(tr, out["f"], out["fixed"], out["grid"], (out["s1"], out["s2"]))
        tr.add("serialize.bytes", len(json.dumps(inst.doc)))
        _float_replays(prog, tr, out["f"], out["fixed"].m, out["grid"].m, out["fixed"].g)


# --- spiral ----------------------------------------------------------------


class Spiral:
    """The paper's counterexample: exact a1 in {-2, -4} at depths 200-1600,
    and the CLI-default float spirals a1 in {-1.5, -3} at depth 40."""

    name = "spiral"
    deck = 25
    checks = 5  # identities, two verdicts, exact gap, round trip
    tail_percentile = 80

    def make(self, i: int, seed: int) -> Instance:
        name, rng = f"{self.name}/s{seed}/i{i}", _rng(seed, i, 2)
        if i % BLOCK == BLOCK - 1:
            a1 = -1.5 if (i // BLOCK) % 2 == 0 else -3.0
            return self._instance(name, rng, a1, 40, None)
        depth = 4 * round(1600 * 8 ** (-stratified(i, 0) / 0.8) / 4)
        a1 = -2 if stratified(i, 1) < 0.5 else -4
        return self._instance(name, rng, a1, depth, control_kind(i, BLOCK - 1))

    def warm_up_instance(self) -> Instance:
        return self._instance(f"{self.name}/warm-up", _rng(0, WARM_UP, 2), -2, 320, None)

    def _instance(self, name, rng, a1, depth, control) -> Instance:
        label = f"{name}:a1={a1},depth={depth}"
        if control:
            label += f",control={control}"
        return Instance(label, depth + 1, {
            "a1": a1, "depth": depth, "exact": isinstance(a1, int),
            "bump_at": rng.random(), "bump_coord": int(rng.integers(2)),
        }, control)

    def run(self, prog, inst: Instance, tr) -> dict:
        p = inst.params
        a1 = prog.Dyadic(p["a1"]) if p["exact"] else p["a1"]
        tol = 0 if p["exact"] else FLOAT_SPIRAL_TOL
        with tr.span("counterexample.build_counterexample"):
            bundle = prog.build_counterexample(a1, p["depth"])
        with tr.span("counterexample.check_identities"):
            identities = prog.check_identities(bundle)
        t1, t2 = bundle.triple(), bundle.triple_bar()
        with tr.span("verifier.verify"):
            rep1 = prog.verify(t1, tol)
        if inst.control:
            with tr.span("bench.control"):
                t2 = perturbed_triple(prog, t2, inst.control, p, prog.Dyadic(1, -10))
        with tr.span("verifier.verify"):
            rep2 = prog.verify(t2, tol)
        with tr.span("counterexample.solution_gap"):
            gap = prog.solution_gap(bundle)
        with tr.span("serialize.bundle_to_json"):
            doc = prog.bundle_to_json(bundle)
        with tr.span("serialize.bundle_from_json"):
            back = prog.bundle_from_json(doc)
        return {"bundle": bundle, "identities": identities, "rep1": rep1,
                "rep2": rep2, "t1": t1, "t2": t2, "gap": gap, "doc": doc,
                "back": back}

    def check(self, prog, inst: Instance, out: dict) -> Verdicts:
        v = Verdicts()
        p = inst.params
        b = out["bundle"]
        exact = p["exact"]
        if not out["identities"]:
            v.failures.append("check_identities failed")
        _check_verdict(v, "triple", out["rep1"], False)
        _check_verdict(v, "triple_bar", out["rep2"], inst.control is not None)
        want = abs(p["a1"]) + 1
        gap = out["gap"]
        if exact:
            gap_ok = gap[0] == want and gap[1] == 0
        else:
            gap_ok = abs(gap[0] - want) <= FLOAT_SPIRAL_TOL * want and abs(gap[1]) <= FLOAT_SPIRAL_TOL
        if not gap_ok:
            v.failures.append(f"solution gap {tuple(float(x) for x in gap)} != ({want}, 0)")
        if not _same_bundle(b, out["back"]):
            v.failures.append("bundle_to_json round trip changed the bundle")
        v.broken = exact and bool(v.failures)
        return v

    def trace_extra(self, prog, inst: Instance, out: dict, tr) -> None:
        b = out["bundle"]
        for t in (out["t1"], out["t2"]):
            tr.add("verifier.verify.points", union_points(t.f, t.g, t.m))
        tr.add("serialize.bytes", len(json.dumps(out["doc"])))
        if inst.params["exact"]:
            paths = (b.u, b.f, b.g, b.gbar, b.decomp.m, b.decomp.mbar)
            bits = max(abs(x.mantissa).bit_length()
                       for path in paths for point in path.values for x in point)
            tr.maximum("dyadic.max_mantissa_bits", bits)
        rm = prog.matrix_apply(b.R.a1, b.R.a2, b.decomp.m)
        rmbar = prog.matrix_apply(b.R.a1, b.R.a2, b.decomp.mbar)
        with tr.span("paths.refine"):
            f_ref, _ = prog.refine(b.f, b.g)
        with tr.span("paths.with_times"):
            prog.with_times(b.decomp.m, f_ref.times)
        with tr.span("paths.sup_distance"):
            prog.sup_distance(b.g, b.gbar)
        with tr.span("paths.path_min"):
            prog.path_min(rm, rmbar)
        with tr.span("paths.jordan_decompose"):
            prog.jordan_decompose(b.u)


def _same_bundle(a, b) -> bool:
    def same(p, q):
        return p.mode == q.mode and p.times == q.times and p.values == q.values

    return (
        a.R == b.R and a.depth == b.depth and a.tail_bound == b.tail_bound
        and a.rho == b.rho and same(a.u, b.u) and same(a.f, b.f)
        and same(a.g, b.g) and same(a.gbar, b.gbar)
        and same(a.decomp.m, b.decomp.m) and same(a.decomp.mbar, b.decomp.mbar)
    )


WORKLOADS: dict[str, Any] = {w.name: w for w in (WalkCertify(), NearCritical(), Spiral())}
