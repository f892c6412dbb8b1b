"""No first call imports a module that `import skorokhod2d` did not.

A lazy import inside a call (`np.isin` and `np.unique` import `numpy.ma`,
about 12 ms) costs the first solve of every process, which shows up as
set-up time, not as solve time. A fresh interpreter runs the float and
exact pipelines once and lists the `numpy.ma` modules it then holds.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PIPELINES = """
import json, sys
import numpy as np
from skorokhod2d import (FLOAT, Dyadic, PLPath2, ReflectionMatrix2, SolutionTriple, SolveConfig,
                         build_counterexample, compare_solutions, solve_fixed_point, solve_grid, verify)
from skorokhod2d.serialize import bundle_from_json, bundle_to_json

# a 10^4-segment walk pulled into the corner, solved at the critical matrix:
# each round inserts a few hundred kinks, as on the benchmark's walks
n = 10_000
ts = np.linspace(0.0, 1.0, n + 1)
walk = np.cumsum(np.random.default_rng(1).normal(size=(n, 2)) * 0.02 / np.sqrt(n), axis=0)
vals = np.vstack([np.zeros((1, 2)), walk]) - 5.0 * ts[:, None]
vals[0] = np.maximum(vals[0], 0.0)
f = PLPath2(ts, vals, FLOAT)
sup = float(np.max(np.abs(f.x)))
R = ReflectionMatrix2(-1.0, 1.0)
fixed = solve_fixed_point(R, f, SolveConfig(tol=1e-12 * sup, max_iter=100_000, damping=0.5))
grid = solve_grid(R, f, SolveConfig(tol=1e-12 * sup))
s1, s2 = SolutionTriple(R, f, fixed.g, fixed.m), SolutionTriple(R, f, grid.g, grid.m)
assert verify(s1, 1e-9 * sup).passed and verify(s2, 1e-9 * sup).passed
compare_solutions(s1, s2, 1e-9 * sup)

bundle = build_counterexample(Dyadic(-2), 40)
bundle_from_json(json.loads(json.dumps(bundle_to_json(bundle))))

print(sorted(name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")))
"""


def test_the_pipelines_import_no_masked_arrays():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PIPELINES], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
