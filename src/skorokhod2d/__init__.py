"""Two-dimensional Skorokhod problems on the nonnegative quadrant.

Exact piecewise-linear path arithmetic, reflection-matrix classification,
numerical solvers, the classic non-uniqueness counterexample, and a
certifying verifier.
"""

from .classify import (
    Classification,
    GeneralMatrix2,
    ReflectionMatrix2,
    Regime,
    classify,
    classify_regime,
    diagonal_rescale,
    is_completely_s,
    normalize,
    spectral_radius_abs_q,
)
from .counterexample import (
    CounterexampleBundle,
    build_counterexample,
    build_u,
    check_identities,
    solution_gap,
)
from .dyadic import Dyadic, parse_exact, to_dyadic
from .errors import (
    ConstructionError,
    DivergenceError,
    DomainError,
    ExactnessError,
    InvalidMatrixError,
    StepInfeasibleError,
    UsageError,
)
from .figure import emit_figure
from .paths import (
    EXACT,
    FLOAT,
    MonotoneDecomp,
    PLPath2,
    jordan_decompose,
    matrix_apply,
    minus_part,
    path_min,
    path_sub,
    plus_part,
    refine,
    scale_components,
    stieltjes,
    sup_distance,
    total_variation,
)
from .solver import (
    SolveConfig,
    SolveResult,
    lcp_step,
    skorokhod_1d,
    solve_fixed_point,
    solve_grid,
)
from .verifier import (
    Sector,
    SolutionTriple,
    UniquenessDiagnostics,
    VerificationReport,
    check_e2_signs,
    compare_solutions,
    sector_of,
    verify,
)

__version__ = "0.1.0"
