import pytest

from skorokhod2d.classify import Regime, classify_regime
from skorokhod2d.counterexample import (
    build_counterexample,
    build_u,
    check_identities,
    solution_gap,
)
from skorokhod2d.dyadic import Dyadic
from skorokhod2d.errors import ConstructionError, ExactnessError, UsageError
from skorokhod2d.figure import emit_figure
from skorokhod2d.paths import EXACT, FLOAT, matrix_apply, path_min, stieltjes
from skorokhod2d.verifier import verify


def test_spiral_breakpoints_a1_minus_two():
    u = build_u(Dyadic(-2), 8)
    got = {float(t): (float(v[0]), float(v[1])) for t, v in zip(u.times, u.values)}
    expect = {
        1.0: (-1.0, 1.0),
        0.5: (-1.0, -0.5),
        0.25: (0.5, -0.5),
        0.125: (0.5, 0.25),
        0.0625: (-0.25, 0.25),
        0.03125: (-0.25, -0.125),
        0.015625: (0.125, -0.125),
        0.0078125: (0.125, 0.0625),
        0.00390625: (-0.0625, 0.0625),
    }
    assert got == expect
    assert u.mode == EXACT


def test_spiral_self_similarity():
    # u(t/16) = u(t)/4 holds exactly at breakpoints
    u = build_u(Dyadic(-2), 16)
    for n in range(0, 13):
        t = Dyadic(1, -n)
        a = u.eval(t * Dyadic(1, -4))
        b = u.eval(t)
        assert a[0] * 4 == b[0] and a[1] * 4 == b[1]


def test_depth_and_slope_validation():
    with pytest.raises(ConstructionError):
        build_u(Dyadic(-2), 6)
    with pytest.raises(ConstructionError):
        build_u(Dyadic(-2), 0)
    with pytest.raises(ConstructionError):
        build_u(Dyadic(-1), 8)  # needs strict expansion
    with pytest.raises(ConstructionError):
        build_u(Dyadic(2), 8)


def test_mode_resolution():
    assert build_u(Dyadic(-2), 8).mode == EXACT
    assert build_u(-1.5, 8, mode="auto").mode == FLOAT  # 1/1.5 not dyadic
    assert build_u(-1.5, 8, mode="float").mode == FLOAT
    with pytest.raises(ExactnessError):
        build_u(-1.5, 8, mode="exact")
    with pytest.raises(UsageError, match="unknown mode 'spam'"):
        build_counterexample(Dyadic(-2), 8, mode="spam")


def test_bundle_regime_and_gap():
    b = build_counterexample(Dyadic(-2), depth=8)
    assert classify_regime(b.R) == Regime.Case4_NonUniqueOpposite
    assert solution_gap(b) == (Dyadic(3), Dyadic(0))
    assert check_identities(b)


def test_m_minus_mbar_is_u():
    b = build_counterexample(Dyadic(-2), depth=12)
    for i, t in enumerate(b.u.times):
        mv = b.decomp.m.values[i]
        mbv = b.decomp.mbar.values[i]
        assert mv[0] - mbv[0] == b.u.values[i][0]
        assert mv[1] - mbv[1] == b.u.values[i][1]


def test_driving_function_is_negated_min():
    b = build_counterexample(Dyadic(-2), depth=8)
    rm = matrix_apply(b.R.a1, b.R.a2, b.decomp.m)
    rmb = matrix_apply(b.R.a1, b.R.a2, b.decomp.mbar)
    low = path_min(rm, rmb)
    f2, low2 = b.f, low
    for t in low.times:
        fv = f2.eval(t)
        lv = low2.eval(t)
        assert fv[0] == -lv[0] and fv[1] == -lv[1]


def test_both_triples_verify_exactly():
    b = build_counterexample(Dyadic(-2), depth=8)
    assert verify(b.triple(), tol=0).passed
    assert verify(b.triple_bar(), tol=0).passed


def test_complementarity_integrals_vanish():
    b = build_counterexample(Dyadic(-2), depth=8)
    for tr in (b.triple(), b.triple_bar()):
        g2, m2 = tr.g, tr.m
        for j in (0, 1):
            assert stieltjes(g2, m2, j) == 0


def test_tail_bound_shrinks_with_depth():
    b8 = build_counterexample(Dyadic(-2), depth=8)
    b16 = build_counterexample(Dyadic(-2), depth=16)
    assert b16.tail_bound < b8.tail_bound
    assert b16.tail_bound == Dyadic(1, -6)  # 4 * (1/2)^8


def test_other_slopes_exact_when_power_of_two():
    b = build_counterexample(Dyadic(-4), depth=8)
    assert b.u.mode == EXACT
    assert solution_gap(b) == (Dyadic(5), Dyadic(0))
    assert verify(b.triple(), tol=0).passed
    assert verify(b.triple_bar(), tol=0).passed


def test_float_mode_verifies_loosely():
    b = build_counterexample(-1.5, depth=8, mode="float")
    assert b.u.mode == FLOAT
    assert verify(b.triple(), tol=1e-12).passed
    gap = solution_gap(b)
    assert gap[0] == pytest.approx(2.5, abs=1e-12)
    assert gap[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a1", [-1.5, -2.0, -3.0])
@pytest.mark.parametrize("depth", [40, 100, 200])
def test_float_spiral_certifies_at_depth(a1, depth):
    # the spiral's breakpoints reach 2^-200 and its values (1/|a1|)^100, so
    # a float tolerance with an absolute floor fails here
    b = build_counterexample(a1, depth, mode="float")
    assert b.u.mode == FLOAT
    assert check_identities(b)
    assert verify(b.triple(), tol=2.0**-40).passed
    assert verify(b.triple_bar(), tol=2.0**-40).passed


@pytest.mark.parametrize("a1, depth, deepest", [
    (-1.5, 1076, 1072),  # the smallest time 2^-1076 is 0
    (-1e10, 64, 60),     # the smallest vertex 1e-320 is subnormal
    (-1e100, 40, 4),
])
def test_float_spiral_outside_the_doubles_is_refused(a1, depth, deepest):
    with pytest.raises(ConstructionError) as err:
        build_counterexample(a1, depth)
    assert str(err.value) == (f"float spiral with a1={a1!r} does not fit in doubles at depth "
                              f"{depth}: the largest depth that works is {deepest}")
    b = build_counterexample(a1, deepest)
    assert b.u.mode == FLOAT and check_identities(b)
    assert verify(b.triple(), tol=2.0**-40).passed
    assert verify(b.triple_bar(), tol=2.0**-40).passed


def test_float_spiral_that_fits_at_no_depth_is_refused():
    with pytest.raises(ConstructionError, match="a1=-1e\\+300 does not fit in doubles at depth 4: "
                                                "no depth works"):
        build_counterexample(-1e300, 4)


@pytest.mark.parametrize("options, message", [
    ({"coord_range": float("inf")}, "figure range must be finite and positive"),
    ({"size": 0}, "figure size must be >= 1"),
    ({"size": -4}, "figure size must be >= 1"),
], ids=["range-inf", "size-0", "size-negative"])
def test_emit_figure_refuses_what_it_cannot_draw(options, message):
    # the CLI refuses these flags itself; a library caller got nan or a
    # width of 0 or -4
    with pytest.raises(UsageError, match=message):
        emit_figure(build_counterexample(Dyadic(-2), 8), **options)
