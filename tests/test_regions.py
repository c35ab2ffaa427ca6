"""Closed-form rate regions: values against independent oracles, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfun import (
    DegenerateSideInfo,
    DimensionMismatch,
    DistortionOutOfRange,
    NonPositiveQ,
    OrthogonalScaling,
    SourceModel,
    bt_min_sum_curve,
    bt_min_sum_rate,
    bt_min_sum_rates,
    bt_optimal_q,
    bt_rate_point,
    bt_regime,
    independent_side_model,
    k_user_rates,
    lattice_feasible,
    lattice_min_sum_rate,
    lower_convex_envelope,
    noisy_function_side_model,
    optimal_scaling,
    scaling_region_rhs,
    side_info_region,
    single_cell_plan,
    singleton_plan,
    sum_rate_gap,
    two_user_model,
)
from latfun.gaussian import PartitionPlan, sigma_theta
from latfun.regions import (
    REGIME_INTERIOR,
    REGIME_NUMERIC,
    REGIME_Q1_INFINITE,
    REGIME_Q2_INFINITE,
    REGIME_ZERO_RATE,
    bt_regime_boundary,
)

from oracles import bt_sum_rate_grid, bt_sum_rate_oracle

M88 = two_user_model(0.8, 0.8)


# ---------------------------------------------------------------------------
# direct lattice region


def test_lattice_min_sum_matches_numeric_minimization():
    # Oracle: scan R1, take the implied minimal R2 from the constraint.
    d, sz2 = 0.1, 0.36
    r1 = np.linspace(0.94, 8.0, 400_001)
    rhs = d / sz2 - 2.0 ** (-2 * r1)
    r2 = -0.5 * np.log2(rhs[rhs > 0])
    numeric = np.min(r1[rhs > 0] + r2)
    assert numeric == pytest.approx(math.log2(7.2), abs=1e-6)
    assert lattice_min_sum_rate(M88, 0.1) == pytest.approx(math.log2(7.2), rel=1e-12)


def test_lattice_boundary_point():
    sz2 = 0.36
    assert lattice_feasible(M88, 0.5, 0.5, sz2)
    assert not lattice_feasible(M88, 0.5, 0.49, sz2)


def test_lattice_single_encoder_limit():
    d, sz2 = 0.1, 0.36
    # With R1 effectively infinite the bound on R2 collapses to the
    # single-encoder value.
    r2_min = -0.5 * math.log2(d / sz2 - 2.0 ** (-2 * 60.0))
    assert r2_min == pytest.approx(0.5 * math.log2(sz2 / d), abs=1e-9)
    assert lattice_feasible(M88, 60.0, r2_min + 1e-9, d)


def test_lattice_distortion_range():
    with pytest.raises(DistortionOutOfRange):
        lattice_min_sum_rate(M88, 0.0)
    with pytest.raises(DistortionOutOfRange):
        lattice_min_sum_rate(M88, 0.5)


# ---------------------------------------------------------------------------
# quantize-and-bin region at fixed (q1, q2)


def test_bt_rate_point_example():
    pt = bt_rate_point(M88, 0.1, 0.1)
    assert pt.distortion == pytest.approx(0.06264 / 0.57, abs=1e-12)
    assert pt.r_sum == pytest.approx(0.5 * math.log2(57.0), abs=1e-12)


def test_bt_rate_point_large_q1_limit():
    # Sending nothing from encoder 1: distortion approaches the
    # single-encoder regime value that fixes q2.
    model = two_user_model(0.8, 1.5)
    alpha, sz2 = 0.36, 1.0 + 2.25 - 2.4
    d = 0.75  # above the finite regime boundary for c > 1
    q2 = (d - alpha) / (sz2 - d)
    pt = bt_rate_point(model, 1e9, q2)
    assert pt.distortion == pytest.approx(d, abs=1e-6)


def test_bt_rate_point_uncorrelated_factorizes():
    model = two_user_model(1e-9, 0.8)
    pt = bt_rate_point(model, 0.2, 0.3)
    expected = 0.5 * math.log2((1.2 * 1.3) / (0.2 * 0.3))
    assert pt.r_sum == pytest.approx(expected, abs=1e-6)


def test_bt_rate_point_rejects_nonpositive_q():
    for bad in (0.0, -0.1, math.nan, math.inf, -math.inf):
        for q1, q2 in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(NonPositiveQ, match="positive and finite"):
                bt_rate_point(M88, q1, q2)


LN2 = math.log(2.0)


@pytest.mark.parametrize("q1, q2, expected", [
    # huge q: each rate is about log2(e) / (2 q), the distortion Var(Z)
    (1e300, 1e300, (0.5e-300 / LN2, 0.5e-300 / LN2, 1e-300 / LN2, 0.36)),
    # tiny q: den is alpha = 0.36, and the distortion q1 + c^2 q2
    (1e-300, 1e-300, (0.5 * (math.log2(0.36) - math.log2(1e-300)),
                      0.5 * (math.log2(0.36) - math.log2(1e-300)),
                      0.5 * (math.log2(0.36) - 2.0 * math.log2(1e-300)), 1.64e-300)),
    (5e-324, 0.1, (0.5 * (math.log2(1.0 - 0.64 / 1.1) + 1074.0), 0.5 * math.log2(4.6),
                   0.5 * (math.log2(1.0 - 0.64 / 1.1) + 1074.0 + math.log2(11.0)),
                   0.1 * 0.64 * 0.36 / 0.46)),
    (0.1, 5e-324, (0.5 * math.log2(4.6), 0.5 * (math.log2(1.0 - 0.64 / 1.1) + 1074.0),
                   0.5 * (math.log2(4.6) + 1074.0), 0.1 * 0.36 / 0.46)),
], ids=["1e300", "1e-300", "subnormal-q1", "subnormal-q2"])
def test_bt_rate_point_is_finite_at_extreme_q(q1, q2, expected):
    pt = bt_rate_point(M88, q1, q2)
    got = (pt.r1, pt.r2, pt.r_sum, pt.distortion)
    assert all(math.isfinite(v) and v > 0 for v in got)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def _bt_rate_point_exact(rho, c, q1, q2):
    """The four fields of ``bt_rate_point`` from exact rationals: each ratio
    is formed in ``Fraction`` and rounded once before log1p."""
    rho, c, q1, q2 = (Fraction(v) for v in (rho, c, q1, q2))
    a, b = 1 + q1, 1 + q2
    den = a * b - rho * rho
    alpha = 1 - rho * rho
    num = q1 * alpha + q2 * c * c * alpha + q1 * q2 * (1 + c * c - 2 * rho * c)
    return tuple(
        0.5 * math.log1p(float(den / v - 1)) / LN2 for v in (q1 * b, q2 * a, q1 * q2)
    ) + (float(num / den),)


def test_bt_rate_point_matches_exact_rationals_at_ordinary_q():
    rng = np.random.default_rng(14)
    for _ in range(500):
        rho = float(rng.uniform(0.05, 0.95))
        c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2))
        q1, q2 = (float(v) for v in 10.0 ** rng.uniform(-6, 6, size=2))
        model = two_user_model(rho, c)
        pt = bt_rate_point(model, q1, q2)
        got = (pt.r1, pt.r2, pt.r_sum, pt.distortion)
        want = _bt_rate_point_exact(model.rho, model.c, q1, q2)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# optimal noise allocation


def test_bt_optimal_q_interior_values():
    opt = bt_optimal_q(M88, 0.1)
    assert opt.regime == REGIME_INTERIOR
    assert opt.q1 == pytest.approx(0.0288 / 0.416, abs=1e-9)
    assert opt.q2 == pytest.approx(0.036 / 0.2968, abs=1e-9)


def test_bt_optimal_q_matches_constrained_minimizer():
    # Oracle: numeric minimization of the sum rate, reading off the argmin.
    rho, c, d = 0.8, 0.8, 0.1
    alpha, sz2 = 0.36, 0.36
    q1v = np.geomspace(1e-3, 1e2, 1200)
    # On the distortion-equality curve, solve for q2 given q1.
    q2v = (alpha * d - q1v * (alpha - d)) / ((c * c * alpha - d) + q1v * (sz2 - d))
    ok = q2v > 0
    den = (1 + q1v[ok]) * (1 + q2v[ok]) - rho * rho
    rate = 0.5 * np.log2(den / (q1v[ok] * q2v[ok]))
    i = np.argmin(rate)
    opt = bt_optimal_q(M88, d)
    assert q1v[ok][i] == pytest.approx(opt.q1, rel=5e-3)
    assert q2v[ok][i] == pytest.approx(opt.q2, rel=5e-3)


def test_bt_optimal_q_regime_switch():
    boundary = 2 * 0.36 * 0.64 / 1.64
    assert boundary == pytest.approx(0.280976, abs=1e-6)
    opt = bt_optimal_q(M88, 0.3)
    assert opt.regime == REGIME_Q2_INFINITE
    assert math.isinf(opt.q2)
    big_c = two_user_model(0.8, 1.5)
    opt2 = bt_optimal_q(big_c, 0.8)
    assert opt2.regime == REGIME_Q1_INFINITE
    assert math.isinf(opt2.q1)


def test_bt_optimal_q_meets_distortion_with_equality():
    for d in [0.05, 0.1, 0.2, 0.27]:
        opt = bt_optimal_q(M88, d)
        pt = bt_rate_point(M88, opt.q1, opt.q2)
        assert pt.distortion == pytest.approx(d, abs=1e-9)


@pytest.mark.parametrize("c", [0.0, -0.8])
def test_bt_has_no_regime_split_for_c_not_positive(c):
    model = two_user_model(0.8, c)
    assert bt_regime_boundary(model) == 0.0
    with pytest.raises(DistortionOutOfRange, match="c > 0 only"):
        bt_optimal_q(model, 0.1)


def test_bt_optimal_q_out_of_range():
    with pytest.raises(DistortionOutOfRange):
        bt_optimal_q(M88, 0.36)


# ---------------------------------------------------------------------------
# minimum sum rate


def test_bt_min_sum_interior_value_vs_oracle():
    got = bt_min_sum_rate(M88, 0.1)
    assert got == pytest.approx(0.5 * math.log2(66.56), abs=1e-12)
    assert abs(got - bt_sum_rate_oracle(0.8, 0.8, 0.1)) < 1e-4


def test_bt_min_sum_infinite_regime_value_vs_oracle():
    got = bt_min_sum_rate(M88, 0.3)
    assert got == pytest.approx(0.5 * math.log2(0.1296 / 0.0696), abs=1e-12)
    assert abs(got - bt_sum_rate_oracle(0.8, 0.8, 0.3)) < 1e-4


def test_bt_min_sum_zero_beyond_function_variance():
    assert bt_min_sum_rate(M88, 0.36) == 0.0
    assert bt_min_sum_rate(M88, 5.0) == 0.0
    assert bt_regime(M88, 0.4) == REGIME_ZERO_RATE


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_bt_rejects_non_finite_or_nonpositive_distortion(d):
    with pytest.raises(DistortionOutOfRange):
        bt_min_sum_rate(M88, d)
    with pytest.raises(DistortionOutOfRange):
        bt_min_sum_rates(M88, [0.1, d])
    with pytest.raises(DistortionOutOfRange):
        bt_regime(M88, d)


def test_bt_min_sum_continuous_at_regime_boundary():
    boundary = bt_regime_boundary(M88)
    below = bt_min_sum_rate(M88, boundary * (1 - 1e-9))
    above = bt_min_sum_rate(M88, boundary * (1 + 1e-9))
    assert abs(below - above) < 1e-6


def test_bt_min_sum_monotone_in_distortion():
    d = np.geomspace(0.005, 0.359, 300)
    vals = [bt_min_sum_rate(M88, float(x)) for x in d]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bt_min_sum_numeric_path_vs_grid_oracle():
    # The 2-D grid oracle upper-bounds the true minimum; the library's
    # numeric path must sit at or below it, within the grid's resolution.
    model = two_user_model(0.8, -0.5)
    for d in [0.2, 0.8, 1.5]:
        got = bt_min_sum_rate(model, d)
        grid = bt_sum_rate_grid(0.8, -0.5, d)
        assert got <= grid + 1e-9
        assert grid - got < 0.03
    assert bt_regime(model, 0.2) == REGIME_NUMERIC


def _near(x):
    return [x * (1 - 1e-6), x * (1 + 1e-6)]


def test_bt_min_sum_closed_form_matches_oracle():
    # Two independent routes to the minimum: the library's closed form and
    # the brute-force grid-plus-refinement oracle, at interior points and on
    # both sides of D = alpha, D = c^2 alpha and the regime boundary.
    cases = [(0.8, 0.8, [0.1, 0.3]), (0.5, 1.5, [0.9]), (0.3, 0.25, [0.37])]
    for rho, c in [(0.5, 1.5), (0.8, 0.0), (0.8, -0.5), (0.5, -2.0)]:
        alpha = 1 - rho * rho
        model = two_user_model(rho, c)
        d_values = _near(alpha) + (_near(c * c * alpha) if c else [])
        if c > 0:
            d_values += _near(bt_regime_boundary(model))
        cases.append((rho, c, d_values))
    for rho, c, d_values in cases:
        model = two_user_model(rho, c)
        for d in d_values:
            assert bt_min_sum_rate(model, d) == pytest.approx(
                bt_sum_rate_oracle(rho, c, d), abs=1e-9
            ), (rho, c, d)


@given(
    rho=st.floats(0.05, 0.95),
    c=st.floats(-3.0, 3.0),
    frac=st.floats(1e-3, 1.0, exclude_max=True),
)
@settings(max_examples=150, deadline=None)
def test_bt_min_sum_closed_form_never_beats_oracle(rho, c, frac):
    # The oracle's grids can only miss the minimum from above.
    d = frac * (1 + c * c - 2 * rho * c)
    got = bt_min_sum_rate(two_user_model(rho, c), d)
    oracle = bt_sum_rate_oracle(rho, c, d)
    assert oracle - 1e-6 <= got <= oracle + 1e-9


def test_bt_min_sum_batch_agrees_with_scalar():
    d = np.array([0.05, 0.1, 0.3])
    batch = bt_min_sum_rates(M88, d)
    single = [bt_min_sum_rate(M88, float(x)) for x in d]
    assert batch == pytest.approx(single, abs=1e-12)
    neg = two_user_model(0.8, -0.5)
    d2 = np.array([0.2, 0.8])
    batch2 = bt_min_sum_rates(neg, d2)
    single2 = [bt_min_sum_rate(neg, float(x)) for x in d2]
    assert batch2 == pytest.approx(single2, abs=1e-6)


# ---------------------------------------------------------------------------
# envelope


def _split_log_rates(rho, c, d):
    """Both minimum sum rates at small D with the logs taken apart: the
    direct scheme, and quantize-and-bin at its stationary pair (c != 0) or
    with X2 silent (c = 0, where Var Z - c^2 alpha = 1)."""
    alpha = 1.0 - rho * rho
    lattice = 1.0 + math.log2(1.0 + c * c - 2.0 * rho * c) - math.log2(d)
    if c == 0:
        return lattice, -0.5 * math.log2(d)
    return lattice, 0.5 * math.log2(4.0 * c * (alpha * c - rho * d)) - math.log2(d)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho, c", [(0.8, 0.8), (0.5, 1.5), (0.3, -0.5), (0.8, 0.0)])
def test_tiny_distortion_rates_are_finite_and_monotone(rho, c):
    model = two_user_model(rho, c)
    d_values = [1e-100, 1e-200, 1e-300, 1e-310, 1e-320]
    lattice = [lattice_min_sum_rate(model, d) for d in d_values]
    bt = [float(r) for r in bt_min_sum_rates(model, d_values)]
    for rates in (lattice, bt):
        assert all(math.isfinite(r) for r in rates)
        assert all(a < b for a, b in zip(rates, rates[1:]))
    # Where the ratios are representable the direct forms are kept; they
    # agree with the split forms.
    want_lattice, want_bt = _split_log_rates(rho, c, 1e-100)
    assert abs(lattice[0] - want_lattice) <= 1e-12
    assert abs(bt[0] - want_bt) <= 1e-12
    assert bt_min_sum_rate(model, 1e-320) == bt[-1]
    assert math.isfinite(side_info_region(independent_side_model(rho, c), 1e-320).min_sum_rate)


@pytest.mark.filterwarnings("error")
def test_huge_c_stationary_rate_takes_logs_apart():
    # 4 c (alpha c - rho D) overflows at c = 1e154 while Var Z stays finite;
    # the stationary rate must not drop out of the minimum.
    rho, c, d = 0.1, 1e154, 1.0
    alpha = 1.0 - rho * rho
    want = 0.5 * (math.log2(4.0 * c) + math.log2(alpha * c - rho * d)) - math.log2(d)
    assert abs(bt_min_sum_rate(two_user_model(rho, c), d) - want) <= 1e-12


def test_lower_convex_envelope_leaves_convex_curve():
    x = np.linspace(0.1, 2.0, 50)
    y = 1.0 / x
    assert lower_convex_envelope(x, y) == pytest.approx(y, rel=1e-12)


def test_lower_convex_envelope_cuts_concave_bump():
    x = np.linspace(0.0, 1.0, 101)
    y = np.sin(np.pi * x)  # concave bump; envelope is the zero chord
    env = lower_convex_envelope(x, y)
    assert np.all(env <= y + 1e-12)
    assert env[50] == pytest.approx(0.0, abs=1e-12)


def test_bt_min_sum_curve_envelope_below_pointwise():
    d, pointwise, envelope = bt_min_sum_curve(M88)
    assert np.all(envelope <= pointwise + 1e-12)
    # The small-distortion stretch is already convex: envelope == curve there.
    head = d < 0.15
    assert envelope[head] == pytest.approx(pointwise[head], abs=1e-9)
    # Strictly below somewhere in the concave stretch before the boundary.
    mid = (d > 0.22) & (d < 0.3)
    assert np.any(envelope[mid] < pointwise[mid] - 1e-4)


# ---------------------------------------------------------------------------
# K-user rates


def test_k_user_two_singletons_example():
    point = k_user_rates(M88, singleton_plan(2, (0.1, 0.1)))
    assert point.rates[0] == pytest.approx(0.5 * math.log2(11.0), abs=1e-12)
    st2 = 0.64 - 0.4096 / 1.1
    assert point.rates[1] == pytest.approx(0.5 * math.log2((st2 + 0.1) / 0.1), abs=1e-12)
    assert point.distortion == pytest.approx(0.04968 / 0.4044, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_k_user_rates_reject_a_plan_of_another_user_count(k):
    # A plan over fewer users would leave a source out; one over more would
    # index past the coefficients.
    with pytest.raises(DimensionMismatch, match="number of users"):
        k_user_rates(M88, singleton_plan(k, (0.1,) * k))


_PLAN_CELLS = (((0, 1), (2,)), (1, 0))
_PLAN_MODEL = SourceModel(np.full((3, 3), 0.5) + 0.5 * np.eye(3), np.array([1.0, -0.8, 0.5]))


@pytest.mark.parametrize("q", [(0.05, 0.05, 0.05), (0.3, 1e-3, 2.0)])
def test_k_user_rates_keep_the_direct_ratio_bits(q):
    plan = PartitionPlan(*_PLAN_CELLS, q)
    st = sigma_theta(_PLAN_MODEL, plan)
    want = [0.5 * math.log2((st[cell] + plan.q_cell(cell)) / q[i])
            for cell in plan.partition for i in cell]
    assert k_user_rates(_PLAN_MODEL, plan).rates == tuple(want)


@pytest.mark.parametrize("q0", [1e-320, 5e-324])
def test_k_user_rates_stay_finite_at_subnormal_q(q0):
    # The cell variance over q0 overflows, so the logs are taken apart.
    plan = PartitionPlan(*_PLAN_CELLS, (q0, 0.05, 0.05))
    rates = k_user_rates(_PLAN_MODEL, plan).rates
    cell = plan.partition[0]
    coarse_var = sigma_theta(_PLAN_MODEL, plan)[cell] + plan.q_cell(cell)
    assert rates[0] == pytest.approx(0.5 * (math.log2(coarse_var) - math.log2(q0)), rel=1e-15)
    assert rates[0] > 500.0
    assert all(math.isfinite(r) for r in rates)


def test_k_user_single_cell_recovers_direct_region():
    sz2 = 0.36
    d = 0.17
    qa = sz2 * d / (sz2 - d)
    point = k_user_rates(M88, single_cell_plan(2, (qa / 3, 2 * qa / 3)))
    total = sum(2.0 ** (-2 * r) for r in point.rates)
    assert total == pytest.approx(d / sz2, abs=1e-12)
    assert point.distortion == pytest.approx(d, abs=1e-12)


def test_k_user_three_sources_single_cell():
    model = SourceModel(np.eye(3), np.ones(3))
    point = k_user_rates(model, single_cell_plan(3, (0.1, 0.1, 0.1)))
    assert point.rates == pytest.approx([0.5 * math.log2(33.0)] * 3, abs=1e-12)
    assert point.distortion == pytest.approx(3.0 * 0.3 / 3.3, abs=1e-12)


def test_k_user_corner_matches_bt_under_rescaled_noise(rng):
    # Singleton-cell rates equal a corner of the quantize-and-bin region
    # once the second noise is expressed in the function's scale (q2 / c^2).
    for _ in range(30):
        rho = float(rng.uniform(0.05, 0.95))
        c = float(rng.uniform(0.1, 2.0))
        q1 = float(10 ** rng.uniform(-3, 1))
        q2 = float(10 ** rng.uniform(-3, 1))
        model = two_user_model(rho, c)
        point = k_user_rates(model, singleton_plan(2, (q1, q2)))
        bt = bt_rate_point(model, q1, q2 / c**2)
        corner, _ = bt.corner_points()
        assert point.rates[0] == pytest.approx(corner.rates[0], abs=1e-12)
        assert point.rates[1] == pytest.approx(corner.rates[1], abs=1e-12)
        assert point.distortion == pytest.approx(bt.distortion, abs=1e-12)


# ---------------------------------------------------------------------------
# side information


def test_side_info_independent_reduces_to_plain_region():
    region = side_info_region(independent_side_model(0.8, 0.8), 0.1)
    assert region.rhs == pytest.approx(0.1 / 0.36)
    assert region.min_sum_rate == pytest.approx(math.log2(7.2))


def test_side_info_noisy_function_value():
    region = side_info_region(noisy_function_side_model(0.8, 0.8, 0.1), 0.05)
    assert region.innovations_variance == pytest.approx(0.36 * 0.1 / 0.46)


def test_side_info_degenerate_rejected():
    with pytest.raises(DegenerateSideInfo):
        side_info_region(noisy_function_side_model(0.8, 0.8, 0.0), 0.01)


def test_side_info_distortion_range():
    with pytest.raises(DistortionOutOfRange):
        side_info_region(noisy_function_side_model(0.8, 0.8, 0.1), 0.2)


# ---------------------------------------------------------------------------
# scaling analysis


def test_scaling_rhs_at_function_direction():
    got = scaling_region_rhs(M88, 0.1, [1.0, -0.8])
    assert got == pytest.approx(0.1 / 0.36, abs=1e-12)


@given(xi=st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)))
@settings(max_examples=60, deadline=None)
def test_scaling_rhs_scale_invariant(xi):
    base = scaling_region_rhs(M88, 0.1, [1.0, -0.8])
    scaled = scaling_region_rhs(M88, 0.1, [xi, -0.8 * xi])
    assert scaled == pytest.approx(base, abs=1e-12)


def test_scaling_perturbation_strictly_worse():
    c = np.array([1.0, -0.8])
    base = scaling_region_rhs(M88, 0.1, c)
    sigma_c = M88.cov @ c
    orth = np.array([-sigma_c[1], sigma_c[0]])  # orthogonal to c under Sigma
    perturbed = scaling_region_rhs(M88, 0.1, c + 0.1 * orth / np.linalg.norm(orth))
    assert perturbed < base - 1e-6


def test_scaling_orthogonal_direction_rejected():
    c = np.array([1.0, -0.8])
    sigma_c = M88.cov @ c
    orth = np.array([-sigma_c[1], sigma_c[0]])
    with pytest.raises(OrthogonalScaling):
        scaling_region_rhs(M88, 0.1, orth)


def test_scaling_rejects_bad_distortion_and_eta():
    for d in (math.nan, math.inf, -1.0, 0.0, 0.36, 10.0):
        with pytest.raises(DistortionOutOfRange):
            scaling_region_rhs(M88, d, [1.0, -0.8])
        with pytest.raises(DistortionOutOfRange):
            optimal_scaling(M88, d)
    for eta in ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            scaling_region_rhs(M88, 0.1, eta)
    for eta in ([1.0], [1.0, -0.8, 0.5]):
        with pytest.raises(ValueError, match="length must match"):
            scaling_region_rhs(M88, 0.1, eta)


def test_optimal_scaling_grid_two_user():
    opt = optimal_scaling(M88, 0.1)
    c_unit = np.array([1.0, -0.8]) / np.linalg.norm([1.0, -0.8])
    cosang = abs(float(opt.direction @ c_unit))
    assert math.acos(min(cosang, 1.0)) < 2 * math.pi / 1024 + 1e-9


def test_scaling_at_huge_coefficients():
    # |c|^2 = 2e320 overflows, but c Sigma c^T = 2.7e304 does not.
    rho = 0.9999999999999999
    model = SourceModel(np.array([[1.0, rho], [rho, 1.0]]), np.array([1e160, -1e160]))
    d = 0.5 * float(model.coeffs @ model.cov @ model.coeffs)
    opt = optimal_scaling(model, d)
    assert np.allclose(opt.direction, [math.sqrt(0.5), -math.sqrt(0.5)], rtol=0, atol=1e-15)
    assert opt.rhs == pytest.approx(0.5, rel=1e-15)
    assert scaling_region_rhs(model, d, model.coeffs) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# scheme comparison


def test_sum_rate_gap_values():
    assert sum_rate_gap(0.8, 0.8, 0.1) == pytest.approx(
        0.5 * math.log2(66.56) - math.log2(7.2), abs=1e-12
    )
    assert sum_rate_gap(0.8, 0.8, 0.3) < 0


def test_sum_rate_gap_negative_c_never_wins():
    for d in [0.1, 0.5, 1.0, 1.8]:
        assert sum_rate_gap(0.8, -0.5, d) <= 0


def test_sum_rate_gap_validation():
    with pytest.raises(ValueError):
        sum_rate_gap(0.0, 0.8, 0.1)
    with pytest.raises(DistortionOutOfRange):
        sum_rate_gap(0.8, 0.8, 0.36)
