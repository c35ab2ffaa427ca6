"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from oracles import bt_sum_rate_oracle, epi_entropy_quadrature, sphere_directions

import latfun
from latfun import (
    SourceModel,
    bt_min_sum_rate,
    bt_optimal_q,
    bt_rate_point,
    build_two_user_codec,
    construction_a,
    coset_leaders,
    epi_entropy_sandwich,
    integer_lattice,
    k_user_rates,
    lattice_min_sum_rate,
    optimal_scaling,
    run_two_user_experiment,
    scaling_region_rhs,
    single_cell_plan,
    singleton_plan,
    sum_rate_gap,
    two_user_model,
)
from latfun.lattices import contains
from latfun.simulate import _chunk_rng, _draw, _run_block, _sources, _two_user_plan

RHO_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
C_GRID = [0.25, 0.5, 0.8, 1.0, 1.5, 2.0]
D_FRACTIONS = [0.05, 0.2, 0.4, 0.6, 0.85]


def _report(num, text):
    print(f"[criterion {num:02d}] PASS — {text}")


def test_criterion_01_closed_form_matches_grid_oracle():
    t0 = time.time()
    worst = 0.0
    for rho, c in product(RHO_GRID, C_GRID):
        model = two_user_model(rho, c)
        sz2 = latfun.function_variance(model)
        for frac in D_FRACTIONS:
            d = frac * sz2
            closed = bt_min_sum_rate(model, d)
            oracle = bt_sum_rate_oracle(rho, c, d)
            worst = max(worst, abs(closed - oracle))
    elapsed = time.time() - t0
    assert worst <= 1e-4, f"worst deviation {worst:.3e} bits"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    _report(1, f"270 grid cells, worst |closed - oracle| = {worst:.2e} bits "
               f"(tol 1e-4), runtime {elapsed:.1f}s (cap 120s)")


def test_criterion_02_optimal_noise_allocation():
    model = two_user_model(0.8, 0.8)
    d = 0.1
    opt = bt_optimal_q(model, d)
    assert opt.q1 == pytest.approx(0.069231, abs=1e-6)
    assert opt.q2 == pytest.approx(0.121294, abs=1e-6)
    pt = bt_rate_point(model, opt.q1, opt.q2)
    assert pt.distortion == pytest.approx(d, abs=1e-9)
    alpha, c, rho = 0.36, 0.8, 0.8
    closed = 0.5 * math.log2(4 * c * (alpha * c - rho * d) / d**2)
    assert pt.r_sum == pytest.approx(closed, abs=1e-9)
    _report(2, f"q1*={opt.q1:.6f}, q2*={opt.q2:.6f} (both +/-1e-6); distortion "
               f"equality and sum-rate identity hold to 1e-9")


def test_criterion_03_crossover():
    gap_small = sum_rate_gap(0.8, 0.8, 0.1)
    gap_large = sum_rate_gap(0.8, 0.8, 0.3)
    # Pinned value is oracle-derived; the criterion-1 oracle agreement
    # tolerance (1e-4 bits) is the natural comparison scale.
    assert gap_small == pytest.approx(0.180353, abs=1e-4)
    assert gap_large < 0
    d_grid = np.geomspace(0.0205, 0.3595, 256)
    gaps = np.array([sum_rate_gap(0.8, 0.8, float(d)) for d in d_grid])
    signs = np.sign(gaps)
    changes = int(np.sum(signs[:-1] != signs[1:]))
    assert changes == 1, f"expected exactly one sign change, saw {changes}"
    _report(3, f"gap(0.1)={gap_small:+.6f} (pin 0.180353 +/- 1e-4), "
               f"gap(0.3)={gap_large:+.6f} < 0, one sign change on 256-point grid")


def test_criterion_04_improvement_region():
    rho_values = np.linspace(0.1, 0.9, 9)
    c_values = np.linspace(-2.0, 0.0, 64)
    worst = -math.inf
    for rho in rho_values:
        for c in c_values:
            model = two_user_model(float(rho), float(c))
            sz2 = latfun.function_variance(model)
            d_grid = np.geomspace(0.01 * sz2, 0.95 * sz2, 32)
            bt = latfun.bt_min_sum_rates(model, d_grid)
            lat = np.array([lattice_min_sum_rate(model, float(d)) for d in d_grid])
            worst = max(worst, float(np.max(bt - lat)))
    assert worst <= 0.0, f"positive gap {worst:.4f} found for c <= 0"
    model = two_user_model(0.8, 0.8)
    sz2 = latfun.function_variance(model)
    d_grid = np.geomspace(0.01 * sz2, 0.95 * sz2, 32)
    best = max(sum_rate_gap(0.8, 0.8, float(d)) for d in d_grid)
    assert best > 0
    _report(4, f"576 cells with c <= 0: max gap {worst:+.4f} <= 0; "
               f"(rho, c) = (0.8, 0.8) max gap {best:+.4f} > 0")


def test_criterion_05_special_case_identities():
    rng = np.random.default_rng(505)
    for _ in range(100):
        rho = float(rng.uniform(0.05, 0.95))
        c = float(rng.uniform(0.1, 2.0))
        model = two_user_model(rho, c)
        sz2 = latfun.function_variance(model)

        # Single cell at matched total noise lands on the direct region.
        d = float(rng.uniform(0.05, 0.9)) * sz2
        qa = sz2 * d / (sz2 - d)
        share = float(rng.uniform(0.2, 0.8))
        point = k_user_rates(model, single_cell_plan(2, (qa * share, qa * (1 - share))))
        lhs = sum(2.0 ** (-2 * r) for r in point.rates)
        assert abs(lhs - d / sz2) <= 1e-12
        assert abs(point.distortion - d) <= 1e-12

        # Singleton cells reproduce a corner of the quantize-and-bin region
        # under the noise rescaling q2 -> q2 / c^2.
        q1 = float(10 ** rng.uniform(-3, 1))
        q2 = float(10 ** rng.uniform(-3, 1))
        kp = k_user_rates(model, singleton_plan(2, (q1, q2)))
        bt = bt_rate_point(model, q1, q2 / c**2)
        assert abs(kp.rates[0] - (bt.r_sum - bt.r2)) <= 1e-12
        assert abs(kp.rates[1] - bt.r2) <= 1e-12
        assert abs(kp.distortion - bt.distortion) <= 1e-12
    _report(5, "100 random draws: direct-region and corner-point identities "
               "hold to 1e-12")


def test_criterion_06_codec_distortion_identity():
    t0 = time.time()
    model = two_user_model(0.8, 0.8)
    codec = build_two_user_codec(model, 0.1, 0.06, n=1, margin=2.0)
    rep = run_two_user_experiment(codec, 1_000_000, seed=2026)
    elapsed = time.time() - t0
    assert rep.conditional_distortion == pytest.approx(0.1, rel=0.05)
    assert rep.overload_rate < 1e-3
    expected = 0.1296 / 0.26  # nominal coarse second moment
    sigma = math.sqrt(2.0) * expected / 1000.0
    assert abs(rep.dither_moment_check - expected) < 3 * sigma
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
    _report(6, f"conditional distortion {rep.conditional_distortion:.5f} "
               f"(target 0.1 +/- 5%), overload {rep.overload_rate:.2e} < 1e-3, "
               f"mod-input moment {rep.dither_moment_check:.5f} vs {expected:.5f} "
               f"within 3 sigma, runtime {elapsed:.1f}s (cap 60s)")


def test_criterion_07_pipeline_equivalence():
    model = two_user_model(0.8, 0.8)
    codec = build_two_user_codec(model, 0.1, 0.06, n=1, margin=2.0)
    plan = _two_user_plan(codec)
    z, zhat, v, overload, _ = _run_block(plan, *_draw(plan, 10_000, _chunk_rng(777, 0)))
    # Reference: Z from the chunk's sources drawn again, and the equivalent
    # pipeline w = v - Q_coarse(v), which reduces the shift-free mod input v
    # instead of the transmitted sum; overload is where that reduction moves v.
    x = _sources(plan.factor, _chunk_rng(777, 0), np.empty((10_000, 1, 2)), np.empty((2, 10_000)))
    assert np.array_equal(z, x[0] - codec.model.c * x[1])
    w = v[0] - latfun.nearest_point_coords(codec.coarse, v[0]) @ codec.coarse.gen.T
    max_diff = float(np.max(np.abs(zhat - codec.beta * w)))
    # Exact up to float associativity: the two pipelines evaluate the same
    # real-valued map through different groupings, so agreement is required
    # at 1e-12 (about 1e4 ulp) rather than bitwise.
    assert max_diff <= 1e-12
    ref_overload = np.any(w != v[0], axis=-1)
    assert np.array_equal(overload[:, 0], ref_overload)
    _report(7, f"10^4 seeded trials: max |difference| = {max_diff:.2e} <= 1e-12, "
               f"identical overload flags ({int(ref_overload.sum())} overloads)")


def test_criterion_08_construction_a():
    t0 = time.time()
    coarse = integer_lattice(2, 3.0)
    full_rank = 0
    deficient = 0
    for seed in range(20):
        res = construction_a(coarse, 3, 1, np.random.default_rng(seed))
        if res.rank_deficient:
            deficient += 1
            continue
        full_rank += 1
        assert all(contains(res.pair.fine, col) for col in coarse.gen.T)
        assert res.coset_count == 3
        assert coset_leaders(res.pair).shape[0] == 3
        assert res.pair.nesting_ratio == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert full_rank > 0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(8, f"20 seeded draws: {full_rank} full-rank verified (nesting, "
               f"3 cosets, ratio sqrt(3)); {deficient} rank-deficient excluded; "
               f"runtime {elapsed:.2f}s")


def test_criterion_09_entropy_sandwich():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        q1 = float(10 ** rng.uniform(-4, 2))
        q2 = float(10 ** rng.uniform(-4, 2))
        lower, est, upper = epi_entropy_sandwich(q1, q2)
        assert lower <= est <= upper
        if q1 > 1e-6 and q2 > 1e-6:
            assert est - lower > 1e-9
            assert upper - est > 1e-9
        worst = max(worst, abs(est - epi_entropy_quadrature(q1, q2)))
    assert worst <= 1e-9
    _, tri, _ = epi_entropy_sandwich(1.0 / 12.0, 1.0 / 12.0)
    assert tri == 0.5 / math.log(2.0)
    _report(9, f"50 random pairs: lower <= estimate <= upper with strict "
               f"ordering; closed form within {worst:.1e} bits of Simpson "
               f"quadrature; triangle entropy exactly 1/2 nat")


def test_criterion_10_scaling_optimality():
    rng = np.random.default_rng(1010)
    model = two_user_model(0.8, 0.8)
    base = scaling_region_rhs(model, 0.1, model.coeffs)
    for _ in range(50):
        xi = float(rng.uniform(0.01, 100.0)) * (1 if rng.random() < 0.5 else -1)
        scaled = scaling_region_rhs(model, 0.1, xi * model.coeffs)
        assert abs(scaled - base) <= 1e-12

    checked = 0
    for k in (2, 3, 4, 6):
        for _ in range(3):
            a = rng.normal(size=(k, k))
            cov = a @ a.T + 0.5 * np.eye(k)
            dd = np.sqrt(np.diag(cov))
            cov = cov / np.outer(dd, dd)
            coeffs = rng.normal(size=k)
            model_k = SourceModel(cov, coeffs)
            d = 0.5 * latfun.function_variance(model_k)
            opt = optimal_scaling(model_k, d)
            exact = d / latfun.function_variance(model_k)
            assert opt.rhs == exact
            assert abs(scaling_region_rhs(model_k, d, opt.direction) - exact) <= 1e-12
            unit = coeffs / np.linalg.norm(coeffs)
            assert min(np.max(np.abs(opt.direction - unit)),
                       np.max(np.abs(opt.direction + unit))) <= 1e-12
            if k <= 3:
                for direction in sphere_directions(k, 1024):
                    try:
                        rhs = scaling_region_rhs(model_k, d, direction)
                    except latfun.OrthogonalScaling:
                        continue
                    assert opt.rhs >= rhs
            checked += 1
    _report(10, f"RHS exactly invariant under 50 random rescalings (1e-12); "
                f"{checked} exact optima (K=2,3,4,6) along +/- c with RHS D/Var(Z), "
                f"none beaten by a 1024-direction grid (K=2,3)")
