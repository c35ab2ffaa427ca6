"""Codec Monte Carlo: construction, engine hand cases, statistics, entropy."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import epi_entropy_quadrature, run_block_reference, run_cells_reference
from pin_golden import _codecs, _z4_codecs

from latfun import (
    DegenerateSideInfo,
    DimensionMismatch,
    DistortionOutOfRange,
    InvalidCount,
    Lattice,
    MomentOverflow,
    NonFiniteSum,
    NonPositiveQ,
    PartitionPlan,
    QOutOfRange,
    SourceModel,
    UnresolvableDistortion,
    build_k_user_codec,
    build_side_info_codec,
    build_two_user_codec,
    epi_entropy_sandwich,
    function_variance,
    hexagonal_lattice,
    independent_side_model,
    integer_lattice,
    nearest_point_coords,
    noisy_function_side_model,
    run_k_user_experiment,
    run_side_info_experiment,
    run_two_user_experiment,
    sample_dither,
    second_moment,
    single_cell_plan,
    singleton_plan,
    two_user_model,
)
from latfun.regions import RatePoint, SCHEME_LATTICE
from latfun import simulate
from latfun.simulate import (
    TwoUserCodec,
    _Accumulator,
    _Cell,
    _Member,
    _Workspace,
    _chunk_rng,
    _chunk_shape,
    _column_counts,
    _column_sums,
    _draw,
    _gaussian_factor,
    _k_user_plan,
    _row_any,
    _row_mean,
    _run_block,
    _run_cells,
    _side_info_plan,
    _slot_count,
    _sources,
    _two_user_plan,
    _with_dithers,
    _workspace,
)

M88 = two_user_model(0.8, 0.8)


def _hand_codec(fine_scale=1.0, coarse_scale=4.0):
    """Unit-test codec with hand-picked integer lattices (n = 1)."""
    return TwoUserCodec(
        model=M88,
        d_target=0.1,
        q1=0.06,
        fine1=integer_lattice(1, fine_scale),
        fine2=integer_lattice(1, fine_scale),
        coarse=integer_lattice(1, coarse_scale),
        margin=1.0,
        n=1,
        rates=RatePoint((1.0, 1.0), 0.1, SCHEME_LATTICE),
    )


# ---------------------------------------------------------------------------
# codec construction


def test_build_two_user_codec_moments_and_rates():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=1.0)
    sz2 = 0.36
    assert second_moment(codec.fine1).value == pytest.approx(0.06)
    assert second_moment(codec.fine2).value == pytest.approx(0.036 / 0.26 - 0.06)
    assert second_moment(codec.coarse).value == pytest.approx(0.1296 / 0.26)
    r1, r2 = codec.rates.rates
    assert r1 == pytest.approx(0.5 * math.log2(0.1296 / (0.06 * 0.26)), abs=1e-12)
    assert r2 == pytest.approx(0.5 * math.log2(0.1296 / (0.036 - 0.06 * 0.26)), abs=1e-12)
    # Rates trade off along the direct-binning constraint exactly.
    assert 2.0 ** (-2 * r1) + 2.0 ** (-2 * r2) == pytest.approx(0.1 / sz2, abs=1e-12)


def test_build_two_user_codec_margin_inflates_only_coarse():
    plain = build_two_user_codec(M88, 0.1, 0.06, margin=1.0)
    guarded = build_two_user_codec(M88, 0.1, 0.06, margin=2.0)
    assert second_moment(guarded.coarse).value == pytest.approx(
        4.0 * second_moment(plain.coarse).value
    )
    assert second_moment(guarded.fine1).value == pytest.approx(
        second_moment(plain.fine1).value
    )


def _a2_base():
    base = hexagonal_lattice()
    return base.with_moment(second_moment(base, 4000, np.random.default_rng(5)))


_CODED_RATE_CODECS = {
    "two-user-z1": lambda margin: build_two_user_codec(M88, 0.1, 0.06, n=1, margin=margin),
    "two-user-a2": lambda margin: build_two_user_codec(M88, 0.1, 0.06, n=2, margin=margin,
                                                       base_lattice=_a2_base()),
    "side-info-z4": lambda margin: build_side_info_codec(
        noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02, n=4, margin=margin),
    "side-info-a2": lambda margin: build_side_info_codec(
        noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02, n=2, margin=margin,
        base_lattice=_a2_base()),
    "k-user-z4": lambda margin: build_k_user_codec(*_k_user_model_and_plan(), n=4, margin=margin),
    "k-user-a2": lambda margin: build_k_user_codec(*_k_user_model_and_plan(), n=2, margin=margin,
                                                   base_lattice=_a2_base()),
}


@pytest.mark.parametrize("margin", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("tag", sorted(_CODED_RATE_CODECS))
def test_coded_rates_are_the_region_rates_plus_log2_margin(tag, margin):
    # The lattices' volume ratio per dimension: at margin 1 the region's
    # rates, and log2(margin) more per user at a larger margin, which
    # inflates only the coarse cells.
    codec = _CODED_RATE_CODECS[tag](margin)
    coded, region = codec.coded_rates, codec.rates.rates
    assert len(coded) == len(region)
    for got, want in zip(coded, region):
        assert abs(got - (want + math.log2(margin))) <= 1e-12


def test_build_two_user_codec_q1_boundary():
    q_hi = 0.1 * 0.36 / 0.26
    near = build_two_user_codec(M88, 0.1, q_hi - 1e-6)
    assert second_moment(near.fine2).value == pytest.approx(1e-6, rel=1e-6)
    mid = build_two_user_codec(M88, 0.1, q_hi / 2)
    assert mid.rates.rates[0] == pytest.approx(mid.rates.rates[1], abs=1e-12)


@pytest.mark.parametrize("d, q1", [(0.1, 0.06), (0.3, 1e-4), (1e-3, 5e-4)])
def test_two_user_rates_keep_the_direct_ratio_bits(d, q1):
    var = function_variance(M88)
    rates = build_two_user_codec(M88, d, q1).rates.rates
    assert rates == (0.5 * math.log2(var**2 / (q1 * (var - d))),
                     0.5 * math.log2(var**2 / (d * var - q1 * (var - d))))


@pytest.mark.parametrize("d, q1", [(0.1, 1e-320), (0.1, 5e-324), (1e-320, 5e-321)])
def test_two_user_rates_stay_finite_at_subnormal_noise_shares(d, q1):
    # A ratio overflows or its denominator underflows: the logs are taken apart.
    var = function_variance(M88)
    r1, r2 = build_two_user_codec(M88, d, q1).rates.rates
    m2 = d * var / (var - d) - q1
    log2_var_sq = 2.0 * math.log2(var)
    assert r1 == pytest.approx(0.5 * (log2_var_sq - math.log2(q1) - math.log2(var - d)), rel=1e-15)
    assert r2 == pytest.approx(0.5 * (log2_var_sq - math.log2(var - d) - math.log2(m2)), rel=1e-15)


def test_build_two_user_codec_validation():
    with pytest.raises(QOutOfRange):
        build_two_user_codec(M88, 0.1, 0.2)
    with pytest.raises(DistortionOutOfRange):
        build_two_user_codec(M88, 0.4, 0.01)


@pytest.mark.parametrize("d", [1e-34, 1e-40])
def test_runs_below_float64_resolution_fail_closed(d):
    # The rounding of the unit-variance sources, about 2^-104 (1 + c^2) =
    # 8.1e-32, would swamp these targets: D = 1e-40 gave 2.1e7 times D.
    codec = build_two_user_codec(M88, d, 0.6 * d)
    si_codec = build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.1), d, 0.6 * d)
    runs = [
        lambda: run_two_user_experiment(codec, 2000, seed=0),
        lambda: run_side_info_experiment(si_codec, 2000, seed=0),
        lambda: run_k_user_experiment(M88, singleton_plan(2, (d, d)), trials=2000),
    ]
    for run in runs:
        with pytest.raises(UnresolvableDistortion, match="float64"):
            run()


def test_run_within_float64_resolution_meets_its_target():
    d = 1e-20
    codec = build_two_user_codec(M88, d, 0.6 * d, margin=2.0)
    rep = run_two_user_experiment(codec, 2000, seed=0)
    assert rep.overload_rate == 0.0
    # A ratio: pytest.approx(d, rel=...) would also pass within its default
    # absolute tolerance of 1e-12, a trillion times this target.
    assert abs(rep.empirical_distortion / d - 1.0) < 0.15


def test_small_a2_codec_meets_its_target():
    # The A2 lattices of D = 1e-14 have cells of about 1e-7. Searched at that
    # scale, the absolute tie tolerances took every row for a tie, and the
    # codec ran at 3.20 times its target, with no overload and no error.
    base = hexagonal_lattice()
    base = base.with_moment(second_moment(base, 100_000, np.random.default_rng(0)))
    d = 1e-14
    codec = build_two_user_codec(M88, d, d / 2, n=2, margin=4.0, base_lattice=base)
    rep = run_two_user_experiment(codec, 4000, seed=0)
    assert abs(rep.empirical_distortion / d - 1.0) < 0.05


def _fresh_arrays(plan, m):
    """The arrays of a chunk of m trials of ``plan`` in a workspace of their
    own, so that they outlive the thread's next chunk."""
    return _Workspace().arrays(m, *_chunk_shape(plan))


def _fresh_block(plan, x, dithers):
    """``_run_block`` in fresh slots and masks, so that its results outlive
    the thread's next chunk; Z, which may be a source column of the
    thread's workspace, is copied."""
    m, n = x[0].shape
    slots = [np.empty((m, n)) for _ in range(_slot_count(plan))]
    overload = np.zeros((m, len(plan.cells)), dtype=bool)
    z, *rest = _run_block(plan, x, dithers, slots, overload, np.zeros_like(overload))
    return (z.copy(), *rest)


def _two_user_chunk(codec, trials, seed):
    """The first chunk of a two-user run: Z, Zhat, v, overload, clean_before."""
    plan = _two_user_plan(codec)
    return _fresh_block(plan, *_draw(plan, trials, _chunk_rng(seed, 0),
                                     _fresh_arrays(plan, trials)))


class _ChosenNormals:
    """Generator stand-in whose ``standard_normal`` returns chosen values;
    every other draw (the dithers) comes from ``rng``."""

    def __init__(self, normals, rng=None):
        self.normals = normals
        self.rng = rng

    def standard_normal(self, *, out):
        assert out.shape == self.normals.shape
        out[...] = self.normals
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _chunk(plan, x, rng=None):
    """``_run_block`` on one chunk whose sources are exactly ``x`` (m, n, cols):
    the plan's covariance factor becomes the identity."""
    x = np.asarray(x, dtype=np.float64)
    plan = plan._replace(factor=np.eye(x.shape[-1]))
    m = x.shape[0]
    return _fresh_block(plan, *_draw(plan, m, _ChosenNormals(x, rng), _fresh_arrays(plan, m)))


# ---------------------------------------------------------------------------
# engine hand cases (hand codec: fine lattices Z, coarse 4Z, n = 1)


def test_encode_fixed_point():
    # A fine point inside the coarse cell, zero dither: transmitted as is.
    codec = _hand_codec()
    plan = _with_dithers(_two_user_plan(codec), (np.zeros(1), np.zeros(1)))
    z, zhat, v, overload, _ = _chunk(plan, [[[1.0, 0.0]]])
    assert np.array_equal(z, [[1.0]])
    assert np.array_equal(v[0], [[1.0]])
    assert np.array_equal(zhat, [[codec.beta]])
    assert not overload.any()


def test_encode_hand_case_with_ties():
    # X1 + U1 = 2.5 quantizes down to 2 and c X2 + U2 = 0.5 down to 0 (tie
    # rule), so the dither-corrected sum is exactly 2. 2 mod 4Z keeps 2
    # because the wrap tie between 0 and 4 also resolves to the smaller
    # coordinate; for the same reason v = 2 is no overload.
    codec = _hand_codec()
    plan = _with_dithers(_two_user_plan(codec), (np.array([0.5]), np.array([0.5])))
    _, zhat, v, overload, _ = _chunk(plan, [[[2.0, 0.0]]])
    assert np.array_equal(v[0], [[2.0]])
    assert np.array_equal(zhat, [[codec.beta * 2.0]])
    assert not overload.any()


def test_encode_invariant_under_coarse_shifts():
    # Shifting X1 by the coarse point 4 changes encoder 1's fine point but
    # not what it transmits after the reduction mod 4Z, so the decoded
    # estimate keeps its bits; both runs draw the same per-trial dithers.
    codec = _hand_codec()
    x = np.random.default_rng(3).normal(scale=3.0, size=(200, 1, 2))
    shifted = x.copy()
    shifted[..., 0] += 4.0
    _, zhat, _, _, _ = _chunk(_two_user_plan(codec), x, np.random.default_rng(5))
    _, zhat_shifted, _, _, _ = _chunk(_two_user_plan(codec), shifted, np.random.default_rng(5))
    assert np.array_equal(zhat, zhat_shifted)


def test_decode_zero_dither_equal_indices():
    # All-zero sources and dithers decode to zero, and so do equal fine
    # points X1 = c X2 = 1.
    codec = _hand_codec()
    plan = _with_dithers(_two_user_plan(codec), (np.zeros(1), np.zeros(1)))
    _, zhat, v, overload, _ = _chunk(plan, [[[0.0, 0.0]], [[1.0, 1.25]]])
    assert np.array_equal(v[0], np.zeros((2, 1)))
    assert np.array_equal(zhat, np.zeros((2, 1)))
    assert not overload.any()


def test_decode_wraparound_detected():
    codec = _hand_codec(coarse_scale=1.0)  # tiny coarse cell: wrap everywhere
    rep = run_two_user_experiment(codec, 2000, seed=0)
    assert rep.overload_rate > 0.1


def test_decode_wraparound_constructed_injection():
    # A mod input outside the coarse cell wraps: compare against the
    # unwrapped value directly.
    from latfun import mod_lattice

    codec = _hand_codec(coarse_scale=4.0)
    v = np.array([2.7])  # outside V0(4Z) = [-2, 2)
    wrapped = mod_lattice(codec.coarse, v)
    assert wrapped == pytest.approx([-1.3])
    assert not np.allclose(wrapped, v)
    inside = np.array([1.3])
    assert mod_lattice(codec.coarse, inside) == pytest.approx(inside)


# ---------------------------------------------------------------------------
# experiments


def test_two_user_experiment_hits_target_distortion():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    rep = run_two_user_experiment(codec, 200_000, seed=7)
    assert rep.conditional_distortion == pytest.approx(0.1, rel=0.05)
    assert rep.overload_rate < 1e-3
    var_z = function_variance(M88)
    expected_moment = var_z**2 / (var_z - 0.1)  # the coarse moment before the margin
    se = 3.0 * math.sqrt(2.0) * expected_moment / math.sqrt(rep.trials)
    assert abs(rep.dither_moment_check - expected_moment) < se


def test_two_user_experiment_margin_one_overloads():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=1.0)
    rep = run_two_user_experiment(codec, 200_000, seed=8)
    # Gaussian tail estimate at half the cell width is about 0.083.
    assert 0.04 < rep.overload_rate < 0.16


def test_source_variance_sanity():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    z = _two_user_chunk(codec, 100_000, seed=9)[0]
    var = float(np.mean(z**2))
    se = 3.0 * math.sqrt(2.0) * 0.36 / math.sqrt(z.size)
    assert abs(var - 0.36) < se


def test_quantization_noise_statistics():
    # e_i behaves like an independent pair of sign-flipped dithers.
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    rng = _chunk_rng(123, 0)
    m = 100_000
    n = codec.n
    c = codec.model.c
    lmat = np.linalg.cholesky(codec.model.cov)
    std = rng.standard_normal((m, n, 2))
    x = std @ lmat.T
    from latfun import nearest_point, sample_dither

    u1 = sample_dither(codec.fine1, rng, m)
    u2 = sample_dither(codec.fine2, rng, m)
    e1 = nearest_point(codec.fine1, x[..., 0] + u1) - (x[..., 0] + u1)
    e2 = nearest_point(codec.fine2, c * x[..., 1] + u2) - (c * x[..., 1] + u2)
    corr = np.corrcoef(e1[:, 0], e2[:, 0])[0, 1]
    assert abs(corr) < 0.01
    for e, lat in [(e1, codec.fine1), (e2, codec.fine2)]:
        target = second_moment(lat).value
        per = e[:, 0] ** 2
        se = 3.0 * np.std(per) / math.sqrt(m)
        assert abs(np.mean(per) - target) < se


def test_two_user_experiment_hexagonal_base(rng):
    # Same distortion identity on a non-diagonal base lattice; the moments
    # come from a Monte Carlo cache, so tolerances fold in its error.
    from latfun import hexagonal_lattice

    base = hexagonal_lattice()
    base = base.with_moment(second_moment(base, 400_000, rng))
    codec = build_two_user_codec(M88, 0.1, 0.06, n=2, margin=2.0, base_lattice=base)
    rep = run_two_user_experiment(codec, 100_000, seed=23)
    assert rep.conditional_distortion == pytest.approx(0.1, rel=0.05)
    assert rep.overload_rate < 5e-3


def test_dither_components_uncorrelated_across_dimensions():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=2, margin=2.0)
    z, zhat = _two_user_chunk(codec, 50_000, seed=10)[:2]
    resid = z - zhat
    corr = np.corrcoef(resid[:, 0], resid[:, 1])[0, 1]
    assert abs(corr) < 0.02


def test_pipeline_equivalence_trial_by_trial():
    # The transmitted estimate against beta (v - Q_coarse(v)), the reduction
    # of the shift-free mod input v; overload is where that reduction moves v.
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    _, zhat, v, overload, _ = _two_user_chunk(codec, 10_000, seed=5)
    w = v[0] - nearest_point_coords(codec.coarse, v[0]) @ codec.coarse.gen.T
    assert np.max(np.abs(zhat - codec.beta * w)) < 1e-12
    assert np.array_equal(overload[:, 0], np.any(w != v[0], axis=-1))


def _kernel_calls(monkeypatch, run):
    """Rows of each closest-point kernel call that ``run()`` makes."""
    from latfun import kernels

    rows = []
    search = kernels.nearest_point_batch
    monkeypatch.setattr(kernels, "nearest_point_batch",
                        lambda *args: rows.append(len(args[1])) or search(*args))
    run()
    return rows


_A2_ROWS = simulate._BLOCK // 2  # rows per block of an A2 chunk


def _stacked_searches(monkeypatch, run):
    """For each stacked closest-point search that ``run()`` makes (one
    kernel call each), the number of distinct lattices it searches and its
    rows."""
    from latfun import lattices

    calls = []
    search = lattices._search
    with monkeypatch.context() as patch:
        patch.setattr(lattices, "_search", lambda lats, arrays: calls.append(
            (len({id(lat) for lat in lats}), sum(len(a) for a in arrays))) or search(lats, arrays))
        run()
    return calls


def _a2_block_cases(rows):
    """Trial counts at the block edges of an A2 chunk with ``rows`` rows a
    block, each with the lattices its chunk searches."""
    return [pytest.param(trials, searches, rows, id=f"{trials}-{searches}")
            for trials, searches in [(rows + 1, 6), (rows + 2, 10), (2 * rows + 1, 10)]]


# The default block, and blocks of half as many rows.
@pytest.mark.parametrize("trials, searches, rows",
                         [pytest.param(1000, 6, _A2_ROWS, id="1000-6"),
                          *_a2_block_cases(_A2_ROWS), *_a2_block_cases(_A2_ROWS // 2)])
def test_a2_codec_stacks_its_coarse_reductions(monkeypatch, trials, searches, rows):
    # The three lattices are scalings of one base, searched in its frame.
    # Per chunk: one stacked dither reduction of both members (two fine
    # lattices); per block: one stacked fine quantization of both members
    # (two fine lattices), one stacked coarse reduction of both members and
    # one stacked reduction for overload and decoding (the coarse lattice
    # each). ``searches`` counts each lattice of a call once: 2 + 4 per
    # block, in 1 + 3 per block kernel calls. A one-row tail joins the block
    # before it, so rows + 1 trials are one block.
    from latfun import hexagonal_lattice

    base = hexagonal_lattice()
    base = base.with_moment(second_moment(base, 2000, np.random.default_rng(3)))
    codec = build_two_user_codec(M88, 0.1, 0.06, n=2, margin=2.0, base_lattice=base)
    monkeypatch.setattr(simulate, "_BLOCK", 2 * rows)
    calls = _stacked_searches(monkeypatch, lambda: run_two_user_experiment(codec, trials, seed=1))
    assert sum(lats for lats, _ in calls) == searches
    blocks = (searches - 2) // 4
    assert len(calls) == 1 + 3 * blocks
    # Each trial sends 8 rows: 2 dithers, 2 fine points, the members' 2
    # coarse reductions, the mod input and the decoding input.
    assert sum(rows for _, rows in calls) == 8 * trials
    assert _kernel_calls(monkeypatch, lambda: run_two_user_experiment(codec, trials, seed=1)) \
        == [rows for _, rows in calls]


def _results(arrays):
    """The per-trial results that ``_run_cells`` writes into a chunk's arrays."""
    return arrays.err, arrays.overload, arrays.v_sq, arrays.clean_before


@pytest.mark.parametrize("tag", ["a2", "d4"])
def test_one_row_tail_gives_the_bits_of_one_pass(monkeypatch, tag):
    # numpy multiplies a lone row by a non-diagonal generator through its
    # matrix-vector product, whose last bits can differ from the same row's
    # in a larger array; the tail row of a chunk joins the block before it.
    plan = _two_user_plan(_codecs()[tag])
    n = plan.cells[0].coarse.dim
    for m in (8193, simulate._BLOCK // n + 1):
        for seed in range(30):
            blocked = _results(_run_cells(plan, m, _chunk_rng(seed, 0), _fresh_arrays(plan, m)))
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_BLOCK", m * n)
                one_pass = _results(_run_cells(plan, m, _chunk_rng(seed, 0),
                                               _fresh_arrays(plan, m)))
            for got, want in zip(blocked, one_pass):
                assert got.tobytes() == want.tobytes(), f"{tag}, {m} trials, seed {seed}"


def _hand_plan(fine):
    """Two cells on scalings of ``fine``, each led by a subtracted member of
    scale 1.0, over three correlated sources. Cell 0 has no predictor; cell 1
    is predicted by cell 0 at weight 1.0, and the estimate adds both cells."""
    cells = (_Cell((_Member(0, 1.0, True, fine), _Member(1, 0.8, False, fine.scaled(0.5))),
                   fine.scaled(4.0), ()),
             _Cell((_Member(2, 1.0, True, fine.scaled(0.7)),), fine.scaled(4.0), (1.0,)))
    cov = np.full((3, 3), 0.8)
    np.fill_diagonal(cov, 1.0)
    return simulate._Plan(_gaussian_factor(cov), np.array([-1.0, 0.8, -1.0]), (), cells, (0, 1),
                          (1.0, 1.0))


def _fixed_dither_plan():
    codec = _codecs()["z1"]
    drng = np.random.default_rng(7)
    return _with_dithers(_two_user_plan(codec), (sample_dither(codec.fine1, drng, 1)[0],
                                                 sample_dither(codec.fine2, drng, 1)[0]))


_ENGINE_PLANS = {
    "z1": lambda: _two_user_plan(_codecs()["z1"]),
    "z1-fixed-dither": _fixed_dither_plan,
    "z3": lambda: _two_user_plan(build_two_user_codec(M88, 0.1, 0.06, n=3, margin=2.0)),
    "a2": lambda: _two_user_plan(_codecs()["a2"]),
    "z2-side-info": lambda: _side_info_plan(build_side_info_codec(
        noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02, n=2, margin=2.0)),
    "z4-k-user": lambda: _z4_k_user_plan(),
    "z2-minus-first": lambda: _hand_plan(integer_lattice(2, 0.3)),
}


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("m", [1, 8193, 20000])
@pytest.mark.parametrize("tag", list(_ENGINE_PLANS))
def test_engine_chunks_equal_the_reference_engine_bit_for_bit(monkeypatch, tag, m):
    # The engine cuts the passes that change at most the sign of a zero; the
    # reference keeps every one of them. The sources and dithers reach the
    # engine read-only, as a fixed dither always does, so a write into one
    # raises.
    plan = _ENGINE_PLANS[tag]()
    draw = simulate._draw
    monkeypatch.setattr(simulate, "_draw", lambda *args: tuple(
        [_read_only(a) for a in arrays] for arrays in draw(*args)))
    got = _results(_run_cells(plan, m, _chunk_rng(3, 0), _fresh_arrays(plan, m)))
    want = _results(run_cells_reference(plan, m, _chunk_rng(3, 0)))
    for name, g, w in zip(("err", "overload", "v_sq", "clean_before"), got, want):
        assert g.tobytes() == w.tobytes(), f"{tag}, {m} trials: {name} differs"
    if m > 1:
        assert got[1].any() and not got[1].all(), f"{tag}: some trials, not all, overload"


@pytest.mark.parametrize("make_run", [
    pytest.param(lambda: _two_user_run(True), id="fixed_dither"),
    pytest.param(lambda: _side_info_run(), id="side_info"),
    pytest.param(lambda: _k_user_run(), id="k_user"),
])
def test_reports_equal_the_reference_engine(monkeypatch, make_run):
    run = make_run()
    got = run().to_json()
    monkeypatch.setattr(simulate, "_run_cells", lambda plan, m, rng, arrays:
                        run_cells_reference(plan, m, rng))
    assert got == run().to_json()


# Hand-made edge values: signed zeros, coarse half-ties (2 and 6 on 4Z, whose
# fine points lie on a tie of the coarse cell), fine half-ties and subnormals.
_EDGE_SOURCES = [0.0, -0.0, 2.0, -2.0, 6.0, -6.0, 0.5, -0.5, 1.0, 5e-324, -5e-324, 1e-310, -1e-310]
_EDGE_DITHERS = [0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324]


@pytest.mark.parametrize("fine", [
    pytest.param(integer_lattice(1), id="z1"),
    pytest.param(integer_lattice(2), id="z2"),
    pytest.param(hexagonal_lattice(), id="a2"),
])
@pytest.mark.parametrize("make_plan", [
    pytest.param(lambda fine: _one_cell_plan(fine), id="plus-first"),
    pytest.param(_hand_plan, id="minus-first"),
])
def test_engine_block_on_signed_zeros_ties_and_subnormals(fine, make_plan):
    # Every value the engine forms equals the reference's, but for the sign
    # of a zero, and every square and coarse-point test keeps its bits.
    plan = make_plan(fine)
    gen = np.random.default_rng(11)
    m, n = 3000, fine.dim
    x = [_read_only(gen.choice(_EDGE_SOURCES, size=(m, n))) for _ in range(plan.factor.shape[0])]
    members = sum(len(cell.members) for cell in plan.cells)
    dithers = [_read_only(gen.choice(_EDGE_DITHERS, size=(m, n))) for _ in range(members)]
    got = _fresh_block(plan, x, dithers)
    want = run_block_reference(plan, x, dithers)
    for g, w in zip(got[3:], want[3:]):
        assert np.array_equal(g, w)
    assert got[3].any() and not got[3].all()
    for g, w in [(got[0], want[0]), (got[1], want[1])] + list(zip(got[2], want[2])):
        assert np.array_equal(g, w)
        assert np.square(g).tobytes() == np.square(w).tobytes()
    assert np.square(got[0] - got[1]).tobytes() == np.square(want[0] - want[1]).tobytes()


def _z4_k_user_plan():
    model = SourceModel(np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.8], [0.8, 0.8, 1.0]]),
                        np.array([1.0, -0.8, 0.5]))
    plan = PartitionPlan(((0, 1), (2,)), (0, 1), (0.05, 0.05, 0.05))
    return _k_user_plan(build_k_user_codec(model, plan, n=4, margin=2.0))


def test_a_chunk_size_run_before_allocates_no_whole_chunk_array():
    # Once the thread has run a 65,536-trial Z^4 K-user chunk, the draws,
    # source columns, dithers and per-trial results of the next (18 MB when
    # each was allocated afresh) all live in its workspace, and so do its
    # row blocks' arrays (see the test below).
    plan = _z4_k_user_plan()
    _run_cells(plan, 65536, _chunk_rng(0, 0), _workspace().arrays(65536, *_chunk_shape(plan)))
    tracemalloc.start()
    try:
        _run_cells(plan, 65536, _chunk_rng(0, 1), _workspace().arrays(65536, *_chunk_shape(plan)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("tag, rows", [("z1", None), ("z4", None), ("z4", 16384)],
                         ids=["z1-two-user", "z4-k-user", "z4-k-user-16384-rows"])
def test_a_warm_chunk_allocates_no_block_sized_array(monkeypatch, tag, rows):
    # Every array a row block forms is a slot of the thread's workspace, and
    # its masks are rows of the chunk's own, so a chunk its thread has run
    # before allocates less than the smallest array a block could: a (rows,)
    # bool mask, 16 KiB at 16,384 rows. The Z^1 block has 16,384 rows; the
    # default Z^4 block has 4,096, whose 4 KiB mask the chunk's small Python
    # objects hide, so the Z^4 plan also runs at 16,384 rows a block.
    plan = _two_user_plan(_codecs()["z1"]) if tag == "z1" else _z4_k_user_plan()
    if rows:
        monkeypatch.setattr(simulate, "_BLOCK", rows * plan.cells[0].coarse.dim)
    _run_cells(plan, 65536, _chunk_rng(0, 0), _workspace().arrays(65536, *_chunk_shape(plan)))
    rng = _chunk_rng(0, 1)
    tracemalloc.start()
    try:
        _run_cells(plan, 65536, rng, _workspace().arrays(65536, *_chunk_shape(plan)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16384


def _one_cell_plan(fine):
    """Two members on ``fine`` and on it halved, with the identity factor."""
    cell = _Cell((_Member(0, 1.0, False, fine), _Member(1, 1.0, True, fine.scaled(0.5))),
                 fine.scaled(4.0), ())
    return simulate._Plan(np.eye(2), np.array([1.0, -1.0]), (), (cell,), (0,), (1.0,))


@pytest.mark.parametrize("fine", [
    pytest.param(Lattice(np.diag([0.7, -1.3, 2.0])), id="diagonal"),
    pytest.param(integer_lattice(3, 0.37), id="cZn"),
    pytest.param(hexagonal_lattice(0.8), id="a2"),
])
@pytest.mark.parametrize("m", [1, 2, 1000])
def test_engine_dithers_equal_sample_dither(fine, m):
    plan = _one_cell_plan(fine)
    _, dithers = _draw(plan, m, _chunk_rng(5, 0), _fresh_arrays(plan, m))
    rng = _chunk_rng(5, 0)
    rng.standard_normal((m, fine.dim, 2))
    for mem, got in zip(plan.cells[0].members, dithers):
        want = sample_dither(mem.fine, rng, m)
        assert got.tobytes() == want.tobytes()


# Runs of a sequence on one thread, each against a fresh process; the third
# has the largest chunk, so the workspace grows before the first runs again.
_SEQUENCE_SETUP = """
import numpy as np
from latfun import *
cov = np.full((3, 3), 0.8)
np.fill_diagonal(cov, 1.0)
MODEL = SourceModel(cov, np.array([1.0, -0.8, 0.5]))
PLAN = PartitionPlan(((0, 1), (2,)), (0, 1), (0.05, 0.05, 0.05))
SIDE = build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02, n=2,
                             margin=2.0)
PAIR = build_two_user_codec(two_user_model(0.8, 0.8), 0.1, 0.06, n=3, margin=2.0)
"""
_SEQUENCE_RUNS = {
    "k_user": "run_k_user_experiment(MODEL, PLAN, n=4, trials=5000, seed=3, margin=2.0)",
    "side_info": "run_side_info_experiment(SIDE, 3000, seed=4)",
    "larger_chunk": "run_two_user_experiment(PAIR, 30000, seed=5)",
}


def test_workspace_reuse_matches_fresh_processes():
    namespace = {}
    exec(_SEQUENCE_SETUP, namespace)
    order = ["k_user", "side_info", "larger_chunk", "k_user"]
    got = [eval(_SEQUENCE_RUNS[name], namespace).to_json() for name in order]
    src = str(Path(simulate.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fresh = {}
    for name, run in _SEQUENCE_RUNS.items():
        proc = subprocess.run([sys.executable, "-c", f"{_SEQUENCE_SETUP}print({run}.to_json())"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        fresh[name] = proc.stdout.strip()
    assert got == [fresh[name] for name in order]


def _in_threads(*runs):
    """The reports' JSON of ``runs``, each called in a thread of its own, all
    released together by a barrier, with a short switch interval so that the
    threads interleave often; an error in a thread is raised here."""
    barrier = threading.Barrier(len(runs))
    results = [None] * len(runs)

    def target(i):
        try:
            barrier.wait(timeout=60)
            results[i] = runs[i]().to_json()
        except Exception as exc:
            results[i] = exc

    threads = [threading.Thread(target=target, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def test_concurrent_experiments_equal_their_serial_runs():
    # Each thread runs its chunks in its own workspace: experiments of
    # several chunks, run at once, give the bytes of their runs one by one,
    # also when both threads run one codec object whose plan neither has built.
    model, plan, _ = _z4_codecs()
    runs = [
        lambda: run_two_user_experiment(_codecs()["a2"], 20_000, seed=1, chunk_size=2_500),
        lambda: run_k_user_experiment(model, plan, n=4, trials=20_000, seed=2, margin=2.0,
                                      chunk_size=1_500),
    ]
    assert _in_threads(*runs) == [run().to_json() for run in runs]
    shared = _a2_two_user_codec()
    runs = [lambda seed=seed: run_two_user_experiment(shared, 20_000, seed, chunk_size=2_000)
            for seed in (3, 4)]
    serial = [run_two_user_experiment(_a2_two_user_codec(), 20_000, seed, chunk_size=2_000)
              for seed in (3, 4)]
    assert _in_threads(*runs) == [rep.to_json() for rep in serial]


def test_threads_on_one_k_user_model_equal_its_serial_runs():
    # Four threads, more than the cores CI has, run one model at two
    # margins, each replacing the codec the runner keeps while the others
    # run: every run gives the bytes of a run on a fresh model.
    margins = (2.0, 3.0, 2.0, 3.0)
    shared = _k_user_model_and_plan()
    for seed in range(3):
        serial = [_run_k_user(_k_user_model_and_plan(), 3_000, seed, 256, margin=margin).to_json()
                  for margin in margins]
        runs = [lambda margin=margin: _run_k_user(shared, 3_000, seed, 256, margin=margin)
                for margin in margins]
        assert _in_threads(*runs) == serial, f"seed {seed}"


def test_diagonal_codecs_never_reach_the_kernel(monkeypatch):
    z1 = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    plan = single_cell_plan(2, (0.05, 0.05))
    assert _kernel_calls(monkeypatch, lambda: (
        run_two_user_experiment(z1, 1000, seed=1),
        run_k_user_experiment(M88, plan, n=4, trials=1000, seed=1, margin=2.0))) == []


def test_experiment_deterministic_for_fixed_seed():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    a = run_two_user_experiment(codec, 30_000, seed=11)
    b = run_two_user_experiment(codec, 30_000, seed=11)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("trials, chunk_size", [(0, 10), (-3, 10), (100, 0), (100, -1)])
def test_experiments_reject_nonpositive_counts(trials, chunk_size):
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    si_codec = build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.2), 0.1, 0.06)
    with pytest.raises(InvalidCount):
        run_two_user_experiment(codec, trials, 0, chunk_size=chunk_size)
    with pytest.raises(InvalidCount):
        run_side_info_experiment(si_codec, trials, 0, chunk_size=chunk_size)
    with pytest.raises(InvalidCount):
        run_k_user_experiment(M88, singleton_plan(2, (0.05, 0.05)), trials=trials,
                              chunk_size=chunk_size)


def _two_user_run(fixed_dither):
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    return lambda: run_two_user_experiment(codec, 100_000, seed=12, chunk_size=10_000,
                                           fixed_dither=fixed_dither)


def _side_info_run():
    codec = build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02,
                                  n=2, margin=2.0)
    return lambda: run_side_info_experiment(codec, 100_000, seed=12, chunk_size=10_000)


def _k_user_model_and_plan():
    model = SourceModel(np.array([[1.0, 0.6, 0.6], [0.6, 1.0, 0.6], [0.6, 0.6, 1.0]]),
                        np.array([1.0, -0.8, 0.5]))
    return model, PartitionPlan(((0, 1), (2,)), (1, 0), (0.05, 0.05, 0.05))


def _k_user_run():
    model, plan = _k_user_model_and_plan()
    return lambda: run_k_user_experiment(model, plan, n=2, trials=100_000, seed=12,
                                         margin=2.0, chunk_size=10_000)


def _run_k_user(model_and_plan, trials, seed, chunk_size, margin=2.0):
    """The K-user runner at n = 2 on a ``(model, plan)`` pair, which stands
    for a codec here: the runner keeps the codec that it builds for them."""
    model, plan = model_and_plan
    return run_k_user_experiment(model, plan, n=2, trials=trials, seed=seed, margin=margin,
                                 chunk_size=chunk_size)


def _a2_two_user_codec():
    base = hexagonal_lattice()
    est = second_moment(base, 2000, np.random.default_rng(0))
    return build_two_user_codec(M88, 0.1, 0.06, n=2, margin=2.0, base_lattice=base.with_moment(est))


def _z2_side_info_codec():
    return build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02,
                                 n=2, margin=2.0)


_CACHING_CODECS = {
    "two_user_z1": (lambda: build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0),
                    run_two_user_experiment),
    "two_user_a2": (_a2_two_user_codec, run_two_user_experiment),
    "side_info_z2": (_z2_side_info_codec, run_side_info_experiment),
    "k_user_z2": (_k_user_model_and_plan, _run_k_user),
}


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or fn(*args))
    return calls


@pytest.mark.parametrize("tag", sorted(_CACHING_CODECS))
def test_a_codec_builds_and_checks_its_plan_once(monkeypatch, tag):
    make, run = _CACHING_CODECS[tag]
    codec = make()
    factors = _count_calls(monkeypatch, np.linalg, "cholesky")
    checks = _count_calls(monkeypatch, simulate, "_require_resolvable")
    builds = _count_calls(monkeypatch, simulate, "build_k_user_codec")
    for seed in range(3):
        run(codec, 300, seed, chunk_size=128)
        assert (len(factors), len(checks)) == (1, 1), f"run {seed}"
    if tag.startswith("two_user"):
        # A fixed-dither run swaps its dithers into the codec's checked plan.
        for seed in range(2):
            run(codec, 300, seed, chunk_size=128, fixed_dither=True)
        assert (len(factors), len(checks)) == (1, 1)
    if tag.startswith("k_user"):
        assert len(builds) == 1
        # The runner keeps the last configuration only: a new margin or plan
        # builds anew, and so does a margin of another type, which the
        # report prints as it is given. An equal plan object reuses it.
        model, plan = codec
        other = PartitionPlan(((0,), (1,), (2,)), (2, 0, 1), (0.05, 0.05, 0.05))
        run(codec, 300, 0, chunk_size=128, margin=3.0)
        run((model, other), 300, 0, chunk_size=128)
        run((model, PartitionPlan(other.partition, other.decode_order, other.q)), 300, 1,
            chunk_size=128)
        run(codec, 300, 0, chunk_size=128)
        assert json.loads(run(codec, 300, 0, chunk_size=128, margin=2).to_json())["margin"] == 2
        assert len(builds) == len(factors) == len(checks) == 5


def test_k_user_runs_and_failed_checks_keep_no_plan(monkeypatch):
    # A K-user configuration whose target float64 cannot resolve fails on
    # every run, and its codec keeps no plan, as a two-user codec keeps
    # none; a good configuration run after it builds its codec and checks
    # its plan once over two runs.
    codecs = []
    build = simulate.build_k_user_codec
    monkeypatch.setattr(simulate, "build_k_user_codec",
                        lambda *args: codecs.append(build(*args)) or codecs[-1])
    checks = _count_calls(monkeypatch, simulate, "_require_resolvable")
    model, plan = _k_user_model_and_plan()
    tiny = PartitionPlan(plan.partition, plan.decode_order, (1e-40,) * 3)
    for _ in range(2):
        with pytest.raises(UnresolvableDistortion):
            _run_k_user((model, tiny), 100, 0, 100)
    assert (len(codecs), len(checks)) == (1, 2)
    assert codecs[0]._plan is None
    for _ in range(2):
        _run_k_user((model, plan), 100, 0, 100)
    assert (len(codecs), len(checks)) == (2, 3)
    assert codecs[1]._plan is not None
    codec = build_two_user_codec(M88, 1e-40, 0.6e-40)
    for _ in range(2):
        with pytest.raises(UnresolvableDistortion):
            run_two_user_experiment(codec, 100, seed=0)
    assert codec._plan is None


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tag", sorted(_CACHING_CODECS))
def test_repeated_runs_of_a_codec_equal_runs_of_a_fresh_one(tag, threads):
    # One codec object, run again and again from ``threads`` threads at once
    # (the first runs racing to build its plan), gives a fresh codec's bytes.
    make, run = _CACHING_CODECS[tag]
    codec = make()
    for seed, trials in ((3, 700), (4, 257), (3, 700)):
        fresh = run(make(), trials, seed, chunk_size=256).to_json()
        runs = [lambda: run(codec, trials, seed, chunk_size=256)] * threads
        assert _in_threads(*runs) == [fresh] * threads, f"seed {seed}, {trials} trials"


@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_source_columns_equal_the_stacked_product(n, cols):
    # The engine forms its sources without numpy's stacked (m, n, cols) @
    # (cols, cols) product; every shape must keep that product's bits.
    gen = np.random.default_rng(cols)
    a = gen.normal(size=(cols, cols))
    factors = [np.linalg.cholesky(a @ a.T + 0.1 * np.eye(cols)), a]
    for factor in factors:
        for m in (1, 7, 2048, 65536):
            got = _sources(factor, np.random.default_rng([m, n]), np.empty((m, n, cols)),
                           np.empty((cols, m * n)))
            want = np.random.default_rng([m, n]).standard_normal((m, n, cols)) @ factor.T
            assert len(got) == cols
            for i in range(cols):
                assert got[i].shape == (m, n)
                assert np.array_equal(got[i].view(np.int64), want[..., i].view(np.int64))


def _reduction_inputs(m: int, k: int) -> np.ndarray:
    """(m, k) values spanning 1e-20..1e20 in magnitude, with +0.0, -0.0,
    rows of one repeated value and rows whose entries cancel exactly."""
    rng = np.random.default_rng([m, k, 0x7264])
    a = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-20, 21, size=(m, k))
    a[rng.random((m, k)) < 0.1] = 0.0
    a[rng.random((m, k)) < 0.1] = -0.0
    rows = rng.random(m)
    tie = rng.choice([-1.5, 0.5, 1e20, 3e-20], size=m)
    a[rows < 0.1] = tie[rows < 0.1, None]
    cancel = (rows >= 0.1) & (rows < 0.2)
    a[cancel] = tie[cancel, None] * np.where(np.arange(k) % 2, -1.0, 1.0)
    a[0] = -0.0
    return a


@pytest.mark.parametrize("m", [1, 7, 32768])
@pytest.mark.parametrize("k", range(1, 10))
def test_trial_axis_reductions_match_numpy_bit_for_bit(m, k):
    # _row_mean sums columns left to right below k = 8, which is numpy's own
    # order for short rows, and calls np.mean from k = 8. A reduction's order
    # is a numpy implementation detail, so a failure names the version.
    a = _reduction_inputs(m, k)
    where = f"m = {m}, k = {k}, numpy {np.__version__}"
    got, want = _row_mean(a), np.mean(a, axis=-1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"_row_mean differs at {where}"
    for flags in (a, a != 0, (a > 0).astype(np.int64)):
        assert np.array_equal(_row_any(flags), np.any(flags, axis=-1)), f"_row_any differs at {where}"
    flags = a > 0
    counts = _column_counts(flags)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.sum(flags, axis=0)), f"_column_counts differs at {where}"


# Magnitudes of the column-sum inputs: 1e+-300, normal, and the subnormals
# (multiples of 5e-324), so that sums overflow, cancel and underflow.
_SUM_SCALES = np.array([1e-300, 1e-10, 1.0, 1e10, 1e300, 5e-324 * 2.0**20, 5e-324])


@settings(max_examples=120, deadline=None)
@given(m=st.one_of(st.integers(1, 64), st.integers(1, 70_000)), k=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.2, 1.0]))
@example(m=70_000, k=2, seed=0, zeros=0.0)  # a benchmark chunk's cells, and more
@example(m=70_000, k=1, seed=1, zeros=0.0)  # one cell: numpy's pairwise sum
@example(m=1, k=8, seed=2, zeros=0.0)
@example(m=5, k=3, seed=3, zeros=1.0)       # columns of -0.0 sum to +0.0
def test_column_sums_are_numpys_bit_for_bit(m, k, seed, zeros):
    # The fold's per-cell moments are summed one column at a time; the sums
    # must keep np.sum(a, axis=0)'s bits for every cell count the engine
    # makes, with mixed signs, signed zeros, subnormals and overflow.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) * rng.choice(_SUM_SCALES, size=(m, k))
    a[rng.random((m, k)) < zeros] = -0.0
    scratch = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _column_sums(a, scratch), np.sum(a, axis=0)
    assert got.shape == (k,)
    assert got.tobytes() == want.tobytes(), f"m = {m}, k = {k}, numpy {np.__version__}"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("tag", ["two_user_z1", "k_user_z2"])
def test_a_chunk_with_a_non_finite_value_raises_one_line(monkeypatch, tag, value):
    # The engine leaves a diagonal lattice's targets unchecked: a NaN or an
    # infinity in a source runs through the chunk into its sums, and the
    # fold rejects the chunk before any report is made, with no warning.
    sources = simulate._sources

    def with_value(*args):
        x = sources(*args)
        x[1][5, 0] = value
        return x

    make, run = _CACHING_CODECS[tag]
    codec = make()
    monkeypatch.setattr(simulate, "_sources", with_value)
    with pytest.raises(NonFiniteSum) as err:
        run(codec, 300, 0, chunk_size=128)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("margin", [math.inf, math.nan, 0.5])
def test_builders_reject_margin_not_finite_or_below_one(margin):
    with pytest.raises(ValueError, match="margin"):
        build_two_user_codec(M88, 0.1, 0.06, margin=margin)
    with pytest.raises(ValueError, match="margin"):
        build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.2), 0.1, 0.06, margin=margin)
    with pytest.raises(ValueError, match="margin"):
        build_k_user_codec(M88, singleton_plan(2, (0.05, 0.05)), margin=margin)


def test_builders_reject_margin_that_overflows_the_coarse_moment():
    with pytest.raises(MomentOverflow):
        build_two_user_codec(M88, 0.1, 0.06, margin=1e308)
    with pytest.raises(MomentOverflow):
        build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.2), 0.1, 0.06, margin=1e200)
    with pytest.raises(MomentOverflow):
        build_k_user_codec(M88, singleton_plan(2, (0.05, 0.05)), margin=1e308)
    assert build_two_user_codec(M88, 0.1, 0.06, margin=1e150).coarse.gen[0, 0] > 1e150
    # Var Z = 1e300 is finite, but the nominal coarse moment Var Z^2 / (Var Z - D) is not.
    with pytest.raises(MomentOverflow):
        build_two_user_codec(two_user_model(0.8, 1e150), 0.1, 0.06)


def test_builders_reject_base_lattice_of_other_dimension():
    base = integer_lattice(2)
    with pytest.raises(DimensionMismatch):
        build_two_user_codec(M88, 0.1, 0.06, n=1, base_lattice=base)
    with pytest.raises(DimensionMismatch):
        build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.2), 0.1, 0.06, n=1,
                              base_lattice=base)
    with pytest.raises(DimensionMismatch):
        build_k_user_codec(M88, singleton_plan(2, (0.05, 0.05)), n=1, base_lattice=base)


def test_fixed_dither_mode_runs_and_is_deterministic():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    a = run_two_user_experiment(codec, 50_000, seed=13, fixed_dither=True)
    b = run_two_user_experiment(codec, 50_000, seed=13, fixed_dither=True)
    assert a.to_json() == b.to_json()
    assert a.conditional_distortion == pytest.approx(0.1, rel=0.3)


# ---------------------------------------------------------------------------
# K-user experiments


def test_k_user_single_cell_matches_two_user_pipeline():
    d, q1 = 0.1, 0.06
    sz2 = 0.36
    q2 = d * sz2 / (sz2 - d) - q1
    codec = build_two_user_codec(M88, d, q1, n=1, margin=2.0)
    rep2 = run_two_user_experiment(codec, 400_000, seed=14)
    plan = single_cell_plan(2, (q1, q2))
    repk = run_k_user_experiment(M88, plan, n=1, trials=400_000, seed=14, margin=2.0)
    assert repk.rates.rates == pytest.approx(rep2.rates.rates, abs=1e-12)
    se = math.hypot(rep2.distortion_std_error, repk.distortion_std_error)
    assert abs(repk.conditional_distortion - rep2.conditional_distortion) < 4 * se
    assert repk.overload_rate < 1e-3


def test_k_user_two_singletons_distortion():
    plan = singleton_plan(2, (0.1, 0.1))
    rep = run_k_user_experiment(M88, plan, n=1, trials=400_000, seed=15, margin=2.0)
    assert rep.conditional_distortion == pytest.approx(0.04968 / 0.4044, rel=0.05)
    assert len(rep.cell_overload_rates) == 2
    assert all(r < 5e-3 for r in rep.cell_overload_rates)


def test_k_user_three_sources_single_cell():
    model = SourceModel(np.eye(3), np.ones(3))
    plan = single_cell_plan(3, (0.1, 0.1, 0.1))
    rep = run_k_user_experiment(model, plan, n=1, trials=300_000, seed=16, margin=2.0)
    assert rep.conditional_distortion == pytest.approx(3.0 * 0.3 / 3.3, rel=0.05)


def test_k_user_moment_checks_match_cell_variances():
    plan = singleton_plan(2, (0.1, 0.1))
    rep = run_k_user_experiment(M88, plan, n=1, trials=300_000, seed=17, margin=2.0)
    expected = [1.0 + 0.1, (0.64 - 0.4096 / 1.1) + 0.1]
    for got, want in zip(rep.cell_moment_checks, expected):
        se = 3.0 * math.sqrt(2.0) * want / math.sqrt(rep.trials)
        assert abs(got - want) < se


def test_k_user_on_a_singular_covariance():
    # The all-ones covariance has no Cholesky factor, so the sources come
    # from its eigendecomposition.
    cov = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    factor = _gaussian_factor(cov)
    assert np.allclose(factor @ factor.T, cov, atol=1e-12)
    model = SourceModel(cov, np.array([1.0, -0.8, 0.5]))
    plan = PartitionPlan(((0, 1), (2,)), (0, 1), (0.05, 0.05, 0.05))
    values = json.loads(run_k_user_experiment(model, plan, n=2, trials=3000, seed=3, margin=2.0,
                                              chunk_size=1000).to_json())
    numbers = [v for key in ("cell_moment_checks", "cell_overload_rates", "rates_bits")
               for v in values[key]]
    numbers += [values[key] for key in ("conditional_distortion", "distortion_std_error",
                                        "dither_moment_check", "empirical_distortion")]
    assert all(isinstance(v, float) and math.isfinite(v) for v in numbers)


def test_cell_moment_check_is_nan_for_a_cell_with_no_clean_trial():
    acc = _Accumulator(2, last=1, d=0.1, per_cell=True)
    arrays = _Workspace().arrays(m=2, n=1, cols=2, draws=2, cells=2)
    arrays.err[:] = [0.1, 0.3]
    arrays.overload[:] = False
    arrays.v_sq[:] = [[2.0, 5.0], [4.0, 7.0]]
    arrays.clean_before[:] = [[True, False], [True, False]]
    acc.add(arrays)
    rep = acc.report(RatePoint((1.0, 1.0), 0.1, SCHEME_LATTICE), 0, 1.0, 1)
    assert rep.cell_moment_checks[0] == 3.0
    assert math.isnan(rep.cell_moment_checks[1])
    assert math.isnan(rep.dither_moment_check)
    assert json.loads(rep.to_json())["cell_moment_checks"] == [3.0, None]


# ---------------------------------------------------------------------------
# side information


def test_side_info_independent_matches_two_user_parameters():
    si = independent_side_model(0.8, 0.8)
    si_codec = build_side_info_codec(si, 0.1, 0.06, n=1, margin=2.0)
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    assert si_codec.fine1.gen == pytest.approx(codec.fine1.gen)
    assert si_codec.fine2.gen == pytest.approx(codec.fine2.gen)
    assert si_codec.coarse.gen == pytest.approx(codec.coarse.gen)
    assert si_codec.rates.rates == pytest.approx(codec.rates.rates)


def test_side_info_experiment_hits_target():
    si = noisy_function_side_model(0.8, 0.8, 0.1)
    s_eta = si.innovations_variance()
    codec = build_side_info_codec(si, 0.05, 0.02, n=1, margin=2.0)
    rep = run_side_info_experiment(codec, 1_000_000, seed=18)
    assert rep.conditional_distortion == pytest.approx(0.05, rel=0.05)
    assert rep.overload_rate < 1e-3
    # Rate constraint identity in terms of the innovations variance.
    r1, r2 = rep.rates.rates
    assert 2.0 ** (-2 * r1) + 2.0 ** (-2 * r2) == pytest.approx(0.05 / s_eta, abs=1e-12)


def test_side_info_decode_unit_case():
    # All-zero sources and dithers decode to zero. With only Y = 1, the cell
    # decodes to zero and Zhat is the shrunk side estimate (D / s) beta_Y.
    codec = build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02,
                                  n=1, margin=2.0)
    plan = _with_dithers(_side_info_plan(codec), (np.zeros(1), np.zeros(1)))
    _, zhat, v, overload, _ = _chunk(plan, [[[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]])
    assert np.array_equal(zhat[0], [0.0])
    shrink = codec.d_target / codec.innovations_variance
    assert zhat[1] == pytest.approx([shrink * codec.side_coefficient], rel=1e-12)
    assert np.array_equal(v[0], [[0.0], [-codec.side_coefficient]])
    assert not overload.any()


def test_side_info_degenerate_rejected():
    si = noisy_function_side_model(0.8, 0.8, 0.0)
    with pytest.raises(DegenerateSideInfo):
        build_side_info_codec(si, 0.01, 0.005)


# ---------------------------------------------------------------------------
# entropy sandwich


def test_epi_triangle_case():
    lower, est, upper = epi_entropy_sandwich(1.0 / 12.0, 1.0 / 12.0)
    assert lower == pytest.approx(0.5, abs=1e-12)
    assert upper == pytest.approx(0.5 * math.log2(2 * math.pi * math.e / 6.0), abs=1e-12)
    # Triangular density on [-1, 1]: entropy is 1/2 nat.
    assert est == 0.5 / math.log(2.0)
    assert lower < est < upper


def test_epi_matches_trapezoid_closed_form(rng):
    for _ in range(10):
        q1 = float(10 ** rng.uniform(-3, 1))
        q2 = float(10 ** rng.uniform(-3, 1))
        _, est, _ = epi_entropy_sandwich(q1, q2)
        assert est == pytest.approx(epi_entropy_quadrature(q1, q2), abs=1e-9)


def test_epi_degenerate_second_noise():
    lower, est, upper = epi_entropy_sandwich(0.25, 1e-14)
    assert abs(lower - est) < 1e-6
    assert est <= upper + 1e-12


def test_epi_strictly_ordered_for_equal_noise():
    lower, est, upper = epi_entropy_sandwich(0.02, 0.02)
    assert lower < est - 1e-6
    assert est < upper - 1e-6


def test_epi_rejects_nonpositive():
    for bad in (0.0, -0.1, math.nan, math.inf, -math.inf):
        for q1, q2 in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(NonPositiveQ, match="positive and finite"):
                epi_entropy_sandwich(q1, q2)


_EXTREME_Q = [5e-324, 1e-320, sys.float_info.min, 1e-300, 1e-14, 1.0, 1e300, 1e307,
              sys.float_info.max]


@pytest.mark.parametrize("q2", _EXTREME_Q)
@pytest.mark.parametrize("q1", _EXTREME_Q)
def test_epi_finite_and_ordered_at_extreme_q(q1, q2):
    lower, est, upper = epi_entropy_sandwich(q1, q2)
    assert all(map(math.isfinite, (lower, est, upper)))
    assert lower <= est <= upper
    # The direct forms, where they neither overflow nor round 12 q or
    # 2 pi e (q1 + q2) to a subnormal.
    total = q1 + q2
    if min(q1, q2) >= sys.float_info.min and 2 * math.pi * math.e * total < math.inf:
        s1, s2 = math.sqrt(12 * q1), math.sqrt(12 * q2)
        assert lower == pytest.approx(0.5 * math.log2(s1 * s1 + s2 * s2), rel=0, abs=1e-13)
        assert upper == pytest.approx(0.5 * math.log2(2 * math.pi * math.e * total),
                                      rel=0, abs=1e-13)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_and_csv_rows():
    codec = build_two_user_codec(M88, 0.1, 0.06, n=1, margin=2.0)
    rep = run_two_user_experiment(codec, 20_000, seed=19)
    payload = json.loads(rep.to_json())
    assert payload["trials"] == 20_000
    assert payload["scheme"] == "lattice"
    row = rep.csv_row()
    assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))
