"""Closed-form achievable rate-distortion regions and their comparison.

Two-user direct lattice binning, the quantize-and-bin (Berger-Tung) inner
bound with its optimal noise allocation and regime structure, the K-user
partitioned scheme, decoder side information, and encoder scaling analysis.
The quantize-and-bin minimum sum rate is a closed form for every sign of c.
All rates are in bits per sample (log base 2 throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DistortionOutOfRange,
    NonPositiveQ,
    OrthogonalScaling,
    UnsupportedDimension,
)
from .gaussian import (
    PartitionPlan,
    SideInfoModel,
    SourceModel,
    final_estimator,
    function_variance,
    require_informative,
    sigma_theta,
    two_user_model,
)

REGIME_INTERIOR = "interior"
REGIME_Q2_INFINITE = "q2-infinite"
REGIME_Q1_INFINITE = "q1-infinite"
REGIME_ZERO_RATE = "zero-rate"
# c <= 0 has no regime split; the label is kept as part of the sweep CSV schema.
REGIME_NUMERIC = "numeric"

SCHEME_LATTICE = "lattice"
SCHEME_BERGER_TUNG = "berger-tung"
SCHEME_HYBRID = "hybrid"

_TINY = np.finfo(np.float64).tiny  # smallest normal double


@dataclass(frozen=True)
class RatePoint:
    """An achievable operating point: per-user rates (bits) and distortion."""

    rates: Tuple[float, ...]
    distortion: float
    scheme: str
    plan: Optional[PartitionPlan] = None

    @property
    def sum_rate(self) -> float:
        return float(sum(self.rates))


@dataclass(frozen=True)
class BtRegionPoint:
    """Rate bounds of the quantize-and-bin region at one noise choice.

    ``r1``/``r2`` are the individual minima and ``r_sum`` the sum bound; the
    corner points of the region are (r_sum - r2, r2) and (r1, r_sum - r1).
    """

    r1: float
    r2: float
    r_sum: float
    distortion: float

    def corner_points(self) -> Tuple[RatePoint, RatePoint]:
        a = RatePoint((self.r_sum - self.r2, self.r2), self.distortion, SCHEME_BERGER_TUNG)
        b = RatePoint((self.r1, self.r_sum - self.r1), self.distortion, SCHEME_BERGER_TUNG)
        return a, b


@dataclass(frozen=True)
class BtOptimum:
    """Sum-rate-optimal noise allocation, possibly on the boundary at infinity."""

    q1: float
    q2: float
    regime: str


@dataclass(frozen=True)
class SideInfoRegion:
    """Constraint descriptor for the pair rate region with decoder side info."""

    innovations_variance: float
    distortion: float

    @property
    def rhs(self) -> float:
        return self.distortion / self.innovations_variance

    @property
    def min_sum_rate(self) -> float:
        return _log2_twice_ratio(self.innovations_variance, self.distortion)


@dataclass(frozen=True)
class ScalingOptimum:
    """Best encoder-scaling direction found by angular grid search."""

    direction: np.ndarray
    rhs: float


# ---------------------------------------------------------------------------
# Two-user direct lattice region


def _log2_twice_ratio(var: float, d: float) -> float:
    """log2(2 var / D). Where the ratio overflows (tiny D), the logs are
    taken apart as 1 + log2(var) - log2(D); elsewhere the ratio keeps its bits."""
    ratio = 2.0 * var / d
    if ratio == math.inf:
        return 1.0 + math.log2(var) - math.log2(d)
    return math.log2(ratio)


def _check_distortion(d: float, upper: float, inclusive: bool = False):
    # The boundary comparison tolerates float noise in the computed variance.
    slack = 1e-12 * upper
    ok = 0.0 < d <= upper + slack if inclusive else 0.0 < d < upper - slack
    if not ok:
        rel = "<=" if inclusive else "<"
        raise DistortionOutOfRange(f"need 0 < D {rel} {upper:.6g}, got D = {d:.6g}")


def lattice_feasible(model: SourceModel, r1: float, r2: float, d: float) -> bool:
    """Membership test for the direct binning region 2^-2R1 + 2^-2R2 <= D/Var(Z)."""
    model.require_two_user()
    sz2 = function_variance(model)
    _check_distortion(d, sz2, inclusive=True)
    return 2.0 ** (-2.0 * r1) + 2.0 ** (-2.0 * r2) <= d / sz2 + 1e-12


def lattice_min_sum_rate(model: SourceModel, d: float) -> float:
    """Minimum sum rate of the direct binning region, log2(2 Var(Z) / D).

    The constraint is symmetric in the two exponentials, so the optimum sits
    at equal rates.
    """
    model.require_two_user()
    sz2 = function_variance(model)
    _check_distortion(d, sz2, inclusive=True)
    return _log2_twice_ratio(sz2, d)


# ---------------------------------------------------------------------------
# Quantize-and-bin (Berger-Tung) region


def _two_user_params(model: SourceModel) -> Tuple[float, float, float, float]:
    model.require_two_user()
    rho = model.rho
    c = model.c
    alpha = 1.0 - rho * rho
    sz2 = 1.0 + c * c - 2.0 * rho * c
    return rho, c, alpha, sz2


def bt_rate_point(model: SourceModel, q1: float, q2: float) -> BtRegionPoint:
    """Individual and sum rate bounds plus distortion at (q1, q2)."""
    rho, c, alpha, sz2 = _two_user_params(model)
    if q1 <= 0 or q2 <= 0:
        raise NonPositiveQ("q1 and q2 must be positive")
    den = (1.0 + q1) * (1.0 + q2) - rho * rho
    r1 = 0.5 * math.log2(den / (q1 * (1.0 + q2)))
    r2 = 0.5 * math.log2(den / (q2 * (1.0 + q1)))
    r_sum = 0.5 * math.log2(den / (q1 * q2))
    dist = (q1 * alpha + q2 * c * c * alpha + q1 * q2 * sz2) / den
    return BtRegionPoint(r1=r1, r2=r2, r_sum=r_sum, distortion=dist)


def bt_regime_boundary(model: SourceModel) -> float:
    """Distortion below which both optimal noise variances are finite."""
    rho, c, alpha, _ = _two_user_params(model)
    if c <= 0:
        return 0.0
    return min(2.0 * alpha * c / (rho + c), 2.0 * alpha * c * c / (1.0 + rho * c))


def bt_optimal_q(model: SourceModel, d: float) -> BtOptimum:
    """Sum-rate-minimizing noise pair for distortion d.

    Inside the finite regime both values solve the stationarity quadratic;
    beyond it the sum rate is minimized by not encoding one source at all
    (that user's noise grows without bound), with the split decided by
    whether c exceeds 1.
    """
    rho, c, alpha, sz2 = _two_user_params(model)
    if c <= 0:
        raise DistortionOutOfRange(
            "optimal noise pair is reported for c > 0 only; "
            "bt_min_sum_rate gives the minimum sum rate for any c"
        )
    _check_distortion(d, sz2)
    boundary = bt_regime_boundary(model)
    if d < boundary:
        q1 = alpha * c * d / (2.0 * alpha * c - (rho + c) * d)
        two_alpha_c2 = 2.0 * alpha * c * c
        if math.isfinite(two_alpha_c2):
            q2 = alpha * d / (two_alpha_c2 - (1.0 + rho * c) * d)
        else:  # divided through by c, so q2 does not silently read 0
            q2 = (alpha * d / c) / (2.0 * alpha * c - (1.0 / c + rho) * d)
        return BtOptimum(q1=q1, q2=q2, regime=REGIME_INTERIOR)
    if c <= 1.0:
        q1 = (d - alpha * c * c) / (sz2 - d)
        return BtOptimum(q1=q1, q2=math.inf, regime=REGIME_Q2_INFINITE)
    q2 = (d - alpha) / (sz2 - d)
    return BtOptimum(q1=math.inf, q2=q2, regime=REGIME_Q1_INFINITE)


def _bt_distortions(d_values) -> np.ndarray:
    """Distortions as a float array; rejects any that is not finite and > 0."""
    d = np.asarray(d_values, dtype=np.float64)
    bad = d[~(np.isfinite(d) & (d > 0))]
    if bad.size:
        raise DistortionOutOfRange(f"need finite D > 0, got D = {bad[0]:.6g}")
    return d


def bt_regime(model: SourceModel, d: float) -> str:
    """Regime label for the minimum-sum-rate expression at distortion d."""
    rho, c, alpha, sz2 = _two_user_params(model)
    _bt_distortions(d)
    if d >= sz2:
        return REGIME_ZERO_RATE
    if c <= 0:
        return REGIME_NUMERIC
    if d < bt_regime_boundary(model):
        return REGIME_INTERIOR
    return REGIME_Q2_INFINITE if c <= 1.0 else REGIME_Q1_INFINITE


def _bt_min_sum(rho: float, c: float, d: np.ndarray) -> np.ndarray:
    """Quantize-and-bin minimum sum rate at each distortion, any sign of c.

    The sum rate falls and the distortion rises in each backward noise, so
    the optimum meets the distortion with equality: either at the
    stationary pair (q1*, q2*) of ``bt_optimal_q``, where the sum rate is
    half log2(4 c (alpha c - rho D) / D^2), or with one encoder silent (its
    noise at infinity), where the other noise solves the equality and the
    rate is half log2((Var Z - v) / (D - v)) with v the silent encoder's
    floor: c^2 alpha (Var Z - v = (1 - rho c)^2) or alpha ((c - rho)^2).
    Each candidate counts only where it exists; the minimum is the least.
    """
    alpha = 1.0 - rho * rho
    sz2 = 1.0 + c * c - 2.0 * rho * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # q1* > 0 and q2* > 0, since alpha and D are positive.
        stationary = (c * (2.0 * alpha * c - (rho + c) * d) > 0) & (
            2.0 * alpha * c * c - (1.0 + rho * c) * d > 0
        )
        d_sq = d * d
        rate = 0.5 * np.log2(4.0 * c * (alpha * c - rho * d) / d_sq)
        # Where D^2 leaves the normal range or a product or ratio overflows
        # (tiny D, huge c), the logs are taken apart; elsewhere each ratio
        # keeps its bits. Where q1*, q2* > 0, c and alpha c - rho D share a sign.
        apart = (d_sq < _TINY) | (rate == np.inf)
        if apart.any():
            logs = np.log2(4.0 * abs(c)) + np.log2(np.abs(alpha * c - rho * d))
            rate = np.where(apart, 0.5 * logs - np.log2(d), rate)
        best = np.where(stationary, rate, np.inf)
        for floor, lift in ((alpha * c * c, (1.0 - rho * c) ** 2), (alpha, (c - rho) ** 2)):
            excess = d - floor
            rate = 0.5 * np.log2(lift / excess)
            apart = rate == np.inf
            if apart.any():
                rate = np.where(apart, 0.5 * (np.log2(lift) - np.log2(excess)), rate)
            best = np.minimum(best, np.where(d > floor, rate, np.inf))
    return np.where(d >= sz2, 0.0, np.maximum(best, 0.0))


def bt_min_sum_rate(model: SourceModel, d: float) -> float:
    """Pointwise minimum sum rate of the quantize-and-bin scheme (bits).

    Total on finite d > 0: zero for d >= Var(Z), otherwise the closed form
    of ``_bt_min_sum`` for any sign of c. For c > 0 it equals the regime
    expression named by ``bt_regime``. Time sharing is NOT applied here;
    see ``bt_min_sum_curve`` for the lower convex envelope over a
    distortion grid.
    """
    return float(bt_min_sum_rates(model, [d])[0])


def bt_min_sum_rates(model: SourceModel, d_values: Sequence[float]) -> np.ndarray:
    """Pointwise minimum sum rates over many distortions, in one array pass."""
    rho, c, _, _ = _two_user_params(model)
    return _bt_min_sum(rho, c, _bt_distortions(d_values))


def lower_convex_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lower convex envelope of the graph (x, y), sampled back at x.

    Monotone-chain lower hull in the plane; x must be strictly increasing.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    hull_x: list = []
    hull_y: list = []
    for xi, yi in zip(x, y):
        while len(hull_x) >= 2:
            x0, y0 = hull_x[-2], hull_y[-2]
            x1, y1 = hull_x[-1], hull_y[-1]
            cross = (x1 - x0) * (yi - y0) - (y1 - y0) * (xi - x0)
            if cross <= 0.0:  # middle point on or above the chord
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(float(xi))
        hull_y.append(float(yi))
    return np.interp(x, hull_x, hull_y)


def bt_min_sum_curve(
    model: SourceModel, d_grid: Optional[Sequence[float]] = None, n_points: int = 512
):
    """Minimum-sum-rate curve over distortion with time sharing applied.

    Returns (d_grid, pointwise, envelope): the pointwise regime values and
    their lower convex envelope over the grid, which convexifies any concave
    stretch of the finite-noise branch via an implicit time-sharing segment.
    """
    sz2 = function_variance(model)
    if d_grid is None:
        d = np.geomspace(1e-3 * sz2, 1.05 * sz2, n_points)
    else:
        d = np.asarray(d_grid, dtype=np.float64)
    pointwise = bt_min_sum_rates(model, d)
    envelope = lower_convex_envelope(d, pointwise)
    return d, pointwise, envelope


# ---------------------------------------------------------------------------
# K-user partitioned scheme


def k_user_rates(model: SourceModel, plan: PartitionPlan) -> RatePoint:
    """Rates and distortion of the partitioned sequential-decoding scheme.

    User i in cell A pays half the log of the cell's channel-code variance
    (residual of its partial function plus the cell's total backward noise)
    over its own noise share.
    """
    st = sigma_theta(model, plan)
    rates = np.zeros(model.k)
    for cell in plan.partition:
        coarse_var = st[cell] + plan.q_cell(cell)
        for i in cell:
            rates[i] = 0.5 * math.log2(coarse_var / plan.q[i])
    _, dist = final_estimator(model, plan)
    return RatePoint(tuple(float(r) for r in rates), float(dist), SCHEME_HYBRID, plan)


# ---------------------------------------------------------------------------
# Side information


def side_info_region(si_model: SideInfoModel, d: float) -> SideInfoRegion:
    """Pair rate region with decoder side info: 2^-2R1 + 2^-2R2 <= D / Var(innovations)."""
    s_eta = require_informative(si_model)
    _check_distortion(d, s_eta)
    return SideInfoRegion(innovations_variance=s_eta, distortion=d)


# ---------------------------------------------------------------------------
# Encoder scaling analysis


def scaling_region_rhs(model: SourceModel, d: float, eta: Sequence[float]) -> float:
    """Right-hand side of the sum-exponential constraint under scaling eta.

    The realizable region is sum_i 2^-2Ri <= rhs; larger is better. Exactly
    invariant under eta -> xi * eta.
    """
    eta_v = np.asarray(eta, dtype=np.float64).reshape(-1)
    if eta_v.shape[0] != model.k:
        raise ValueError("scaling vector length must match the number of sources")
    sz2 = function_variance(model)
    cse = float(model.coeffs @ model.cov @ eta_v)
    ese = float(eta_v @ model.cov @ eta_v)
    scale = math.sqrt(max(sz2, 1e-300) * max(ese, 1e-300))
    if abs(cse) <= 1e-12 * max(scale, 1e-300):
        raise OrthogonalScaling("scaling direction is orthogonal to the target function")
    return 1.0 - (sz2 - d) * ese / (cse * cse)


def _sphere_directions(k: int, n: int) -> np.ndarray:
    if k == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if k == 3:
        # Fibonacci sphere: near-uniform deterministic covering.
        i = np.arange(n) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise UnsupportedDimension("direction grids implemented for K = 2 and K = 3")


def optimal_scaling(model: SourceModel, d: float, directions: int = 1024) -> ScalingOptimum:
    """Grid search for the scaling direction that maximizes the region RHS.

    Searches a deterministic covering of the unit sphere (circle grid for
    two sources, Fibonacci sphere for three). The maximizer aligns with the
    function coefficients up to sign and grid resolution.
    """
    grid = _sphere_directions(model.k, directions)
    best_rhs = -math.inf
    best_dir = None
    for direction in grid:
        try:
            rhs = scaling_region_rhs(model, d, direction)
        except OrthogonalScaling:
            continue
        if rhs > best_rhs:
            best_rhs = rhs
            best_dir = direction
    if best_dir is None:
        raise OrthogonalScaling("no direction with nonzero projection found")
    return ScalingOptimum(direction=np.asarray(best_dir), rhs=float(best_rhs))


# ---------------------------------------------------------------------------
# Scheme comparison


def sum_rate_gap(rho: float, c: float, d: float) -> float:
    """Quantize-and-bin minus direct-binning minimum sum rate (bits).

    Positive values mean the direct lattice scheme needs fewer total bits at
    distortion d. Defined for correlation in (0, 1), 0 < d < Var(Z) and
    any sign of c.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"correlation must lie in (0, 1), got {rho}")
    model = two_user_model(rho, c)
    sz2 = function_variance(model)
    _check_distortion(d, sz2)
    return bt_min_sum_rate(model, d) - lattice_min_sum_rate(model, d)
