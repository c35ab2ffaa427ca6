"""Closed-form achievable rate-distortion regions.

Two-user direct lattice binning, the quantize-and-bin (Berger-Tung) inner
bound with its optimal noise allocation and regime structure, the K-user
partitioned scheme, decoder side information, and encoder scaling analysis.
The quantize-and-bin minimum sum rate is a closed form for every sign of c.
All rates are in bits per sample (log base 2 throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DistortionOutOfRange,
    NonPositiveQ,
    OrthogonalScaling,
)
from .gaussian import (
    PartitionPlan,
    SideInfoModel,
    SourceModel,
    final_estimator,
    function_variance,
    require_informative,
    sigma_theta,
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
        return float(_log2_twice_ratio(self.innovations_variance, self.distortion))


@dataclass(frozen=True)
class ScalingOptimum:
    """Best encoder-scaling direction (the unit vector along c) and its region RHS."""

    direction: np.ndarray
    rhs: float


# ---------------------------------------------------------------------------
# Two-user direct lattice region


def _log2_twice_ratio(var, d) -> np.ndarray:
    """log2(2 var / D), elementwise, in the shape var and D broadcast to.
    Where the ratio overflows (tiny D), the logs are taken apart as 1 +
    log2(var) - log2(D), and only then are var and D broadcast; elsewhere
    the ratio keeps its bits. Each log is ``math.log2``: numpy's log2
    differs from it in the last bit on some inputs."""
    var, d = np.asarray(var, dtype=np.float64), np.asarray(d, dtype=np.float64)
    with np.errstate(over="ignore"):
        ratio = 2.0 * var / d
    out = np.fromiter(map(math.log2, ratio.ravel().tolist()), np.float64, ratio.size)
    out = out.reshape(ratio.shape)
    apart = ratio == math.inf
    if apart.any():
        var, d = np.broadcast_arrays(var, d)
        out[apart] = [
            1.0 + math.log2(v) - math.log2(x) for v, x in zip(var[apart].tolist(), d[apart].tolist())
        ]
    return out


def _half_log2_ratio(num: float, den: float, den_factors: Sequence[float]) -> float:
    """0.5 log2(num / den) for a rate whose denominator ``den`` equals the
    product of the positive ``den_factors``. The direct ratio keeps its bits
    wherever it is finite; where ``den`` underflows to 0 or the ratio
    overflows (a subnormal noise share), the logs are taken apart, as in
    ``_log2_twice_ratio``."""
    if den > 0.0:
        ratio = num / den
        if ratio < math.inf:
            return 0.5 * math.log2(ratio)
    return 0.5 * (math.log2(num) - sum(math.log2(f) for f in den_factors))


def _check_distortion(d: float, upper: float, inclusive: bool = False):
    # The boundary comparison tolerates float noise in the computed variance.
    slack = 1e-12 * upper
    ok = 0.0 < d <= upper + slack if inclusive else 0.0 < d < upper - slack
    if not ok:
        rel = "<=" if inclusive else "<"
        raise DistortionOutOfRange(f"need 0 < D {rel} {upper:.6g}, got D = {d:.6g}")


def lattice_min_sum_rate(model: SourceModel, d: float) -> float:
    """Minimum sum rate of the direct binning region, log2(2 Var(Z) / D).

    The constraint is symmetric in the two exponentials, so the optimum sits
    at equal rates.
    """
    model.require_two_user()
    sz2 = function_variance(model)
    _check_distortion(d, sz2, inclusive=True)
    return float(_log2_twice_ratio(sz2, d))


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
    """Individual and sum rate bounds plus distortion at (q1, q2).

    Each quantity is taken over a b = (1 + q1)(1 + q2), so no product
    overflows or underflows at huge or tiny q: den / (q1 b) = 1 + (1 - rho^2
    / b) / q1, den / (q1 q2) is that times b / q2 = 1 + 1 / q2, and the
    distortion is a sum of q1 / a, q2 / b and their product, each weighted
    by w = den / (a b).
    """
    rho, c, alpha, sz2 = _two_user_params(model)
    if not (0.0 < q1 < math.inf and 0.0 < q2 < math.inf):
        raise NonPositiveQ("q1 and q2 must be positive and finite")
    a, b = 1.0 + q1, 1.0 + q2
    r1 = _half_log2_1p(1.0 - rho * rho / b, q1)
    r2 = _half_log2_1p(1.0 - rho * rho / a, q2)
    r_sum = r1 + _half_log2_1p(1.0, q2)
    w = 1.0 - rho * rho / a / b
    s1, s2 = q1 / a, q2 / b
    dist = s1 * (alpha / (b * w)) + s2 * (c * c * alpha / (a * w)) + s1 * s2 * (sz2 / w)
    return BtRegionPoint(r1=r1, r2=r2, r_sum=r_sum, distortion=dist)


def _half_log2_1p(u: float, q: float) -> float:
    """Half of log2(1 + u / q) for u, q > 0, also where u / q overflows."""
    t = u / q
    if t < math.inf:
        return 0.5 * math.log1p(t) / math.log(2.0)
    return 0.5 * (math.log2(u) - math.log2(q))


def bt_regime_boundary(model: SourceModel) -> float:
    """Distortion below which both optimal noise variances are finite."""
    rho, c, _, _ = _two_user_params(model)
    if c <= 0:
        return 0.0
    return float(_bt_boundary(rho, c))


def _bt_boundary(rho, c):
    """``bt_regime_boundary`` for c > 0, elementwise."""
    two_alpha_c = 2.0 * (1.0 - rho * rho) * c
    return np.minimum(two_alpha_c / (rho + c), two_alpha_c * c / (1.0 + rho * c))


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
    rho, c, _, _ = _two_user_params(model)
    return str(_bt_regimes(rho, c, _bt_distortions(d)))


def _bt_regimes(rho, c, d) -> np.ndarray:
    """``bt_regime`` elementwise over the broadcast rho, c and distortions,
    by the first rule that holds: zero rate from D = Var(Z) up, no regime
    split for c <= 0, the interior below ``bt_regime_boundary``, and past
    it the user whose source matters less falls silent (X2 for c <= 1)."""
    rho, c = np.asarray(rho, dtype=np.float64), np.asarray(c, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sz2 = 1.0 + c * c - 2.0 * rho * c
        boundary = _bt_boundary(rho, c)
    return np.where(d >= sz2, REGIME_ZERO_RATE, np.where(c <= 0, REGIME_NUMERIC, np.where(
        d < boundary, REGIME_INTERIOR, np.where(c <= 1.0, REGIME_Q2_INFINITE, REGIME_Q1_INFINITE))))


def _bt_min_sum(rho, c, d: np.ndarray) -> np.ndarray:
    """Quantize-and-bin minimum sum rate at each distortion, any sign of c;
    elementwise, so rho and c may be arrays broadcast against d.

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
        two_alpha_c, rho_c = 2.0 * alpha * c, rho * c
        # q1* > 0 and q2* > 0, since alpha and D are positive.
        stationary = (c * (two_alpha_c - (rho + c) * d) > 0) & (
            two_alpha_c * c - (1.0 + rho_c) * d > 0
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
        for floor, lift in ((alpha * c * c, (1.0 - rho_c) ** 2), (alpha, (c - rho) ** 2)):
            excess = d - floor
            rate = 0.5 * np.log2(lift / excess)
            apart = rate == np.inf
            if apart.any():
                rate = np.where(apart, 0.5 * (np.log2(lift) - np.log2(excess)), rate)
            np.minimum(best, rate, out=best, where=d > floor)
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


def bt_min_sum_curve(model: SourceModel):
    """Minimum-sum-rate curve over distortion with time sharing applied.

    Returns (d_grid, pointwise, envelope): the pointwise regime values and
    their lower convex envelope over the grid, which convexifies any concave
    stretch of the finite-noise branch via an implicit time-sharing segment.
    """
    sz2 = function_variance(model)
    d = np.geomspace(1e-3 * sz2, 1.05 * sz2, 512)
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
    if plan.k != model.k:
        raise DimensionMismatch("plan and model disagree on the number of users")
    st = sigma_theta(model, plan)
    rates = np.zeros(model.k)
    for cell in plan.partition:
        coarse_var = st[cell] + plan.q_cell(cell)
        for i in cell:
            rates[i] = _half_log2_ratio(coarse_var, plan.q[i], (plan.q[i],))
    _, dist = final_estimator(model, plan)
    return RatePoint(tuple(float(r) for r in rates), float(dist), SCHEME_HYBRID)


# ---------------------------------------------------------------------------
# Side information


def side_info_region(si_model: SideInfoModel, d: float) -> SideInfoRegion:
    """Pair rate region with decoder side info: 2^-2R1 + 2^-2R2 <= D / Var(innovations)."""
    s_eta = require_informative(si_model)
    _check_distortion(d, s_eta)
    return SideInfoRegion(innovations_variance=s_eta, distortion=d)


# ---------------------------------------------------------------------------
# Encoder scaling analysis


def _power_of_two_normalized(v: np.ndarray) -> np.ndarray:
    """v times the power of two that puts its largest magnitude in [0.5, 1).

    The scaling is exact, so it changes no direction; it keeps the quadratic
    forms below from overflowing or underflowing.
    """
    _, e = np.frexp(np.max(np.abs(v)))
    return np.ldexp(v, -e)


def scaling_region_rhs(model: SourceModel, d: float, eta: Sequence[float]) -> float:
    """Right-hand side of the sum-exponential constraint under scaling eta.

    The realizable region is sum_i 2^-2Ri <= rhs; larger is better.
    Invariant under eta -> xi * eta, and exactly so whenever xi * eta is
    exact: eta is first scaled by a power of two, which is exact, so no
    product overflows or underflows at any size of eta. Needs
    0 < D < Var(Z) and a finite eta.
    """
    eta_v = np.asarray(eta, dtype=np.float64).reshape(-1)
    if eta_v.shape[0] != model.k:
        raise ValueError("scaling vector length must match the number of sources")
    if not np.isfinite(eta_v).all():
        raise ValueError("scaling vector must be finite")
    sz2 = function_variance(model)
    _check_distortion(d, sz2)
    eta_v = _power_of_two_normalized(eta_v)
    cse = float(model.coeffs @ model.cov @ eta_v)
    ese = float(eta_v @ model.cov @ eta_v)
    scale = math.sqrt(max(sz2, 1e-300) * max(ese, 1e-300))
    if abs(cse) <= 1e-12 * max(scale, 1e-300):
        raise OrthogonalScaling("scaling direction is orthogonal to the target function")
    return 1.0 - (sz2 - d) / cse * (ese / cse)


def optimal_scaling(model: SourceModel, d: float) -> ScalingOptimum:
    """The scaling direction that maximizes the region RHS, in closed form.

    By Cauchy-Schwarz in the Sigma inner product, (c'Sigma eta)^2 <=
    (c'Sigma c)(eta'Sigma eta), with equality at eta = c. So for
    0 < D < Var(Z) = c'Sigma c the RHS 1 - (Var(Z) - D) eta'Sigma eta /
    (c'Sigma eta)^2 is largest at eta parallel to c, where it equals
    D / Var(Z), for any number of sources. Returns the unit vector c / |c|.
    """
    sz2 = function_variance(model)
    _check_distortion(d, sz2)
    c = _power_of_two_normalized(model.coeffs)
    return ScalingOptimum(direction=c / np.linalg.norm(c), rhs=d / sz2)
