"""Independent brute-force oracles used by the test suite.

These deliberately avoid importing any latfun internals: expected values are
recomputed from first principles (grid search, enumeration, quadrature) so
that library closed forms are checked against a second route. The membership
and comparison helpers at the end are built on latfun's public API only.
"""

import math

import numpy as np
from scipy.integrate import simpson

from latfun import (
    DistortionOutOfRange,
    bt_min_sum_rate,
    function_variance,
    lattice_min_sum_rate,
    nearest_point_coords,
    two_user_model,
)


def bt_sum_rate_grid(rho, c, d, grid=400):
    """Stage 1: brute-force minimum over a log-spaced (q1, q2) grid."""
    alpha = 1.0 - rho * rho
    sz2 = 1.0 + c * c - 2.0 * rho * c
    q = np.geomspace(1e-6, 1e9, grid)
    q1, q2 = np.meshgrid(q, q, indexing="ij")
    den = (1.0 + q1) * (1.0 + q2) - rho * rho
    dist = (q1 * alpha + q2 * c * c * alpha + q1 * q2 * sz2) / den
    rate = np.where(dist <= d * (1 + 1e-12), 0.5 * np.log2(den / (q1 * q2)), np.inf)
    return float(np.min(rate))


def _refine_1d(fn, zooms=3, n=20000):
    t = np.unique(
        np.concatenate(
            [np.geomspace(1e-9, 0.5, n // 2), 1.0 - np.geomspace(1e-12, 0.5, n // 2)]
        )
    )
    r = fn(t)
    i = int(np.argmin(r))
    best = float(r[i])
    if not np.isfinite(best):
        return math.inf, math.nan
    arg = float(t[i])
    for _ in range(zooms):
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]
        t = np.linspace(lo, hi, 4001)
        r = fn(t)
        i = int(np.argmin(r))
        if float(r[i]) < best:
            best = float(r[i])
            arg = float(t[i])
    return best, arg


def bt_sum_rate_oracle(rho, c, d, grid=400):
    """Brute-force grid plus local refinement of the sum-rate minimum.

    The refinement walks the active distortion constraint in the
    compactified variables t_i = q_i / (1 + q_i) (where the constraint is
    linear in the second coordinate) and the two one-encoder-silent
    boundaries; the result self-checks against the plain grid minimum.
    """
    alpha = 1.0 - rho * rho
    sz2 = 1.0 + c * c - 2.0 * rho * c
    cc = c * c
    if d >= sz2:
        return 0.0
    stage1 = bt_sum_rate_grid(rho, c, d, grid)

    def curve(t1):
        num = t1 * alpha - d * (1.0 - rho * rho * (1.0 - t1))
        den = d * rho * rho * (1.0 - t1) - (1.0 - t1) * cc * alpha - t1 * (sz2 - alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = num / den
            s = 1.0 - rho * rho * (1.0 - t1) * (1.0 - t2)
            ok = (t1 > 0) & (t1 < 1) & (t2 > 0) & (t2 <= 1.0) & (s > 0)
            return np.where(ok, 0.5 * np.log2(np.where(ok, s / (t1 * t2), 1.0)), np.inf)

    def silent(other_var):
        def fn(t):
            dist = (1.0 - t) * other_var + t * sz2
            ok = (t > 0) & (t < 1) & (dist <= d * (1 + 1e-12))
            return np.where(ok, 0.5 * np.log2(np.where(t > 0, 1.0 / t, 1.0)), np.inf)

        return fn

    candidates = [stage1]
    val, arg = _refine_1d(curve)
    if math.isfinite(val):
        # Self-check: the refined point really meets the constraint.
        t1 = arg
        num = t1 * alpha - d * (1.0 - rho * rho * (1.0 - t1))
        den = d * rho * rho * (1.0 - t1) - (1.0 - t1) * cc * alpha - t1 * (sz2 - alpha)
        t2 = num / den
        s = 1.0 - rho * rho * (1.0 - t1) * (1.0 - t2)
        dist = (t1 * (1 - t2) * alpha + t2 * (1 - t1) * cc * alpha + t1 * t2 * sz2) / s
        assert abs(dist - d) < 1e-8 * max(d, 1.0)
        candidates.append(val)
    for other in (cc * alpha, alpha):
        val, _ = _refine_1d(silent(other))
        if math.isfinite(val):
            candidates.append(val)
    refined = min(candidates)
    # The plain grid can only sit above the refined minimum.
    assert stage1 >= refined - 1e-9
    return max(refined, 0.0)


def lattice_sum_rate_oracle(sz2, d, n=400001):
    """Numeric minimization of R1 + R2 on the direct-binning constraint."""
    r1 = np.linspace(0.5 * math.log2(sz2 / d) * 0.5 + 1e-9, 30.0, n)
    rhs = d / sz2 - 2.0 ** (-2 * r1)
    ok = rhs > 0
    return float(np.min(r1[ok] - 0.5 * np.log2(rhs[ok])))


def epi_entropy_quadrature(q1, q2):
    """Entropy in bits of the difference of two uniforms of variances q1, q2.

    Simpson's rule on 40,001 points over each of the trapezoidal density's
    three linear pieces.
    """
    s1 = math.sqrt(12.0 * q1)
    s2 = math.sqrt(12.0 * q2)
    big, small = max(s1, s2), min(s1, s2)
    half_top = (big - small) / 2.0
    half_support = (big + small) / 2.0

    def neg_f_log_f(xs):
        f = np.where(
            np.abs(xs) <= half_top,
            1.0 / big,
            (half_support - np.abs(xs)) / (small * big),
        )
        f = np.clip(f, 0.0, None)
        out = np.zeros_like(f)
        mask = f > 0
        out[mask] = -f[mask] * np.log2(f[mask])
        return out

    entropy = 0.0
    segments = [(-half_support, -half_top), (-half_top, half_top), (half_top, half_support)]
    for lo, hi in segments:
        if hi - lo <= 0:
            continue
        xs = np.linspace(lo, hi, 40_001)
        entropy += float(simpson(neg_f_log_f(xs), x=xs))
    return entropy


def sphere_directions(k, n):
    """n deterministic, near-uniform unit vectors: a circle grid (k = 2) or a
    Fibonacci sphere (k = 3)."""
    if k == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if k == 3:
        i = np.arange(n) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise ValueError("direction grids exist for k = 2 and k = 3")


# ---------------------------------------------------------------------------
# Membership and scheme comparison, on latfun's public API


def in_voronoi(lat, x):
    """True if ``x`` reduces to itself, i.e. its nearest lattice point is 0."""
    return bool(np.all(nearest_point_coords(lat, np.asarray(x, dtype=np.float64)) == 0))


def contains(lat, x):
    """Membership test: G^{-1} x is integral within 1e-9."""
    u = np.linalg.solve(lat.gen, np.asarray(x, dtype=np.float64))
    return bool(np.all(np.abs(u - np.rint(u)) <= 1e-9))


def _check_distortion(d, upper, inclusive):
    """``0 < d < upper``, or ``<= upper`` if inclusive, with 1e-12 relative slack."""
    slack = 1e-12 * upper
    if not (0.0 < d <= upper + slack if inclusive else 0.0 < d < upper - slack):
        rel = "<=" if inclusive else "<"
        raise DistortionOutOfRange(f"need 0 < D {rel} {upper:.6g}, got D = {d:.6g}")


def lattice_feasible(model, r1, r2, d):
    """Membership test for the direct binning region 2^-2R1 + 2^-2R2 <= D/Var(Z)."""
    model.require_two_user()
    sz2 = function_variance(model)
    _check_distortion(d, sz2, inclusive=True)
    return 2.0 ** (-2.0 * r1) + 2.0 ** (-2.0 * r2) <= d / sz2 + 1e-12


def sweep_rows_fig3(fmt):
    """The rows of ``sweep --preset fig3``, one value of c at a time, with
    each number formatted by ``fmt``."""
    rows = []
    for c in np.linspace(0.05, 2.0, 40):
        model = two_user_model(0.8, c)
        model.require_two_user()
        sz2 = function_variance(model)
        for d in np.geomspace(0.01, 0.99 * sz2, 40).tolist():
            values = (0.8, float(c), d, lattice_min_sum_rate(model, d))
            rows.append(",".join([fmt(v) for v in values] + ["nan", "nan", "lattice-only"]))
    return rows


def sum_rate_gap(rho, c, d):
    """Quantize-and-bin minus direct-binning minimum sum rate (bits).

    Positive values mean the direct lattice scheme needs fewer total bits at
    distortion d. Defined for correlation in (0, 1), 0 < d < Var(Z) and
    any sign of c.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"correlation must lie in (0, 1), got {rho}")
    model = two_user_model(rho, c)
    _check_distortion(d, function_variance(model), inclusive=False)
    return bt_min_sum_rate(model, d) - lattice_min_sum_rate(model, d)
