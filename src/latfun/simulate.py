"""Monte Carlo execution of the nested-lattice encode/decode pipelines.

Two-user, side-information, and K-user sequential codecs run at small
lattice dimension with exactly uniform dithers. Overload (wraparound of the
coarse-lattice reduction) is counted explicitly, and distortion is reported
both unconditionally and with overload trials excluded, since the
vanishing-overload regime is an asymptotic statement not reachable at desk
scale. The ``margin`` knob inflates only the coarse lattice, trading rate
for overload; margin = 1 is the nominal parameter choice.

Trials are partitioned into chunks; chunk k draws from a stream seeded by
(seed, k) and reports merge by exact summation in chunk order, so results
are bit-identical for a fixed (seed, trials, chunk_size) regardless of
worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.integrate import simpson

from .errors import (
    DimensionMismatch,
    DistortionOutOfRange,
    InvalidCount,
    NonPositiveQ,
    QOutOfRange,
)
from .gaussian import (
    PartitionPlan,
    SideInfoModel,
    SourceModel,
    decoder_coeff_map,
    final_estimator,
    function_variance,
    require_informative,
    sigma_theta,
)
from .lattices import (
    Lattice,
    integer_lattice,
    mod_lattice,
    nearest_point,
    nearest_point_coords,
    sample_dither,
    scale_to_second_moment,
)
from .regions import RatePoint, SCHEME_LATTICE, k_user_rates

DEFAULT_CHUNK = 65536


def _worker_count() -> int:
    raw = os.environ.get("LATFUN_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = cov, tolerating semidefinite covariances."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs @ np.diag(np.sqrt(vals))


def _chunk_sizes(trials: int, chunk_size: int):
    """Chunk lengths for a run; rejects counts below 1."""
    if trials < 1 or chunk_size < 1:
        raise InvalidCount(f"need trials >= 1 and chunk_size >= 1, got {trials} and {chunk_size}")
    full, rest = divmod(trials, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _chunk_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _dither_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1_000_000_007]))


def _map_chunks(fn, n_chunks: int):
    workers = _worker_count()
    if workers == 1:
        return [fn(k) for k in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class SimReport:
    """Summary statistics of a Monte Carlo codec run."""

    trials: int
    empirical_distortion: float
    distortion_std_error: float
    overload_rate: float
    conditional_distortion: float
    dither_moment_check: float
    rates: RatePoint
    seed: int
    margin: float
    n: int
    cell_overload_rates: Tuple[float, ...] = ()
    cell_moment_checks: Tuple[float, ...] = ()

    def to_dict(self) -> Dict:
        return {
            "trials": self.trials,
            "empirical_distortion": self.empirical_distortion,
            "distortion_std_error": self.distortion_std_error,
            "overload_rate": self.overload_rate,
            "conditional_distortion": self.conditional_distortion,
            "dither_moment_check": self.dither_moment_check,
            "rates_bits": list(self.rates.rates),
            "target_distortion": self.rates.distortion,
            "scheme": self.rates.scheme,
            "seed": self.seed,
            "margin": self.margin,
            "n": self.n,
            "cell_overload_rates": list(self.cell_overload_rates),
            "cell_moment_checks": list(self.cell_moment_checks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    CSV_HEADER = (
        "scheme,n,trials,seed,margin,target_distortion,empirical_distortion,"
        "distortion_std_error,conditional_distortion,overload_rate,"
        "dither_moment_check,sum_rate_bits"
    )

    def csv_row(self) -> str:
        cells = [
            self.rates.scheme,
            str(self.n),
            str(self.trials),
            str(self.seed),
            _g6(self.margin),
            _g6(self.rates.distortion),
            _g6(self.empirical_distortion),
            _g6(self.distortion_std_error),
            _g6(self.conditional_distortion),
            _g6(self.overload_rate),
            _g6(self.dither_moment_check),
            _g6(self.rates.sum_rate),
        ]
        return ",".join(cells)


def _g6(x: float) -> str:
    return f"{x:.6g}"


class _Accumulator:
    """Exact sufficient statistics merged across chunks in order."""

    def __init__(self, n_cells: int = 1):
        self.trials = 0
        self.err_sum = 0.0
        self.err_sq_sum = 0.0
        self.cond_err_sum = 0.0
        self.cond_trials = 0
        self.overloads = 0
        self.v_sq_sum = 0.0
        self.v_sq_count = 0
        self.cell_overloads = np.zeros(n_cells, dtype=np.int64)
        self.cell_v_sq = np.zeros(n_cells)
        self.cell_v_counts = np.zeros(n_cells, dtype=np.int64)

    def add(self, err, overload, v_sq, v_sq_mask=None,
            cell_overload=None, cell_v_sq=None, cell_v_mask=None):
        self.trials += err.shape[0]
        self.err_sum += float(np.sum(err))
        self.err_sq_sum += float(np.sum(err**2))
        keep = ~overload
        self.cond_err_sum += float(np.sum(err[keep]))
        self.cond_trials += int(np.sum(keep))
        self.overloads += int(np.sum(overload))
        if v_sq_mask is None:
            self.v_sq_sum += float(np.sum(v_sq))
            self.v_sq_count += v_sq.shape[0]
        else:
            self.v_sq_sum += float(np.sum(v_sq[v_sq_mask]))
            self.v_sq_count += int(np.sum(v_sq_mask))
        if cell_overload is not None:
            self.cell_overloads += np.sum(cell_overload, axis=0)
        if cell_v_sq is not None:
            mask = cell_v_mask if cell_v_mask is not None else np.ones_like(cell_v_sq, dtype=bool)
            self.cell_v_sq += np.sum(np.where(mask, cell_v_sq, 0.0), axis=0)
            self.cell_v_counts += np.sum(mask, axis=0)

    def report(self, rates: RatePoint, seed: int, margin: float, n: int,
               per_cell: bool = False) -> SimReport:
        t = self.trials
        mean = self.err_sum / t
        var = max(self.err_sq_sum / t - mean**2, 0.0)
        std_err = math.sqrt(var / t)
        cond = self.cond_err_sum / self.cond_trials if self.cond_trials else math.nan
        moment = self.v_sq_sum / self.v_sq_count if self.v_sq_count else math.nan
        counts = np.maximum(self.cell_v_counts, 1)
        return SimReport(
            trials=t,
            empirical_distortion=mean,
            distortion_std_error=std_err,
            overload_rate=self.overloads / t,
            conditional_distortion=cond,
            dither_moment_check=moment,
            rates=rates,
            seed=seed,
            margin=margin,
            n=n,
            cell_overload_rates=tuple(self.cell_overloads / t) if per_cell else (),
            cell_moment_checks=tuple(self.cell_v_sq / counts) if per_cell else (),
        )


# ---------------------------------------------------------------------------
# Two-user codec


@dataclass(frozen=True)
class TwoUserCodec:
    """Nested-lattice pair codec reconstructing Z = X1 - c X2 directly."""

    model: SourceModel
    d_target: float
    q1: float
    fine1: Lattice
    fine2: Lattice
    coarse: Lattice
    margin: float
    n: int
    rates: RatePoint

    @property
    def beta(self) -> float:
        sz2 = function_variance(self.model)
        return (sz2 - self.d_target) / sz2

    @property
    def coarse_moment_nominal(self) -> float:
        """Coarse second moment before the margin inflation."""
        sz2 = function_variance(self.model)
        return sz2**2 / (sz2 - self.d_target)


def q1_interval(sz2: float, d: float) -> float:
    """Upper end of the admissible q1 interval (0, D Var(Z) / (Var(Z) - D))."""
    return d * sz2 / (sz2 - d)


def build_two_user_codec(
    model: SourceModel,
    d: float,
    q1: float,
    n: int = 1,
    margin: float = 1.0,
    base_lattice: Optional[Lattice] = None,
    commensurate: bool = False,
) -> TwoUserCodec:
    """Scale the three lattices to the moments that realize distortion d.

    The fine lattices carry the two backward-channel noises (q1 and the
    complement) and the coarse lattice carries the full variance of the
    noisy function; margin >= 1 inflates only the coarse cell.

    Exact moment matching generally makes the three scales incommensurate;
    the mod reductions are well defined regardless and the distortion
    identity needs only the moments. ``commensurate=True`` instead rounds
    the coarse scale up to an integer multiple of the first fine lattice
    and shrinks the second fine lattice to an integer divisor of it, giving
    strict sublattice nesting at slightly perturbed moments (more coarse
    margin, less second-channel noise).
    """
    model.require_two_user()
    sz2 = function_variance(model)
    if not 0.0 < d < sz2:
        raise DistortionOutOfRange(f"need 0 < D < {sz2:.6g}, got D = {d:.6g}")
    q1_hi = q1_interval(sz2, d)
    if not 0.0 < q1 < q1_hi:
        raise QOutOfRange(f"q1 must lie in (0, {q1_hi:.6g}), got {q1:.6g}")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    base = base_lattice if base_lattice is not None else integer_lattice(n)
    if base.dim != n:
        raise DimensionMismatch(f"base lattice dimension {base.dim} != n = {n}")
    m2 = q1_hi - q1
    mc = sz2**2 / (sz2 - d) * margin**2
    fine1 = scale_to_second_moment(base, q1)
    fine2 = scale_to_second_moment(base, m2)
    coarse = scale_to_second_moment(base, mc)
    if commensurate:
        k1 = max(2, math.ceil(math.sqrt(mc / q1)))
        coarse = fine1.scaled(float(k1))
        k2 = max(2, math.ceil(math.sqrt(mc / m2)))
        fine2 = coarse.scaled(1.0 / k2)
    r1 = 0.5 * math.log2(sz2**2 / (q1 * (sz2 - d)))
    r2 = 0.5 * math.log2(sz2**2 / (d * sz2 - q1 * (sz2 - d)))
    rates = RatePoint((r1, r2), d, SCHEME_LATTICE)
    return TwoUserCodec(
        model=model, d_target=d, q1=q1, fine1=fine1, fine2=fine2,
        coarse=coarse, margin=margin, n=n, rates=rates,
    )


def encode(codec: TwoUserCodec, encoder_index: int, block, dither) -> np.ndarray:
    """One encoder step: quantize with the fine lattice, reduce mod coarse.

    ``encoder_index`` is 0 or 1; encoder 1 expects its input pre-scaled by c
    (the scheme quantizes c X2, not X2). Batched over leading axes.
    """
    block = np.asarray(block, dtype=np.float64)
    dither = np.asarray(dither, dtype=np.float64)
    if block.shape[-1] != codec.n or dither.shape[-1] != codec.n:
        raise DimensionMismatch("block and dither must have length n")
    lat = codec.fine1 if encoder_index == 0 else codec.fine2
    y = nearest_point(lat, block + dither)
    return mod_lattice(codec.coarse, y)


def decode_two_user(codec: TwoUserCodec, s1, s2, u1, u2) -> np.ndarray:
    """Decoder: difference of dither-corrected indices, mod coarse, rescale."""
    t = (np.asarray(s1) - np.asarray(u1)) - (np.asarray(s2) - np.asarray(u2))
    if t.shape[-1] != codec.n:
        raise DimensionMismatch("inputs must have length n")
    return codec.beta * mod_lattice(codec.coarse, t)


def _two_user_chunk(codec: TwoUserCodec, m: int, rng: np.random.Generator,
                    pipeline: str, fixed: Optional[Tuple[np.ndarray, np.ndarray]]):
    """One chunk of trials; returns per-trial arrays.

    Draw order per chunk: source normals, then the dithers of encoder 0 and
    encoder 1 (skipped in fixed-dither mode).
    """
    n = codec.n
    c = codec.model.c
    lmat = _gaussian_factor(codec.model.cov)
    std = rng.standard_normal((m, n, 2))
    x = std @ lmat.T
    x1 = x[..., 0]
    x2c = c * x[..., 1]
    if fixed is None:
        u1 = sample_dither(codec.fine1, rng, m)
        u2 = sample_dither(codec.fine2, rng, m)
    else:
        u1 = np.broadcast_to(fixed[0], (m, n))
        u2 = np.broadcast_to(fixed[1], (m, n))
    y1 = nearest_point(codec.fine1, x1 + u1)
    y2 = nearest_point(codec.fine2, x2c + u2)
    e1 = y1 - (x1 + u1)
    e2 = y2 - (x2c + u2)
    z = x1 - x2c
    v = z + e1 - e2
    # Overload is wraparound relative to the shift-free mod input v; in the
    # transmitted pipeline the mod argument additionally carries coarse
    # lattice points, which the reduction removes by design.
    coords_v = nearest_point_coords(codec.coarse, v)
    overload = np.any(coords_v != 0, axis=-1)
    if pipeline == "direct":
        s1 = mod_lattice(codec.coarse, y1)
        s2 = mod_lattice(codec.coarse, y2)
        t = (s1 - u1) - (s2 - u2)
        w = mod_lattice(codec.coarse, t)
    elif pipeline == "equivalent":
        w = v - coords_v @ codec.coarse.gen.T
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    zhat = codec.beta * w
    err = np.mean((z - zhat) ** 2, axis=-1)
    v_sq = np.mean(v**2, axis=-1)
    return z, zhat, err, overload, v_sq


def two_user_blocks(codec: TwoUserCodec, trials: int, seed: int,
                    pipeline: str = "direct") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (Z, Zhat, overload) blocks for pipeline-equivalence checks."""
    rng = _chunk_rng(seed, 0)
    z, zhat, _, overload, _ = _two_user_chunk(codec, trials, rng, pipeline, None)
    return z, zhat, overload


def run_two_user_experiment(
    codec: TwoUserCodec,
    trials: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "direct",
    fixed_dither: bool = False,
) -> SimReport:
    """Sample sources and dithers, run the codec, summarize the error law.

    ``fixed_dither`` freezes one dither pair for the whole run (the
    derandomized mode); dithers are otherwise redrawn each trial.
    """
    sizes = _chunk_sizes(trials, chunk_size)
    fixed = None
    if fixed_dither:
        drng = _dither_rng(seed)
        fixed = (
            sample_dither(codec.fine1, drng, 1)[0],
            sample_dither(codec.fine2, drng, 1)[0],
        )

    def work(k: int):
        rng = _chunk_rng(seed, k)
        _, _, err, overload, v_sq = _two_user_chunk(codec, sizes[k], rng, pipeline, fixed)
        return err, overload, v_sq

    acc = _Accumulator()
    for err, overload, v_sq in _map_chunks(work, len(sizes)):
        acc.add(err, overload, v_sq)
    return acc.report(codec.rates, seed, codec.margin, codec.n)


# ---------------------------------------------------------------------------
# Side-information codec


@dataclass(frozen=True)
class SideInfoCodec:
    """Two encoders plus a decoder-side variable; reconstructs Z = c1 X1 + c2 X2."""

    si_model: SideInfoModel
    d_target: float
    q1: float
    fine1: Lattice
    fine2: Lattice
    coarse: Lattice
    margin: float
    n: int
    rates: RatePoint

    @property
    def innovations_variance(self) -> float:
        return self.si_model.innovations_variance()

    @property
    def side_coefficient(self) -> float:
        beta, _ = self.si_model.side_regression()
        return beta


def build_side_info_codec(
    si_model: SideInfoModel,
    d: float,
    q1: float,
    n: int = 1,
    margin: float = 1.0,
    base_lattice: Optional[Lattice] = None,
) -> SideInfoCodec:
    """Same construction as the plain pair, driven by the innovations variance.

    With side information Y the function variance is replaced by
    Var(Z - E(Z|Y)) everywhere in the lattice moments and rates.
    """
    s_eta = require_informative(si_model)
    if not 0.0 < d < s_eta:
        raise DistortionOutOfRange(f"need 0 < D < {s_eta:.6g}, got D = {d:.6g}")
    q1_hi = q1_interval(s_eta, d)
    if not 0.0 < q1 < q1_hi:
        raise QOutOfRange(f"q1 must lie in (0, {q1_hi:.6g}), got {q1:.6g}")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    base = base_lattice if base_lattice is not None else integer_lattice(n)
    fine1 = scale_to_second_moment(base, q1)
    fine2 = scale_to_second_moment(base, q1_hi - q1)
    coarse = scale_to_second_moment(base, s_eta**2 / (s_eta - d) * margin**2)
    r1 = 0.5 * math.log2(s_eta**2 / (q1 * (s_eta - d)))
    r2 = 0.5 * math.log2(s_eta**2 / (d * s_eta - q1 * (s_eta - d)))
    rates = RatePoint((r1, r2), d, SCHEME_LATTICE)
    return SideInfoCodec(
        si_model=si_model, d_target=d, q1=q1, fine1=fine1, fine2=fine2,
        coarse=coarse, margin=margin, n=n, rates=rates,
    )


def decode_side_info(codec: SideInfoCodec, s_list, u_list, zy_block) -> np.ndarray:
    """Decoder: dither-corrected sum minus the side estimate, mod, add back."""
    total = sum(np.asarray(s) - np.asarray(u) for s, u in zip(s_list, u_list))
    zy = np.asarray(zy_block, dtype=np.float64)
    s_eta = codec.innovations_variance
    w = mod_lattice(codec.coarse, total - zy)
    return (1.0 - codec.d_target / s_eta) * w + zy


def run_side_info_experiment(
    codec: SideInfoCodec, trials: int, seed: int, chunk_size: int = DEFAULT_CHUNK
) -> SimReport:
    """Monte Carlo run of the side-information codec."""
    sizes = _chunk_sizes(trials, chunk_size)
    c1, c2 = codec.si_model.coeffs
    lmat = _gaussian_factor(codec.si_model.cov)
    beta_y = codec.side_coefficient
    s_eta = codec.innovations_variance
    gain = 1.0 - codec.d_target / s_eta
    n = codec.n

    def work(k: int):
        rng = _chunk_rng(seed, k)
        m = sizes[k]
        std = rng.standard_normal((m, n, 3))
        xyz = std @ lmat.T
        b1 = c1 * xyz[..., 0]
        b2 = c2 * xyz[..., 1]
        yv = xyz[..., 2]
        u1 = sample_dither(codec.fine1, rng, m)
        u2 = sample_dither(codec.fine2, rng, m)
        y1 = nearest_point(codec.fine1, b1 + u1)
        y2 = nearest_point(codec.fine2, b2 + u2)
        e1 = y1 - (b1 + u1)
        e2 = y2 - (b2 + u2)
        z = b1 + b2
        zy = beta_y * yv
        v = (z - zy) + e1 + e2
        coords_v = nearest_point_coords(codec.coarse, v)
        overload = np.any(coords_v != 0, axis=-1)
        s1 = mod_lattice(codec.coarse, y1)
        s2 = mod_lattice(codec.coarse, y2)
        t = (s1 - u1) + (s2 - u2) - zy
        w = mod_lattice(codec.coarse, t)
        zhat = gain * w + zy
        err = np.mean((z - zhat) ** 2, axis=-1)
        v_sq = np.mean(v**2, axis=-1)
        return err, overload, v_sq

    acc = _Accumulator()
    for err, overload, v_sq in _map_chunks(work, len(sizes)):
        acc.add(err, overload, v_sq)
    return acc.report(codec.rates, seed, codec.margin, codec.n)


# ---------------------------------------------------------------------------
# K-user sequential codec


@dataclass(frozen=True)
class KUserCodec:
    """Per-cell nested lattices plus the sequential decoding coefficients."""

    model: SourceModel
    plan: PartitionPlan
    fines: Tuple[Lattice, ...]          # per user
    coarses: Dict[Tuple[int, ...], Lattice]
    margin: float
    n: int
    rates: RatePoint
    expected_distortion: float


def build_k_user_codec(
    model: SourceModel,
    plan: PartitionPlan,
    n: int = 1,
    margin: float = 1.0,
    base_lattice: Optional[Lattice] = None,
) -> KUserCodec:
    """Scale per-user fine lattices to q_i and per-cell coarse lattices to the
    residual-plus-noise variance of the cell's partial function."""
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    if plan.k != model.k:
        raise DimensionMismatch("plan and model disagree on the number of users")
    base = base_lattice if base_lattice is not None else integer_lattice(n)
    st = sigma_theta(model, plan)
    fines = tuple(scale_to_second_moment(base, q) for q in plan.q)
    coarses = {
        cell: scale_to_second_moment(base, (st[cell] + plan.q_cell(cell)) * margin**2)
        for cell in plan.partition
    }
    rates = k_user_rates(model, plan)
    return KUserCodec(
        model=model, plan=plan, fines=fines, coarses=coarses, margin=margin,
        n=n, rates=rates, expected_distortion=rates.distortion,
    )


def run_k_user_experiment(
    model: SourceModel,
    plan: PartitionPlan,
    n: int = 1,
    trials: int = 100_000,
    seed: int = 0,
    margin: float = 1.0,
    chunk_size: int = DEFAULT_CHUNK,
    base_lattice: Optional[Lattice] = None,
) -> SimReport:
    """Simulate the partitioned scheme cell by cell in decode order.

    Each decoded cell value feeds the side-information predictors of later
    cells; the final estimate combines all decoded partial functions with
    the closed-form weights. Per-cell overload rates and mod-input second
    moments are reported alongside the end-to-end distortion.
    """
    sizes = _chunk_sizes(trials, chunk_size)
    codec = build_k_user_codec(model, plan, n, margin, base_lattice)
    coeff_map = decoder_coeff_map(model, plan)
    final_w, _ = final_estimator(model, plan)
    cells_ordered = plan.cells_in_order()
    cell_pos = {cell: idx for idx, cell in enumerate(codec.plan.partition)}
    lmat = _gaussian_factor(model.cov)
    n_cells = len(plan.partition)

    def work(k: int):
        rng = _chunk_rng(seed, k)
        m = sizes[k]
        std = rng.standard_normal((m, n, model.k))
        x = std @ lmat.T  # (m, n, K)
        z = np.tensordot(x, model.coeffs, axes=([2], [0]))
        decoded = {}
        cell_overload = np.zeros((m, n_cells), dtype=bool)
        cell_v_sq = np.zeros((m, n_cells))
        cell_v_mask = np.zeros((m, n_cells), dtype=bool)
        clean = np.ones(m, dtype=bool)  # no overload in earlier cells yet
        for cell in cells_ordered:
            coarse = codec.coarses[cell]
            total = np.zeros((m, n))
            ideal = np.zeros((m, n))  # Z_A + e_A, free of coarse coset shifts
            for i in cell:
                fine = codec.fines[i]
                u = sample_dither(fine, rng, m)
                block = model.coeffs[i] * x[..., i]
                y = nearest_point(fine, block + u)
                t_i = mod_lattice(coarse, y)
                total += t_i - u
                ideal += y - u  # = block + e_i
            w_prev = coeff_map[cell]
            pred = np.zeros((m, n))
            for widx, prev_cell in enumerate(cells_ordered[: len(w_prev)]):
                pred += w_prev[widx] * decoded[prev_cell]
            v_ideal = ideal - pred
            coords_v = nearest_point_coords(coarse, v_ideal)
            pos = cell_pos[cell]
            cell_overload[:, pos] = np.any(coords_v != 0, axis=-1)
            # The mod-input moment is meaningful where earlier cells decoded
            # correctly; wrapped predictors would contaminate it.
            cell_v_sq[:, pos] = np.mean(v_ideal**2, axis=-1)
            cell_v_mask[:, pos] = clean
            clean = clean & ~cell_overload[:, pos]
            decoded[cell] = mod_lattice(coarse, total - pred) + pred
        zhat = np.zeros((m, n))
        for idx, cell in enumerate(codec.plan.partition):
            zhat += final_w[idx] * decoded[cell]
        err = np.mean((z - zhat) ** 2, axis=-1)
        overload = np.any(cell_overload, axis=1)
        last = cell_pos[cells_ordered[-1]]
        return err, overload, cell_v_sq[:, last], cell_v_mask[:, last], cell_overload, cell_v_sq, cell_v_mask

    acc = _Accumulator(n_cells=n_cells)
    for err, overload, v_sq, v_mask, c_ov, c_vs, c_vm in _map_chunks(work, len(sizes)):
        acc.add(err, overload, v_sq, v_sq_mask=v_mask,
                cell_overload=c_ov, cell_v_sq=c_vs, cell_v_mask=c_vm)
    return acc.report(codec.rates, seed, margin, n, per_cell=True)


# ---------------------------------------------------------------------------
# Entropy sandwich


def epi_entropy_sandwich(q1: float, q2: float, samples: int = 120_001):
    """Bounds and numeric value of the entropy of a two-uniform difference.

    For independent uniform dither noises of variances q1 and q2 at n = 1,
    the difference has a trapezoidal density. Returns (lower, estimate,
    upper) in bits: the entropy-power combination of the two interval
    entropies, the numerically integrated entropy of the exact density, and
    the Gaussian max-entropy bound at the same variance.
    """
    if q1 <= 0 or q2 <= 0:
        raise NonPositiveQ("q1 and q2 must be positive")
    s1 = math.sqrt(12.0 * q1)
    s2 = math.sqrt(12.0 * q2)
    big, small = max(s1, s2), min(s1, s2)
    half_top = (big - small) / 2.0
    half_support = (big + small) / 2.0
    lower = 0.5 * math.log2(s1 * s1 + s2 * s2)
    upper = 0.5 * math.log2(2.0 * math.pi * math.e * (q1 + q2))

    def neg_f_log_f(xs: np.ndarray) -> np.ndarray:
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

    seg = max(samples // 3 | 1, 2001)
    estimate = 0.0
    segments = [(-half_support, -half_top), (-half_top, half_top), (half_top, half_support)]
    for lo, hi in segments:
        if hi - lo <= 0:
            continue
        xs = np.linspace(lo, hi, seg)
        estimate += float(simpson(neg_f_log_f(xs), x=xs))
    return lower, estimate, upper
