"""Monte Carlo execution of the nested-lattice codecs.

Two-user, side-information, and K-user sequential codecs run at small
lattice dimension with exactly uniform dithers, each lattice a base lattice
scaled to the second moment that the distortion identity needs. Overload
(wraparound of the coarse-lattice reduction) is counted explicitly, and
distortion is reported both unconditionally and with overload trials
excluded, since the vanishing-overload regime is an asymptotic statement
not reachable at desk scale. The ``margin`` knob inflates only the coarse
lattice, trading rate for overload; margin = 1 is the nominal parameter
choice.

The public surface is the ``build_*_codec`` builders, the
``run_*_experiment`` runners, their ``SimReport`` and
``epi_entropy_sandwich``. Encoding and decoding exist only in the
cell-sequential engine ``_run_block``, which ``_run_cells`` runs over the
row blocks of a chunk, driven by a cell plan: cells of
encoders, each sharing a coarse lattice, decoded in order against a
prediction from the decoder's side values and the cells decoded before; the
estimate of Z weighs side values and cells. The two-user codec is one cell
of two encoders, side information is a predictor known before decoding, and
the K-user codec runs its partition plan.

Trials are partitioned into chunks, which run one after another in the
calling thread; chunk k draws from a stream seeded by (seed, k). Each
chunk's sums are added, in chunk order, to one running total
(``_ChunkSums``): an ordered float sum, not exact, but deterministic, so
results are bit-identical for a fixed (seed, trials, chunk_size).

Within a chunk, work runs along the trial axis. Each source column is a
contiguous (m, n) array (see ``_sources``), and every per-trial reduction
over the short axis of an (m, k) array, k being the dimension n or the
number of cells, is k whole-column passes over the m trials
(``_row_any``, ``_row_nonzero``, ``_row_mean``, ``_column_counts``), not
numpy's row-by-row
reduction. The passes keep numpy's order, so the bits are numpy's: an OR
and an integer count are exact in any order, and a mean sums the columns
left to right from +0.0 and divides by k, as numpy does for k < 8 (from
k = 8 numpy sums pairwise, and its own call is kept).

A chunk first makes all of its rng draws (``_draw``), each a whole-chunk
array: the source normals, then each member's dither in decode order.
Nothing else reads the stream, so drawing the dithers ahead of the
arithmetic keeps it, where drawing them per block would interleave the
members' draws and change it. The arithmetic (``_run_block``) then runs
on row blocks of ``_BLOCK // n`` trials. Every (rows, n) array a block
forms is a slot of the thread's workspace (see below), so the block size
is set by per-call overhead alone: at 16,384 floats, 128 KiB a slot, a
Z^1 block runs half the numpy calls per trial of 8,192, and 32,768 reads
no better.
Each block keeps only its per-trial results: the squared error, and per
cell the mod-input second moment, overload and clean history, the masks
written straight into the chunk's rows. No pass of a block adds,
subtracts or multiplies a term that changes nothing but the sign of a
zero: a cell's sums start from its first member's arrays, a cell with no
predictor term skips it, a scale or weight of exactly 1.0 multiplies
nothing, a weighted sum starts from its first term, a diagonal point
skips ``nearest_point``'s ``+ 0.0``, and at n = 1 a square is its own
mean. No result reads that sign: each is a square or a nonzero test of a
coarse point, and a reduction maps +0.0 and -0.0 to points of equal
magnitude. Each result depends on its own row alone (the closest-point
products reduce over the n coordinates of a row), so blocks give the bits
of one pass, which the golden pins check on chunks of several blocks. A
block of one row is the exception: numpy multiplies a lone row by a
non-diagonal generator through its matrix-vector product, whose last bits
differ from the same row's inside a larger array, so a one-row tail joins
the block before it, and only a one-trial chunk is one row.
``_BLOCK`` is a constant because no result depends on it: it trades
memory traffic against per-block overhead, and is not a parameter of the
experiment.

The whole-chunk and block arrays live in the calling thread's workspace
(``_Workspace``): a float and a flag buffer, which grow to the thread's
largest chunk, and a float buffer of block slots, which grows to its
largest block (``_slot_count`` slots), all reused after that. Every chunk
carves its views from them afresh: the normals, with the dithers drawn
over them once the source columns are formed, the columns, the dither
mapping's quotient, the per-trial results and the fold's scratch; and
every block its slots. So a chunk no larger than one its thread has run
allocates no chunk- or block-sized array, outside the closest-point
kernel that a non-diagonal lattice reaches, and takes no fresh pages,
whatever the heap's history (glibc may trim its top between chunks). The
thread keeps
its workspace for later runs. Each thread has its own, so experiments run
from several threads at once never share arrays. The arrays of ``_draw``,
``_run_cells`` and ``_run_block`` are valid only until that thread's next
chunk or block, so each chunk is folded into its sums
(``_Accumulator.add``) before the next runs.

Every lattice of a codec is its base lattice scaled, and a non-diagonal
lattice is searched in its base's frame (see ``lattices.Lattice``). Each
reduction step (``_reduce``) writes nearest points into block slots: a mod
is ``np.subtract(b, point, out=point)``, and overload is a nonzero coarse
point of the mod input. The steps are a chunk's dither maps (exactly
diagonal lattices map theirs in place; on a non-diagonal base every dither
is drawn, in stream order, before any is mapped), and per block the
members' fine quantizations, their coarse reductions, and the mod input's
overload test with the decoding reduction. On a non-diagonal base each
step is one ``lattices.reduce_stacked`` call, one kernel call on the
stacked rows, so a two-user chunk makes 1 + 3 per block calls rather than
2 + 6; each row is searched on its own, so the bits are those of separate
calls. An exactly diagonal base (Z^n scaled) rounds the engine's arrays as
they are, one at a time, without ``nearest_point``'s conversion, dimension
check, finiteness pass and ``+ 0.0``: the engine made them, of the
lattice's dimension, from finite draws. Its overload test stops at the
mod input's rounded coordinates, which are nonzero where the point is.
A NaN or an infinity that arises anyway, from an overflow say, is not
raised there but runs on into the trial's error and mod-input moments and
so into the chunk's sums, and ``_Accumulator.add`` rejects a chunk whose
sums are not finite (``NonFiniteSum``), so no report carries one. A run
therefore ignores numpy's overflow and invalid-value warnings: the error
takes their place.

What a run needs beyond its chunks is built once where it can be. Every
codec is read-only, so its random-dither plan (``_Plan``, with the
Cholesky factor of the source covariance) is built and checked against
float64's resolution (``_require_resolvable``) on its first run and kept
on the codec (``_codec_plan``), one rule for all three codecs: later runs
of that codec object reuse both, and a plan that fails its check is never
kept, so such a codec fails on every run. A fixed-dither run swaps its
seed's dithers into that plan's members, which the check does not read.
The K-user runner takes a model and a partition plan rather than a codec,
and finds its codec in a one-entry cache (``_k_user_codec``) keyed by the
run's (model, plan, n, margin, base lattice): runs of one configuration
build one codec and check one plan, and threads that run it share only
that read-only codec and plan. The cache keeps the last configuration
only, so two configurations run in turn rebuild their codec and plan on
every run; no workload or CLI path does that, and a CLI run is one run
per process. A chunk makes the per-cell sums (``_Accumulator``) only
where the report gives per-cell values, which is the K-user report.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DistortionOutOfRange,
    InvalidCount,
    MomentOverflow,
    NonFiniteSum,
    NonPositiveQ,
    QOutOfRange,
    UnresolvableDistortion,
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
    _round_into,
    _uniform_to_voronoi,
    integer_lattice,
    reduce_stacked,
    sample_dither,
    scale_to_second_moment,
    second_moment,
)
from .regions import RatePoint, SCHEME_LATTICE, _half_log2_ratio, k_user_rates

DEFAULT_CHUNK = 65536
_BLOCK = 16384  # floats per (rows, n) slot of a row block: 128 KiB (see the module docstring)


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
        """Strict JSON; an undefined statistic (NaN) is written as ``null``."""
        payload = {}
        for key, value in self.to_dict().items():
            if isinstance(value, list):
                payload[key] = [_json_number(x) for x in value]
            else:
                payload[key] = _json_number(value)
        return json.dumps(payload, sort_keys=True, allow_nan=False)

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
    """Six significant digits, the CSV number format (NaN prints ``nan``)."""
    return f"{x:.6g}"


def _json_number(x):
    return None if isinstance(x, float) and math.isnan(x) else x


class _ChunkSums(NamedTuple):
    """Every sum of a run, totalled over the chunks so far
    (``_Accumulator.total``). The per-cell fields are arrays over the cells
    where the report gives per-cell values, and 0 where it does not."""

    trials: int
    err_sum: float
    err_sq_sum: float
    cond_err_sum: float
    overloads: int
    v_sq_sum: float
    v_count: int
    cell_overloads: np.ndarray
    cell_v_sq: np.ndarray
    cell_v_counts: np.ndarray


class _Accumulator:
    """One running ``_ChunkSums`` total of sufficient statistics, merged
    across chunks by an ordered float sum (deterministic, not exact). The
    mod-input moment is that of the last decoded cell ``last``, over trials
    whose earlier cells did not overload; ``v_count`` counts them.

    The per-cell sums (overloads, mod-input moments and clean counts of
    every cell) are made only when ``per_cell`` is set, which the K-user
    codec's report needs; the two-user and side-information reports drop
    them, so their chunks skip those passes.

    ``add`` folds each chunk into its sums, from the per-trial results in
    the workspace, and adds them to the total field by field, in chunk
    order, so the float additions, and their bits, are fixed by (seed,
    trials, chunk_size). A chunk's float sums are numpy's sums of contiguous
    arrays: the scaled errors, their squares, the errors of the trials
    without overload and the last cell's mod-input moments of its clean
    trials; and per cell, the sum over the trial axis of the (trials,
    cells) moments with the trials that are not clean set to zero, which
    ``_column_sums`` takes one column at a time with the bits of numpy's
    ``np.sum(..., axis=0)``. ``add`` rejects a chunk with a float sum that
    is not finite (``NonFiniteSum``): the engine does not check its arrays
    on an exactly diagonal base (see the module docstring), and a NaN or an
    infinity in them reaches these sums.

    The errors and their squares are summed in the frame ``err * 2^-e``, with
    2^e the binary magnitude of the target distortion ``d``, and the report
    scales back. A power of two scales exactly, so this changes no bit, and
    the squares, of order 1 in that frame, neither overflow nor underflow at
    any finite normal d.
    """

    def __init__(self, n_cells: int, last: int, d: float, per_cell: bool):
        self.last = last
        self.per_cell = per_cell
        _, self.exp = math.frexp(d)
        counts = np.zeros(n_cells, dtype=np.int64)
        cells = (counts, np.zeros(n_cells), counts) if per_cell else (0, 0, 0)
        self.total = _ChunkSums(0, 0.0, 0.0, 0.0, 0, 0.0, 0, *cells)

    def add(self, arrays: _ChunkArrays):
        """Fold the next chunk from the per-trial results that ``_run_cells``
        wrote into its ``arrays`` (errors, and (trials, cells) overload,
        mod-input moments and clean history), with their scratch, and add
        its sums to the total."""
        m = arrays.err.shape[0]
        scaled = np.ldexp(arrays.err, -self.exp, out=arrays.scaled)
        spare = arrays.spare
        flat = spare.reshape(-1)[:m]
        err_sum = float(np.sum(scaled))
        err_sq_sum = float(np.sum(np.square(scaled, out=flat)))
        overload = _row_any(arrays.overload, arrays.keep)
        overloads = int(np.count_nonzero(overload))
        keep = np.logical_not(overload, out=overload)
        # Without an overload the kept errors are the whole array.
        cond_err_sum = float(np.sum(scaled[keep])) if overloads else err_sum
        mask = arrays.clean_before[:, self.last]
        count = int(np.count_nonzero(mask))
        # Summed as the contiguous array that indexing by the mask gives.
        np.copyto(flat, arrays.v_sq[:, self.last])
        v_sq_sum = float(np.sum(flat if count == m else flat[mask]))
        cells = (0, 0, 0)
        floats = (err_sum, err_sq_sum, cond_err_sum, v_sq_sum)
        if self.per_cell:
            spare.fill(0.0)
            np.copyto(spare, arrays.v_sq, where=arrays.clean_before)
            cell_v_sq = _column_sums(spare, arrays.scaled)  # scaled is summed, free as scratch
            cells = (_column_counts(arrays.overload), cell_v_sq,
                     _column_counts(arrays.clean_before))
            floats += tuple(cell_v_sq)
        if not all(map(math.isfinite, floats)):
            raise NonFiniteSum("a chunk's error or mod-input sums are not finite: the codec's "
                               "arithmetic overflowed or met a NaN")
        sums = (m, err_sum, err_sq_sum, cond_err_sum, overloads, v_sq_sum, count, *cells)
        self.total = _ChunkSums(*(a + b for a, b in zip(self.total, sums)))

    def report(self, rates: RatePoint, seed: int, margin: float, n: int) -> SimReport:
        """The run's statistics; the standard error of one trial, and the
        conditional distortion or a mod-input moment with no trial to
        measure, are NaN (JSON null). An accumulator made with ``per_cell``
        reports the per-cell values it has summed."""
        tot = self.total
        t = tot.trials
        mean = tot.err_sum / t
        var = max(tot.err_sq_sum / t - mean**2, 0.0)
        std_err = math.ldexp(math.sqrt(var / t), self.exp) if t > 1 else math.nan
        mean = math.ldexp(mean, self.exp)
        cond_trials = t - tot.overloads
        cond = math.ldexp(tot.cond_err_sum / cond_trials, self.exp) if cond_trials else math.nan
        moment = tot.v_sq_sum / tot.v_count if tot.v_count else math.nan
        if self.per_cell:
            moments = np.full(tot.cell_v_sq.shape, np.nan)
            np.divide(tot.cell_v_sq, tot.cell_v_counts, out=moments, where=tot.cell_v_counts > 0)
        return SimReport(
            trials=t,
            empirical_distortion=mean,
            distortion_std_error=std_err,
            overload_rate=tot.overloads / t,
            conditional_distortion=cond,
            dither_moment_check=moment,
            rates=rates,
            seed=seed,
            margin=margin,
            n=n,
            cell_overload_rates=tuple(tot.cell_overloads / t) if self.per_cell else (),
            cell_moment_checks=tuple(moments) if self.per_cell else (),
        )


# ---------------------------------------------------------------------------
# Reductions along the trial axis (see the module docstring)


def _row_any(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.any(a, axis=-1)`` of an (m, k) array: an OR of its k columns,
    which is exact in any order; written to ``out`` (m bools) if given."""
    out = np.not_equal(a[:, 0], 0, out=out)
    for j in range(1, a.shape[1]):
        np.logical_or(out, a[:, j], out=out)
    return out


def _row_nonzero(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.any(a, axis=-1)`` of an (m, k) float array, written to ``out`` (m
    bools); a is overwritten for k > 1. A row's sum of absolute values is
    nonzero exactly where an entry is (adding non-negative floats never
    cancels, and a NaN stays NaN), and unlike a running OR of the float
    columns into ``out`` it casts nothing, so numpy takes no buffer."""
    total = a[:, 0]
    if a.shape[1] > 1:
        np.abs(a, out=a)
        for j in range(1, a.shape[1]):
            total += a[:, j]
    return np.not_equal(total, 0.0, out=out)


def _row_mean(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.mean(a, axis=-1)`` of an (m, k) array, bit for bit, written to
    ``out`` (m floats) if given.

    For k < 8 numpy sums each row left to right from +0.0 and divides by k;
    summing the columns in that order gives the same bits. From k = 8 numpy
    sums 8-way pairwise, so its own call is kept there.
    """
    k = a.shape[1]
    if k >= 8:
        return np.mean(a, axis=-1, out=out)
    total = np.add(a[:, 0], 0.0, out=out)
    for j in range(1, k):
        total += a[:, j]
    total /= k
    return total


def _column_sums(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=0)`` of a C-ordered (m, k) array, bit for bit; the
    cumulative sums run through ``scratch`` (m floats), which is overwritten.

    For k >= 2 numpy adds each column's entries in row order to +0.0, so
    the last entry of the column's ``np.cumsum``, plus 0.0 (which makes a
    column of -0.0 sum to +0.0, and changes nothing else), is that sum,
    without numpy's strided reduction. One column is contiguous and numpy
    sums it pairwise, so its own call is kept there."""
    if a.shape[1] == 1:
        return np.sum(a, axis=0)
    sums = np.array([np.cumsum(a[:, j], out=scratch)[-1] for j in range(a.shape[1])])
    sums += 0.0
    return sums


def _column_counts(a: np.ndarray) -> np.ndarray:
    """Nonzero entries per column of an (m, k) array (exact integers)."""
    return np.array([np.count_nonzero(a[:, j]) for j in range(a.shape[1])], dtype=np.int64)


# ---------------------------------------------------------------------------
# Cell-sequential engine


class _Member(NamedTuple):
    """One encoder: quantizes ``scale * x[..., col]`` with ``fine`` and
    enters its cell's sum added, or subtracted if ``minus``. ``dither`` is
    a fixed dither, or None to draw a fresh one per trial."""

    col: int
    scale: float
    minus: bool
    fine: Lattice
    dither: Optional[np.ndarray] = None


class _Cell(NamedTuple):
    """Encoders sharing one coarse lattice. ``pred`` weighs the side values
    and then the cells decoded before this one, in decode order."""

    members: Tuple[_Member, ...]
    coarse: Lattice
    pred: Sequence[float]


class _Plan(NamedTuple):
    """What the engine runs, for sources x = factor @ (standard normals)."""

    factor: np.ndarray
    coeffs: np.ndarray                    # Z = sum_i coeffs[i] x[..., i]
    side: Tuple[Tuple[int, float], ...]   # side values weight * x[..., col]
    cells: Tuple[_Cell, ...]              # partition order
    order: Tuple[int, ...]                # decode order
    final: Sequence[float]                # over side values, then cells


class _ChunkArrays(NamedTuple):
    """The arrays of one chunk of m trials in its thread's workspace (see the
    module docstring). The dither draws overlay the source normals, and the
    fold's float scratch overlays both."""

    normals: np.ndarray       # (m, n, cols) source normals
    uniforms: np.ndarray      # (draws, m, n) dither draws, mapped in place
    scaled: np.ndarray        # (m,) fold: the errors in the target's frame
    spare: np.ndarray         # (m, cells) fold scratch
    sources: np.ndarray       # (cols, m n) source columns
    quotient: np.ndarray      # (m, n) dither mapping scratch
    err: np.ndarray           # (m,) per-trial squared error
    v_sq: np.ndarray          # (m, cells) per-trial mod-input second moment
    overload: np.ndarray      # (m, cells) bool
    clean_before: np.ndarray  # (m, cells) bool: no overload in earlier cells
    keep: np.ndarray          # (m,) bool fold scratch


class _Workspace:
    """One thread's chunk and block arrays: a float and a flag buffer, each
    grown to the largest chunk so far, from which every chunk carves its
    views, and a float buffer grown to the largest row block so far, from
    which every block carves its slots."""

    __slots__ = ("floats", "flags", "block")

    def __init__(self):
        self.floats = np.empty(0)
        self.flags = np.empty(0, dtype=bool)
        self.block = np.empty(0)

    def slots(self, rows: int, n: int, count: int):
        """``count`` (rows, n) float arrays for one row block's arrays."""
        size = rows * n
        if self.block.size < count * size:
            self.block = np.empty(count * size)
        return [self.block[i * size:(i + 1) * size].reshape(rows, n) for i in range(count)]

    def arrays(self, m: int, n: int, cols: int, draws: int, cells: int) -> _ChunkArrays:
        """The arrays of a chunk of m trials of n coordinates, with ``cols``
        source columns, ``draws`` drawn dithers and ``cells`` cells."""
        mn, mc = m * n, m * cells
        shared = max(cols * mn, draws * mn, m + mc)  # draws, then fold scratch
        floats, flags = shared + cols * mn + mn + m + mc, 2 * mc + m
        if self.floats.size < floats:
            self.floats = np.empty(floats)
        if self.flags.size < flags:
            self.flags = np.empty(flags, dtype=bool)
        f, b = self.floats, self.flags
        lo = shared + cols * mn
        return _ChunkArrays(
            normals=f[:mn * cols].reshape(m, n, cols),
            uniforms=f[:draws * mn].reshape(draws, m, n),
            scaled=f[:m],
            spare=f[m:m + mc].reshape(m, cells),
            sources=f[shared:lo].reshape(cols, mn),
            quotient=f[lo:lo + mn].reshape(m, n),
            err=f[lo + mn:lo + mn + m],
            v_sq=f[lo + mn + m:lo + mn + m + mc].reshape(m, cells),
            overload=b[:mc].reshape(m, cells),
            clean_before=b[mc:2 * mc].reshape(m, cells),
            keep=b[2 * mc:2 * mc + m],
        )


_thread_state = threading.local()


def _workspace() -> _Workspace:
    """The calling thread's workspace, made on its first chunk; it goes with
    the thread. It is thread-local so that experiments run from several
    threads at once each write their own arrays."""
    ws = getattr(_thread_state, "workspace", None)
    if ws is None:
        ws = _thread_state.workspace = _Workspace()
    return ws


def _slot_count(plan: _Plan) -> int:
    """Slots of a row block of the plan (see ``_run_block``): one per side
    value, two per cell, and the work slots, three or two per member after
    a cell's first, whichever is more."""
    members = max(len(cell.members) for cell in plan.cells)
    return len(plan.side) + 2 * len(plan.cells) + max(3, 2 * members - 2)


def _chunk_shape(plan: _Plan) -> Tuple[int, int, int, int]:
    """``(n, cols, draws, cells)`` of the plan's chunks (see ``_Workspace.arrays``)."""
    draws = sum(mem.dither is None for cell in plan.cells for mem in cell.members)
    return plan.cells[0].coarse.dim, plan.factor.shape[0], draws, len(plan.cells)


def _sources(factor: np.ndarray, rng: np.random.Generator, g: np.ndarray, columns: np.ndarray):
    """The source columns, each a contiguous (m, n) array, of
    ``g @ factor.T`` for one draw ``g = rng.standard_normal((m, n, cols))``,
    drawn into ``g`` of that shape; the columns are written into
    ``columns``, a (cols, m n) array.

    numpy runs that stacked product as one tiny BLAS call per trial. Two
    cheaper forms give the same bits (a test pins this for n up to 8 and up
    to 3 columns): for n > 1 one 2-D product ``factor @ g.T`` over the
    (m n, cols) rows of g, whose rows are the columns, and for n = 1 one
    matrix-vector product per column. Either way each column is laid out
    along the trial axis, so the engine reads no strided source column and
    its per-trial reductions run over whole columns (see the module
    docstring for their order). For one trial at n = 1 the stacked product
    is itself one 2-D product, which the per-column form does not match, so
    it is kept there.
    """
    m, n, cols = g.shape
    rng.standard_normal(out=g)
    if n == 1 and m == 1:
        x = g @ factor.T
        return [x[..., i] for i in range(cols)]
    if n == 1:
        g2d = g.reshape(m, cols)
        for i in range(cols):
            np.matmul(g2d, factor[i], out=columns[i])
    else:
        np.matmul(factor, g.reshape(-1, cols).T, out=columns)
    return [col.reshape(m, n) for col in columns]


def _draw(plan: _Plan, m: int, rng: np.random.Generator, arrays: _ChunkArrays):
    """Every rng draw of one chunk of m trials, in the stream's order: the
    (m, n, cols) source normals, as source columns (see ``_sources``), then
    one (m, n) dither per member of each cell in decode order, each that of
    ``sample_dither``. Returns the columns and the dithers, flat in that
    order, in the chunk's ``arrays``, where they stay valid while those
    arrays are; in a thread's workspace, until its next chunk. A fixed
    dither draws nothing: its (n,) row is broadcast, read-only, over the m
    trials."""
    x = _sources(plan.factor, rng, arrays.normals, arrays.sources)
    # The draws overlay the normals, which the columns no longer need. They
    # are drawn in the stream's order as the mapping takes them: all before
    # any is reduced where the members' lattices reduce them together, each
    # just before its own mapping on diagonal lattices.
    members = [mem for idx in plan.order for mem in plan.cells[idx].members]
    _uniform_to_voronoi([mem.fine for mem in members if mem.dither is None],
                        (rng.random(out=w) for w in arrays.uniforms), arrays.quotient)
    drawn = iter(arrays.uniforms)
    dithers = [next(drawn) if mem.dither is None
               else np.broadcast_to(mem.dither, arrays.quotient.shape) for mem in members]
    return x, dithers


def _weighted_sum(weights, arrays, out, scratch):
    """``sum(w * a for w, a in zip(weights, arrays))`` written to ``out``, with
    ``scratch`` for a product, both block slots apart from ``arrays``; None
    for no term.

    The sum starts from its first term, not from the int 0, and a weight of
    exactly 1.0 multiplies nothing; each changes at most the sign of a zero.
    A lone term of weight 1.0 is that array itself, not ``out``."""
    total = None
    for w, a in zip(weights, arrays):
        if total is None:
            total = a if w == 1.0 else np.multiply(a, w, out=out)
            continue
        term = a if w == 1.0 else np.multiply(a, w, out=scratch if total is out else out)
        total = np.add(total, term, out=out)
    return total


def _reduce(lats, arrays, outs):
    """The nearest point of each (rows, n) array of ``arrays`` in its lattice
    of ``lats``, scalings of one base, written to its array of ``outs``, which
    may be that array itself; returns the points, the arrays of ``outs``.

    A non-diagonal base makes one stacked ``reduce_stacked`` call, with
    ``nearest_point``'s bits. An exactly diagonal base rounds each array as
    it stands, in four passes (``lattices._round_into``), with the bits of
    ``nearest_point`` but for the sign of a zero, which no result reads
    (see the module docstring)."""
    if not lats[0].is_diagonal:
        return reduce_stacked(lats, arrays, outs)
    for lat, b, out in zip(lats, arrays, outs):
        _round_into(lat, b, out)
    return outs


def _run_block(plan: _Plan, x, dithers, slots, overload, clean_before):
    """The codec on the trials of the source columns ``x`` with the drawn
    ``dithers`` of ``_draw``; writes the per-cell overload and clean-history
    masks into ``overload`` and ``clean_before``, (rows, cells) bool arrays,
    and returns Z, its estimate, the shift-free mod input of each cell and
    those masks. Every array it forms is one of ``slots``,
    ``_slot_count(plan)`` arrays of x's shape, which Z, its estimate and the
    mod inputs are too; Z may instead be a source column.

    The slots are laid out as the side values, each cell's sum (which it
    decodes in place) and its shift-free mod input, then the work slots.
    A cell's first member forms its fine and coarse points in that cell's
    two slots, which become its sums, and every later member in a pair of
    work slots, freed as it is added in; the predictor, the overload test
    and the decoding point, and at the end Z and its estimate, take the
    work slots once the members are summed.

    No pass here changes anything but the sign of a zero (see the module
    docstring): a cell's sums start as the first member's arrays, negated
    in place if it is subtracted; a cell with no predictor term skips it;
    Z, its estimate and each predictor are ``_weighted_sum``s; and a
    diagonal point skips ``nearest_point``'s ``+ 0.0`` (``_reduce``). No
    per-trial result reads that sign: each is a square or a nonzero test
    of a coarse point, and a reduction maps +0.0 and -0.0 to points of
    equal magnitude. On a diagonal coarse lattice the overload test reads
    the mod input's rounded coordinates, which are nonzero where its point
    is, and skips the point's pass."""
    side, cells = len(plan.side), len(plan.cells)
    sums = slots[side:side + cells]
    v = slots[side + cells:side + 2 * cells]
    work = slots[side + 2 * cells:]
    # Side values are always multiplied, so each is the block's own array.
    known = [np.multiply(x[col], w, out=out) for (col, w), out in zip(plan.side, slots)]
    drawn = iter(dithers)
    decoded = [None] * cells
    prev = None
    for idx in plan.order:
        cell = plan.cells[idx]
        dith = [next(drawn) for _ in cell.members]
        ys = [v[idx], *work[0:2 * len(dith) - 2:2]]
        points = [sums[idx], *work[1:2 * len(dith) - 2:2]]
        # The members' fine quantizations, in place of their targets, and
        # their coarse reductions, and below the overload test with the
        # decoding reduction, are each one stacked reduction on a
        # non-diagonal base (see the module docstring).
        for mem, u, y in zip(cell.members, dith, ys):
            if mem.scale == 1.0:
                np.add(x[mem.col], u, out=y)
            else:
                np.multiply(x[mem.col], mem.scale, out=y)
                y += u
        _reduce([mem.fine for mem in cell.members], ys, ys)
        _reduce([cell.coarse] * len(ys), ys, points)
        total = ideal = None  # the cell sum, and that sum free of coarse coset shifts
        for mem, u, y, point in zip(cell.members, dith, ys, points):
            mod = np.subtract(y, point, out=point)
            mod -= u
            y -= u
            if total is None:  # the sums start as the first member's own arrays
                total, ideal = mod, y
                if mem.minus:
                    np.negative(total, out=total)
                    np.negative(ideal, out=ideal)
            elif mem.minus:
                total -= mod
                ideal -= y
            else:
                total += mod
                ideal += y
        pred = _weighted_sum(cell.pred, known, work[0], work[1])
        # Overload is wraparound of the shift-free mod input, a nonzero coarse
        # point; the transmitted sum additionally carries coarse points,
        # which the reduction removes.
        if pred is not None:
            ideal -= pred
            total -= pred
        if cell.coarse.is_diagonal:
            tested = _round_into(cell.coarse, ideal, work[1], coords_only=True)
            (point,) = _reduce([cell.coarse], [total], work[2:3])
        else:
            tested, point = _reduce([cell.coarse] * 2, [ideal, total], work[1:3])
        _row_nonzero(tested, overload[:, idx])
        decoded[idx] = np.subtract(total, point, out=total)
        # The mod-input moment is meaningful where earlier cells decoded
        # correctly; wrapped predictors would contaminate it. True > False
        # is the one true comparison: clean before and not overloaded.
        if prev is None:
            clean_before[:, idx] = True
        else:
            np.greater(clean_before[:, prev], overload[:, prev], out=clean_before[:, idx])
        prev = idx
        if pred is not None:
            decoded[idx] += pred
        known.append(decoded[idx])
    z = _weighted_sum(plan.coeffs, x, work[0], work[2])
    zhat = _weighted_sum(plan.final, known[:side] + decoded, work[1], work[2])
    return z, zhat, v, overload, clean_before


def _row_blocks(m: int, rows: int):
    """Row slices of a chunk of m trials, ``rows`` each but the last; a
    one-row tail joins the block before it (see the module docstring)."""
    lo = 0
    while lo < m:
        hi = lo + rows
        if hi + 1 >= m:
            hi = m
        yield slice(lo, hi)
        lo = hi


def _run_cells(plan: _Plan, m: int, rng: np.random.Generator,
               arrays: _ChunkArrays) -> _ChunkArrays:
    """One chunk of m trials, run in row blocks after its draws (see the
    module docstring); writes the per-trial squared error, and (m, cells)
    arrays of overload, mod-input second moment and clean history, into the
    chunk's ``arrays``, which it returns. The row blocks' slots are the
    calling thread's."""
    ws = _workspace()
    x, dithers = _draw(plan, m, rng, arrays)
    err, v_sq = arrays.err, arrays.v_sq
    n, count = x[0].shape[1], _slot_count(plan)
    for rows in _row_blocks(m, max(1, _BLOCK // n)):
        z, zhat, v, _, _ = _run_block(
            plan, [col[rows] for col in x], [u[rows] for u in dithers],
            ws.slots(rows.stop - rows.start, n, count), arrays.overload[rows],
            arrays.clean_before[rows])
        # Into the estimate, a slot: Z may be a source column.
        _mean_square(np.subtract(z, zhat, out=zhat), err[rows])
        for idx, vi in enumerate(v):
            _mean_square(vi, v_sq[rows, idx])
    return arrays


def _mean_square(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_row_mean(a**2)`` of an (m, n) array, written to ``out``; a is
    squared in place. At n = 1 the square goes straight to ``out``: adding
    +0.0 and dividing by 1 leave a square's bits as they are."""
    if a.shape[1] == 1:
        return np.square(a[:, 0], out=out)
    return _row_mean(np.square(a, out=a), out)


def _require_resolvable(plan: _Plan, d: float) -> _Plan:
    """Reject a target distortion d that float64 cannot resolve: a member
    rounds ``scale * x`` at about eps |scale x| (eps = 2^-52), and these noises
    must sum to at most 1e-6 d (a share that overflows is far above it).
    Returns the plan."""
    with np.errstate(all="ignore"):
        sd = np.sqrt(np.sum(plan.factor**2, axis=1))  # of each source column
        t = np.array([abs(m.scale) * sd[m.col] for cell in plan.cells for m in cell.members])
        share = float(np.sum((2.0**-52 * t / math.sqrt(d)) ** 2))
    if not share <= 1e-6:
        raise UnresolvableDistortion(f"target distortion {d:.6g} is below what float64 sources "
                                     f"resolve: their rounding noise is {share:.3g} of it")
    return plan


def _with_dithers(plan: _Plan, dithers) -> _Plan:
    """A one-cell plan whose members keep the given dithers fixed."""
    (cell,) = plan.cells
    members = tuple(mem._replace(dither=u) for mem, u in zip(cell.members, dithers))
    return plan._replace(cells=(cell._replace(members=members),))


def _codec_plan(codec, make_plan) -> _Plan:
    """The random-dither plan ``make_plan(codec)`` of any codec, checked by
    ``_require_resolvable`` on its first run and kept on the codec for later
    runs; a plan that fails its check is not kept (see the module
    docstring)."""
    if codec._plan is None:
        object.__setattr__(codec, "_plan",
                           _require_resolvable(make_plan(codec), codec.rates.distortion))
    return codec._plan


def _run(plan: _Plan, sizes, seed: int, codec, per_cell: bool = False) -> SimReport:
    """Run the chunks of one experiment of ``codec`` with its checked
    ``plan`` and report their merged statistics."""
    acc = _Accumulator(len(plan.cells), plan.order[-1], codec.rates.distortion, per_cell)
    shape = _chunk_shape(plan)
    ws = _workspace()
    # A NaN or an infinity ends in ``acc.add``'s error, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, m in enumerate(sizes):
            acc.add(_run_cells(plan, m, _chunk_rng(seed, k), ws.arrays(m, *shape)))
    return acc.report(codec.rates, seed, codec.margin, codec.n)


# ---------------------------------------------------------------------------
# Two-user codec


@dataclass(frozen=True)
class TwoUserCodec:
    """Nested-lattice pair codec reconstructing Z = X1 - c X2 directly.

    Every field is read-only, so ``_plan``, the engine's random-dither plan,
    is built and checked on the first run and reused by later ones."""

    model: SourceModel
    d_target: float
    q1: float
    fine1: Lattice
    fine2: Lattice
    coarse: Lattice
    margin: float
    n: int
    rates: RatePoint
    _plan: Optional[_Plan] = field(default=None, init=False, repr=False, compare=False)

    @property
    def beta(self) -> float:
        sz2 = function_variance(self.model)
        return (sz2 - self.d_target) / sz2

    @property
    def coded_rates(self) -> Tuple[float, float]:
        """The rates the two encoders pay, in bits per dimension (see
        ``_coded_rate``): ``rates.rates`` plus log2(margin)."""
        return _coded_rate(self.coarse, self.fine1), _coded_rate(self.coarse, self.fine2)


def q1_interval(sz2: float, d: float) -> float:
    """Upper end of the admissible q1 interval (0, D Var(Z) / (Var(Z) - D))."""
    return d * sz2 / (sz2 - d)


def _base_lattice(n: int, margin: float, base_lattice: Optional[Lattice]) -> Lattice:
    """The base lattice of a codec, after the checks every builder shares."""
    if not (math.isfinite(margin) and margin >= 1.0):
        raise ValueError(f"margin must be finite and >= 1, got {margin}")
    base = base_lattice if base_lattice is not None else integer_lattice(n)
    if base.dim != n:
        raise DimensionMismatch(f"base lattice dimension {base.dim} != n = {n}")
    return base


def _moment(lat: Lattice) -> float:
    """A codec lattice's second moment per dimension: exact on a diagonal
    one, and its scaled estimate on any other (see ``scale_to_second_moment``)."""
    return second_moment(lat).value if lat.is_diagonal else lat.moment.value


def _coded_rate(coarse: Lattice, fine: Lattice) -> float:
    """The rate an encoder pays, in bits per dimension: log2 of the volume
    of the coarse cell over the fine one, per dimension. Both are scalings
    of one base, so it is 1/2 log2 of the coarse second moment over the
    fine one, which exceeds the region's rate by log2(margin), since the
    margin inflates the coarse moment by margin^2."""
    fine_moment = _moment(fine)
    return _half_log2_ratio(_moment(coarse), fine_moment, (fine_moment,))


def _inflated_moment(moment: float, margin: float) -> float:
    """Coarse second moment ``moment * margin**2``, checked to be finite."""
    try:
        inflated = moment * margin**2
    except OverflowError:
        inflated = math.inf
    if not math.isfinite(inflated):
        raise MomentOverflow(
            f"coarse second moment {moment:.6g} * margin^2 is not finite (margin {margin:.6g})"
        )
    return inflated


def _pair_lattices(var: float, d: float, q1: float, n: int, margin: float,
                   base_lattice: Optional[Lattice]):
    """Fine, fine and coarse lattices and the rates of a two-encoder cell
    reconstructing a quantity of variance ``var`` (see build_two_user_codec)."""
    if not 0.0 < d < var:
        raise DistortionOutOfRange(f"need 0 < D < {var:.6g}, got D = {d:.6g}")
    q1_hi = q1_interval(var, d)
    if not 0.0 < q1 < q1_hi:
        raise QOutOfRange(f"q1 must lie in (0, {q1_hi:.6g}), got {q1:.6g}")
    base = _base_lattice(n, margin, base_lattice)
    m2 = q1_hi - q1
    try:
        nominal = var**2 / (var - d)
    except OverflowError:
        nominal = math.inf
    mc = _inflated_moment(nominal, margin)
    fine1 = scale_to_second_moment(base, q1)
    fine2 = scale_to_second_moment(base, m2)
    coarse = scale_to_second_moment(base, mc)
    # d var - q1 (var - d) is (var - d) m2, the factors the split logs use.
    r1 = _half_log2_ratio(var**2, q1 * (var - d), (q1, var - d))
    r2 = _half_log2_ratio(var**2, d * var - q1 * (var - d), (var - d, m2))
    return fine1, fine2, coarse, RatePoint((r1, r2), d, SCHEME_LATTICE)


def build_two_user_codec(
    model: SourceModel,
    d: float,
    q1: float,
    n: int = 1,
    margin: float = 1.0,
    base_lattice: Optional[Lattice] = None,
) -> TwoUserCodec:
    """Scale the three lattices to the moments that realize distortion d.

    The fine lattices carry the two backward-channel noises (q1 and the
    complement) and the coarse lattice carries the full variance of the
    noisy function; margin >= 1 inflates only the coarse cell.

    Each lattice is ``base_lattice`` (Z^n by default) scaled to its exact
    moment. The three scales are generally incommensurate, so the coarse
    lattice need not be a sublattice of either fine one: the mod reductions
    are well defined regardless, and the distortion identity needs only the
    moments.
    """
    model.require_two_user()
    fine1, fine2, coarse, rates = _pair_lattices(
        function_variance(model), d, q1, n, margin, base_lattice
    )
    return TwoUserCodec(
        model=model, d_target=d, q1=q1, fine1=fine1, fine2=fine2,
        coarse=coarse, margin=margin, n=n, rates=rates,
    )


def _two_user_plan(codec: TwoUserCodec) -> _Plan:
    """One cell: X1 enters added, c X2 subtracted; Zhat = beta * cell."""
    cell = _Cell((_Member(0, 1.0, False, codec.fine1),
                  _Member(1, codec.model.c, True, codec.fine2)), codec.coarse, ())
    return _Plan(_gaussian_factor(codec.model.cov), codec.model.coeffs, (), (cell,), (0,),
                 (codec.beta,))


def run_two_user_experiment(
    codec: TwoUserCodec,
    trials: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
    fixed_dither: bool = False,
) -> SimReport:
    """Sample sources and dithers, run the codec, summarize the error law.

    ``fixed_dither`` freezes one dither pair for the whole run (the
    derandomized mode); dithers are otherwise redrawn each trial.
    """
    sizes = _chunk_sizes(trials, chunk_size)
    plan = _codec_plan(codec, _two_user_plan)
    if fixed_dither:
        drng = _dither_rng(seed)
        plan = _with_dithers(plan, [sample_dither(mem.fine, drng, 1)[0]
                                    for mem in plan.cells[0].members])
    return _run(plan, sizes, seed, codec)


# ---------------------------------------------------------------------------
# Side-information codec


@dataclass(frozen=True)
class SideInfoCodec:
    """Two encoders plus a decoder-side variable; reconstructs Z = c1 X1 + c2 X2.
    Its ``_plan`` is kept as ``TwoUserCodec``'s is."""

    si_model: SideInfoModel
    d_target: float
    q1: float
    fine1: Lattice
    fine2: Lattice
    coarse: Lattice
    margin: float
    n: int
    rates: RatePoint
    _plan: Optional[_Plan] = field(default=None, init=False, repr=False, compare=False)

    @property
    def innovations_variance(self) -> float:
        return self.si_model.innovations_variance()

    @property
    def side_coefficient(self) -> float:
        beta, _ = self.si_model.side_regression()
        return beta

    @property
    def coded_rates(self) -> Tuple[float, float]:
        """The rates the two encoders pay, as ``TwoUserCodec.coded_rates``."""
        return _coded_rate(self.coarse, self.fine1), _coded_rate(self.coarse, self.fine2)


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
    fine1, fine2, coarse, rates = _pair_lattices(
        require_informative(si_model), d, q1, n, margin, base_lattice
    )
    return SideInfoCodec(
        si_model=si_model, d_target=d, q1=q1, fine1=fine1, fine2=fine2,
        coarse=coarse, margin=margin, n=n, rates=rates,
    )


def _side_info_plan(codec: SideInfoCodec) -> _Plan:
    """One cell: c1 X1 and c2 X2 enter added, predicted by the side
    value beta_Y Y; Zhat = (D / s) beta_Y Y + (1 - D / s) * cell for the
    innovations variance s."""
    c1, c2 = codec.si_model.coeffs
    shrink = codec.d_target / codec.innovations_variance
    cell = _Cell((_Member(0, c1, False, codec.fine1), _Member(1, c2, False, codec.fine2)),
                 codec.coarse, (1.0,))
    return _Plan(_gaussian_factor(codec.si_model.cov), codec.si_model.coeffs,
                 ((2, codec.side_coefficient),), (cell,), (0,), (shrink, 1.0 - shrink))


def run_side_info_experiment(
    codec: SideInfoCodec, trials: int, seed: int, chunk_size: int = DEFAULT_CHUNK
) -> SimReport:
    """Monte Carlo run of the side-information codec.

    The sources are (X1, X2, Y); the side value beta_Y Y = E(Z|Y) predicts
    the one cell (see ``_side_info_plan``).
    """
    sizes = _chunk_sizes(trials, chunk_size)
    return _run(_codec_plan(codec, _side_info_plan), sizes, seed, codec)


# ---------------------------------------------------------------------------
# K-user sequential codec


@dataclass(frozen=True)
class KUserCodec:
    """Per-cell nested lattices plus the sequential decoding coefficients.
    Its ``_plan`` is kept as ``TwoUserCodec``'s is."""

    model: SourceModel
    plan: PartitionPlan
    fines: Tuple[Lattice, ...]          # per user
    coarses: Dict[Tuple[int, ...], Lattice]
    margin: float
    n: int
    rates: RatePoint
    _plan: Optional[_Plan] = field(default=None, init=False, repr=False, compare=False)

    @property
    def coded_rates(self) -> Tuple[float, ...]:
        """The rate each user pays, over its cell's coarse lattice (see
        ``_coded_rate``): ``rates.rates`` plus log2(margin)."""
        cell_of = {i: cell for cell in self.plan.partition for i in cell}
        return tuple(_coded_rate(self.coarses[cell_of[i]], fine)
                     for i, fine in enumerate(self.fines))


def build_k_user_codec(
    model: SourceModel,
    plan: PartitionPlan,
    n: int = 1,
    margin: float = 1.0,
    base_lattice: Optional[Lattice] = None,
) -> KUserCodec:
    """Scale per-user fine lattices to q_i and per-cell coarse lattices to the
    residual-plus-noise variance of the cell's partial function."""
    base = _base_lattice(n, margin, base_lattice)
    rates = k_user_rates(model, plan)
    st = sigma_theta(model, plan)
    fines = tuple(scale_to_second_moment(base, q) for q in plan.q)
    coarses = {
        cell: scale_to_second_moment(base, _inflated_moment(st[cell] + plan.q_cell(cell), margin))
        for cell in plan.partition
    }
    return KUserCodec(
        model=model, plan=plan, fines=fines, coarses=coarses, margin=margin, n=n, rates=rates,
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
    codec = _k_user_codec(model, plan, n, margin, base_lattice)
    return _run(_codec_plan(codec, _k_user_plan), sizes, seed, codec, per_cell=True)


@functools.lru_cache(maxsize=1, typed=True)
def _k_user_codec(model: SourceModel, plan: PartitionPlan, n, margin, base_lattice) -> KUserCodec:
    """``build_k_user_codec(model, plan, n, margin, base_lattice)``, kept for
    the last configuration run (see the module docstring). A run reuses it,
    with the plan it keeps, for the same model and base lattice objects, an
    equal plan, and n and margin equal and of the same type (the report
    prints them as given). Threads that miss at once may each build it, as
    they may each build a codec's plan; either is read-only."""
    return build_k_user_codec(model, plan, n, margin, base_lattice)


def _k_user_plan(codec: KUserCodec) -> _Plan:
    """The partition's cells, user i entering added, each predicted
    from the cells decoded before it; Zhat weighs the decoded cells."""
    model, plan = codec.model, codec.plan
    coeff_map = decoder_coeff_map(model, plan)
    final_w, _ = final_estimator(model, plan)
    cells = tuple(
        _Cell(tuple(_Member(i, model.coeffs[i], False, codec.fines[i]) for i in cell),
              codec.coarses[cell], coeff_map[cell])
        for cell in plan.partition
    )
    return _Plan(_gaussian_factor(model.cov), model.coeffs, (), cells, plan.decode_order, final_w)


# ---------------------------------------------------------------------------
# Entropy sandwich

# 0.5 log2(2 pi e q) - 0.5 log2(12 q): the Gaussian bound over the uniform entropy
_HALF_LOG2_GAUSS_OVER_UNIFORM = 0.5 * math.log2(2.0 * math.pi * math.e / 12.0)


def epi_entropy_sandwich(q1: float, q2: float):
    """Bounds and exact value of the entropy of a two-uniform difference.

    For independent uniform dither noises of variances q1 and q2 at n = 1,
    the difference of uniforms of widths a >= b (w = sqrt(12 q)) has a
    trapezoidal density, whose entropy is ln a + b / (2a) nats. Returns
    (lower, estimate, upper) in bits: the entropy-power combination of the
    two interval entropies, that exact entropy, and the Gaussian
    max-entropy bound at the same variance. All three are log2 of the wider
    width plus terms in the ratio of the variances, so they stay finite and
    ordered for every positive finite pair.
    """
    if not (0.0 < q1 < math.inf and 0.0 < q2 < math.inf):
        raise NonPositiveQ("q1 and q2 must be positive and finite")
    big, small = max(q1, q2), min(q1, q2)
    mantissa, exponent = math.frexp(big)
    log2_width = 0.5 * (exponent + math.log2(12.0 * mantissa))  # log2 sqrt(12 big), exactly scaled
    ratio = small / big
    half_log2_sum = 0.5 * math.log1p(ratio) / math.log(2.0)  # 0.5 log2((q1 + q2) / big)
    lower = log2_width + half_log2_sum
    estimate = log2_width + math.sqrt(ratio) / (2.0 * math.log(2.0))
    upper = log2_width + (_HALF_LOG2_GAUSS_OVER_UNIFORM + half_log2_sum)
    return lower, estimate, upper
