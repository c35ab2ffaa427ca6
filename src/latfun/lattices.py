"""Finite-dimensional lattice arithmetic.

Quantization to the nearest lattice point, modulo reduction onto the basic
Voronoi region, dithered sampling, second-moment estimation, nesting checks,
coset enumeration, and generation of nested pairs from random linear codes
over a prime field.

Conventions
-----------
A lattice is the set ``{G @ u : u integer vector}`` for a nonsingular
generator matrix ``G`` (columns generate). Quantization ties on Voronoi
boundaries resolve to the lexicographically smallest integer coordinate
vector, so every operation here is deterministic. Randomized operations take
an explicit ``numpy.random.Generator``. Every lattice step of the codec
engine is a nearest point, or the error left after one, made by
``reduce_stacked``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatch,
    InvalidPrime,
    LatfunError,
    MissingMomentEstimate,
    NonFiniteTarget,
    NonPositiveTarget,
    SingularLattice,
    TooManyCosets,
    UnsupportedDimension,
)
from .gaussian import _frozen

MAX_SPHERE_DIM = 8
MAX_COSET_ENUM = 4096

_DET_GUARD = 1e-12
_RANGE_ERROR = (
    "generator out of range: squared column lengths and det G must be finite and nonzero, "
    "which needs column lengths within about 1e-154..1e154 and |det G| within about "
    "1e-308..1e308 (largest |entry| {:.3g})"
)
_INT_TOL = 1e-9


@dataclass(frozen=True)
class MomentEstimate:
    """Second-moment estimate per dimension with its Monte Carlo error."""

    value: float
    std_error: float
    samples: int


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice given by a generator matrix (columns generate).

    ``gen`` is a read-only float64 copy of the array passed in, so the
    caches below always describe it: editing the caller's array leaves the
    lattice as built, and writing into ``lat.gen`` raises ``ValueError``.

    ``moment`` caches a second-moment estimate so that scaling operations can
    reuse it; diagonal generators never need the cache because their moments
    are exact. The diagonal test runs once, at construction: a generator whose
    off-diagonal entries are within 1e-12 of its largest entry is diagonal,
    and ``_scales`` keeps its diagonal, as one float where every diagonal
    entry is equal (c Z^n). numpy divides and multiplies an (m, n) array by a
    scalar several times faster than by an (n,) row at small n, and IEEE
    arithmetic gives the same bits either way. Where the off-diagonal entries
    are exactly zero (``_exact_diag``), quantization and dithers stay in
    float64 and skip the matrix product.

    A non-diagonal lattice is searched in the frame of its base lattice
    (``_frame``, see ``kernels``): ``scaled(f)`` records the lattice it was
    scaled from, or that lattice's own base, and the product of the factors,
    which may be negative, and ``with_moment`` keeps the record. Only a
    base holds a closest-point search context (QR factors, relevant vectors
    and the slicer's ``kernels.slicer_lift``), computed on first use, so
    every scaling of a base shares it, and the search's tolerances act at
    the base's scale. Each searched lattice also keeps its own rotation
    into that frame (``_rotation``), the base's ``Q^T / f`` for its factor
    f, or the base's ``Q^T`` itself at f = 1, computed on its first search:
    a codec searches each of its lattices once per row block, and the
    division is then not redone.

    Equality is identity (``eq=False``), so a lattice is hashable; an
    elementwise comparison of generators has no single truth value.

    Squared column lengths (the Gram diagonal, which bounds the rest of the
    Gram matrix) and the determinant must be finite and nonzero, so that
    closest-point distances stay finite and the covolume is representable.
    """

    gen: np.ndarray
    moment: Optional[MomentEstimate] = None
    _sphere: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _scales: Union[float, np.ndarray, None] = field(default=None, init=False, repr=False,
                                                    compare=False)
    _exact_diag: bool = field(default=False, init=False, repr=False, compare=False)
    _frame: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _rotation: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        g = _frozen(self.gen)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise SingularLattice("generator must be a square n x n matrix")
        if not np.isfinite(g).all():
            raise SingularLattice("generator has a non-finite entry")
        object.__setattr__(self, "gen", g)
        if np.any(np.all(g == 0.0, axis=0)):
            raise SingularLattice("generator has a zero column")
        with np.errstate(over="ignore", under="ignore"):
            sq_lengths = np.sum(g * g, axis=0)  # the Gram diagonal
            det = float(np.linalg.det(g))
        if not (np.isfinite(sq_lengths).all() and np.all(sq_lengths > 0.0)):
            raise SingularLattice(_RANGE_ERROR.format(np.max(np.abs(g))))
        # Scale-free singularity check: |det G| relative to the product of
        # column norms (Hadamard ratio), fail-closed on NaN.
        if not abs(np.linalg.det(g / np.sqrt(sq_lengths))) >= _DET_GUARD:
            raise SingularLattice("generator is singular within tolerance")
        if not (math.isfinite(det) and det != 0.0):
            raise SingularLattice(_RANGE_ERROR.format(np.max(np.abs(g))))
        off = g - np.diag(np.diag(g))
        if np.all(np.abs(off) <= 1e-12 * np.max(np.abs(g))):
            diag = np.diag(g).copy()
            scales = float(diag[0]) if np.all(diag == diag[0]) else diag
            object.__setattr__(self, "_scales", scales)
            object.__setattr__(self, "_exact_diag", not np.any(off))

    @property
    def dim(self) -> int:
        return self.gen.shape[0]

    @property
    def volume(self) -> float:
        """Covolume |det G| (volume of a fundamental cell)."""
        return abs(float(np.linalg.det(self.gen)))

    @property
    def is_diagonal(self) -> bool:
        return self._scales is not None

    def with_moment(self, est: MomentEstimate) -> "Lattice":
        out = replace(self, moment=est)
        object.__setattr__(out, "_frame", self._frame)
        object.__setattr__(out, "_sphere", self._sphere)
        object.__setattr__(out, "_rotation", self._rotation)
        return out

    def scaled(self, factor: float) -> "Lattice":
        """Lattice with generator multiplied by ``factor`` (moment rescaled;
        a non-diagonal one is searched in its base lattice's frame)."""
        if not math.isfinite(factor):
            raise SingularLattice(f"scale factor must be finite, got {factor}")
        est = self.moment
        if est is not None:
            est = MomentEstimate(est.value * factor**2, est.std_error * factor**2, est.samples)
        out = Lattice(self.gen * factor, est)
        if not self.is_diagonal:
            base, f = self._frame or (self, 1.0)
            object.__setattr__(out, "_frame", (base, f * factor))
        return out

    def to_json(self) -> str:
        payload = {"dim": self.dim, "gen": [float(x) for x in self.gen.reshape(-1)]}
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Lattice":
        payload = json.loads(text)
        n = int(payload["dim"])
        return Lattice(np.asarray(payload["gen"], dtype=np.float64).reshape(n, n))


@dataclass(frozen=True, eq=False)
class NestedPair:
    """Fine/coarse lattice pair, built as ``NestedPair(fine, coarse)``.

    The nesting matrix J, with G_coarse = G_fine J, is derived once from the
    two generators, which cannot change: the coordinates G_fine^{-1}
    G_coarse must be integral within 1e-9 and their rounding J must have
    |det J| > 1 - 1e-9, or the coarse lattice is not a sublattice of the
    fine one, and J's entries must lie within the int64 range. A pair
    therefore exists only once its nesting is checked, and
    ``nesting_matrix`` is J as a read-only int64 array. Equality is
    identity, as for ``Lattice``.
    """

    fine: Lattice
    coarse: Lattice
    nesting_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.fine.dim != self.coarse.dim:
            raise DimensionMismatch("fine and coarse dimensions differ")
        coords = np.linalg.solve(self.fine.gen, self.coarse.gen)
        j = np.rint(coords)
        if not (np.all(np.abs(coords - j) <= _INT_TOL) and abs(np.linalg.det(j)) > 1.0 - 1e-9):
            raise SingularLattice("coarse lattice is not a sublattice of the fine one")
        if not np.all(np.abs(j) < 2.0**63):
            raise LatfunError(
                f"nesting matrix entry {np.max(np.abs(j)):.6g} is outside the int64 range")
        j = j.astype(np.int64)
        j.setflags(write=False)
        object.__setattr__(self, "nesting_matrix", j)

    @property
    def index(self) -> int:
        """Number of fine cosets per coarse cell, |det J|."""
        return math.prod(_coset_box(self))

    @property
    def nesting_ratio(self) -> float:
        """(V_coarse / V_fine)^(1/n)."""
        n = self.fine.dim
        return (self.coarse.volume / self.fine.volume) ** (1.0 / n)


def integer_lattice(dim: int, scale: float = 1.0) -> Lattice:
    """Scaled integer lattice ``scale * Z^dim`` (exact moments)."""
    return Lattice(np.eye(dim)).scaled(scale)


def hexagonal_lattice(scale: float = 1.0) -> Lattice:
    """The planar hexagonal lattice with basis [[1, 1/2], [0, sqrt(3)/2]]."""
    gen = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
    return Lattice(gen).scaled(scale)


# ---------------------------------------------------------------------------
# Quantization


def _check_dim(lat: Lattice, x: np.ndarray):
    if x.shape[-1] != lat.dim:
        raise DimensionMismatch(
            f"vector length {x.shape[-1]} != lattice dimension {lat.dim}"
        )


def _round_half_down(x: np.ndarray, scales: Union[float, np.ndarray],
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    # Nearest integer to x / scales (a lattice's ``_scales``), rounded in
    # place in that quotient, written to ``out`` or a fresh array; exact
    # halves resolve downward, which is the lexicographically smaller choice
    # per coordinate.
    q = np.divide(x, scales, out=out)
    q -= 0.5
    return np.ceil(q, out=q)


def _sphere_context(lat: Lattice):
    """``(Q^T, R, relevant vectors, slicer lift)`` of a non-diagonal base
    lattice, cached on it."""
    if lat._sphere is None:
        q, r = kernels.qr_factor(lat.gen)
        relevant = kernels.relevant_vectors(r)
        object.__setattr__(lat, "_sphere", (q.T.copy(), r, relevant,
                                            kernels.slicer_lift(r, relevant)))
    return lat._sphere


def _rotation(lat: Lattice) -> np.ndarray:
    """The rotation of ``lat``'s targets into its base's frame, ``Q^T / f``
    (see ``Lattice``), cached on ``lat``."""
    if lat._rotation is None:
        base, factor = lat._frame or (lat, 1.0)
        qt = _sphere_context(base)[0]
        object.__setattr__(lat, "_rotation", qt if factor == 1.0 else qt / factor)
    return lat._rotation


def _check_finite(x: np.ndarray):
    if not np.isfinite(x).all():
        raise NonFiniteTarget("query point has a NaN or infinite coordinate")


def nearest_point_coords(lat: Lattice, x: np.ndarray) -> np.ndarray:
    """Integer coordinates of the nearest lattice points (batched).

    ``x`` has shape (..., n). Diagonal generators use componentwise rounding
    at any dimension; general generators use the exact closest-point search
    of ``kernels``, limited to n <= 8. A NaN or infinite coordinate raises
    ``NonFiniteTarget``: it has no nearest lattice point.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_dim(lat, x)
    flat = x.reshape(-1, lat.dim)
    _check_finite(flat)
    if lat.is_diagonal:
        coords = _round_half_down(flat, lat._scales)
        return coords.astype(np.int64).reshape(x.shape)
    return _search([lat], [flat]).reshape(x.shape)


def _base(lat: Lattice) -> Lattice:
    """The lattice whose frame ``lat`` is searched in (see ``Lattice``)."""
    return lat._frame[0] if lat._frame else lat


def _search(lats: Sequence[Lattice], arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Integer coordinates of the rows of the checked (rows, n) ``arrays``,
    each in its lattice of ``lats``: non-diagonal scalings of one base
    lattice, searched in its frame by one kernel call (see ``kernels``).
    Each array is rotated by its lattice's ``_rotation`` straight into the
    column layout of the slicer's blocks, so the kernel takes the transpose
    without a copy."""
    base = _base(lats[0])
    if base.dim > MAX_SPHERE_DIM:
        raise UnsupportedDimension(
            f"exact sphere search limited to n <= {MAX_SPHERE_DIM}, got n = {base.dim}"
        )
    _, r, relevant, lift = _sphere_context(base)
    y = np.empty((base.dim, sum(len(a) for a in arrays)))
    lo = 0
    for lat, a in zip(lats, arrays):
        np.matmul(_rotation(lat), a.T, out=y[:, lo:lo + len(a)])
        lo += len(a)
    return kernels.nearest_point_batch(r, y.T, relevant, lift)


def nearest_point(lat: Lattice, x: Sequence[float]) -> np.ndarray:
    """The lattice point closest to ``x`` (ties: lexicographically smallest
    integer coordinates). A NaN or infinite coordinate raises
    ``NonFiniteTarget``.

    An exactly diagonal generator stays in float64: the rounded coordinates
    are multiplied by the scales, and adding 0.0 turns -0.0 into +0.0, so
    the result equals ``nearest_point_coords(lat, x) @ lat.gen.T`` bit for
    bit without the integer round trip or the matrix product.
    """
    x = np.asarray(x, dtype=np.float64)
    if not lat._exact_diag:
        return nearest_point_coords(lat, x) @ lat.gen.T
    _check_dim(lat, x)
    _check_finite(x)
    return _diagonal_point(lat, x)


def _diagonal_point(lat: Lattice, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``nearest_point`` of an exactly diagonal lattice, unchecked, written
    to ``out`` or a fresh array."""
    point = _round_half_down(x, lat._scales, out)
    point *= lat._scales
    point += 0.0
    return point


def mod_lattice(lat: Lattice, x: Sequence[float]) -> np.ndarray:
    """Quantization error ``x - nearest_point(x)``; lies in the basic Voronoi
    region. Batched over leading axes."""
    x = np.asarray(x, dtype=np.float64)
    point = nearest_point(lat, x)
    return np.subtract(x, point, out=point)


def _with_point(lat: Lattice, b: np.ndarray):
    return b, nearest_point(lat, b)


def reduce_stacked(lats: Sequence[Lattice], arrays: Iterable[np.ndarray]):
    """The pair ``(b, nearest_point(lat, b))``, with its bits, for each
    (rows, n) array b that the iterable ``arrays`` yields, with its lattice
    ``lat`` in ``lats``, one per array: scalings of one base lattice.

    On a non-diagonal base, the rows of all the arrays go to the kernel in
    one stacked call, which pays the search's fixed cost per call once; the
    kernel searches each row on its own, in the base's frame, and each point
    is that array's own coordinates times its own lattice's G. A diagonal
    base takes each b from ``arrays`` only as the caller takes its pair:
    stacking would only add copies, and holding every array at once costs a
    codec block page faults.
    """
    base = _base(lats[0])
    if base.is_diagonal:  # map, unlike a generator, drops each b once its pair is taken
        return map(_with_point, lats, arrays)
    arrays = list(arrays)
    for lat, a in zip(lats, arrays):
        if _base(lat) is not base:
            raise ValueError("reduce_stacked needs scalings of one base lattice")
        _check_dim(base, a)
        _check_finite(a)
    coords = _search(lats, arrays)
    pairs, lo = [], 0  # slicing by hand: np.split costs about ten times more
    for lat, b in zip(lats, arrays):
        pairs.append((b, coords[lo:lo + len(b)] @ lat.gen.T))
        lo += len(b)
    return pairs


# ---------------------------------------------------------------------------
# Dither sampling and moments


def sample_dither(lat: Lattice, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Exactly uniform samples over the basic Voronoi region, shape (size, n).

    Draws uniformly over the fundamental parallelepiped ``G [0,1)^n`` and
    reduces mod the lattice; the mod map carries any fundamental region
    uniformly onto the Voronoi cell, so no rejection loop is needed. An
    exactly diagonal generator maps the draws ``w`` as ``w * scales + 0.0``,
    which equals ``w @ G.T`` bit for bit.
    """
    w = rng.random((size, lat.dim))
    _uniform_to_voronoi([lat], [w], np.empty_like(w))
    return w


def _uniform_to_voronoi(lats: Sequence[Lattice], ws: Iterable[np.ndarray], scratch: np.ndarray):
    """The map of ``sample_dither``, in place, for each array of uniform
    draws ``w`` over [0, 1)^n that the iterable ``ws`` yields, shape
    (rows, n), with its lattice in ``lats``: w becomes ``u - nearest_point(lat,
    u)`` for ``u = w @ G.T``, with its bits. Exactly diagonal lattices take
    and map one array at a time, through ``scratch``, a float64 array of w's
    shape, which is overwritten, and allocate nothing, which lets the codec
    engine map its dithers in its own buffers while each is fresh in cache;
    the points are finite by construction, so the finiteness check is
    skipped there. Any other lattices take every array first and reduce
    them by ``reduce_stacked``."""
    if all(lat._exact_diag for lat in lats):
        for lat, w in zip(lats, ws):
            w *= lat._scales
            w += 0.0
            np.subtract(w, _diagonal_point(lat, w, scratch), out=w)
        return
    ws = list(ws)
    us = [w @ lat.gen.T for lat, w in zip(lats, ws)]
    for w, (u, point) in zip(ws, reduce_stacked(lats, us)):
        np.subtract(u, point, out=w)


def second_moment(
    lat: Lattice, samples: int = 100_000, rng: Optional[np.random.Generator] = None
) -> MomentEstimate:
    """Per-dimension second moment of a uniform Voronoi sample.

    Exact (zero standard error) for diagonal generators; Monte Carlo with the
    supplied stream otherwise.
    """
    if lat.is_diagonal:
        # Summed in the exact power-of-two frame described below, so the
        # sum of squared scales cannot overflow where the moment is finite.
        scales = np.diag(lat.gen)
        _, e = math.frexp(float(np.max(np.abs(scales))))
        value = float(np.sum(np.ldexp(scales, -e) ** 2) / 12.0 / lat.dim)
        return MomentEstimate(math.ldexp(value, 2 * e), 0.0, 0)
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a moment estimate")
    if rng is None:
        raise ValueError("a seeded numpy Generator is required for non-diagonal lattices")
    u = sample_dither(lat, rng, samples)
    # The norms are taken in a frame scaled by 2^-e, with 2^e the binary
    # magnitude of the largest |u_i|. Powers of two scale exactly, so the
    # estimate keeps its bits, and np.std, which squares |u|^2 again, can
    # neither overflow nor underflow at any generator scale.
    _, e = math.frexp(float(np.max(np.abs(u))))
    np.ldexp(u, -e, out=u)
    per_sample = np.sum(u**2, axis=1) / lat.dim
    value = math.ldexp(float(np.mean(per_sample)), 2 * e)
    std_error = math.ldexp(float(np.std(per_sample, ddof=1) / math.sqrt(samples)), 2 * e)
    return MomentEstimate(value, std_error, samples)


def normalized_second_moment(
    lat: Lattice, samples: int = 100_000, rng: Optional[np.random.Generator] = None
) -> float:
    """Dimensionless quantizer figure of merit sigma^2 / V^(2/n)."""
    est = second_moment(lat, samples, rng)
    return est.value / lat.volume ** (2.0 / lat.dim)


def scale_to_second_moment(lat: Lattice, target: float) -> Lattice:
    """Rescale so the per-dimension second moment equals ``target``.

    Exact for diagonal generators; otherwise requires a cached moment
    estimate (attach one with ``second_moment`` + ``with_moment``), which
    ``scaled`` rescales to ``target`` up to rounding.
    """
    if not target > 0:
        raise NonPositiveTarget(f"target second moment must be > 0, got {target}")
    if lat.is_diagonal:
        current = second_moment(lat).value
    elif lat.moment is not None:
        current = lat.moment.value
    else:
        raise MissingMomentEstimate(
            "non-diagonal lattice needs a cached second-moment estimate before scaling"
        )
    return lat.scaled(math.sqrt(target / current))


# ---------------------------------------------------------------------------
# Nesting


def _hermite_basis(rows):
    """Hermite normal form of the integer lattice spanned by ``rows``.

    The rows must span a full-rank sublattice of Z^n. Returns its canonical
    n x n basis: upper triangular (row i pivots at column i), with positive
    pivots and each entry above a pivot reduced into [0, pivot). Unimodular
    row operations (Euclid's algorithm down each column) keep the lattice,
    and the basis depends only on the lattice, not on the rows given.
    """
    work = [list(map(int, r)) for r in rows]
    n = len(work[0])
    basis = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                f = r[col] // pivot[col]
                for j in range(n):
                    r[j] -= f * pivot[j]
            live = [r for r in work if r[col] != 0]
        if not live:
            raise SingularLattice("generator rows are rank deficient")
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(n):
                pivot[j] = -pivot[j]
        for r in basis:
            f = r[col] // pivot[col]
            for j in range(col, n):
                r[j] -= f * pivot[j]
        basis.append(pivot)
        work = [r for r in work if r is not pivot and any(r)]
    return basis


def _coset_box(pair: NestedPair) -> list:
    """Pivots of the Hermite basis of J Z^n (rows: the columns of J). Their
    product is |det J|, and the box of integer vectors below them holds one
    representative of each coset of Z^n / J Z^n."""
    h = _hermite_basis(pair.nesting_matrix.T.tolist())
    return [h[i][i] for i in range(len(h))]


def coset_leaders(pair: NestedPair) -> np.ndarray:
    """All fine-lattice points inside the coarse Voronoi cell, shape (index, n).

    Boundary ties follow the nearest-point convention, so the leaders form an
    exact transversal of the fine-modulo-coarse cosets.
    """
    box = _coset_box(pair)
    index = math.prod(box)
    if index > MAX_COSET_ENUM:
        raise TooManyCosets(f"nesting index {index} exceeds guard {MAX_COSET_ENUM}")
    grids = np.meshgrid(*[np.arange(d) for d in box], indexing="ij")
    reps = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.float64)
    points = reps @ pair.fine.gen.T
    leaders = mod_lattice(pair.coarse, points)
    return leaders


@dataclass(frozen=True)
class CodeConstruction:
    """Nested pair generated from a random linear code over a prime field."""

    pair: NestedPair
    code_matrix: np.ndarray  # k x n over Z_p as drawn
    prime: int
    rank: int

    @property
    def coset_count(self) -> int:
        return self.prime**self.rank

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.code_matrix.shape[0]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def construction_a(
    coarse: Lattice, p: int, k: int, rng: np.random.Generator
) -> CodeConstruction:
    """Nested pair from a random k x n linear code over Z_p.

    Draws the code generator i.i.d. uniform over Z_p, lifts its row space C
    to the lattice ``(1/p) C + Z^n`` and maps through the coarse generator,
    yielding a fine lattice containing the coarse one with p^rank cosets.
    Rank-deficient draws are reported, not rejected; the coset count adjusts.
    """
    if not _is_prime(p):
        raise InvalidPrime(f"p = {p} is not prime")
    n = coarse.dim
    if not 1 <= k < n:
        raise ValueError(f"code dimension k must satisfy 1 <= k < n, got k = {k}")
    mat = np.asarray(rng.integers(0, p, size=(k, n)), dtype=np.int64)
    # Hermite basis of the integer lattice p * ((1/p) C + Z^n) = C + p Z^n.
    # Its pivots are 1 or p, and the unit ones count the dimension of C.
    basis = _hermite_basis(mat.tolist() + (p * np.eye(n, dtype=np.int64)).tolist())
    rank = sum(basis[i][i] == 1 for i in range(n))
    b = np.asarray(basis, dtype=np.float64).T / p  # columns generate (1/p)(C + p Z^n)
    fine = Lattice(coarse.gen @ b)
    return CodeConstruction(pair=NestedPair(fine, coarse), code_matrix=mat, prime=p, rank=rank)
