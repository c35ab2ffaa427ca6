"""Closest-point search: the vectorized slicer and its scalar tie search.

Every search here works in the frame of ``qr_factor``: the generator is
``G = Q R`` with R upper-triangular with a positive diagonal, the lattice is
``{R @ u : u integer}``, and targets are rotated by ``Q.T``. A scaled
lattice f L is searched in the frame of its base lattice L: the closest
point of f L to x is f times that of L to x / f, with the same integer
coordinates, so ``lattices`` rotates the targets by the base's ``Q.T / f``.
The tolerances below then act at the base's scale, whatever the factor.

``nearest_point_batch`` runs a numpy *iterative slicer* (Sommer, Feder and
Shalvi, "Finding the closest lattice point by iterative slicing", SIAM J.
Discrete Math. 2009): each row starts at Babai's nearest-plane point and
repeatedly adds the Voronoi-relevant vector that brings it closest to its
target, until no relevant vector helps. A row that ends on a Voronoi
boundary (a tie within the slicer's tolerance) is settled in the slicer
when exactly one relevant vector r_j has its gain in the tie band: each
facet of the Voronoi cell belongs to one relevant vector, and every lower
face lies in two facets (Agrell, Eriksson, Vardy and Zeger, "Closest point
search in lattices", IEEE Trans. IT 2002), so the only closest points are
the slicer's point c and c + r_j. The slicer then picks between them as
the scalar search would: the lexicographically smaller point where the
squared-distance gap is at most half the scalar tie tolerance, the strictly
closer one where it is at least twice that tolerance. Rows with two or more
gains in the band, and rows in the guard band between those two limits, go
to ``closest_coords``, the scalar Schnorr-Euchner search, which is the
reference for ties. It searches around the slicer's point, so its tie
tolerance follows the residual's norm rather than the target's and ties do
not change under translation by lattice vectors.

A call's fixed cost, not its arithmetic, dominates at the row counts of the
codecs (a few hundred to a few thousand rows), so what depends on the
lattice alone is built once per lattice and what depends on the targets
once per call. Per base lattice, ``lattices`` keeps the search context:
Q^T and R of ``qr_factor``, the ``relevant_vectors`` and the slicer's
``slicer_lift``, which depends on R and the relevant vectors alone; per
scaled lattice it keeps the rotation Q^T / f. A call builds only what its
targets need: per block of ``BLOCK_ROWS`` rows, Babai's point, the
residuals and the tie tolerance, then the slicer's passes. A one-block
call, which every codec block makes, returns its block's tied rows without
joining a list. Each row is searched on its own, so a caller may stack the
rows of independent searches of one base lattice, at any scalings, into one
call and get the rows of separate calls: ``lattices.reduce_stacked`` does
so for every reduction of the codec engine, and turns each array's
coordinates into its nearest points.

The coordinates stay in float64 from Babai's point to the answer. A call
holds them in one ``(n, rows)`` array, one column per target: each block's
Babai point is computed in its columns, and the slicer, the one-facet rule
and the scalar tie search step them there. The call returns that array's
``(rows, n)`` transpose, a view. Every integer below 2^53 is exact in
float64, and numpy multiplies the view by G in the same order as it would
an int64 copy, so the points keep their bits without a round trip through
int64; ``lattices.nearest_point_coords`` is the one place that makes int64.
A target far beyond the lattice's scale leaves Babai coordinates that are
not finite or reach 2^53, where float64 cannot step a coordinate by one and
the slicer would never end; the call raises ``CoordinateOutOfRange``
instead.

The slicer works on blocks of ``BLOCK_ROWS`` targets held column-major:
targets and residuals are ``(n, m)`` arrays, one column per target, and the
gains of all ``k`` relevant vectors come from one ``(k, m)`` product. The
residual carries a last row of ones and the product's left factor a last
column of ``-|v|^2 / 2``, so that product is already the (half) gain. Each
target's best gain is then a maximum over ``axis=0``, which numpy runs as
``k - 1`` element-wise maxima along contiguous rows instead of one short
reduction per target. Only the targets that still move get the argmax, the
gathers and the coordinate updates; their argmax runs on a row-major
product of the movers alone, which is cheaper than gathering columns of the
``(k, m)`` gains when ``k`` reaches the hundreds (n = 8). A caller that
holds its rotated targets column-major passes their transpose, and a block
of a one-block call is then searched without a copy.
"""

import math

import numpy as np

from .errors import CoordinateOutOfRange

BACKEND = "python"

# Rows per slicer block: bounds the (rows x relevant vectors) gain matrix.
BLOCK_ROWS = 2048
# Relative tolerance for ties, both in the slicer's gains (scaled by
# max(1, |target|^2)) and in the relevance test.
_TIE_TOL = 1e-9
# Relative tolerance for ties in the scalar search.
_SCALAR_TIE_TOL = 1e-12
# Coordinates are held in float64, which holds every integer below 2^53.
_EXACT = 2.0**53


def qr_factor(gen: np.ndarray):
    """``(Q, R)`` with ``gen = Q @ R`` and R upper-triangular with a positive
    diagonal."""
    q, r = np.linalg.qr(gen)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, signs[:, None] * r


def relevant_vectors(r_mat: np.ndarray) -> np.ndarray:
    """Integer coordinates of the Voronoi-relevant vectors, shape (k, n).

    Coset-of-2L method (Agrell, Eriksson, Vardy and Zeger, "Closest point
    search in lattices", IEEE Trans. IT 2002): a relevant vector is, up to
    sign, the unique shortest vector of its coset of L/2L. The shortest
    vector of the coset ``s + 2Z^n`` is ``s - 2u`` for ``u`` closest to
    ``s / 2``; a candidate ``v`` is kept only if ``|<v, r>| < |r|^2`` for
    every other candidate ``r``. Both signs of each kept vector are returned.
    Coordinates do not change when the lattice is scaled.

    The keep test's band, ``1e-9 |r|^2``, holds because ``lattices`` refuses
    a base whose condition number exceeds 1e4 before it gets here. Every
    candidate is a nonzero lattice vector at most twice the covering radius
    long, so its squared norm lies between sigma_min^2 and n sigma_max^2 (the
    extreme singular values of G). Any two squared norms compared here then
    differ by a factor of at most n 1e8 <= 8e8, below 1e9, and the band stays
    below the smaller of them. On a base past that bound the band can
    swallow ``|r|^2 - <v, r>`` and drop a relevant vector.
    """
    r_mat = np.ascontiguousarray(r_mat, dtype=np.float64)
    n = r_mat.shape[0]
    cosets = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1
    half = 0.5 * cosets @ r_mat.T
    cand = cosets - 2 * np.array([closest_coords(r_mat, row) for row in half], dtype=np.int64)
    gram = r_mat.T @ r_mat
    inner = np.abs(cand @ gram @ cand.T)
    norms = np.diag(inner).copy()
    np.fill_diagonal(inner, -np.inf)
    keep = np.all(inner < norms * (1.0 - _TIE_TOL), axis=1)
    return np.concatenate([cand[keep], -cand[keep]])


def slicer_lift(r_mat: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """The slicer's set-up for one lattice, shape (k, n + 1): row j is the
    step ``v = R @ relevant[j]`` followed by ``-|v|^2 / 2``, so that
    ``lift @ [e; 1]`` is half the gain ``<e, v> - |v|^2 / 2`` of moving a
    residual e by each step. It depends on R alone, so a caller that searches
    one lattice many times computes it once (``lattices`` keeps it in the
    lattice's search context)."""
    r_mat = np.ascontiguousarray(r_mat, dtype=np.float64)
    steps = relevant @ r_mat.T
    lift = np.empty((steps.shape[0], steps.shape[1] + 1))
    lift[:, :-1] = steps
    np.einsum("ij,ij->i", steps, steps, out=lift[:, -1])
    lift[:, -1] *= -0.5
    return lift


def nearest_point_batch(r_mat: np.ndarray, targets: np.ndarray,
                        relevant=None, lift=None) -> np.ndarray:
    """Integer coordinates of the closest lattice points, row per target,
    held as float64.

    ``r_mat`` is the R of ``qr_factor`` and ``targets`` the already rotated
    query points (``Q.T @ x`` rows, in any memory layout). ``relevant``
    holds the lattice's ``relevant_vectors(r_mat)`` and ``lift`` its
    ``slicer_lift(r_mat, relevant)``; each is computed when it is omitted. Every row is searched
    on its own, so stacked targets give the rows of separate calls. Ties on
    Voronoi boundaries resolve to the lexicographically smallest integer
    coordinate vector, as ``closest_coords`` resolves them.

    The result has shape (rows, n) and is the transpose of the float64
    (n, rows) array the search runs in, not a copy: integers, exact in
    float64, which a caller multiplies by G as they stand. Babai's
    coordinates must be finite and below 2^53 in magnitude, where float64
    holds every integer, or ``CoordinateOutOfRange`` is raised. Such
    targets may overflow on the way, so a caller that can meet them ignores
    float errors around the call, as ``lattices`` does.
    """
    targets = np.asarray(targets, dtype=np.float64)
    r_mat = np.ascontiguousarray(r_mat, dtype=np.float64)
    out = np.empty(targets.shape[::-1])
    if relevant is None:
        relevant = relevant_vectors(r_mat)
    if lift is None:
        lift = slicer_lift(r_mat, relevant)
    steps = lift[:, :-1]
    relevant = np.asarray(relevant, dtype=np.float64)  # the coordinates' steps, in their type
    ties = [start + _slice(r_mat, np.ascontiguousarray(targets[start:start + BLOCK_ROWS].T),
                           relevant, steps, lift, out[:, start:start + BLOCK_ROWS])
            for start in range(0, targets.shape[0], BLOCK_ROWS)]
    ties = ties[0] if len(ties) == 1 else np.concatenate([np.zeros(0, dtype=np.intp), *ties])
    out = out.T
    if ties.size:
        # Search around the slicer's point, so the scalar search's tie
        # tolerance scales with the residual, not with the target: a point
        # and its translates by lattice vectors then see the same ties.
        base = out[ties]
        resid = targets[ties] - base @ r_mat.T
        out[ties] = base + np.array([closest_coords(r_mat, row) for row in resid])
    return out


def _slice(r_mat, y, relevant, steps, lift, coords):
    """Slicer on one block of targets held column-major, ``y`` of shape
    (n, m); writes their coordinates into ``coords``, an (n, m) float64
    array, and returns the indices of the targets left for the scalar
    search."""
    n, m = y.shape
    # Babai's nearest-plane point, rounded as the scalar search rounds, each
    # coordinate row computed in place.
    for i in range(n - 1, -1, -1):
        c = coords[i]
        if i == n - 1:
            np.divide(y[i], r_mat[i, i], out=c)
        else:
            np.matmul(r_mat[i, i + 1:], coords[i + 1:], out=c)
            np.subtract(y[i], c, out=c)
            c /= r_mat[i, i]
        c += 0.5
        np.floor(c, out=c)
    # A target far beyond the lattice's scale leaves coordinates that float64
    # cannot step by one, and the slicer would loop on them. Their sum of
    # squares is at least each square, so below 2^106 no coordinate reaches
    # 2^53; only a larger (or NaN) sum pays for the exact test.
    if not np.vdot(coords, coords) < _EXACT * _EXACT and not np.abs(coords).max() < _EXACT:
        raise CoordinateOutOfRange(
            "target too far from the origin: a closest-point coordinate is not finite "
            "or reaches 2^53, beyond float64's exact integers")
    resid = np.empty((n + 1, m))
    resid[n] = 1.0
    np.subtract(y, r_mat @ coords, out=resid[:n])
    # Half the tie tolerance, as the gains are halved. |y|^2 is one sum over
    # axis 0, which numpy takes row by row in order, as (y * y) summed per
    # target would be, so every bit is that of the sequential sum.
    tol = np.square(y).sum(axis=0)
    np.maximum(tol, 1.0, out=tol)
    tol *= 0.5 * _TIE_TOL
    cols = np.arange(m)
    tied = []
    while True:
        gains = lift @ resid
        top = gains.max(axis=0)
        at = (np.abs(top) <= tol).nonzero()[0]
        if at.size:
            tied.append(_one_facet(gains[:, at], top[at], tol[at], resid[:n, at], coords,
                                   cols[at], relevant))
        move = (top > tol).nonzero()[0]
        if not move.size:
            return tied[0] if len(tied) == 1 else np.concatenate(tied or [cols[:0]])
        cols, resid, tol = cols[move], resid[:, move], tol[move]
        best = (resid.T @ lift.T).argmax(axis=1)
        coords.T[cols] += relevant[best]
        resid[:n] -= steps[best].T


def _one_facet(gains, top, tol, resid, coords, rows, relevant):
    """Settle the tied targets ``rows`` (columns of the half ``gains`` and
    the residuals ``resid``, best half gain ``top``, half band ``tol``) whose
    band holds one relevant gain, as ``closest_coords`` would settle them
    around the slicer's point (see the module docstring), and step their
    ``coords``; returns the rows left for the scalar search."""
    one = (gains >= -tol).sum(axis=0) == 1
    scalar = np.einsum("ij,ij->j", resid, resid)
    np.maximum(scalar, 1.0, out=scalar)
    scalar *= _SCALAR_TIE_TOL
    gap = 2.0 * np.abs(top)  # the squared-distance gap between c and c + r_j
    lex = one & (gap <= 0.5 * scalar)
    closer = one & (gap >= 2.0 * scalar)
    r = relevant[gains.argmax(axis=0)]
    negative = r[np.arange(len(r)), (r != 0).argmax(axis=1)] < 0
    step = (lex & negative) | (closer & (top > 0))
    coords.T[rows[step]] += r[step]
    return rows[~(lex | closer)]


def closest_coords(r_mat: np.ndarray, y: np.ndarray) -> list:
    """Integer coordinates of the lattice point closest to one rotated target
    ``y``, by Schnorr-Euchner enumeration; the reference for the answer, ties
    included. Ties resolve to the lexicographically smallest coordinates."""
    n = len(y)
    u = [0] * n          # current integer coordinate at each level
    step = [0] * n       # next zig-zag increment
    b = [0.0] * n        # y[i] - sum_{j>i} R[i,j] u[j]
    dist = [0.0] * n     # cost accumulated strictly above level i
    best, best_u = math.inf, None
    tol = _SCALAR_TIE_TOL * max(1.0, float(y @ y))

    i = n - 1
    b[i] = y[i]
    _enter(u, step, b, r_mat, i)
    while True:
        e = b[i] - r_mat[i, i] * u[i]
        d = dist[i] + e * e
        if d <= best + tol:
            if i == 0:
                if best_u is None or d < best - tol or u < best_u:
                    best, best_u = min(best, d), u[:]
                _advance(u, step, i)
            else:
                i -= 1
                dist[i] = d
                acc = y[i]
                for j in range(i + 1, n):
                    acc -= r_mat[i, j] * u[j]
                b[i] = acc
                _enter(u, step, b, r_mat, i)
        else:
            i += 1
            if i == n:
                return best_u
            _advance(u, step, i)


def _enter(u, step, b, r_mat, i):
    c = b[i] / r_mat[i, i]
    ui = int(np.floor(c + 0.5))
    u[i] = ui
    step[i] = 1 if c - ui >= 0 else -1


def _advance(u, step, i):
    u[i] += step[i]
    s = step[i]
    step[i] = -s - (1 if s > 0 else -1)


def available_backends():
    """Names of the kernel backends: there is one."""
    return [BACKEND]
