"""Closest-point search: the vectorized slicer and its scalar tie search.

``nearest_point_batch`` runs a numpy *iterative slicer* (Sommer, Feder and
Shalvi, "Finding the closest lattice point by iterative slicing", SIAM J.
Discrete Math. 2009): each row starts at Babai's nearest-plane point and
repeatedly adds the Voronoi-relevant vector that brings it closest to its
target, until no relevant vector helps. Rows that end on a Voronoi boundary
(a tie within tolerance) go to the scalar Schnorr-Euchner search of
``_sphere_py``, which is the reference for ties, so the slicer returns its
integer coordinates, ties included.

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
``(k, m)`` gains when ``k`` reaches the hundreds (n = 8).
"""

import numpy as np

from . import _sphere_py

BACKEND = "python"

# Rows per slicer block: bounds the (rows x relevant vectors) gain matrix.
BLOCK_ROWS = 2048
# Relative tolerance for ties, both in the slicer's gains (scaled by
# max(1, |target|^2), like the scalar search's) and in the relevance test.
_TIE_TOL = 1e-9


def relevant_vectors(r_mat: np.ndarray) -> np.ndarray:
    """Integer coordinates of the Voronoi-relevant vectors, shape (k, n).

    Coset-of-2L method (Agrell, Eriksson, Vardy and Zeger, "Closest point
    search in lattices", IEEE Trans. IT 2002): a relevant vector is, up to
    sign, the unique shortest vector of its coset of L/2L. The shortest
    vector of the coset ``s + 2Z^n`` is ``s - 2u`` for ``u`` closest to
    ``s / 2``; a candidate ``v`` is kept only if ``|<v, r>| < |r|^2`` for
    every other candidate ``r``. Both signs of each kept vector are returned.
    Coordinates do not change when the lattice is scaled.
    """
    r_mat = np.ascontiguousarray(r_mat, dtype=np.float64)
    n = r_mat.shape[0]
    cosets = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1
    half = np.ascontiguousarray(0.5 * cosets @ r_mat.T)
    u = np.zeros(half.shape, dtype=np.longlong)
    _sphere_py.nearest_point_batch(r_mat, half, u)
    cand = cosets - 2 * u.astype(np.int64)
    gram = r_mat.T @ r_mat
    inner = np.abs(cand @ gram @ cand.T)
    norms = np.diag(inner).copy()
    np.fill_diagonal(inner, -np.inf)
    keep = np.all(inner < norms * (1.0 - _TIE_TOL), axis=1)
    return np.concatenate([cand[keep], -cand[keep]])


def nearest_point_batch(r_mat: np.ndarray, targets: np.ndarray,
                        relevant=None) -> np.ndarray:
    """Integer coordinates of the closest lattice points, row per target.

    ``r_mat`` is the upper-triangular generator factor with positive diagonal
    and ``targets`` the already rotated query points (``Q.T @ x`` rows).
    ``relevant`` holds the lattice's ``relevant_vectors(r_mat)``; they are
    computed when it is omitted.
    Ties on Voronoi boundaries resolve to the lexicographically smallest
    integer coordinate vector.
    """
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    r_mat = np.ascontiguousarray(r_mat, dtype=np.float64)
    out = np.zeros(targets.shape, dtype=np.longlong)
    if relevant is None:
        relevant = relevant_vectors(r_mat)
    steps = relevant @ r_mat.T
    # Half the gain of moving by step v is <e, v> - |v|^2 / 2 = lift @ [e; 1].
    lift = np.empty((steps.shape[0], steps.shape[1] + 1))
    lift[:, :-1] = steps
    np.einsum("ij,ij->i", steps, steps, out=lift[:, -1])
    lift[:, -1] *= -0.5
    ties = [np.zeros(0, dtype=np.intp)]
    for start in range(0, targets.shape[0], BLOCK_ROWS):
        block = targets[start:start + BLOCK_ROWS]
        coords, tied = _slice(r_mat, np.ascontiguousarray(block.T), relevant, steps, lift)
        out[start:start + BLOCK_ROWS] = coords
        ties.append(start + tied)
    ties = np.concatenate(ties)
    if ties.size:
        tied_out = np.zeros((ties.size, targets.shape[1]), dtype=np.longlong)
        _sphere_py.nearest_point_batch(r_mat, targets[ties], tied_out)
        out[ties] = tied_out
    return out.astype(np.int64, copy=False)


def _slice(r_mat, y, relevant, steps, lift):
    """Slicer on one block of targets held column-major, ``y`` of shape
    (n, m): (coords (m, n), indices of the targets left on a tie)."""
    n, m = y.shape
    # Babai's nearest-plane point, rounded as the scalar search rounds.
    u = np.empty((n, m))
    for i in range(n - 1, -1, -1):
        c = y[i] - r_mat[i, i + 1:] @ u[i + 1:]
        c /= r_mat[i, i]
        c += 0.5
        np.floor(c, out=u[i])
    coords = u.T.astype(np.int64, order="C")
    resid = np.empty((n + 1, m))
    resid[n] = 1.0
    np.subtract(y, r_mat @ u, out=resid[:n])
    # Half the tie tolerance, as the gains are halved.
    tol = (y * y).sum(axis=0)
    np.maximum(tol, 1.0, out=tol)
    tol *= 0.5 * _TIE_TOL
    cols = np.arange(m)
    tied = []
    while True:
        top = (lift @ resid).max(axis=0)
        tied.append(cols[np.abs(top) <= tol])
        move = (top > tol).nonzero()[0]
        if not move.size:
            return coords, np.concatenate(tied)
        cols, resid, tol = cols[move], resid[:, move], tol[move]
        best = (resid.T @ lift.T).argmax(axis=1)
        coords[cols] += relevant[best]
        resid[:n] -= steps[best].T


def available_backends():
    """Names of the kernel backends: there is one."""
    return [BACKEND]
