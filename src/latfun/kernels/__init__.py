"""Closest-point search: the vectorized slicer and its scalar tie search.

``nearest_point_batch`` runs a numpy *iterative slicer* (Sommer, Feder and
Shalvi, "Finding the closest lattice point by iterative slicing", SIAM J.
Discrete Math. 2009): each row starts at Babai's nearest-plane point and
repeatedly adds the Voronoi-relevant vector that brings it closest to its
target, until no relevant vector helps. Rows that end on a Voronoi boundary
(a tie within tolerance) go to the scalar Schnorr-Euchner search of
``_sphere_py``, which is the reference for ties, so the slicer returns its
integer coordinates, ties included.
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
    half_sq = 0.5 * np.einsum("ij,ij->i", steps, steps)
    ties = [np.zeros(0, dtype=np.intp)]
    for start in range(0, targets.shape[0], BLOCK_ROWS):
        block = targets[start:start + BLOCK_ROWS]
        coords, tied = _slice(r_mat, block, relevant, steps, half_sq)
        out[start:start + BLOCK_ROWS] = coords
        ties.append(start + tied)
    ties = np.concatenate(ties)
    if ties.size:
        tied_out = np.zeros((ties.size, targets.shape[1]), dtype=np.longlong)
        _sphere_py.nearest_point_batch(r_mat, targets[ties], tied_out)
        out[ties] = tied_out
    return out.astype(np.int64, copy=False)


def _slice(r_mat, y, relevant, steps, half_sq):
    """Slicer on one block: (coords, indices of rows left on a tie)."""
    m, n = y.shape
    # Babai's nearest-plane point, rounded as the scalar search rounds.
    u = np.zeros((m, n))
    for i in range(n - 1, -1, -1):
        c = (y[:, i] - u[:, i + 1:] @ r_mat[i, i + 1:]) / r_mat[i, i]
        u[:, i] = np.floor(c + 0.5)
    coords = u.astype(np.int64)
    resid = y - u @ r_mat.T
    # Half the tie tolerance, as the gains below are halved.
    tol = 0.5 * _TIE_TOL * np.maximum(1.0, np.einsum("ij,ij->i", y, y))
    rows = np.arange(m)
    tied = [rows[:0]]
    while rows.size:
        # Half the gain of moving by step v, (|e|^2 - |e - v|^2) / 2.
        gain = resid[rows] @ steps.T
        gain -= half_sq
        best = np.argmax(gain, axis=1)
        top = gain[np.arange(rows.size), best]
        move = top > tol[rows]
        tied.append(rows[~move & (top >= -tol[rows])])
        rows, best = rows[move], best[move]
        coords[rows] += relevant[best]
        resid[rows] -= steps[best]
    return coords, np.concatenate(tied)


def available_backends():
    """Names of the kernel backends: there is one."""
    return [BACKEND]
