"""Pure-Python closest-point search (Schnorr-Euchner enumeration), one row
at a time.

This scalar search defines the answer, ties included: the compiled module
``_sphere_cy`` mirrors it statement for statement, and the numpy slicer in
``kernels`` returns the same coordinates. Without the compiled kernel it runs
only where the slicer needs it: on rows the slicer leaves on a Voronoi
boundary, and to find each lattice's relevant vectors.
"""

import numpy as np

BACKEND = "python"


def nearest_point_batch(r_mat, targets, out):
    """Fill ``out`` with integer coordinates of the closest lattice points.

    Parameters
    ----------
    r_mat : (n, n) float64 array
        Upper-triangular factor of the generator (positive diagonal), so the
        lattice is ``{r_mat @ u : u integer}`` after rotating targets by Q^T.
    targets : (m, n) float64 array
        Rotated query points, one per row.
    out : (m, n) int64 array
        Output buffer for the integer coordinates.

    Ties on Voronoi boundaries resolve to the lexicographically smallest
    integer coordinate vector.
    """
    m, n = targets.shape
    for row in range(m):
        _closest(r_mat, targets[row], out[row], n)
    return out


def _closest(R, y, best_u, n):
    u = [0] * n          # current integer coordinate at each level
    step = [0] * n       # next zig-zag increment
    b = [0.0] * n        # y[i] - sum_{j>i} R[i,j] u[j]
    dist = [0.0] * n     # cost accumulated strictly above level i

    best = np.inf
    have_best = False
    tol = 1e-12 * max(1.0, float(y @ y))

    i = n - 1
    b[i] = y[i]
    dist[i] = 0.0
    _enter(u, step, b, R, i)
    while True:
        e = b[i] - R[i, i] * u[i]
        d = dist[i] + e * e
        if d <= best + tol:
            if i == 0:
                if not have_best or d < best - tol or _lex_less(u, best_u, n):
                    best = d if not have_best else min(best, d)
                    for k in range(n):
                        best_u[k] = u[k]
                    have_best = True
                _advance(u, step, i)
            else:
                i -= 1
                dist[i] = d
                acc = y[i]
                for j in range(i + 1, n):
                    acc -= R[i, j] * u[j]
                b[i] = acc
                _enter(u, step, b, R, i)
        else:
            i += 1
            if i == n:
                return
            _advance(u, step, i)


def _enter(u, step, b, R, i):
    c = b[i] / R[i, i]
    ui = int(np.floor(c + 0.5))
    u[i] = ui
    step[i] = 1 if c - ui >= 0 else -1


def _advance(u, step, i):
    u[i] += step[i]
    s = step[i]
    step[i] = -s - (1 if s > 0 else -1)


def _lex_less(u, v, n):
    for k in range(n):
        if u[k] != v[k]:
            return u[k] < v[k]
    return False
