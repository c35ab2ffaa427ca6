"""Closest-point kernel probe: rows per second at n = 2, 4, 6 and 8.

The cases are those of ``benchmarks/bench_kernels.py``: the hexagonal
lattice and conditioned random generators at n = 4, 6, 8, drawn in that
order from ``default_rng(7)``. Rows go through the public
``kernels.nearest_point_batch``. The probe reports the median of a few
repeats, checks the coordinates against a pinned digest, and, when the
compiled backend also imports, checks that both backends agree.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

BATCH = 2048
REPEATS = 3


def _conditioned(rng, n):
    while True:
        g = rng.normal(size=(n, n))
        if np.linalg.cond(g) < 6.0:
            return g


def _prepare(gen, rng, batch):
    q, r = np.linalg.qr(gen)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    r = np.ascontiguousarray(s[:, None] * r)
    q = q * s[None, :]
    x = rng.normal(scale=2.0, size=(batch, gen.shape[0])) @ gen.T
    return r, np.ascontiguousarray(x @ q)


def cases():
    """(n, R, rotated targets) per case, exactly reproducible."""
    rng = np.random.default_rng(7)
    gens = [
        np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]),
        _conditioned(rng, 4),
        _conditioned(rng, 6),
        _conditioned(rng, 8),
    ]
    return [(g.shape[0],) + _prepare(g, rng, BATCH) for g in gens]


def digest(coords) -> str:
    return hashlib.sha256(np.ascontiguousarray(coords, dtype=np.int64).tobytes()).hexdigest()


def run(lf, pinned):
    """Returns ({n: rows/s}, [failures])."""
    kernels = lf.kernels
    both = "cython" in kernels.available_backends()
    if both:
        from latfun.kernels import _sphere_cy, _sphere_py
    rates, failures = {}, []
    for n, r, y in cases():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            coords = kernels.nearest_point_batch(r, y)
            times.append(time.perf_counter() - t0)
        rates[n] = BATCH / statistics.median(times)
        if digest(coords) != pinned.get(str(n)):
            failures.append(f"kernel probe n={n}: coordinates differ from the pinned digest")
        if both:
            out_py = np.zeros(y.shape, dtype=np.longlong)
            out_cy = np.zeros(y.shape, dtype=np.longlong)
            _sphere_py.nearest_point_batch(r, y, out_py)
            _sphere_cy.nearest_point_batch(r, y, out_cy)
            if not np.array_equal(out_py, out_cy):
                failures.append(f"kernel probe n={n}: backend outputs disagree")
    return rates, failures
