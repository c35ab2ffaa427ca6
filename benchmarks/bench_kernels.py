"""Benchmark: the public closest-point path against the scalar backends.

The closest-point search dominates Monte Carlo runs on non-diagonal lattices
(dither sampling, moment estimation, block quantization). This times the
public ``kernels.nearest_point_batch`` (the numpy slicer, or the compiled
kernel when it is built) beside the scalar pure-Python search and, where
built, the compiled kernel, on batches of increasing dimension. The public
path is timed twice: with the lattice's relevant vectors precomputed, as
``lattices`` calls it, and without, which adds their computation to the call.

Usage: python benchmarks/bench_kernels.py [--batch 20000] [--repeats 3]
"""

import argparse
import time

import numpy as np

from latfun import kernels
from latfun.kernels import _sphere_py, available_backends


def _prepare(gen, rng, batch):
    q, r = np.linalg.qr(gen)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    r = np.ascontiguousarray(s[:, None] * r)
    q = q * s[None, :]
    x = rng.normal(scale=2.0, size=(batch, gen.shape[0])) @ gen.T
    y = np.ascontiguousarray(x @ q)
    return r, y


def _time(run, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _scalar(impl, r, y):
    def run():
        out = np.zeros(y.shape, dtype=np.longlong)
        impl.nearest_point_batch(r, y, out)
        return out

    return run


def _conditioned(rng, n):
    while True:
        g = rng.normal(size=(n, n))
        if np.linalg.cond(g) < 6.0:
            return g


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = available_backends()
    print(f"available backends: {backends}; public path backend: {kernels.BACKEND}")
    if "cython" in backends:
        from latfun.kernels import _sphere_cy
    else:
        _sphere_cy = None
        print("compiled kernel not built; its column is empty\n")

    rng = np.random.default_rng(7)
    cases = [
        ("hexagonal n=2", np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])),
        ("random n=4", _conditioned(rng, 4)),
        ("random n=6", _conditioned(rng, 6)),
        ("random n=8", _conditioned(rng, 8)),
    ]

    header = (f"{'case':<16}{'batch':>8}{'public':>11}{'+relevant':>11}"
              f"{'scalar py':>11}{'cython':>11}{'py/public':>11}")
    print(header)
    print("-" * len(header))
    for name, gen in cases:
        r, y = _prepare(gen, rng, args.batch)
        relevant = kernels.relevant_vectors(r)
        t_pub, out_pub = _time(lambda: kernels.nearest_point_batch(r, y, relevant), args.repeats)
        t_cold, _ = _time(lambda: kernels.nearest_point_batch(r, y), args.repeats)
        t_py, out_py = _time(_scalar(_sphere_py, r, y), args.repeats)
        assert np.array_equal(out_pub, out_py), "public path and scalar search disagree"
        cy = "-"
        if _sphere_cy is not None:
            t_cy, out_cy = _time(_scalar(_sphere_cy, r, y), args.repeats)
            assert np.array_equal(out_py, out_cy), "backend outputs disagree"
            cy = f"{t_cy:.4f}s"
        print(f"{name:<16}{args.batch:>8}{t_pub:>10.4f}s{t_cold:>10.4f}s"
              f"{t_py:>10.3f}s{cy:>11}{t_py / t_pub:>10.0f}x")


if __name__ == "__main__":
    main()
