"""Benchmark: the public closest-point path against the scalar search.

The closest-point search dominates Monte Carlo runs on non-diagonal lattices
(dither sampling, moment estimation, block quantization). This times the
public ``kernels.nearest_point_batch`` (the numpy slicer) beside the scalar
pure-Python search (``kernels.closest_coords``, row by row), on batches of
increasing dimension. The public path is timed twice: with the lattice's
relevant vectors precomputed, as ``lattices`` calls it, and without, which
adds their computation to the call.
``--batch`` takes a comma-separated list of batch sizes. The default covers
the codec's calls (1,024 A2 rows and 256 D4 rows per call), where per-call
overhead sets the cost, and 20,000 rows, where the arithmetic does.

Usage: python benchmarks/bench_kernels.py [--batch 256,1024,20000] [--repeats 3]
"""

import argparse
import time

import numpy as np

from latfun import kernels


def _prepare(gen, rng, batch):
    q, r = kernels.qr_factor(gen)
    x = rng.normal(scale=2.0, size=(batch, gen.shape[0])) @ gen.T
    return r, x @ q


def _time(run, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _scalar(r, y):
    def run():
        return np.array([kernels.closest_coords(r, row) for row in y], dtype=np.int64)

    return run


def _conditioned(rng, n):
    while True:
        g = rng.normal(size=(n, n))
        if np.linalg.cond(g) < 6.0:
            return g


def _batches(text):
    """Comma-separated batch sizes, e.g. ``256,1024``."""
    return [int(part) for part in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=_batches, default=[256, 1024, 20_000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"kernel backend: {kernels.BACKEND}\n")

    rng = np.random.default_rng(7)
    cases = [
        ("hexagonal n=2", np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])),
        ("random n=4", _conditioned(rng, 4)),
        ("random n=6", _conditioned(rng, 6)),
        ("random n=8", _conditioned(rng, 8)),
    ]

    header = (f"{'case':<16}{'batch':>8}{'public':>11}{'+relevant':>11}"
              f"{'scalar py':>11}{'py/public':>11}")
    print(header)
    print("-" * len(header))
    for name, gen in cases:
        r, y_all = _prepare(gen, rng, max(args.batch))
        relevant = kernels.relevant_vectors(r)
        for batch in args.batch:
            y = y_all[:batch]
            t_pub, out_pub = _time(lambda: kernels.nearest_point_batch(r, y, relevant), args.repeats)
            t_cold, _ = _time(lambda: kernels.nearest_point_batch(r, y), args.repeats)
            t_py, out_py = _time(_scalar(r, y), args.repeats)
            if not np.array_equal(out_pub, out_py):
                raise SystemExit(f"{name}, batch {batch}: public path and scalar search disagree")
            print(f"{name:<16}{batch:>8}{t_pub * 1e3:>9.3f}ms{t_cold * 1e3:>9.3f}ms"
                  f"{t_py * 1e3:>9.1f}ms{t_py / t_pub:>10.0f}x")


if __name__ == "__main__":
    main()
