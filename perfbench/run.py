#!/usr/bin/env python3
"""latfun benchmark: one workload per run, every op checked against pinned references.

Run from the repository root:

    python3 perfbench/run.py --workload mc_two_user_z1 --seed 0 --seconds 10 --trace 0

Each run builds the package in place (``setup.py build_ext --inplace``; the
compiled kernel is built only where Cython is installed, exactly as for
``pip install``), then imports ``latfun`` from ``src/`` of this checkout.
One caller runs ops in a closed loop: the next op starts when the previous
one returns, with ``LATFUN_THREADS=1`` and the BLAS thread pools at one
thread, so a run uses one core.

``--trace 0`` measures the end-to-end metrics with no tracing:

* ``setup_s``: median over fresh processes of the time from process start
  to the first op being ready (``import latfun`` and the workload's
  models, codecs and, for ``mc_sphere_a2_d4``, moment estimates);
* ``work_per_s``: work done (trials; ``(rho, c, D)`` cells for the sweep)
  per second spent inside ops;
* ``op_p50_s`` and ``op_tail_s``: median op time and the workload's fixed
  tail percentile, lowered if fewer than ten ops lie beyond it;
* ``peak_rss_mb``: peak resident memory of the measuring process.

Every op and every set-up is timed between two passes of a fixed reference
loop (``refloop.py``), and its time is reported in seconds at the speed
where that loop takes ``refloop.REF_S``, so that drift in the speed a
shared host gives the process cancels. Wall times are printed beside the
scaled ones and kept in the record.

``--trace 1`` reports the per-layer metrics listed in ``tracing.METRICS``:
it traces set-up and a fixed number of ops, times the same ops untraced at
``LATFUN_THREADS`` 1 and 2 and, for the tracing overhead, untraced beside
the reference loop, and runs the kernel probe.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` counts checked items: every op, the set-up and, in a traced
run, the kernel probe and the span check; ``failed / attempted`` is the
failed fraction. The full record, with provenance, is written to
``perfbench/out/results/`` and the spans to ``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3      # fresh processes timed per run; setup_s is their median
SETUP_REF_PASSES = 10  # reference-loop passes before, between and after the set-ups
CHILD_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840
SETUP_SPAN, OP_SPAN = "bench.setup", "bench.op"
SELF_SUM_TOL = 1e-9
# One core per run: latfun's own pool and numpy's BLAS threads at 1.
THREAD_ENV = {"LATFUN_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "work_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--refs", type=Path, default=HERE / "refs",
                   help="directory of pinned references (default: perfbench/refs)")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def import_latfun():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import latfun
    import latfun.cli  # the sweep workload and the tracer use it
    return latfun, time.perf_counter() - t0


def setup_child(args):
    """Fresh-process set-up: import, build the workload, report, exit."""
    lf, import_s = import_latfun()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    WORKLOADS[args.workload](lf, args.seed)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def build():
    """Build the package in place, as an install from source would."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(Path(".bench_build") / "py")],
        cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


def time_setups(args):
    """Set-up times of fresh processes, scaled to the reference speed, their
    wall times, and their import times."""
    import refloop

    def loop_passes():
        return [refloop.reference_s() for _ in range(SETUP_REF_PASSES)]

    walls, import_s = [], []
    refloop.warm()
    loops = loop_passes()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-child"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or not line:
            raise RuntimeError(f"set-up process exited with code {code}")
        loops += loop_passes()
        walls.append(elapsed)
        import_s.append(json.loads(line)["import_s"])
    return refloop.scale_by_median(walls, loops), walls, import_s


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest():
    """SHA-256 over the package sources, so results name the code without git."""
    h = hashlib.sha256()
    pkg = SRC / "latfun"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(lf, wl, args):
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "latfun_version": lf.__version__,
        "kernel_backend": lf.KERNEL_BACKEND,
        "available_backends": lf.kernels.available_backends(),
        "pure_python_forced": os.environ.get("LATFUN_PURE_PYTHON", "") == "1",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
        "chunk_size": lf.simulate.DEFAULT_CHUNK,
        "setup_samples": SETUP_SAMPLES,
        **wl.provenance(),
    }


def run_op(wl, refs, i, failures, tracer=None, op_id=0):
    """One op, timed (traced when a tracer is given) and checked.

    Returns (seconds, whether the op returned).
    """
    if tracer is not None:
        close = tracer.root(OP_SPAN, op_id)
    else:
        t0 = time.perf_counter()

        def close():
            return time.perf_counter() - t0

    try:
        key, record = wl.op(i)
    except Exception:
        dt = close()
        failures.append(f"op {i} raised:\n{traceback.format_exc()}")
        return dt, False
    dt = close()
    want = refs.get(key)
    bad = [f"no pinned reference for input {key}"] if want is None else wl.diff(record, want)
    if bad:
        failures.append(f"op {i} (input {key}): " + "; ".join(bad[:3]))
    return dt, True


def tail(times, level):
    """Op time at ``level``, lowered so at least ten ops lie beyond it.

    Returns (seconds, percentile used).
    """
    s = sorted(times)
    n = len(s)
    k = min(math.ceil(level * n) - 1, n - 11) if n > 10 else n - 1
    return s[k], 100.0 * (k + 1) / n


def load_refs(args, name):
    with open(args.refs / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def timed_ops(wl, refs, failures, ops, stop=math.inf, tracer=None):
    """Run the ops with input indices ``ops`` one after another until
    ``stop``, timing the reference loop before the first op and after each.

    Returns (scaled op times, wall op times, loop times, ops completed).
    """
    import refloop

    walls, loops, done = [], [refloop.warm()], 0
    for i in ops:
        if time.perf_counter() >= stop:
            break
        dt, completed = run_op(wl, refs, i, failures, tracer, i + 1)
        loops.append(refloop.reference_s())
        walls.append(dt)
        done += completed
    return refloop.scale_all(walls, loops), walls, loops, done


def measure(wl, refs, args, failures):
    """--trace 0: closed loop for --seconds; returns (metrics, details, attempted)."""
    import refloop

    run_op(wl, refs, 0, failures)  # warm-up, checked, not timed
    times, walls, loops, done = timed_ops(
        wl, refs, failures, itertools.count(1), time.perf_counter() + args.seconds)
    tail_s, pct = tail(times, wl.tail_level)
    metrics = {
        "work_per_s": wl.work * done / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
    }
    details = {"ops": len(times), "warmup_ops": 1, "tail_percentile": pct,
               "work_unit": wl.work_unit, "work_per_op": wl.work, "op_times_s": times,
               "op_wall_times_s": walls, "reference_loop_s": loops,
               "reference_s": refloop.REF_S}
    print(f"{wl.name} seed={args.seed}: {len(times)} timed ops (+1 warm-up); times are "
          f"scaled to a {refloop.REF_S * 1e3:g} ms reference loop "
          f"(median here {statistics.median(loops) * 1e3:.4g} ms)")
    print(f"  {wl.work_unit}_per_s {metrics['work_per_s']:.6g} 1/s "
          f"(wall {wl.work * done / sum(walls):.6g})")
    print(f"  op_p50_s {metrics['op_p50_s']:.6g} s (wall {statistics.median(walls):.6g})")
    print(f"  op_tail_s {tail_s:.6g} s (p{pct:.1f} of {len(times)} ops; "
          f"wall {tail(walls, wl.tail_level)[0]:.6g})")
    return metrics, details, len(times) + 1


def measure_traced(lf, wl, tracer, refs, args, failures, import_s):
    """--trace 1: untraced ops at 1 and 2 threads, the traced ops, the probe;
    returns (metrics, details, attempted)."""
    import probe
    import tracing

    run_op(wl, refs, 0, failures)  # warm-up
    # Each input runs at 1 and then 2 threads, from the same inputs the
    # traced phase starts with, so both comparisons are like for like.
    by_threads = {"1": [], "2": []}
    i = 0
    stop = time.perf_counter() + args.seconds / 2
    while time.perf_counter() < stop:
        for threads, times in by_threads.items():
            os.environ["LATFUN_THREADS"] = threads
            times.append(run_op(wl, refs, i, failures)[0])
        i += 1
    os.environ["LATFUN_THREADS"] = "1"
    # The overhead compares traced ops with untraced ones run at another
    # time, so both sides are scaled by the reference loop.
    untraced = timed_ops(wl, refs, failures, range(wl.traced_ops))[0]
    tracer.install()
    try:
        traced = timed_ops(wl, refs, failures, range(wl.traced_ops), tracer=tracer)[0]
    finally:
        tracer.uninstall()
    with open(args.refs / "kernel_probe.json", encoding="utf-8") as fh:
        pinned = json.load(fh)["digests"]
    rates, bad = probe.run(lf, pinned)
    if bad:
        failures.append("; ".join(bad))

    own = tracer.self_times()
    gap = tracer.self_sum_error(own)
    if gap > SELF_SUM_TOL:
        failures.append(f"span self times differ from op wall time by {gap:.3g} (relative)")
    layer = tracer.metrics(own, OP_SPAN)
    for n, rate in rates.items():
        layer[f"kernels.rows_per_s.n{n}"] = rate
    t1 = statistics.median(by_threads["1"])
    layer["simulate.threads2_speedup"] = t1 / statistics.median(by_threads["2"])
    layer["cli.import_s"] = statistics.median(import_s)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = {name: layer[name] for name in tracing.METRICS}
    details = {"traced_ops": len(traced), "untraced_ops": {k: len(v) for k, v in by_threads.items()},
               "self_sum_rel_error": gap, "spans": len(tracer.spans)}
    print(f"{wl.name} seed={args.seed}: traced {len(traced)} ops, {len(tracer.spans)} spans")
    for name in ("kernels.op_share", "regions.bt_numeric.op_share", "trace.overhead_frac"):
        print(f"  {name} {metrics[name]:.4g}")
    attempted = 1 + sum(map(len, by_threads.values())) + len(untraced) + len(traced) + 2
    return metrics, details, attempted


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    if not (SRC / "latfun" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        sys.stderr.write(f"no latfun sources under {ROOT}; run from a repository checkout\n")
        return 2
    if args.setup_child:
        return setup_child(args)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    if not build():
        sys.stderr.write("build failed\n")
        return 1
    try:
        setup_times, setup_walls, import_times = time_setups(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    lf, _ = import_latfun()
    refs = load_refs(args, args.workload)
    failures = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer(lf)
        tracer.install()
        close = tracer.root(SETUP_SPAN, 0)
        try:
            wl = WORKLOADS[args.workload](lf, args.seed)
        finally:
            close()
            tracer.uninstall()
    else:
        wl = WORKLOADS[args.workload](lf, args.seed)
    bad = wl.setup_failures()
    if bad:
        failures.append("set-up: " + "; ".join(bad))

    if args.trace:
        metrics, details, attempted = measure_traced(
            lf, wl, tracer, refs, args, failures, import_times)
        units = tracing.METRICS
        tracer.dump(OUT / "spans" / f"{wl.name}-seed{args.seed}.json",
                    {"workload": wl.name, "seed": args.seed})
    else:
        metrics, details, attempted = measure(wl, refs, args, failures)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(setup_times)
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.6g} MB")
        print(f"  setup_s {metrics['setup_s']:.6g} s (median of {SETUP_SAMPLES} processes; "
              f"wall {statistics.median(setup_walls):.6g})")
        units = END_TO_END
    attempted += 1  # the set-up check
    failed = len(failures)
    print(f"  failed {failed} of {attempted}, failed_frac {failed / attempted:.6g}")
    for msg in failures[:10]:
        sys.stderr.write(msg + "\n")

    prov = provenance(lf, wl, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, provenance=prov, setup_s_samples=setup_times,
                  setup_wall_s_samples=setup_walls, import_s_samples=import_times,
                  failures=failures, **details)
    path = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
