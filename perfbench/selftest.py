#!/usr/bin/env python3
"""Smoke-size self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that:

* a corrupted reference makes a run report failed ops, while a perturbation
  at the level of summation-order noise does not;
* a run with ``LATFUN_PURE_PYTHON=1`` names the python backend as forced;
* traced runs show the predicted zeros (no kernel calls off
  ``mc_sphere_a2_d4``, no Berger-Tung or lattice-region work off
  ``sweep_fig5_grid``) and, on the python backend, the predicted shares;
* a directory holding only the benchmark exits non-zero without a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "selftest"
SMOKE = ["--seed", "0", "--seconds", "1"]
REGIONS = ("regions.bt_numeric.self_s", "regions.bt_closed.self_s", "regions.numeric_evals",
           "regions.lattice_min_sum_rate.self_s", "regions.bt_regime.self_s")

results = []


def check(ok, what):
    results.append(ok)
    print(("PASS " if ok else "FAIL ") + what, flush=True)


def bench(*args, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600, env=dict(os.environ, **(env or {})),
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    prov = next((json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("provenance ")),
                None)
    return proc, result, prov


def perturbed_refs(name, rel):
    """A copy of the references with one statistic of every entry scaled."""
    dest = WORK / f"refs-{rel:g}"
    shutil.copytree(HERE / "refs", dest, dirs_exist_ok=True)
    path = dest / f"{name}.json"
    payload = json.loads(path.read_text())
    for entry in payload["entries"].values():
        entry["empirical_distortion"] *= 1.0 + rel
    path.write_text(json.dumps(payload))
    return dest


def main():
    WORK.mkdir(parents=True, exist_ok=True)
    z1 = "mc_two_user_z1"

    _, res, _ = bench("--workload", z1, *SMOKE, "--trace", "0",
                      "--refs", str(perturbed_refs(z1, 1e-6)))
    check(res is not None and not res["correct"] and res["failed"] / res["attempted"] > 0,
          "a reference corrupted by 1e-6 (relative) raises the failed fraction above 0")
    _, res, _ = bench("--workload", z1, *SMOKE, "--trace", "0",
                      "--refs", str(perturbed_refs(z1, 1e-13)))
    check(res is not None and res["correct"] and res["failed"] == 0,
          "a 1e-13 (relative) change, the size of summation-order noise, passes")

    _, res, prov = bench("--workload", "mc_sphere_a2_d4", *SMOKE, "--trace", "0",
                         env={"LATFUN_PURE_PYTHON": "1"})
    check(res is not None and res["correct"] and prov["kernel_backend"] == "python"
          and prov["pure_python_forced"], "a forced pure-Python run is labelled as such")

    for name in ("mc_two_user_z1", "mc_seq_codecs_z4", "mc_sphere_a2_d4", "sweep_fig5_grid"):
        _, res, prov = bench("--workload", name, *SMOKE, "--trace", "1")
        if res is None:
            check(False, f"{name}: traced run printed a result")
            continue
        m = {k: v["value"] for k, v in res["metrics"].items()}
        check(res["correct"], f"{name}: traced run is correct, span self times sum to op time")
        sphere, sweep = name == "mc_sphere_a2_d4", name == "sweep_fig5_grid"
        check((m["kernels.calls"] > 0) == sphere, f"{name}: kernels.calls = {m['kernels.calls']}")
        check(all((m[k] > 0) == sweep for k in REGIONS),
              f"{name}: {', '.join(REGIONS)} are zero unless sweep")
        if sphere and prov["kernel_backend"] == "python":
            check(m["kernels.op_share"] >= 0.9,
                  f"{name}: kernel self time {m['kernels.op_share']:.3f} of op time (>= 0.9)")
        if sweep:
            check(m["regions.bt_numeric.op_share"] >= 0.8,
                  f"{name}: numeric minimizer {m['regions.bt_numeric.op_share']:.3f} "
                  f"of pass time (>= 0.8)")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, res, _ = bench("--workload", z1, *SMOKE, "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and res is None,
          f"benchmark alone in a directory exits {proc.returncode} without a result")
    shutil.rmtree(bare)

    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
