#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` (to
``perfbench/out/results/``) or directories of them; copy the results of
each commit aside before running the other. For every workload and trace
mode present on both sides this prints each metric's median and quartiles
per side and the change of the median, flagged where it is worse than the
metric's bound in ``BENCHMARK.json``. Results measured with a different
kernel backend or core count are not comparable: the script refuses them
and exits with code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = defaultdict(list)
    for f in files:
        rec = json.loads(f.read_text())
        prov = rec["provenance"]
        groups[(prov["workload"], prov["trace"])].append(rec)
    return groups


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    setups = {
        (rec["provenance"]["kernel_backend"], rec["provenance"]["nproc"])
        for side in (base, new) for recs in side.values() for rec in recs
    }
    if len(setups) > 1:
        listed = ", ".join(f"backend={b} nproc={n}" for b, n in sorted(setups))
        sys.stderr.write(f"refusing to compare results from different set-ups: {listed}\n")
        return 2
    spec = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        cfg = json.loads(bench.read_text())
        spec = {m["name"]: m for m in cfg["end_to_end"] + cfg["per_layer"]}
    print(f"{'workload':<18}{'t':>2} {'metric':<36}{'base median [q1, q3]':>34}"
          f"{'new median [q1, q3]':>34}{'change':>9}")
    for key in sorted(set(base) & set(new)):
        b_runs, n_runs = base[key], new[key]
        for name in b_runs[0]["metrics"]:
            b = spread([r["metrics"][name]["value"] for r in b_runs])
            n = spread([r["metrics"][name]["value"] for r in n_runs])
            flag = ""
            if b[1]:
                change = (n[1] - b[1]) / b[1]
                m = spec.get(name)
                if m is not None and "bound" in m:
                    worse = change if m["better"] == "lower" else -change
                    flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
                change = f"{change:+.2%}"
            else:
                change = "-"
            b_side = f"{b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]"
            n_side = f"{n[1]:.5g} [{n[0]:.5g}, {n[2]:.5g}]"
            print(f"{key[0]:<18}{key[1]:>2} {name:<36}{b_side:>34}{n_side:>34}{change:>9}{flag}")
        fails = sum(r["failed"] for r in n_runs)
        if fails:
            print(f"{key[0]}: {fails} failed checks on the NEW side")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
