#!/usr/bin/env python3
"""Pin the reference outputs that every benchmark op is checked against.

Runs every op input of every workload (all of them, for every seed) and the
kernel probe, and writes ``perfbench/refs/``. References are pinned once,
from the library as it was before any optimisation; re-pinning after a
change to the library would make the check vacuous.

    python3 perfbench/pin_refs.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

os.environ.update(run.THREAD_ENV)  # before numpy is imported

import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    lf, _ = run.import_latfun()
    origin = {
        "git_sha": run.git_sha(),
        "source_sha256": run.source_digest(),
        "kernel_backend": lf.KERNEL_BACKEND,
    }
    out = HERE / "refs"
    out.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        entries = {}
        # Seeds 0 .. setups-1 cover every set-up a seed can select.
        for seed in range(getattr(cls, "setups", 1)):
            wl = cls(lf, seed)
            bad = wl.setup_failures()
            if bad:
                raise SystemExit(f"{name}: set-up check failed: {bad}")
            for j in range(cls.universe):
                key, record = wl.run(j)
                entries[key] = record
        payload = {"workload": name, "pinned_from": origin, "entries": entries}
        (out / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(entries)} references")
    digests = {str(n): probe.digest(lf.kernels.nearest_point_batch(r, y))
               for n, r, y in probe.cases()}
    payload = {"pinned_from": origin, "batch": probe.BATCH, "digests": digests}
    (out / "kernel_probe.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("kernel_probe: digests for n =", ", ".join(digests))


if __name__ == "__main__":
    main()
