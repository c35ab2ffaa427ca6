"""Rewrite the golden sweep pins that ``tests/test_golden.py`` checks.

Each case runs ``latfun sweep`` in-process through ``latfun.cli.main`` and
pins the sha256 of the CSV it writes. Run from the repository root:

    PYTHONPATH=src python tests/pin_golden.py

A pin may change only on purpose; record each such change, with the case
and the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from latfun.cli import main

PINS = Path(__file__).resolve().parent / "golden" / "sweep.json"

# name -> arguments of ``latfun sweep`` after ``--out PATH``
CASES = {
    "fig3": ["--preset", "fig3"],
    "fig4": ["--preset", "fig4"],
    "fig5": ["--preset", "fig5"],
    # log-scale D; c < 0, c = 0 and c > 0
    "custom-log": ["--rho-min", "0.1", "--rho-max", "0.9", "--rho-count", "5",
                   "--c-min", "-2", "--c-max", "2", "--c-count", "9",
                   "--d-min", "1e-3", "--d-max", "0.99", "--d-count", "20"],
    # linear D up to 1.3 Var(Z): the distortions past Var(Z) are dropped
    "custom-linear": ["--d-scale", "linear", "--rho-min", "0.2", "--rho-max", "0.9",
                      "--rho-count", "4", "--c-min", "-1.5", "--c-max", "1.5",
                      "--c-count", "7", "--d-min", "0.01", "--d-max", "1.3",
                      "--d-count", "33"],
}


def sweep_digest(args, out_dir) -> str:
    """sha256 of the CSV that ``latfun sweep --out ... *args`` writes."""
    out = Path(out_dir) / "sweep.csv"
    code = main(["sweep", "--out", str(out), *args])
    if code != 0:
        raise RuntimeError(f"latfun sweep {' '.join(args)} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main_pin() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: sweep_digest(args, tmp) for name, args in CASES.items()}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps({"numpy": np.__version__, "sha256": pins}, indent=2) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main_pin())
