"""Rewrite the golden pins that ``tests/test_golden.py`` checks.

Four groups of cases. The first three are pinned as sha256 digests in
``tests/golden/``:

- ``sweep.json``: ``latfun sweep`` run in-process through
  ``latfun.cli.main``, the digest of the CSV it writes;
- ``closest_point.json``: the bytes of ``nearest_point_coords`` and
  ``mod_lattice`` on one fixed random basis per n = 2..8, for Gaussian
  targets and for targets at half-integer coordinates (Voronoi ties);
- ``codecs.json``: ``SimReport.to_json()`` of the A2 and D4 two-user codecs,
  built as ``perfbench/workloads.py`` builds them, at two seeds with the
  default chunk, 300-trial chunks and a fixed dither; and of the Z^4
  K-user and side-information codecs, built as that file's ``SequentialZ4``
  builds them, at two seeds with the default chunk and with 1,500-trial
  chunks (three chunks). Six more cases have chunks that span several of
  the engine's row blocks or end one row past one: A2, K-user and side
  information in one 20,000-trial chunk, and the Z^1 two-user codec of
  ``perfbench/workloads.py`` at 16,385 trials in 8,193-trial chunks (one
  row past a block of the engine's first, 8,192-float blocks), in one
  16,385-trial chunk (one row past a block of its 16,384-float blocks),
  and in one 40,000-trial chunk of three blocks.

The fourth, ``cli.json``, stores the full stdout of ``latfun region``,
``simulate`` and ``lattice`` cases run in-process through
``latfun.cli.main``.

Run from the repository root:

    PYTHONPATH=src python tests/pin_golden.py

A pin may change only on purpose; record each such change, with the case
and the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from latfun.cli import main
from latfun.gaussian import (
    PartitionPlan,
    SourceModel,
    noisy_function_side_model,
    two_user_model,
)
from latfun.lattices import (
    Lattice,
    hexagonal_lattice,
    mod_lattice,
    nearest_point_coords,
    second_moment,
)
from latfun.simulate import (
    build_side_info_codec,
    build_two_user_codec,
    run_k_user_experiment,
    run_side_info_experiment,
    run_two_user_experiment,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
PINS = GOLDEN / "sweep.json"
CLOSEST_POINT_PINS = GOLDEN / "closest_point.json"
CODEC_PINS = GOLDEN / "codecs.json"
CLI_PINS = GOLDEN / "cli.json"

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
    # the rho = 1, c = 1 cell has Var(Z) = 0, keeps no D and is skipped
    "custom-zero-var-cell": ["--d-scale", "linear", "--rho-min", "0.6", "--rho-max", "1.0",
                             "--rho-count", "2", "--c-min", "1", "--c-max", "1",
                             "--c-count", "1", "--d-count", "24"],
    # equal D bounds: every grid repeats one D, spaced with a zero step
    "custom-equal-d": ["--rho-min", "0.3", "--rho-max", "0.8", "--rho-count", "2",
                       "--c-min", "-1", "--c-max", "0.8", "--c-count", "2",
                       "--d-min", "0.4", "--d-max", "0.4", "--d-count", "5"],
}

# n-targets-op, e.g. ``n5-halves-mod``
CLOSEST_POINT_ROWS = 256
CLOSEST_POINT_OPS = {"coords": nearest_point_coords, "mod": mod_lattice}
CLOSEST_POINT_CASES = [
    f"n{n}-{targets}-{op}"
    for n in range(2, 9) for targets in ("gaussian", "halves") for op in CLOSEST_POINT_OPS
]

# lattice-seed-setting, e.g. ``d4-seed7-chunk300``; keyword arguments of
# ``run_two_user_experiment`` per setting
CODEC_TRIALS = {"a2": 1024, "d4": 512}
CODEC_SETTINGS = {
    "default": {},
    "chunk300": {"chunk_size": 300},
    "fixed-dither": {"fixed_dither": True},
}
# the Z^4 codecs of the benchmark's ``mc_seq_codecs_z4``: ``kuser`` and
# ``sideinfo`` runs of Z4_TRIALS trials, in one chunk or in three
Z4_TRIALS = 4000
Z4_SETTINGS = {"default": {}, "chunk1500": {"chunk_size": 1500}}
Z4_TAGS = ("kuser", "sideinfo")
# settings with their own trial count, for chunks that span several blocks
BLOCK_SETTINGS = {
    "trials20000": {"trials": 20_000},
    "trials16385-chunk8193": {"trials": 16_385, "chunk_size": 8193},
    "trials16385": {"trials": 16_385},
    "trials40000": {"trials": 40_000},
}
CODEC_CASES = [
    f"{tag}-seed{seed}-{setting}"
    for tag in CODEC_TRIALS for seed in (0, 7) for setting in CODEC_SETTINGS
] + [
    f"{tag}-seed{seed}-{setting}"
    for tag in Z4_TAGS for seed in (0, 7) for setting in Z4_SETTINGS
] + [
    f"{tag}-seed0-trials20000" for tag in ("a2", *Z4_TAGS)
] + [f"z1-seed0-{setting}"
     for setting in ("trials16385-chunk8193", "trials16385", "trials40000")]

# name -> ``latfun`` arguments; ``PLAN`` and ``LATTICE`` stand for the paths
# of files holding CLI_FILES["PLAN"] and CLI_FILES["LATTICE"]
CLI_FILES = {
    "PLAN": '{"partition": [[0, 1], [2]], "order": [1, 0], "q": [0.05, 0.05, 0.05]}',
    "LATTICE": '{"dim": 2, "gen": [2.0, 1.0, 0.0, 1.5]}',
}
_SIM = ["simulate", "--trials", "20000", "--seed", "7"]
_PLAN = ["--rho", "0.5", "--c", "1,-0.8,0.5", "--plan", "PLAN"]
_CONSTRUCTION_A = ["lattice", "--op", "construction-a"]
CLI_CASES = {
    "region-lattice": ["region", "--scheme", "lattice", "--rho", "0.8", "--c", "0.8", "--d", "0.1"],
    "region-bt-interior": ["region", "--scheme", "bt", "--d", "0.1"],
    # past the regime boundary X2 falls silent: q2_star is null
    "region-bt-silent": ["region", "--scheme", "bt", "--d", "0.3"],
    "region-bt-negative-c": ["region", "--scheme", "bt", "--c", "-0.5", "--d", "0.3"],
    "region-kuser": ["region", "--scheme", "kuser", *_PLAN],
    "simulate-z1": _SIM,
    "simulate-z1-fixed-dither": [*_SIM, "--fixed-dither"],
    # two chunks of the default 65,536 trials, so two workers share the run
    "simulate-z1-two-chunks": ["simulate", "--trials", "70000", "--seed", "7"],
    "simulate-z4": [*_SIM, "--n", "4"],
    "simulate-z4-fixed-dither": [*_SIM, "--n", "4", "--fixed-dither"],
    "simulate-plan": [*_SIM, "--n", "2", *_PLAN],
    "simulate-side-info": [*_SIM, "--side-info", "0.1", "--d", "0.05", "--q1", "0.02", "--n", "2"],
    "lattice-nsm-a2": ["lattice", "--lattice", "a2", "--op", "nsm", "--samples", "20000",
                       "--seed", "2"],
    "lattice-nsm-file": ["lattice", "--lattice", "LATTICE", "--op", "nsm", "--samples", "20000"],
    "lattice-moment-zn": ["lattice", "--lattice", "zn", "--dim", "3", "--op", "moment"],
    "lattice-cosets-a2": ["lattice", "--lattice", "a2", "--op", "cosets", "--nesting", "3"],
    "lattice-cosets-zn": ["lattice", "--lattice", "zn", "--dim", "2", "--op", "cosets",
                          "--nesting", "2"],
    "construction-a-p3-k1-dim2": [*_CONSTRUCTION_A, "--p", "3", "--k", "1", "--dim", "2",
                                  "--seed", "1"],
    "construction-a-p5-k2-dim4": [*_CONSTRUCTION_A, "--p", "5", "--k", "2", "--dim", "4"],
    # the two code rows are dependent: rank 1
    "construction-a-p2-k2-dim3-rank1": [*_CONSTRUCTION_A, "--p", "2", "--k", "2", "--dim", "3",
                                        "--seed", "0"],
    "construction-a-a2": [*_CONSTRUCTION_A, "--lattice", "a2", "--p", "7", "--k", "1"],
    "construction-a-file": [*_CONSTRUCTION_A, "--lattice", "LATTICE", "--p", "5", "--k", "1",
                            "--seed", "3"],
}

D4_GEN = np.array([[2.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def sweep_digest(args, out_dir) -> str:
    """sha256 of the CSV that ``latfun sweep --out ... *args`` writes."""
    out = Path(out_dir) / "sweep.csv"
    code = main(["sweep", "--out", str(out), *args])
    if code != 0:
        raise RuntimeError(f"latfun sweep {' '.join(args)} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def _closest_point_inputs(n: int):
    """(lattice, {targets kind: (rows, n) array}) for dimension ``n``: a
    random basis with condition number below 6, Gaussian targets spread over
    a few cells, and points ``G @ (u / 2)`` with integer ``u``."""
    rng = np.random.default_rng([n, 0x6370])
    while True:
        gen = rng.normal(size=(n, n))
        if np.linalg.cond(gen) < 6.0:
            break
    gaussian = rng.normal(scale=2.0, size=(CLOSEST_POINT_ROWS, n)) @ gen.T
    halves = 0.5 * rng.integers(-4, 5, size=(CLOSEST_POINT_ROWS, n)) @ gen.T
    return Lattice(gen), {"gaussian": gaussian, "halves": halves}


def closest_point_digest(name: str) -> str:
    """sha256 of the output bytes of one closest-point case."""
    dim, targets, op = name.split("-")
    lat, inputs = _closest_point_inputs(int(dim[1:]))
    out = CLOSEST_POINT_OPS[op](lat, inputs[targets])
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def _codecs():
    """The benchmark's Z^1, A2 and D4 two-user codecs (moment set-up 0)."""
    rng = np.random.default_rng([0, 0x5350])
    model = two_user_model(0.8, 0.8)
    codecs = {"z1": build_two_user_codec(model, 0.1, 0.06, n=1, margin=2.0)}
    bases = (("a2", hexagonal_lattice(), 20_000), ("d4", Lattice(D4_GEN), 10_000))
    for tag, base, samples in bases:
        est = second_moment(base, samples, rng)
        codecs[tag] = build_two_user_codec(
            model, 0.1, 0.06, n=base.dim, margin=2.0, base_lattice=base.with_moment(est))
    return codecs


@functools.lru_cache(maxsize=None)
def _z4_codecs():
    """The benchmark's Z^4 K-user model and plan, and its side-information
    codec (rho 0.8, c 0.8, margin 2)."""
    cov = np.full((3, 3), 0.8)
    np.fill_diagonal(cov, 1.0)
    model = SourceModel(cov, np.array([1.0, -0.8, 0.5]))
    plan = PartitionPlan(((0, 1), (2,)), (0, 1), (0.05, 0.05, 0.05))
    side_info = build_side_info_codec(noisy_function_side_model(0.8, 0.8, 0.1), 0.05, 0.02,
                                      n=4, margin=2.0)
    return model, plan, side_info


def _codec_settings(tag: str, setting: str):
    """The trial count and the runner's keyword arguments of one codec case."""
    if setting in BLOCK_SETTINGS:
        kwargs = dict(BLOCK_SETTINGS[setting])
        return kwargs.pop("trials"), kwargs
    if tag in Z4_TAGS:
        return Z4_TRIALS, Z4_SETTINGS[setting]
    return CODEC_TRIALS[tag], CODEC_SETTINGS[setting]


def _codec_report(tag: str, seed: int, setting: str):
    """The ``SimReport`` of one codec case."""
    trials, kwargs = _codec_settings(tag, setting)
    if tag == "kuser":
        model, plan, _ = _z4_codecs()
        return run_k_user_experiment(model, plan, n=4, trials=trials, seed=seed, margin=2.0,
                                     **kwargs)
    if tag == "sideinfo":
        return run_side_info_experiment(_z4_codecs()[2], trials, seed, **kwargs)
    return run_two_user_experiment(_codecs()[tag], trials, seed, **kwargs)


def codec_digest(name: str) -> str:
    """sha256 of ``SimReport.to_json()`` of one codec case."""
    tag, seed, setting = name.split("-", 2)
    rep = _codec_report(tag, int(seed[4:]), setting)
    return hashlib.sha256(rep.to_json().encode()).hexdigest()


def cli_stdout(name: str) -> str:
    """Stdout of one CLI case; a nonzero exit code raises."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for arg in CLI_CASES[name]:
            if arg in CLI_FILES:
                path = Path(tmp) / arg.lower()
                path.write_text(CLI_FILES[arg])
                arg = str(path)
            args.append(arg)
        with contextlib.redirect_stdout(out):
            code = main(args)
    if code != 0:
        raise RuntimeError(f"latfun {' '.join(CLI_CASES[name])} exited {code}")
    return out.getvalue()


def _write(path: Path, pins: dict, kind: str = "sha256"):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"numpy": np.__version__, kind: pins}, indent=2) + "\n")
    print(f"wrote {len(pins)} pins to {path}")


def main_pin() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _write(PINS, {name: sweep_digest(args, tmp) for name, args in CASES.items()})
    _write(CLOSEST_POINT_PINS, {name: closest_point_digest(name) for name in CLOSEST_POINT_CASES})
    _write(CODEC_PINS, {name: codec_digest(name) for name in CODEC_CASES})
    _write(CLI_PINS, {name: cli_stdout(name) for name in CLI_CASES}, kind="stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main_pin())
