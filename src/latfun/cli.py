"""Command-line front end.

Subcommands: ``region`` (closed-form rates as JSON), ``sweep`` (CSV grids
for the scheme comparison figures), ``simulate`` (Monte Carlo codec runs),
and ``lattice`` (lattice inspection and construction). JSON output carries
full double precision; CSV is formatted to 6 significant digits. Exit codes:
0 success, 1 I/O failure, 2 argument/validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import lattices, regions, simulate
from .errors import InvalidCount, LatfunError
from .gaussian import (
    PartitionPlan,
    SourceModel,
    function_variance,
    noisy_function_side_model,
    two_user_model,
)

CSV_SCHEMA_LINE = "# schema=1"
SWEEP_HEADER = "rho,c,D,lattice_sum_bits,bt_sum_bits,gap_bits,regime"


def _g6(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.6g}"


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# region


def _parse_coeffs(text: str) -> np.ndarray:
    return np.asarray([float(tok) for tok in text.split(",")], dtype=np.float64)


def _load_plan(path: str) -> PartitionPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return PartitionPlan.from_json(fh.read())


def _load_model(args) -> SourceModel:
    """Model for the K-user scheme: explicit covariance file, or unit-variance
    equicorrelation at the given rho."""
    coeffs = _parse_coeffs(args.c)
    k = len(coeffs)
    if args.cov is not None:
        with open(args.cov, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        cov = np.asarray(payload, dtype=np.float64).reshape(k, k)
        return SourceModel(cov, coeffs)
    cov = np.full((k, k), args.rho)
    np.fill_diagonal(cov, 1.0)
    return SourceModel(cov, coeffs)


def cmd_region(args) -> int:
    if args.scheme != "kuser":
        args.c_scalar = _scalar_c(args.c)
    if args.scheme == "lattice":
        model = two_user_model(args.rho, args.c_scalar)
        sz2 = function_variance(model)
        payload = {
            "scheme": "lattice",
            "rho": args.rho,
            "c": args.c_scalar,
            "d": args.d,
            "sigma_z_sq": sz2,
            "min_sum_rate_bits": regions.lattice_min_sum_rate(model, args.d),
            "constraint_rhs": args.d / sz2,
        }
    elif args.scheme == "bt":
        model = two_user_model(args.rho, args.c_scalar)
        sz2 = function_variance(model)
        payload = {
            "scheme": "bt",
            "rho": args.rho,
            "c": args.c_scalar,
            "d": args.d,
            "sigma_z_sq": sz2,
            "sum_rate_bits": regions.bt_min_sum_rate(model, args.d),
            "regime": regions.bt_regime(model, args.d),
        }
        if args.d < sz2 and args.c_scalar > 0:
            opt = regions.bt_optimal_q(model, args.d)
            # A silent encoder's noise is unbounded; JSON has no infinity.
            payload["q1_star"] = opt.q1 if math.isfinite(opt.q1) else None
            payload["q2_star"] = opt.q2 if math.isfinite(opt.q2) else None
    else:  # kuser
        if args.plan is None:
            raise LatfunError("--plan is required for the kuser scheme")
        model = _load_model(args)
        plan = _load_plan(args.plan)
        point = regions.k_user_rates(model, plan)
        payload = {
            "scheme": "kuser",
            "rates_bits": list(point.rates),
            "sum_rate_bits": point.sum_rate,
            "distortion": point.distortion,
        }
    _print_json(payload)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_rows(rho_values, c_values, d_of_model, collapse_d: bool):
    """Yield CSV rows; one per (rho, c, D), or per (rho, c) when collapsing
    to the distortion with the largest gap.

    ``d_of_model`` maps Var(Z) to a distortion grid. All cells' grids come
    from one call on the array of their Var(Z), along the last axis, unless
    a model or that call fails or some grid is not strictly monotone; then
    each cell's grid comes from its own call, and the first failing cell
    raises. np.linspace (with which np.geomspace spaces its logs) switches
    every row to another formula when one row's step is zero, and such a
    row is not strictly monotone past two points; so the grids are the
    per-cell ones bit for bit.
    """
    try:
        models = [two_user_model(rho, c) for rho in rho_values for c in c_values]
        var_z = [function_variance(model) for model in models]
        grids = d_of_model(np.array(var_z))
        grids = np.broadcast_to(grids, (len(models), grids.shape[-1]))
        steps = np.diff(grids, axis=-1)
        monotone = (steps > 0).all(axis=-1) | (steps < 0).all(axis=-1)
        cells = zip(models, var_z, grids) if monotone.all() else None
    except ValueError:
        cells = None
    rows = []
    for rho in rho_values:
        for c in c_values:
            if cells is None:
                model = two_user_model(rho, c)
                sz2 = function_variance(model)
                d_grid = d_of_model(sz2)
            else:
                model, sz2, d_grid = next(cells)
            d_grid = d_grid[(d_grid > 0) & (d_grid < sz2)]
            if len(d_grid) == 0:
                continue
            lattice_bits = np.array(
                [regions.lattice_min_sum_rate(model, float(d)) for d in d_grid]
            )
            bt_bits = regions.bt_min_sum_rates(model, d_grid)
            gaps = bt_bits - lattice_bits
            if collapse_d:
                idx = int(np.argmax(gaps))
                sel = [idx]
            else:
                sel = range(len(d_grid))
            for i in sel:
                regime = regions.bt_regime(model, float(d_grid[i]))
                rows.append(
                    ",".join(
                        [
                            _g6(rho),
                            _g6(c),
                            _g6(float(d_grid[i])),
                            _g6(float(lattice_bits[i])),
                            _g6(float(bt_bits[i])),
                            _g6(float(gaps[i])),
                            regime,
                        ]
                    )
                )
    return rows


def sweep_rows_fig3(n_c: int = 40, n_d: int = 40, rho: float = 0.8):
    """Direct-scheme sum-rate surface over (c, D) at fixed correlation."""
    rows = []
    for c in np.linspace(0.05, 2.0, n_c):
        model = two_user_model(rho, c)
        sz2 = function_variance(model)
        for d in np.geomspace(0.01, 0.99 * sz2, n_d):
            rows.append(
                ",".join(
                    [
                        _g6(rho),
                        _g6(float(c)),
                        _g6(float(d)),
                        _g6(regions.lattice_min_sum_rate(model, float(d))),
                        "nan",
                        "nan",
                        "lattice-only",
                    ]
                )
            )
    return rows


def sweep_rows_fig4(n_d: int = 256, rho: float = 0.8, c: float = 0.8):
    """Both schemes against distortion at one (rho, c); shows the crossover."""
    return _sweep_rows(
        [rho], [c], lambda sz2: np.geomspace(0.021, 0.355, n_d), collapse_d=False
    )


def sweep_rows_fig5(n_c: int = 128, n_rho: int = 9, n_d: int = 32):
    """Max-over-distortion gap per (rho, c) cell over the scan rectangle."""
    rho_values = np.linspace(0.1, 0.9, n_rho)
    c_values = np.linspace(-2.0, 2.0, n_c)
    return _sweep_rows(
        rho_values,
        c_values,
        lambda sz2: np.geomspace(0.01 * sz2, 0.95 * sz2, n_d, axis=-1),
        collapse_d=True,
    )


def _check_custom_grid(args) -> None:
    """Reject custom sweep bounds and counts that give no valid grid."""
    for name in ("rho", "c", "d"):
        count = getattr(args, f"{name}_count")
        if count < 1:
            raise InvalidCount(f"--{name}-count must be at least 1, got {count}")
    for name in ("rho_min", "rho_max", "c_min", "c_max", "d_min", "d_max"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise LatfunError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.d_scale == "log" and not (args.d_min > 0 and args.d_max > 0):
        raise LatfunError(
            f"the log scale needs --d-min and --d-max > 0, got {args.d_min} and {args.d_max}"
        )


def cmd_sweep(args) -> int:
    if args.preset == "fig3":
        rows = sweep_rows_fig3()
    elif args.preset == "fig4":
        rows = sweep_rows_fig4()
    elif args.preset == "fig5":
        rows = sweep_rows_fig5()
    else:
        _check_custom_grid(args)
        rho_values = np.linspace(args.rho_min, args.rho_max, args.rho_count)
        c_values = np.linspace(args.c_min, args.c_max, args.c_count)

        space = np.linspace if args.d_scale == "linear" else np.geomspace

        def d_grid(sz2):
            # numpy's overflow warnings are silenced and the result checked
            # instead: the values are unchanged, and an overflow becomes an
            # error that names its flag.
            with np.errstate(over="ignore", invalid="ignore"):
                lo, hi = args.d_min * sz2, args.d_max * sz2
                grid = space(lo, hi, args.d_count, axis=-1)
            var_z = f"Var(Z) = {np.max(sz2):.6g}"
            for flag, frac, bound in (("--d-min", args.d_min, lo), ("--d-max", args.d_max, hi)):
                if not np.isfinite(bound).all():
                    raise LatfunError(f"{flag} {frac:g} times {var_z} overflows")
            if not np.isfinite(grid).all():
                raise LatfunError(f"the span from --d-min to --d-max times {var_z} overflows")
            return grid

        rows = _sweep_rows(rho_values, c_values, d_grid, collapse_d=False)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_SCHEMA_LINE + "\n")
            fh.write(SWEEP_HEADER + "\n")
            for row in rows:
                fh.write(row + "\n")
    except OSError as exc:
        sys.stderr.write(f"failed to write {args.out}: {exc}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    if args.plan is None:
        args.c_scalar = _scalar_c(args.c)
    if args.plan is not None:
        model = _load_model(args)
        plan = _load_plan(args.plan)
        report = simulate.run_k_user_experiment(
            model,
            plan,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            margin=args.margin,
        )
    elif args.side_info is not None:
        si_model = noisy_function_side_model(args.rho, args.c_scalar, args.side_info)
        codec = simulate.build_side_info_codec(
            si_model, args.d, args.q1, n=args.n, margin=args.margin
        )
        report = simulate.run_side_info_experiment(codec, args.trials, args.seed)
    else:
        model = two_user_model(args.rho, args.c_scalar)
        codec = simulate.build_two_user_codec(
            model, args.d, args.q1, n=args.n, margin=args.margin
        )
        report = simulate.run_two_user_experiment(
            codec, args.trials, args.seed, fixed_dither=args.fixed_dither
        )
    sys.stdout.write(report.to_json() + "\n")
    if args.csv is not None:
        try:
            fresh = not os.path.exists(args.csv)
            with open(args.csv, "a", encoding="utf-8") as fh:
                if fresh:
                    fh.write(CSV_SCHEMA_LINE + "\n")
                    fh.write(simulate.SimReport.CSV_HEADER + "\n")
                fh.write(report.csv_row() + "\n")
        except OSError as exc:
            sys.stderr.write(f"failed to append {args.csv}: {exc}\n")
            return 1
    return 0


# ---------------------------------------------------------------------------
# lattice


def _resolve_lattice(args) -> lattices.Lattice:
    if args.lattice == "zn":
        return lattices.integer_lattice(args.dim, args.scale)
    if args.lattice == "a2":
        return lattices.hexagonal_lattice(args.scale)
    with open(args.lattice, "r", encoding="utf-8") as fh:
        return lattices.Lattice.from_json(fh.read())


def cmd_lattice(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.op == "construction-a":
        coarse = _resolve_lattice(args)
        result = lattices.construction_a(coarse, args.p, args.k, rng)
        payload = {
            "op": "construction-a",
            "p": args.p,
            "k": args.k,
            "rank": result.rank,
            "rank_deficient": result.rank_deficient,
            "coset_count": result.coset_count,
            "nesting_ratio": result.pair.nesting_ratio,
            "nesting_verified": lattices.verify_nesting(result.pair),
            "fine_gen": [float(v) for v in result.pair.fine.gen.reshape(-1)],
        }
        _print_json(payload)
        return 0
    lat = _resolve_lattice(args)
    if args.op == "moment":
        est = lattices.second_moment(lat, args.samples, rng)
        _print_json(
            {
                "op": "moment",
                "second_moment": est.value,
                "std_error": est.std_error,
                "samples": est.samples,
            }
        )
    elif args.op == "nsm":
        est = lattices.second_moment(lat, args.samples, rng)
        scale = lat.volume ** (2.0 / lat.dim)
        _print_json(
            {
                "op": "nsm",
                "normalized_second_moment": est.value / scale,
                "std_error": est.std_error / scale,
                "samples": est.samples,
            }
        )
    elif args.op == "cosets":
        coarse = lattices.Lattice(lat.gen * args.nesting)
        pair = lattices.make_pair(lat, coarse)
        leaders = lattices.coset_leaders(pair)
        _print_json(
            {
                "op": "cosets",
                "index": pair.index,
                "count": int(leaders.shape[0]),
                "leaders": [[float(v) for v in row] for row in leaders],
            }
        )
    else:
        raise LatfunError(f"unknown lattice op {args.op!r}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfun",
        description="Rate regions and codec simulation for distributed "
        "reconstruction of a linear function of Gaussian sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="closed-form rates as JSON on stdout")
    p_region.add_argument("--scheme", choices=["lattice", "bt", "kuser"], required=True)
    p_region.add_argument("--rho", type=float, default=0.8)
    p_region.add_argument("--c", type=str, default="0.8",
                          help="scalar c for two-user schemes (Z = X1 - c X2), or "
                               "comma-separated coefficients for kuser")
    p_region.add_argument("--d", type=float, default=0.1)
    p_region.add_argument("--plan", type=str, default=None, help="PartitionPlan JSON file")
    p_region.add_argument("--cov", type=str, default=None, help="covariance JSON file (row-major list)")
    p_region.set_defaults(func=cmd_region)

    p_sweep = sub.add_parser(
        "sweep",
        help="write a comparison grid as CSV",
        epilog="CSV schema (version 1): a '# schema=1' comment line, then the "
               "header 'rho,c,D,lattice_sum_bits,bt_sum_bits,gap_bits,regime'; "
               "rows in grid-major order (rho, then c, then D), 6 significant "
               "digits. The fig5 preset keeps one row per (rho, c): the "
               "distortion maximizing the gap.",
    )
    p_sweep.add_argument("--preset", choices=["fig3", "fig4", "fig5", "custom"], default="custom")
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.add_argument("--rho-min", type=float, default=0.8)
    p_sweep.add_argument("--rho-max", type=float, default=0.8)
    p_sweep.add_argument("--rho-count", type=int, default=1)
    p_sweep.add_argument("--c-min", type=float, default=0.8)
    p_sweep.add_argument("--c-max", type=float, default=0.8)
    p_sweep.add_argument("--c-count", type=int, default=1)
    p_sweep.add_argument("--d-min", type=float, default=0.05, help="fraction of Var(Z)")
    p_sweep.add_argument("--d-max", type=float, default=0.95, help="fraction of Var(Z)")
    p_sweep.add_argument("--d-count", type=int, default=24)
    p_sweep.add_argument("--d-scale", choices=["log", "linear"], default="log")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser(
        "simulate",
        help="Monte Carlo codec run; JSON on stdout",
        epilog="With --csv, appends one row per run under the schema "
               "(version 1): '" + simulate.SimReport.CSV_HEADER + "'. JSON "
               "carries full double precision; CSV is 6 significant digits. "
               "Fixed (seed, trials) give byte-identical output.",
    )
    p_sim.add_argument("--n", type=int, default=1)
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--margin", type=float, default=2.0)
    p_sim.add_argument("--q1", type=float, default=0.06)
    p_sim.add_argument("--rho", type=float, default=0.8)
    p_sim.add_argument("--c", type=str, default="0.8")
    p_sim.add_argument("--d", type=float, default=0.1)
    p_sim.add_argument("--plan", type=str, default=None, help="run the K-user scheme with this plan")
    p_sim.add_argument("--cov", type=str, default=None, help="covariance JSON file for the K-user scheme")
    p_sim.add_argument("--side-info", type=float, default=None, metavar="NOISE_VAR",
                       help="run the side-information codec with Y = Z + W, Var(W) = NOISE_VAR")
    p_sim.add_argument("--fixed-dither", action="store_true")
    p_sim.add_argument("--csv", type=str, default=None, help="append a CSV row here")
    p_sim.set_defaults(func=cmd_simulate)

    p_lat = sub.add_parser("lattice", help="lattice inspection as JSON")
    p_lat.add_argument("--lattice", type=str, default="zn",
                       help="zn, a2, or a path to a lattice JSON file")
    p_lat.add_argument("--op", choices=["moment", "nsm", "cosets", "construction-a"], required=True)
    p_lat.add_argument("--dim", type=int, default=1)
    p_lat.add_argument("--scale", type=float, default=1.0)
    p_lat.add_argument("--samples", type=int, default=200_000)
    p_lat.add_argument("--seed", type=int, default=0)
    p_lat.add_argument("--p", type=int, default=3)
    p_lat.add_argument("--k", type=int, default=1)
    p_lat.add_argument("--nesting", type=float, default=2.0,
                       help="coarse = nesting * lattice for the cosets op")
    p_lat.set_defaults(func=cmd_lattice)

    return parser


def _scalar_c(text: str) -> float:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2 and abs(parts[0] - 1.0) < 1e-12:
        return -parts[1]
    raise LatfunError(
        "two-user schemes need a scalar c (or the pair '1,-c'); got " + text
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatfunError, ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
