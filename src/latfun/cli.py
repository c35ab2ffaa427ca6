"""Command-line front end.

Subcommands: ``region`` (closed-form rates as JSON), ``sweep`` (CSV grids
for the scheme comparison figures), ``simulate`` (Monte Carlo codec runs),
and ``lattice`` (lattice inspection and construction). JSON output carries
full double precision; CSV is formatted to 6 significant digits. Exit codes:
0 success, 1 failure to write an output file, 2 argument or validation
error, an unreadable or malformed input file included.
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
    _checked_variance,
    _two_user_arrays,
    function_variance,
    noisy_function_side_model,
    two_user_model,
)
from .simulate import _g6

CSV_SCHEMA_LINE = "# schema=1"
SWEEP_HEADER = "rho,c,D,lattice_sum_bits,bt_sum_bits,gap_bits,regime"


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# region


def _parse_coeffs(text: str) -> np.ndarray:
    return np.asarray([float(tok) for tok in text.split(",")], dtype=np.float64)


def _read_input(path: str, kind: str, parse):
    """``parse`` applied to the text of an input file. A file that cannot be
    read or does not hold what ``parse`` expects is a one-line error that
    names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except LatfunError:
        raise
    except OSError as exc:
        raise LatfunError(f"cannot read {kind} file {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise LatfunError(f"{kind} file {path} has no key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatfunError(f"malformed {kind} file {path}: {exc}") from None


def _load_plan(path: str) -> PartitionPlan:
    return _read_input(path, "plan", PartitionPlan.from_json)


def _load_model(args) -> SourceModel:
    """Model for the K-user scheme: explicit covariance file, or unit-variance
    equicorrelation at the given rho."""
    coeffs = _parse_coeffs(args.c)
    k = len(coeffs)
    if args.cov is not None:
        cov = _read_input(args.cov, "covariance",
                          lambda text: np.asarray(json.loads(text), dtype=np.float64).reshape(k, k))
        return SourceModel(cov, coeffs)
    cov = np.full((k, k), args.rho)
    np.fill_diagonal(cov, 1.0)
    return SourceModel(cov, coeffs)


def _reject_unused(args, scheme: str, *dests: str) -> None:
    """Reject a flag that ``scheme`` would ignore, rather than ignore it."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise LatfunError(f"--{dest.replace('_', '-')} does not apply to {scheme}")


def cmd_region(args) -> int:
    if args.scheme != "kuser":
        _reject_unused(args, f"--scheme {args.scheme}", "plan", "cov")
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
    """CSV rows; one per (rho, c, D), or per (rho, c) when collapsing to the
    distortion with the largest gap.

    ``d_of_model`` maps Var(Z) to a distortion grid. Every rate, gap and
    regime comes from one array pass over the (cells, D) grid
    (``_grid_rows``), with all grids from one ``d_of_model`` call
    (``_whole_grid``).

    When that pass cannot run (rho outside (0, 1), a non-finite c, an
    overflowing Var(Z), a failing ``d_of_model`` call or a grid that is not
    strictly monotone), the cells are taken in turn, so that the first
    failing cell raises the error a cell-by-cell sweep gives. Each cell's
    model is built, then its grid; a cell whose grid keeps no D in
    (0, Var Z) is skipped, even if it is not two-user; every other cell
    must be two-user, and its rows come from the same array pass on that
    cell alone.
    """
    cells = [(rho, c) for rho in rho_values for c in c_values]
    if not cells:
        return []
    rho = np.array([cell[0] for cell in cells], dtype=np.float64)
    c = np.array([cell[1] for cell in cells], dtype=np.float64)
    whole = _whole_grid(rho, c, d_of_model)
    if whole is not None:
        return _grid_rows(cells, rho, c, *whole, collapse_d)
    rows = []
    for k, cell in enumerate(cells):
        model = two_user_model(*cell)
        var_z = function_variance(model)
        grid = d_of_model(var_z)
        if not ((grid > 0) & (grid < var_z)).any():
            continue
        model.require_two_user()
        one = slice(k, k + 1)
        rows += _grid_rows(cells[one], rho[one], c[one], np.array([var_z]), grid[None], collapse_d)
    return rows


def _whole_grid(rho: np.ndarray, c: np.ndarray, d_of_model):
    """(Var(Z), distortion grids) of every cell from one pass, or None when
    the cells must be taken in turn.

    Finite c and rho in (0, 1) imply every check that ``two_user_model``
    and ``require_two_user`` make, so no model is built; Var(Z) is the
    expression the model computes, on the same arrays. The grids come from
    one call on the array of Var(Z), along the last axis. np.linspace (with
    which np.geomspace spaces its logs) switches every row to another
    formula when one row's step is zero, and such a row is not strictly
    monotone past two points; so strictly monotone grids are the per-cell
    ones bit for bit.
    """
    if not (((rho > 0) & (rho < 1)).all() and np.isfinite(c).all()):
        return None
    try:
        var_z = np.array([
            _checked_variance(*_two_user_arrays(r, v)) for r, v in zip(rho.tolist(), c.tolist())
        ])
        grids = d_of_model(var_z)
    except ValueError:
        return None
    grids = np.broadcast_to(grids, (len(var_z), grids.shape[-1]))
    steps = np.diff(grids, axis=-1)
    if not ((steps > 0).all(axis=-1) | (steps < 0).all(axis=-1)).all():
        return None
    return var_z, grids


def _grid_rows(cells, rho, c, var_z, grids, collapse_d: bool) -> List[str]:
    """Rows of two-user cells, with their Var(Z) and (cells, n_d) grids, in
    one array pass. Each rate is its scalar function's value bit for bit;
    the distortions outside (0, Var Z) are replaced by Var(Z), which every
    formula takes, and then left out."""
    keep = (grids > 0) & (grids < var_z[:, None])
    d = np.where(keep, grids, var_z[:, None])
    rho, c = rho[:, None], c[:, None]
    lattice_bits = regions._log2_twice_ratio(var_z[:, None], d)
    bt_bits = regions._bt_min_sum(rho, c, d)
    gaps = np.where(keep, bt_bits - lattice_bits, -np.inf)
    regimes = regions._bt_regimes(rho, c, d)
    rows = []
    for k, (rho_k, c_k) in enumerate(cells):
        if collapse_d:
            sel = [int(np.argmax(gaps[k]))] if keep[k].any() else []
        else:
            sel = np.flatnonzero(keep[k])
        for i in sel:
            values = (d[k, i], lattice_bits[k, i], bt_bits[k, i], gaps[k, i])
            rows.append(
                ",".join([_g6(rho_k), _g6(c_k), *(_g6(float(v)) for v in values), regimes[k, i]])
            )
    return rows


def sweep_rows_fig3():
    """Direct-scheme sum-rate surface over (c, D) at correlation 0.8."""
    rows = []
    for c in np.linspace(0.05, 2.0, 40):
        model = two_user_model(0.8, c)
        model.require_two_user()
        sz2 = function_variance(model)
        d_grid = np.geomspace(0.01, 0.99 * sz2, 40)
        lattice_bits = regions._log2_twice_ratio(sz2, d_grid)
        for d, bits in zip(d_grid.tolist(), lattice_bits.tolist()):
            rows.append(
                ",".join([_g6(0.8), _g6(float(c)), _g6(d), _g6(bits), "nan", "nan", "lattice-only"])
            )
    return rows


def sweep_rows_fig4():
    """Both schemes against distortion at rho = c = 0.8; shows the crossover."""
    return _sweep_rows(
        [0.8], [0.8], lambda sz2: np.geomspace(0.021, 0.355, 256), collapse_d=False
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
    if args.plan is not None:
        _reject_unused(args, "the K-user scheme (--plan)", "side_info", "fixed_dither")
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
        _reject_unused(args, "the side-information codec (--side-info)", "cov", "fixed_dither")
        si_model = noisy_function_side_model(args.rho, _scalar_c(args.c), args.side_info)
        codec = simulate.build_side_info_codec(
            si_model, args.d, args.q1, n=args.n, margin=args.margin
        )
        report = simulate.run_side_info_experiment(codec, args.trials, args.seed)
    else:
        _reject_unused(args, "the two-user codec", "cov")
        model = two_user_model(args.rho, _scalar_c(args.c))
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
    return _read_input(args.lattice, "lattice", lattices.Lattice.from_json)


def cmd_lattice(args) -> int:
    rng = np.random.default_rng(args.seed)
    lat = _resolve_lattice(args)
    if args.op == "construction-a":
        result = lattices.construction_a(lat, args.p, args.k, rng)
        _print_json(
            {
                "op": "construction-a",
                "p": args.p,
                "k": args.k,
                "rank": result.rank,
                "rank_deficient": result.rank_deficient,
                "coset_count": result.coset_count,
                "nesting_ratio": result.pair.nesting_ratio,
                # A NestedPair exists only once its nesting is checked.
                "nesting_verified": True,
                "fine_gen": [float(v) for v in result.pair.fine.gen.reshape(-1)],
            }
        )
    elif args.op == "moment":
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
    else:  # cosets
        coarse = lattices.Lattice(lat.gen * args.nesting)
        pair = lattices.NestedPair(lat, coarse)
        leaders = lattices.coset_leaders(pair)
        _print_json(
            {
                "op": "cosets",
                "index": pair.index,
                "count": int(leaders.shape[0]),
                "leaders": [[float(v) for v in row] for row in leaders],
            }
        )
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
    except (LatfunError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        # e.g. a --dim or --n whose n x n generator cannot be allocated
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
