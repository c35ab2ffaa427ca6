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
import itertools
import json
import math
import os
import re
import sys
from typing import List, Optional

import numpy as np

from . import gaussian, lattices, regions, simulate
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
# One sweep row: six numbers at 6 significant digits (the bytes of
# simulate._g6, which formats with the same float formatter), then the label.
SWEEP_ROW = "%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%s"


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


def _check_counts(args, **least: int) -> None:
    """Reject an integer flag below its least value, naming the flag; an
    unset flag (None) passes."""
    for dest, low in least.items():
        value = getattr(args, dest)
        if value is not None and value < low:
            raise InvalidCount(f"--{dest.replace('_', '-')} must be at least {low}, got {value}")


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

    ``d_of_model`` maps Var(Z) to a distortion grid. The presets and the
    custom sweep space it, rho and c with ``_spacing``: numpy's values bit
    for bit, with np.linspace's rule that one row's zero step switches
    every row to another formula. The cells are the columns
    ``np.repeat(rho_values, n_c)`` and ``np.tile(c_values, n_rho)``;
    ``_whole_grid`` gives every Var(Z) and grid, and ``_grid_rows`` every
    row, in one array pass. A grid that keeps no D in (0, Var Z) gives no
    rows, so a sweep may return none.

    When that pass cannot run (rho outside (0, 1), a non-finite c, an
    overflowing Var(Z), a failing ``d_of_model`` call or a grid that is not
    strictly monotone), the cells are taken in turn, so that the first
    failing cell raises the error a cell-by-cell sweep gives. Each cell's
    model is built, then its grid; a cell whose grid keeps no D in
    (0, Var Z) is skipped, even if it is not two-user; every other cell
    must be two-user, and its rows come from the same array pass on that
    cell alone.
    """
    n_rho, n_c = len(rho_values), len(c_values)
    if not (n_rho and n_c):
        return []
    rho = np.repeat(np.asarray(rho_values, dtype=np.float64), n_c)
    c = np.tile(np.asarray(c_values, dtype=np.float64), n_rho)
    whole = _whole_grid(rho, c, d_of_model)
    if whole is not None:
        return _grid_rows(rho, c, *whole, collapse_d)
    rows = []
    for k, cell in enumerate(itertools.product(rho_values, c_values)):
        model = two_user_model(*cell)
        var_z = function_variance(model)
        grid = d_of_model(var_z)
        if not ((grid > 0) & (grid < var_z)).any():
            continue
        model.require_two_user()
        rows += _grid_rows(rho[k:k + 1], c[k:k + 1], np.array([var_z]), grid[None], collapse_d)
    return rows


def _whole_grid(rho: np.ndarray, c: np.ndarray, d_of_model):
    """(Var(Z), distortion grids) of every cell from one pass, or None when
    the cells must be taken in turn.

    Finite c and rho in (0, 1) imply every check that ``two_user_model``
    and ``require_two_user`` make, so no model is built. Var(Z) is one
    stacked product (``gaussian._two_user_variances``), where a non-finite
    entry means some model raises VarianceOverflow. The grids come from one
    call on the array of Var(Z), along the last axis. ``_spacing`` follows
    np.linspace's switch (with which np.geomspace spaces its logs): every
    row takes another formula when one row's step is zero, and such a row
    is not strictly monotone past two points; so strictly monotone grids
    are the per-cell ones bit for bit.
    """
    if not (((rho > 0) & (rho < 1)).all() and np.isfinite(c).all()):
        return None
    var_z = gaussian._two_user_variances(rho, c)
    if not np.isfinite(var_z).all():
        return None
    try:
        grids = d_of_model(var_z)
    except ValueError:
        return None
    if grids.shape[:-1] != var_z.shape:
        grids = np.broadcast_to(grids, (len(var_z), grids.shape[-1]))
    if not _strictly_monotone(grids):
        return None
    return var_z, grids


def _spacing(lo, hi, num: int, log: bool) -> np.ndarray:
    """``np.geomspace(lo, hi, num, axis=-1)`` if ``log``, else
    ``np.linspace``, bit for bit, by numpy 2.4's own steps but without its
    argument handling; array bounds give a C-ordered (cells, num) array.

    As in np.linspace, the points are ``arange(num) * (delta / div)``,
    unless any row's step is zero: then every row takes
    ``arange(num) / div * delta``. Then the start is added and the last
    point set to the stop. The log scale raises ValueError on a zero bound,
    spaces the logs of the bounds over the start's sign so, takes
    ``10 ** y``, resets both ends to those bounds and restores the sign."""
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if log:
        if np.count_nonzero(lo) < lo.size or np.count_nonzero(hi) < hi.size:
            raise ValueError("Geometric sequence cannot include zero")
        sign = np.sign(lo)[..., None]
        lo, hi = lo[..., None] / sign, hi[..., None] / sign
        start, stop = np.log10(lo), np.log10(hi)
    else:
        start, stop = lo[..., None], hi[..., None]
    delta, div = stop - start, num - 1
    y = np.arange(num, dtype=np.float64)
    if div > 0:
        step = delta / div
        y = y / div * delta if np.count_nonzero(step) < step.size else y * step
    else:
        y = y * delta
    y += start
    if div > 0:
        y[..., -1:] = stop
    if log:
        np.power(10.0, y, out=y)
        y[..., :1] = lo
        if div > 0:
            y[..., -1:] = hi
        y *= sign
    return y


def _strictly_monotone(grids: np.ndarray) -> bool:
    """Whether every row's steps are all > 0 or all < 0, as
    ``((steps > 0).all(-1) | (steps < 0).all(-1)).all()``, in fewer passes:
    each step must have its row's first step's sign, and that sign must not
    be 0. NaN equals no sign; a row of one point has no steps."""
    signs = np.sign(np.diff(grids, axis=-1))
    return bool((signs == signs[..., :1]).all() and signs[..., :1].all())


def _grid_rows(rho, c, var_z, grids, collapse_d: bool) -> List[str]:
    """Rows of two-user cells, with their Var(Z) and (cells, n_d) grids, in
    one array pass. Each rate is its scalar function's value bit for bit;
    the distortions outside (0, Var Z) are replaced by Var(Z), which every
    formula takes, and then left out: the rows are all kept entries in
    row-major order, or with ``collapse_d`` each cell's largest gap (the
    others at -inf). Only these entries get a regime label, and each row
    is one ``SWEEP_ROW % values``."""
    keep = (grids > 0) & (grids < var_z[:, None])
    d = np.where(keep, grids, var_z[:, None])
    lattice_bits = regions._log2_twice_ratio(var_z[:, None], d)
    bt_bits = regions._bt_min_sum(rho[:, None], c[:, None], d)
    gaps = np.where(keep, bt_bits - lattice_bits, -np.inf)
    if collapse_d:
        k = np.flatnonzero(keep.any(axis=1))
        i = gaps[k].argmax(axis=1)
    else:
        k, i = np.nonzero(keep)
    rho, c, d = rho[k], c[k], d[k, i]
    columns = [v.tolist() for v in (rho, c, d, lattice_bits[k, i], bt_bits[k, i], gaps[k, i])]
    columns.append(regions._bt_regimes(rho, c, d).tolist())
    return [SWEEP_ROW % row for row in zip(*columns)]


def sweep_rows_fig3():
    """Direct-scheme sum-rate surface over (c, D) at correlation 0.8, from
    one stacked Var(Z), ``_spacing`` for c and the D grids (numpy's values
    bit for bit, its zero-step rule included) and one rate pass; the
    quantize-and-bin columns read nan."""
    c = _spacing(0.05, 2.0, 40, log=False)
    var_z = gaussian._two_user_variances(np.full(40, 0.8), c)
    d = _spacing(0.01, 0.99 * var_z, 40, log=True)
    lattice_bits = regions._log2_twice_ratio(var_z[:, None], d)
    columns = (np.repeat(c, 40).tolist(), d.ravel().tolist(), lattice_bits.ravel().tolist())
    return [SWEEP_ROW % (0.8, c_k, d_k, bits, math.nan, math.nan, "lattice-only")
            for c_k, d_k, bits in zip(*columns)]


def sweep_rows_fig4():
    """Both schemes against distortion at rho = c = 0.8; shows the crossover.
    The distortions come from ``_spacing``, np.geomspace's bit for bit, its
    zero-step rule included."""
    return _sweep_rows([0.8], [0.8], lambda sz2: _spacing(0.021, 0.355, 256, log=True),
                       collapse_d=False)


def sweep_rows_fig5(n_c: int = 128, n_rho: int = 9, n_d: int = 32):
    """Max-over-distortion gap per (rho, c) cell over the scan rectangle.
    rho, c and the D grids come from ``_spacing``, numpy's values bit for
    bit, its zero-step rule included; the D grids of all cells as one
    C-ordered (cells, n_d) array."""
    rho_values = _spacing(0.1, 0.9, n_rho, log=False)
    c_values = _spacing(-2.0, 2.0, n_c, log=False)
    return _sweep_rows(
        rho_values,
        c_values,
        lambda sz2: _spacing(0.01 * sz2, 0.95 * sz2, n_d, log=True),
        collapse_d=True,
    )


def _check_custom_grid(args) -> None:
    """Reject custom sweep bounds and counts that give no valid grid."""
    _check_counts(args, rho_count=1, c_count=1, d_count=1)
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
        rho_values = _spacing(args.rho_min, args.rho_max, args.rho_count, log=False)
        c_values = _spacing(args.c_min, args.c_max, args.c_count, log=False)
        log = args.d_scale == "log"

        def d_grid(sz2):
            # numpy's overflow warnings are silenced and the result checked
            # instead: the values are unchanged, and an overflow becomes an
            # error that names its flag. A log-scale bound that underflows
            # to 0 is named here, where the spacing would reject it unnamed.
            var_z = f"Var(Z) = {np.max(sz2):.6g}"
            with np.errstate(over="ignore", invalid="ignore"):
                lo, hi = args.d_min * sz2, args.d_max * sz2
                bounds = (("--d-min", args.d_min, lo), ("--d-max", args.d_max, hi))
                for flag, frac, bound in bounds:
                    if log and not np.all(bound):
                        raise LatfunError(f"{flag} {frac} times {var_z} is 0 in float64, "
                                          "which the log scale cannot space")
                grid = _spacing(lo, hi, args.d_count, log)
            for flag, frac, bound in bounds:
                if not np.isfinite(bound).all():
                    raise LatfunError(f"{flag} {frac:g} times {var_z} overflows")
            if not np.isfinite(grid).all():
                raise LatfunError(f"the span from --d-min to --d-max times {var_z} overflows")
            return grid

        rows = _sweep_rows(rho_values, c_values, d_grid, collapse_d=False)
        if not rows:
            raise LatfunError(
                f"no distortion from --d-min {args.d_min:g} to --d-max {args.d_max:g} "
                "times Var(Z) lies in (0, Var(Z)) for any cell"
            )
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join([CSV_SCHEMA_LINE, SWEEP_HEADER, *rows, ""]))
    except OSError as exc:
        sys.stderr.write(f"failed to write {args.out}: {exc}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    _check_counts(args, n=1, trials=1, seed=0)
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
    """The lattice of ``--lattice``, times ``--scale`` where given: Z^n at
    ``--dim`` (1 when unset), A2 or a lattice file, whose dimension a given
    ``--dim`` must equal."""
    if args.lattice == "zn":
        lat = lattices.integer_lattice(1 if args.dim is None else args.dim)
    elif args.lattice == "a2":
        lat = lattices.hexagonal_lattice()
    else:
        lat = _read_input(args.lattice, "lattice", lattices.Lattice.from_json)
    if args.dim is not None and args.dim != lat.dim:
        raise LatfunError(f"--dim {args.dim} does not match the lattice's dimension {lat.dim}")
    return lat if args.scale is None else lat.scaled(args.scale)


def cmd_lattice(args) -> int:
    _check_counts(args, dim=1, samples=1, seed=0)
    if args.op != "cosets":
        _reject_unused(args, f"--op {args.op}", "nesting")
    if args.op != "construction-a":
        _reject_unused(args, f"--op {args.op}", "p", "k")
    rng = np.random.default_rng(args.seed)
    lat = _resolve_lattice(args)
    if args.op == "construction-a":
        p = 3 if args.p is None else args.p
        k = 1 if args.k is None else args.k
        result = lattices.construction_a(lat, p, k, rng)
        _print_json(
            {
                "op": "construction-a",
                "p": p,
                "k": k,
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
        nesting = 2.0 if args.nesting is None else args.nesting
        if not math.isfinite(nesting):
            raise LatfunError(f"--nesting must be finite, got {nesting}")
        with np.errstate(over="ignore"):  # an infinite entry is rejected in one line
            coarse = lattices.Lattice(lat.gen * nesting)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors end as every other error of the
    CLI does: one line, ``error: <message>``, and exit code 2. Its
    subcommands' parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_lat.add_argument("--dim", type=int, default=None,
                       help="dimension of zn (default 1); for a2 or a file, must match it")
    p_lat.add_argument("--scale", type=float, default=None,
                       help="multiply the lattice's generator (default 1)")
    p_lat.add_argument("--samples", type=int, default=200_000)
    p_lat.add_argument("--seed", type=int, default=0)
    p_lat.add_argument("--p", type=int, default=None,
                       help="prime of the construction-a op (default 3)")
    p_lat.add_argument("--k", type=int, default=None,
                       help="code rows of the construction-a op (default 1)")
    p_lat.add_argument("--nesting", type=float, default=None,
                       help="coarse = nesting * lattice for the cosets op (default 2)")
    p_lat.set_defaults(func=cmd_lattice)

    # Any token that starts with '-' and a digit, or '-.' and a digit, is a
    # value, and so are '-inf', '-infinity' and '-nan' in any case: Python
    # 3.11's argparse takes none of '-1e-3', '-1,0.5' or '-inf' for one.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d|-(inf(inity)?|nan)$", re.IGNORECASE)
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
