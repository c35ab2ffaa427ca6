"""Command-line interface: JSON payloads, CSV schema, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latfun
from latfun import (
    bt_min_sum_rates,
    bt_regime,
    function_variance,
    hexagonal_lattice,
    lattice_min_sum_rate,
    two_user_model,
)
from latfun.cli import (
    _spacing,
    _sweep_rows,
    main,
    sweep_rows_fig3,
    sweep_rows_fig4,
    sweep_rows_fig5,
)
from latfun.gaussian import PartitionPlan, singleton_plan
from latfun.simulate import _g6
from oracles import sweep_rows_fig3 as per_c_fig3_rows
from pin_golden import CLI_CASES, CLI_PINS, D4_GEN


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# region


def test_region_lattice(capsys):
    payload = run_json(capsys, "region", "--scheme", "lattice",
                       "--rho", "0.8", "--c", "0.8", "--d", "0.1")
    assert payload["min_sum_rate_bits"] == pytest.approx(math.log2(7.2), abs=1e-9)


def test_region_bt(capsys):
    payload = run_json(capsys, "region", "--scheme", "bt",
                       "--rho", "0.8", "--c", "0.8", "--d", "0.1")
    assert payload["sum_rate_bits"] == pytest.approx(0.5 * math.log2(66.56), abs=1e-9)
    assert payload["q1_star"] == pytest.approx(0.069231, abs=1e-6)
    assert payload["q2_star"] == pytest.approx(0.121294, abs=1e-6)


def test_region_bt_zero_rate(capsys):
    payload = run_json(capsys, "region", "--scheme", "bt",
                       "--rho", "0.8", "--c", "0.8", "--d", "0.5")
    assert payload["sum_rate_bits"] == 0.0
    assert payload["regime"] == "zero-rate"


@pytest.mark.parametrize(
    "rho, c, d, silent",
    [("0.8", "0.8", "0.3", "q2_star"), ("0.5", "1.5", "1.5", "q1_star")],
)
def test_region_bt_silent_encoder_noise_is_null(capsys, rho, c, d, silent):
    payload = run_json(capsys, "region", "--scheme", "bt",
                       "--rho", rho, "--c", c, "--d", d)
    assert payload["regime"] == silent[:2] + "-infinite"
    assert payload[silent] is None
    other = "q1_star" if silent == "q2_star" else "q2_star"
    assert math.isfinite(payload[other]) and payload[other] > 0
    assert payload["sum_rate_bits"] > 0


def test_region_bt_q2_star_where_two_alpha_c_squared_overflows(capsys):
    # 2 alpha c^2 overflows at c = 1e154; q2* = alpha d / (2 alpha c^2 - ...)
    # must not silently read 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(capsys, "region", "--scheme", "bt",
                           "--c", "1e154", "--rho", "0.1", "--d", "1")
    assert abs(payload["q2_star"] - 5e-309) <= 1e-6 * 5e-309


@pytest.mark.parametrize("d", ["nan", "inf", "-inf"])
def test_region_bt_non_finite_distortion_exit_two(capsys, d):
    code, out, err = run_cli(capsys, "region", "--scheme", "bt",
                             "--rho", "0.8", "--c", "0.8", f"--d={d}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_region_kuser_single_cell_matches_lattice(capsys, tmp_path):
    sz2, d = 0.36, 0.1
    qa = sz2 * d / (sz2 - d)
    plan = PartitionPlan(((0, 1),), (0,), (qa / 2, qa / 2))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json())
    payload = run_json(capsys, "region", "--scheme", "kuser", "--rho", "0.8",
                       "--c", "1,-0.8", "--plan", str(plan_file))
    total = sum(2.0 ** (-2 * r) for r in payload["rates_bits"])
    lattice = run_json(capsys, "region", "--scheme", "lattice",
                       "--rho", "0.8", "--c", "0.8", "--d", "0.1")
    assert total == pytest.approx(lattice["constraint_rhs"], abs=1e-12)
    assert payload["distortion"] == pytest.approx(0.1, abs=1e-12)


def test_region_kuser_singletons_match_bt_optimum(capsys, tmp_path):
    bt = run_json(capsys, "region", "--scheme", "bt",
                  "--rho", "0.8", "--c", "0.8", "--d", "0.1")
    q1, q2 = bt["q1_star"], bt["q2_star"]
    plan = PartitionPlan(((0,), (1,)), (0, 1), (q1, q2 * 0.8**2))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json())
    payload = run_json(capsys, "region", "--scheme", "kuser", "--rho", "0.8",
                       "--c", "1,-0.8", "--plan", str(plan_file))
    assert payload["sum_rate_bits"] == pytest.approx(bt["sum_rate_bits"], abs=1e-9)
    assert payload["distortion"] == pytest.approx(0.1, abs=1e-9)


# Each case lists argument lists that spell one negative value in different
# ways; the first is a spelling argparse has always read as a value.
_NEGATIVE_SPELLINGS = {
    "region-bt": [
        ("region", "--scheme", "bt", "--rho", "0.5", "--d", "0.1", "--c", c)
        for c in ("-0.25", "-2.5e-1", "-25E-2", "-.25e0", "-.25")
    ],
    "region-kuser": [
        ("region", "--scheme", "kuser", "--rho", "0.5", "--plan", "PLAN", *c)
        for c in (("--c=-1,0.5",), ("--c", "-1,0.5"), ("--c", "-1.0,0.5"), ("--c", "-1e0,5e-1"))
    ],
    "simulate": [("simulate", "--trials", "1000", "--c", c) for c in ("-0.1", "-1e-1", "-1E-1")],
    "sweep": [
        ("sweep", "--c-min", c, "--c-max", "0.5", "--c-count", "3", "--d-count", "4", "--out", "OUT")
        for c in ("-0.001", "-1e-3", "-1.0e-03")
    ],
}


@pytest.mark.parametrize("name", sorted(_NEGATIVE_SPELLINGS))
def test_negative_values_in_any_spelling_are_values(capsys, tmp_path, name):
    plan = tmp_path / "plan.json"
    plan.write_text(PartitionPlan(((0,), (1,)), (0, 1), (0.1, 0.1)).to_json())
    outputs = []
    for k, args in enumerate(_NEGATIVE_SPELLINGS[name]):
        out = tmp_path / f"sweep{k}.csv"
        args = [{"PLAN": str(plan), "OUT": str(out)}.get(a, a) for a in args]
        code, stdout, err = run_cli(capsys, *args)
        assert code == 0, (args, err)
        outputs.append(out.read_text() if name == "sweep" else stdout)
    assert outputs[0]
    assert outputs == [outputs[0]] * len(outputs)


@pytest.mark.parametrize("args, names", [
    (("sweep", "--c-count", "3", "--out", "OUT", "--c-min"), "--c-min"),
    (("region", "--scheme", "bt", "--rho", "0.5", "--d", "0.1", "--c"), "error:"),
    (("simulate", "--trials", "1000", "--d"), "error:"),
], ids=["sweep-c-min", "region-c", "simulate-d"])
def test_minus_inf_and_nan_are_values_that_exit_two(capsys, tmp_path, args, names):
    # A value '-inf', '-infinity' or '-nan', in any case, reaches the
    # command's one-line check rather than argparse's usage message.
    out = tmp_path / "out.csv"
    for value in ("-inf", "-nan", "-Infinity", "-INF", "-NaN"):
        code, stdout, err = run_cli(capsys, *[str(out) if a == "OUT" else a for a in args], value)
        assert (code, stdout) == (2, ""), (value, err)
        assert err.startswith("error:") and err.count("\n") == 1 and names in err, (value, err)
    assert not out.exists()


def test_sweep_minus_exponent_overflow_is_not_finite(capsys, tmp_path):
    out = tmp_path / "bad.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--out", str(out), "--c-min", "-1e400",
                                "--c-count", "3")
    assert (code, stdout, err) == (2, "", "error: --c-min must be finite, got -inf\n")
    assert not out.exists()


def test_region_kuser_requires_plan(capsys):
    code, _, err = run_cli(capsys, "region", "--scheme", "kuser", "--c", "1,-0.8")
    assert code == 2
    assert "plan" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_fig4_crossover(capsys, tmp_path):
    out = tmp_path / "fig4.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig4", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "rho,c,D,lattice_sum_bits,bt_sum_bits,gap_bits,regime"
    gaps = [float(line.split(",")[5]) for line in lines[2:]]
    assert gaps[0] > 0
    assert gaps[-1] < 0
    signs = np.sign(gaps)
    changes = int(np.sum(signs[:-1] != signs[1:]))
    assert changes == 1


def test_sweep_fig3_surface_is_direct_min_sum(capsys, tmp_path):
    out = tmp_path / "fig3.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig3", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()[2:]
    assert len(lines) > 100
    for line in lines[:: max(1, len(lines) // 40)]:
        parts = line.split(",")
        rho, c, d, lattice_bits = (float(parts[i]) for i in range(4))
        sz2 = 1 + c * c - 2 * rho * c
        assert lattice_bits == pytest.approx(math.log2(2 * sz2 / d), rel=1e-4)


# The sweep's row template with every number at full precision: a float's
# repr reads back as the same double.
_FULL_PRECISION_ROW = "%r,%r,%r,%r,%r,%r,%s"


def _full(x):
    """A number as ``_FULL_PRECISION_ROW`` writes it."""
    return repr(float(x))


def test_sweep_fig3_rows_match_the_per_c_loop(monkeypatch):
    assert sweep_rows_fig3() == per_c_fig3_rows(_g6)
    # every D and every rate, bit for bit
    monkeypatch.setattr(latfun.cli, "SWEEP_ROW", _FULL_PRECISION_ROW)
    assert sweep_rows_fig3() == per_c_fig3_rows(_full)


_ROW_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e300,
                    1e-300, -1e-300, 999999.5, 9.999995e-5, 1e16, -1e16, 123456789e10, 0.8]


@pytest.mark.parametrize("x", _ROW_EDGE_VALUES)
def test_sweep_row_template_gives_the_g6_bytes(x):
    values = (x, -x, 0.8, x, 1.0, x / 3)
    assert latfun.cli.SWEEP_ROW % (*values, "interior") == ",".join([*map(_g6, values), "interior"])


_SPACING_BOUND = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, 1.0, -2.0, 0.95,
                                  1.7e308, -1.7e308, math.inf, -math.inf, math.nan]) \
    | st.floats(allow_nan=False, allow_infinity=False)


def _spacing_bounds(cells):
    """(lo, hi), each a scalar or a list of ``cells`` bounds."""
    one = _SPACING_BOUND | st.lists(_SPACING_BOUND, min_size=cells, max_size=cells)
    return st.tuples(one, one)


@settings(max_examples=150, deadline=None)
@given(bounds=st.integers(1, 4).flatmap(_spacing_bounds),
       num=st.sampled_from([0, 1, 2, 3]) | st.integers(0, 300), log=st.booleans())
@example(bounds=(0.4, 0.4), num=5, log=True)                     # equal bounds: zero steps
@example(bounds=([0.5, 0.01], [0.5, 0.95]), num=32, log=False)  # a zero-step row beside another
@example(bounds=([0.4, 0.01], [0.4, 0.95]), num=32, log=True)
@example(bounds=(5e-324, 1e-322), num=300, log=False)           # the step underflows to 0
@example(bounds=([2.0, 1.0], [1.0, 5e-324]), num=32, log=True)  # descending, to 5e-324
@example(bounds=(-2.0, [-1e-300, -1.7e308]), num=7, log=True)   # negative geometric bounds
@example(bounds=([1.7e308, -1.7e308], [-1.7e308, 1.7e308]), num=3, log=False)
@example(bounds=([-math.inf, 1.0], [1.0, math.inf]), num=2, log=False)
@example(bounds=([1.0, 0.0], 2.0), num=3, log=True)             # a zero geometric bound
@example(bounds=(1.0, -0.0), num=1, log=True)
@example(bounds=(0.1, 0.9), num=1, log=False)
@example(bounds=(0.1, 0.9), num=-1, log=True)                   # a negative count
def test_spacing_is_numpys_bit_for_bit(bounds, num, log):
    # Scalar bounds give numpy's call on them; list bounds give one row per
    # cell, numpy's call on that cell's bounds alone.
    space = np.geomspace if log else np.linspace
    cells = [len(b) for b in bounds if isinstance(b, list)]
    rows = [tuple(b[k] if isinstance(b, list) else b for b in bounds)
            for k in range(cells[0])] if cells else [bounds]
    with np.errstate(all="ignore"):
        try:
            want = [space(*row, num) for row in rows]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _spacing(*bounds, num, log)
            return
        got = _spacing(*bounds, num, log)
    want = np.array(want) if cells else want[0]
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sweep_custom_grid(capsys, tmp_path):
    out = tmp_path / "custom.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--out", str(out),
        "--rho-min", "0.8", "--rho-max", "0.8", "--rho-count", "1",
        "--c-min", "0.8", "--c-max", "0.8", "--c-count", "1",
        "--d-count", "5",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 5


def test_sweep_bad_path_fails_with_io_code(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig4",
                           "--out", "/nonexistent-dir/x.csv")
    assert code == 1
    assert "failed to write" in err


def _reference_sweep_rows(rho_values, c_values, d_of_var, collapse_d, fmt=_g6):
    """The sweep cell by cell, from the public functions only, with each
    number formatted by ``fmt``."""
    rows = []
    for rho in rho_values:
        for c in c_values:
            model = two_user_model(rho, c)
            var_z = function_variance(model)
            grid = d_of_var(var_z)
            grid = grid[(grid > 0) & (grid < var_z)]
            if len(grid) == 0:
                continue
            lattice_bits = np.array([lattice_min_sum_rate(model, float(d)) for d in grid])
            bt_bits = bt_min_sum_rates(model, grid)
            gaps = bt_bits - lattice_bits
            sel = [int(np.argmax(gaps))] if collapse_d else range(len(grid))
            for i in sel:
                d = float(grid[i])
                values = (rho, c, d, float(lattice_bits[i]), float(bt_bits[i]), float(gaps[i]))
                rows.append(",".join([fmt(v) for v in values] + [bt_regime(model, d)]))
    return rows


def _per_row(space, lo, hi, n):
    """Var(Z) to ``space(lo * Var(Z), hi * Var(Z), n)``, and an array of
    Var(Z) row by row, each row ``space``'s call on that Var(Z) alone, as
    ``_sweep_rows`` asks of its grids."""
    def d_of_var(var_z):
        if np.ndim(var_z) == 0:
            return space(lo * var_z, hi * var_z, n)
        return np.array([space(lo * v, hi * v, n) for v in var_z])
    return d_of_var


def _geom(lo, hi, n):
    return _per_row(np.geomspace, lo, hi, n)


def _lin(lo, hi, n):
    return _per_row(np.linspace, lo, hi, n)


# the (n_rho, n_c) shapes of the benchmark's fig5 sweeps, 32 D each
_BENCH_FIG5_SHAPES = ((1, 12), (2, 6), (3, 4), (6, 2))


_SWEEP_GRIDS = {
    # fig4: one cell, a grid that ignores Var(Z)
    "fig4": ([0.8], [0.8], lambda var_z: np.geomspace(0.021, 0.355, 64), False),
    # fig5: max-gap row per cell, c on both sides of 0
    "fig5": (np.linspace(0.1, 0.9, 5), np.linspace(-2.0, 2.0, 13), _geom(0.01, 0.95, 32), True),
    # linear, D up to 1.3 Var(Z) (filtered), c < 0, c = 0 and c > 0
    "linear": (np.linspace(0.1, 0.9, 7), np.linspace(-2.0, 2.0, 9), _lin(0.01, 1.3, 33), False),
    # a Var(Z) = 0 cell (rho = 1, c = 1) keeps no D; spaced with the other
    # cell in one np.linspace call, its zero step would move 7 of that
    # cell's 24 distortions by an ulp, so each row is spaced alone
    "zero_var": ([0.6, 1.0], [1.0], _lin(0.05, 0.95, 24), False),
    # an empty sweep
    "empty": ([], [0.8], _geom(0.01, 0.95, 8), False),
    # D down to 1e-310 Var(Z): both rates take their logs apart
    "tiny_d": (np.linspace(0.1, 0.9, 3), [-1.0, 0.0, 0.8, 1.5], _geom(1e-310, 0.9, 16), False),
    # |c| = 1e150, Var(Z) about 1e300
    "huge_c": ([0.3, 0.7], [-1e150, 1e150], _geom(0.01, 0.95, 16), False),
    # the rho = 0 cell is not two-user, but keeps no D, so it is skipped
    "skip_non_two_user": ([0.0, 0.5], [-1.0], lambda var_z: np.geomspace(2.5, 2.9, 4), False),
    # equal D bounds: every grid repeats one D, spaced with a zero step
    "equal_d_bounds": ([0.3, 0.8], [-1.0, 0.8], _geom(0.4, 0.4, 5), False),
    # the fig5 preset at the benchmark's shapes (n_rho x n_c cells, 32 D each)
    **{f"fig5_{n_rho}x{n_c}": (np.linspace(0.1, 0.9, n_rho), np.linspace(-2.0, 2.0, n_c),
                               _geom(0.01, 0.95, 32), True)
       for n_rho, n_c in _BENCH_FIG5_SHAPES},
}


@pytest.mark.parametrize("name", sorted(_SWEEP_GRIDS))
def test_sweep_rows_match_per_cell_reference(monkeypatch, name):
    rho_values, c_values, d_of_var, collapse_d = _SWEEP_GRIDS[name]
    rows = _sweep_rows(rho_values, c_values, d_of_var, collapse_d)
    assert rows == _reference_sweep_rows(rho_values, c_values, d_of_var, collapse_d)
    assert bool(rows) == (name != "empty")
    # Every D of every grid, every rate and every gap, bit for bit.
    monkeypatch.setattr(latfun.cli, "SWEEP_ROW", _FULL_PRECISION_ROW)
    for collapse in {collapse_d, False}:
        assert _sweep_rows(rho_values, c_values, d_of_var, collapse) == _reference_sweep_rows(
            rho_values, c_values, d_of_var, collapse, fmt=_full
        )
    if name.startswith("fig5"):
        # the preset spaces the same rho, c and D with cli._spacing
        assert sweep_rows_fig5(len(c_values), len(rho_values), 32) == _reference_sweep_rows(
            rho_values, c_values, d_of_var, True, fmt=_full
        )


# sweeps -> whether some cell is not two-user (or has Var(Z) = 0), so that
# the cells are taken in turn to find the first error
_CELLS_IN_TURN = {
    "fig3": (sweep_rows_fig3, False),
    "fig4": (sweep_rows_fig4, False),
    "fig5": (sweep_rows_fig5, False),
    **{f"fig5_{n_rho}x{n_c}": (lambda n_rho=n_rho, n_c=n_c: sweep_rows_fig5(n_c, n_rho, 32), False)
       for n_rho, n_c in _BENCH_FIG5_SHAPES},
    **{name: (lambda name=name: _sweep_rows(*_SWEEP_GRIDS[name]), True)
       for name in ("zero_var", "skip_non_two_user")},
}


@pytest.mark.parametrize("name", sorted(_CELLS_IN_TURN))
def test_only_sweeps_with_an_invalid_cell_take_the_cells_in_turn(monkeypatch, name):
    """A sweep of two-user cells builds every row from the array pass and
    never runs the per-cell check, which would only slow it down."""
    sweep, in_turn = _CELLS_IN_TURN[name]
    calls = []
    check_cells = latfun.cli._check_cells
    monkeypatch.setattr(latfun.cli, "_check_cells",
                        lambda *args: calls.append(args) or check_cells(*args))
    assert sweep()
    assert bool(calls) == in_turn


@pytest.mark.parametrize("rho_values, c_values, d_of_var", [
    ([0.0, 1.5], [0.8], _geom(0.05, 0.95, 8)),   # region error, then a bad covariance
    ([0.0, 1.0], [1.0], _geom(0.05, 0.95, 8)),   # region error, then a zero geometric bound
    ([1.0, 0.0], [1.0], _geom(0.05, 0.95, 8)),   # the zero bound first
    ([0.5, 1.0], [1.0], _geom(0.05, 0.95, 8)),   # valid cell, then the zero bound
    ([0.5, float("nan")], [0.8], _geom(0.05, 0.95, 8)),
    ([0.5], [0.8], _geom(0.05, 0.95, -1)),       # a bad count
    # 1e-323 Var(Z) underflows to 0 only where Var(Z) < 0.5 (rho 0.9, c 0.9)
    ([0.0, 0.9], [0.9], _geom(1e-323, 0.95, 8)),
    ([0.5], [0.8, 1e200], _geom(0.05, 0.95, 8)),  # valid cell, then Var(Z) overflows
    ([-0.5], [0.8], _geom(0.05, 0.95, 8)),        # PSD, but not two-user
], ids=["region-then-cov", "region-then-grid", "grid-then-region", "grid", "nan-rho", "count",
        "region-then-underflow", "valid-then-overflow", "negative-rho"])
def test_sweep_rows_raise_the_first_failing_cell_error(rho_values, c_values, d_of_var):
    with pytest.raises(ValueError) as want:
        _reference_sweep_rows(rho_values, c_values, d_of_var, False)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _sweep_rows(rho_values, c_values, d_of_var, False)


@pytest.mark.parametrize("args", [
    ("--d-min", "nan"),
    ("--d-max", "inf"),
    ("--d-min=-0.5",),
    ("--d-min", "0"),
    ("--rho-min", "inf", "--rho-count", "3"),
    ("--c-max", "nan", "--c-count", "3"),
    ("--rho-count", "0"),
    ("--c-count", "0"),
    ("--d-count", "0"),
    ("--d-count=-1",),
    ("--d-max", "1e300", "--c-min", "1e10", "--c-max", "1e10"),
    ("--d-min=-1.5", "--d-max", "1.5", "--d-scale", "linear", "--c-min", "1e154",
     "--c-max", "1e154"),
    # every cell's grid lies at or above Var(Z): no rows
    ("--d-min", "1", "--d-count", "1"),
    ("--d-min", "1.5", "--d-max", "2", "--c-min", "-1", "--c-count", "3"),
    # on the log scale, --d-min or --d-max times Var(Z) underflows to 0
    ("--d-min", "5e-324"),
    ("--d-max", "5e-324", "--d-min", "0.5"),
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_sweep_custom_grid_rejects_bad_inputs(capsys, tmp_path, args):
    out = tmp_path / "bad.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, "sweep", "--out", str(out), *args)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert args[0].split("=")[0] in err  # names the flag at fault
    assert not out.exists()


def test_sweep_custom_error_names_the_first_failing_cell(capsys, tmp_path):
    # Both cells' --d-min times Var(Z) underflows to 0 (Var(Z) is 0.36, then
    # 0.4); the error names the first cell's Var(Z), not the largest.
    out = tmp_path / "bad.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--out", str(out), "--d-min", "5e-324",
                                "--c-min", "0.8", "--c-max", "1", "--c-count", "2")
    assert (code, stdout) == (2, "")
    assert err == ("error: --d-min 5e-324 times Var(Z) = 0.36 is 0 in float64, "
                   "which the log scale cannot space\n")
    assert not out.exists()


def test_sweep_tiny_distortions_give_finite_rates(capsys, tmp_path):
    out = tmp_path / "tiny.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "sweep", "--out", str(out), "--d-min", "1e-320",
                               "--d-max", "1e-310", "--d-count", "3",
                               "--c-min", "-1", "--c-max", "1", "--c-count", "3")
    assert code == 0, err
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 9
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row[3:6]), row


@pytest.mark.parametrize("args", [
    ("--scheme", "lattice", "--d", "1e-320"),
    ("--scheme", "bt", "--d", "1e-300"),
    ("--scheme", "bt", "--d", "1e-320", "--c", "0"),
    ("--scheme", "bt", "--d", "1e-320", "--c", "-0.5"),
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_region_tiny_distortion_is_finite(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(capsys, "region", *args)
    rate = payload.get("min_sum_rate_bits", payload.get("sum_rate_bits"))
    assert math.isfinite(rate) and rate > 500


# ---------------------------------------------------------------------------
# simulate


def test_simulate_two_user_json_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "runs.csv"
    payload = run_json(
        capsys, "simulate", "--trials", "50000", "--seed", "4", "--margin", "2",
        "--q1", "0.06", "--rho", "0.8", "--c", "0.8", "--d", "0.1",
        "--csv", str(csv_path),
    )
    assert payload["conditional_distortion"] == pytest.approx(0.1, rel=0.1)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("scheme,")
    assert len(lines) == 3


def test_simulate_csv_on_an_empty_file_writes_the_schema_once(capsys, tmp_path):
    csv_path = tmp_path / "runs.csv"
    csv_path.touch()
    for _ in range(2):
        code, _, err = run_cli(capsys, "simulate", "--trials", "1000", "--csv", str(csv_path))
        assert code == 0, err
    lines = csv_path.read_text().splitlines()
    assert lines[:2] == ["# schema=1", latfun.simulate.SimReport.CSV_HEADER]
    assert len(lines) == 4 and lines[2] == lines[3]


def test_simulate_csv_to_an_unwritable_path_exits_one(capsys, tmp_path):
    csv_path = tmp_path / "missing" / "runs.csv"
    code, out, err = run_cli(capsys, "simulate", "--trials", "1000", "--csv", str(csv_path))
    assert code == 1
    assert json.loads(out)["trials"] == 1000
    assert err.startswith(f"failed to append {csv_path}") and err.count("\n") == 1


@pytest.mark.parametrize("pair, scalar", [("1,-0.8", "0.8"), ("1,2", "-2")])
def test_simulate_two_user_pair_form_of_c(capsys, pair, scalar):
    """The pair '1,-c' is the scalar c: the same bytes."""
    args = ("simulate", "--trials", "1000", "--seed", "3", "--margin", "2")
    _, want, _ = run_cli(capsys, *args, "--c", scalar)
    assert run_cli(capsys, *args, "--c", pair) == (0, want, "")


@pytest.mark.parametrize("c", ["2,1", "1,-0.8,0.5"])
def test_simulate_two_user_rejects_other_coefficient_lists(capsys, c):
    code, out, err = run_cli(capsys, "simulate", "--trials", "1000", "--c", c)
    assert code == 2
    assert out == ""
    assert err == f"error: two-user schemes need a scalar c (or the pair '1,-c'); got {c}\n"


@pytest.mark.parametrize("d, code", [("1e-20", 0), ("1e-34", 2), ("1e-40", 2)])
def test_simulate_fails_closed_below_float64_resolution(capsys, d, code):
    got, out, err = run_cli(capsys, "simulate", "--d", d, "--q1", str(0.6 * float(d)),
                            "--trials", "2000")
    assert got == code
    if code == 0:
        assert json.loads(out)["empirical_distortion"] == pytest.approx(float(d), rel=0.15)
    else:
        assert out == ""
        assert err.startswith(f"error: target distortion {d} is below what float64")
        assert err.count("\n") == 1


def test_simulate_deterministic(capsys):
    args = ["simulate", "--trials", "20000", "--seed", "9", "--margin", "2",
            "--q1", "0.06", "--rho", "0.8", "--c", "0.8", "--d", "0.1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("args, message", [
    (("--seed=-1",), "--seed must be at least 0, got -1"),
    (("--n", "0"), "--n must be at least 1, got 0"),
    (("--n=-1",), "--n must be at least 1, got -1"),
    (("--side-info", "0.1", "--n", "0"), "--n must be at least 1, got 0"),
    (("--plan", "MISSING", "--seed=-2"), "--seed must be at least 0, got -2"),
], ids=["seed-negative", "n-zero", "n-negative", "side-info-n-zero", "plan-seed-negative"])
def test_simulate_invalid_counts_exit_two(capsys, args, message):
    # Checked before any file is read or codec is built.
    code, out, err = run_cli(capsys, "simulate", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_nonpositive_trials_exit_two(capsys, trials):
    code, out, err = run_cli(capsys, "simulate", f"--trials={trials}")
    assert (code, out, err) == (2, "", f"error: --trials must be at least 1, got {trials}\n")


@pytest.mark.parametrize("args", [
    ("simulate", "--c", "inf"),
    ("simulate", "--c", "nan"),
    ("simulate", "--margin", "inf"),
    ("simulate", "--margin", "nan"),
    ("region", "--scheme", "lattice", "--c", "inf"),
    ("region", "--scheme", "bt", "--c", "nan"),
    ("simulate", "--margin", "1e308"),
    ("lattice", "--op", "nsm", "--scale", "inf"),
    ("lattice", "--op", "nsm", "--dim", "3", "--scale", "nan"),
    ("lattice", "--lattice", "a2", "--op", "nsm", "--scale=-inf"),
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_non_finite_inputs_exit_two(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


_SRC = str(Path(latfun.__file__).resolve().parent.parent)


def _run_cli_process(*args, timeout, module="latfun"):
    """Run ``python -W error -m MODULE ARGS`` (``latfun`` by default) in a
    child process; a hang fails the test at ``timeout`` seconds instead of
    stalling the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-W", "error", "-m", module, *args],
                          capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("module", ["latfun", "latfun.cli"])
def test_module_entry_points(module):
    """``python -m`` prints the pinned stdout and exits with main's code."""
    proc = _run_cli_process(*CLI_CASES["region-lattice"], timeout=60, module=module)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.loads(CLI_PINS.read_text())["stdout"]["region-lattice"]
    proc = _run_cli_process("simulate", "--trials", "0", timeout=60, module=module)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("args, cause", [
    (("lattice", "--lattice", "a2", "--op", "nsm", "--scale", "1e200"), "1e-154..1e154"),
    (("lattice", "--lattice", "a2", "--op", "nsm", "--scale", "1e-200"), "1e-154..1e154"),
    (("lattice", "--op", "nsm", "--dim", "8", "--scale", "1e40"), "1e-308..1e308"),
    (("simulate", "--c", "1e200"), "function variance"),
    (("region", "--scheme", "lattice", "--c", "1e200", "--d", "0.1"), "function variance"),
    (("simulate", "--c", "1e150", "--trials", "1000"), "second moment"),
    (("simulate", "--c", "1e150", "--side-info", "0.1", "--trials", "1000"), "Cov"),
], ids=lambda v: "-".join(a.lstrip("-") for a in v) if isinstance(v, tuple) else None)
def test_overflowing_inputs_exit_two_in_time(args, cause):
    proc = _run_cli_process(*args, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert cause in proc.stderr


@pytest.mark.parametrize("scale", ["1e100", "1e150"])
def test_lattice_nsm_at_extreme_scale(scale):
    proc = _run_cli_process("lattice", "--lattice", "a2", "--op", "nsm", "--scale", scale,
                            "--samples", "5000", timeout=60)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    target = 5.0 / (36.0 * math.sqrt(3.0))
    assert abs(payload["normalized_second_moment"] - target) < 5 * payload["std_error"]


def test_lattice_nsm_of_a_small_scaled_lattice():
    # Searched at its own scale, an A2 lattice scaled by 1e-6 took every row
    # for a tie under the absolute tolerances and printed an NSM of 0.3754.
    proc = _run_cli_process("lattice", "--lattice", "a2", "--op", "nsm", "--scale", "1e-6",
                            timeout=60)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    target = 5.0 / (36.0 * math.sqrt(3.0))
    assert abs(payload["normalized_second_moment"] - target) < 4 * payload["std_error"]


def test_lattice_nsm_of_a_tiny_scaled_lattice_ends():
    # At 1e-7 the tie search could not prune and did not end.
    proc = _run_cli_process("lattice", "--lattice", "a2", "--op", "nsm", "--scale", "1e-7",
                            timeout=20)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("op", ["moment", "nsm", "cosets"])
@pytest.mark.parametrize("gen", [[1.0, 1e-12, 0.0, 1e-12], [1e12, 1.0, 0.0, 1.0]],
                         ids=["sliver", "shear"])
def test_ill_conditioned_lattice_file_exits_two_in_time(tmp_path, op, gen):
    # Both generators once counted as diagonal, and were rounded
    # componentwise: the shear's moment printed 4.17e22, twice its true
    # 2.08e22, as exact ("samples": 0). Searched, the shear takes minutes.
    # Their condition numbers, about 1e12, are beyond what the search takes.
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"dim": 2, "gen": gen}))
    proc = _run_cli_process("lattice", "--lattice", str(path), "--op", op, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: generator condition number")
    assert proc.stderr.count("\n") == 1


def test_lattice_diagonal_moment_at_the_edge_of_the_range():
    # Each squared scale (1.44e308) is finite but their sum is not.
    proc = _run_cli_process("lattice", "--op", "moment", "--dim", "2", "--scale", "1.2e154",
                            timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["second_moment"] == 1.2e307


def test_import_leaves_scipy_out():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import latfun, latfun.cli; "
            "latfun.epi_entropy_sandwich(0.3, 0.02); "
            "latfun.optimal_scaling(latfun.two_user_model(0.8, 0.8), 0.1); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, _SRC], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", [
    ("simulate", "--q1", "1e-320", "--trials", "200"),
    ("simulate", "--trials", "200", "--plan", "PLAN", "--rho", "0.5", "--c", "1,-0.8,0.5"),
    ("region", "--scheme", "kuser", "--plan", "PLAN", "--rho", "0.5", "--c", "1,-0.8,0.5"),
], ids=["simulate-q1", "simulate-plan", "region-kuser"])
def test_subnormal_noise_share_gives_finite_rates(capsys, tmp_path, command):
    """A subnormal q gives rates of some 531 bits, not an infinite one."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"partition": [[0, 1], [2]], "order": [1, 0], '
                         '"q": [1e-320, 0.05, 0.05]}')
    args = [str(plan_file) if a == "PLAN" else a for a in command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(capsys, *args)
    rates = payload["rates_bits"]
    assert all(math.isfinite(r) for r in rates)
    assert 530.0 < rates[0] < 532.0


_NUMPY_MEMORY_ERROR = ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                       "and data type float64")


@pytest.mark.parametrize("message, shown", [
    (_NUMPY_MEMORY_ERROR, _NUMPY_MEMORY_ERROR), ("", "allocation failed"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("args", [
    ("lattice", "--lattice", "zn", "--dim", "100000", "--op", "moment"),
    ("simulate", "--n", "100000", "--trials", "10"),
], ids=["lattice-moment", "simulate"])
def test_unallocatable_dimension_exit_two(capsys, monkeypatch, args, message, shown):
    """An n x n generator that cannot be allocated is one error line. np.eye
    is patched to fail as numpy does, so nothing large is allocated."""
    eye = np.eye
    sizes = []

    def eye_without_memory(n, *rest, **kwargs):
        if n > 1000:
            sizes.append(n)
            raise MemoryError(message)
        return eye(n, *rest, **kwargs)

    monkeypatch.setattr(np, "eye", eye_without_memory)
    code, out, err = run_cli(capsys, *args)
    assert sizes == [100000]
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory: {shown}\n"


@pytest.mark.parametrize("q", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", [("simulate", "--trials", "1000"),
                                     ("region", "--scheme", "kuser")], ids=["simulate", "region"])
def test_plan_with_non_finite_q_exit_two(capsys, tmp_path, command, q):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"partition": [[0], [1]], "order": [0, 1], "q": [%s, 0.1]}' % q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *command, "--plan", str(plan_file),
                                 "--c", "1,-0.8")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def _scaled_k_user_run(capsys, tmp_path, scale):
    """``simulate --cov C --plan P --c 1,-0.8`` with C = scale [[1, 0.5],
    [0.5, 1]] and q = scale / 100 per user, warnings turned into errors."""
    cov = tmp_path / f"cov{scale:g}.json"
    cov.write_text(json.dumps([scale, 0.5 * scale, 0.5 * scale, scale]))
    plan = tmp_path / f"plan{scale:g}.json"
    plan.write_text(json.dumps({"partition": [[0], [1]], "order": [0, 1], "q": [scale / 100] * 2}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, "simulate", "--cov", str(cov), "--plan", str(plan),
                       "--c", "1,-0.8", "--trials", "20000", "--seed", "4")


@pytest.mark.parametrize("scale", [1e160, 1e-300])
def test_k_user_report_at_extreme_scales(capsys, tmp_path, scale):
    # The squared errors of 1e160 sources overflowed in the accumulator
    # (OverflowError, exit 1), and those of 1e-300 sources underflowed to a
    # standard error of 0.0. Either scale must exit 2 with one line or give
    # the unit-scale report scaled.
    code, out, err = _scaled_k_user_run(capsys, tmp_path, 1.0)
    assert code == 0, err
    unit = json.loads(out)
    code, out, err = _scaled_k_user_run(capsys, tmp_path, scale)
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        return
    assert code == 0, err
    got = json.loads(out, parse_constant=_reject_constant)
    # abs=0: pytest's default absolute tolerance would pass any tiny value.
    for key in ("empirical_distortion", "distortion_std_error", "conditional_distortion",
                "dither_moment_check", "target_distortion"):
        assert got[key] == pytest.approx(unit[key] * scale, rel=1e-12, abs=0.0), key
    assert got["cell_moment_checks"] == pytest.approx(
        [v * scale for v in unit["cell_moment_checks"]], rel=1e-12, abs=0.0)
    for key in ("overload_rate", "cell_overload_rates", "rates_bits"):
        assert got[key] == pytest.approx(unit[key], rel=1e-12, abs=0.0), key


def test_simulate_undefined_statistic_is_null(capsys):
    # One trial that overloads leaves the conditional distortion undefined,
    # and one trial has no standard error.
    code, out, err = run_cli(capsys, "simulate", "--trials", "1", "--seed", "3", "--margin", "1")
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["overload_rate"] == 1.0
    assert payload["conditional_distortion"] is None
    assert payload["distortion_std_error"] is None
    assert math.isfinite(payload["empirical_distortion"])


def test_simulate_q1_out_of_range_names_interval(capsys):
    code, _, err = run_cli(capsys, "simulate", "--q1", "0.5", "--d", "0.1",
                           "--rho", "0.8", "--c", "0.8", "--trials", "1000")
    assert code == 2
    assert "0.138462" in err


def test_simulate_kuser_plan(capsys, tmp_path):
    plan = PartitionPlan(((0,), (1,)), (0, 1), (0.1, 0.1))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json())
    payload = run_json(
        capsys, "simulate", "--plan", str(plan_file), "--rho", "0.8",
        "--c", "1,-0.8", "--trials", "100000", "--seed", "3", "--margin", "2",
    )
    assert payload["scheme"] == "hybrid"
    assert payload["conditional_distortion"] == pytest.approx(0.1228487, rel=0.1)


@pytest.mark.parametrize("command", [("simulate", "--trials", "1000", "--seed", "3"),
                                     ("region", "--scheme", "kuser")], ids=["simulate", "region"])
def test_kuser_covariance_file_matches_the_equicorrelation(capsys, tmp_path, command):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(singleton_plan(2, (0.1, 0.1)).to_json())
    cov_file = tmp_path / "cov.json"
    cov_file.write_text("[[1.0, 0.8], [0.8, 1.0]]")
    args = (*command, "--plan", str(plan_file), "--c", "1,-0.8")
    _, want, _ = run_cli(capsys, *args, "--rho", "0.8")
    assert run_cli(capsys, *args, "--cov", str(cov_file)) == (0, want, "")


@pytest.mark.parametrize("c", ["1", "1,-0.8,0.5"])
@pytest.mark.parametrize("command", [("simulate", "--trials", "1000"),
                                     ("region", "--scheme", "kuser")], ids=["simulate", "region"])
def test_kuser_plan_of_another_user_count_exit_two(capsys, tmp_path, command, c):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(singleton_plan(2, (0.1, 0.1)).to_json())
    code, out, err = run_cli(capsys, *command, "--plan", str(plan_file), "--c", c)
    assert code == 2
    assert out == ""
    assert err == "error: plan and model disagree on the number of users\n"


def test_simulate_side_info(capsys):
    payload = run_json(
        capsys, "simulate", "--side-info", "0.1", "--rho", "0.8",
        "--c", "0.8", "--d", "0.05", "--q1", "0.02", "--trials", "100000",
        "--seed", "5", "--margin", "2",
    )
    assert payload["conditional_distortion"] == pytest.approx(0.05, rel=0.1)


# Edge values for the float flags of the fuzzed commands: signed zeros,
# +-1e+-300, the smallest subnormal, the non-finite values and ordinary ones.
_FUZZ_VALUES = ["0", "-0", "1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "inf", "-inf",
                "nan", "1", "-1", "0.02", "0.06", "0.1", "0.5", "-0.5", "0.8", "2", "3"]
_FUZZ_FLAGS = ("--margin", "--q1", "--rho", "--c", "--d", "--side-info")


def _fuzz_values(flags):
    """Each flag left out or given one of the edge values."""
    return st.fixed_dictionaries({flag: st.none() | st.sampled_from(_FUZZ_VALUES)
                                  for flag in flags})


def _fuzz_args(values):
    return [arg for flag, value in values.items() if value is not None for arg in (flag, value)]


def _run_fuzzed(args):
    """``main(args)`` in-process, so the suite's warnings-as-errors reaches the
    library: (exit code, stdout, stderr). An exit other than 0 must be 2 with
    one stderr line and no stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code == 2, (args, err)
        assert out == "", args
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
    return code, out, err


@settings(max_examples=250, deadline=None)
@given(n=st.integers(-1, 4), trials=st.integers(-1, 64), seed=st.integers(-2, 2**63),
       fixed_dither=st.booleans(), values=_fuzz_values(_FUZZ_FLAGS))
def test_simulate_fuzzed_arguments_report_or_exit_two(n, trials, seed, fixed_dither, values):
    args = ["simulate", "--n", str(n), "--trials", str(trials), f"--seed={seed}"]
    args += ["--fixed-dither"] if fixed_dither else []
    args += _fuzz_args(values)
    code, out, err = _run_fuzzed(args)
    if code == 0:
        payload = json.loads(out, parse_constant=_reject_constant)
        assert math.isfinite(payload["empirical_distortion"]), args
        assert err == "", args
    bad = [flag for flag, value, low in (("--n", n, 1), ("--trials", trials, 1),
                                         ("--seed", seed, 0)) if value < low]
    if bad:  # checked first, so the error names one of them
        assert code == 2 and any(f"error: {flag} " in err for flag in bad), (args, err)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A plan file for ``region --scheme kuser`` and room for sweep CSVs."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "plan.json").write_text(PartitionPlan(((0,), (1,)), (0, 1), (0.1, 0.1)).to_json())
    return path


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(["lattice", "bt", "kuser", "nope"]),
       c=st.none() | st.sampled_from(_FUZZ_VALUES)
       | st.sampled_from(_FUZZ_VALUES).map("1,{}".format),
       with_plan=st.booleans(), values=_fuzz_values(("--rho", "--d")))
def test_region_fuzzed_arguments_report_or_exit_two(fuzz_dir, scheme, c, with_plan, values):
    args = ["region", "--scheme", scheme, *_fuzz_args(values)]
    args += ["--c", c] if c is not None else []
    args += ["--plan", str(fuzz_dir / "plan.json")] if with_plan else []
    code, out, err = _run_fuzzed(args)
    if code == 0:
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["scheme"] == scheme and err == "", args


_SWEEP_BOUNDS = ("--rho-min", "--rho-max", "--c-min", "--c-max", "--d-min", "--d-max")


@settings(max_examples=200, deadline=None)
@given(preset=st.sampled_from(["custom", "custom", "custom", "fig9"]),
       scale=st.none() | st.sampled_from(["log", "linear", "cubic"]),
       counts=st.fixed_dictionaries({f"--{name}-count": st.none() | st.integers(-1, 3).map(str)
                                     for name in ("rho", "c", "d")}),
       values=_fuzz_values(_SWEEP_BOUNDS))
def test_sweep_fuzzed_arguments_write_csv_or_exit_two(fuzz_dir, preset, scale, counts, values):
    out = fuzz_dir / "sweep.csv"
    out.unlink(missing_ok=True)
    args = ["sweep", "--out", str(out), "--preset", preset, *_fuzz_args(values)]
    args += ["--d-scale", scale] if scale is not None else []
    args += _fuzz_args(counts)
    code, stdout, err = _run_fuzzed(args)
    if code != 0:
        assert not out.exists(), args
        return
    assert (stdout, err) == ("", ""), args
    schema, header, *rows = out.read_text().splitlines()
    assert schema == "# schema=1"
    assert header == "rho,c,D,lattice_sum_bits,bt_sum_bits,gap_bits,regime"
    assert rows, args  # a grid with no rows is an error
    for row in rows:
        *numbers, regime = row.split(",")
        assert len(numbers) == 6 and regime, (args, row)
        assert all(math.isfinite(float(x)) for x in numbers), (args, row)


# The lattice command, fuzzed in child processes, since a closest-point
# search or a prime test can hang: each case runs ``main`` in one child per
# batch, which prints [exit code, stdout, stderr] per case as it ends.
_LATTICE_CHILD = """
import contextlib, io, json, sys
from latfun.cli import main
for args in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""

_A2_ROWS = [1.0, 0.5, 0.0, math.sqrt(3.0) / 2.0]
# Lattice files: entries at 1e+-300 and A2 at 1e+-150; the near-diagonal
# generator (one off-diagonal 2e-13), the sliver and the 1e12 shear; D4; and
# malformed files.
_LATTICE_FILES = {
    "tiny": {"dim": 2, "gen": [1e-300, 0.0, 0.0, 1e-300]},
    "huge": {"dim": 2, "gen": [1e300, 0.0, 0.0, 1e300]},
    "mixed": {"dim": 2, "gen": [1e300, 0.0, 0.0, 1e-300]},
    "a2-1e-150": {"dim": 2, "gen": [1e-150 * v for v in _A2_ROWS]},
    "a2-1e150": {"dim": 2, "gen": [1e150 * v for v in _A2_ROWS]},
    "near-diagonal": {"dim": 3, "gen": [1.5, 0.0, 2e-13, 0.0, 0.5, 0.0, 0.0, 0.0, 2.0]},
    "sliver": {"dim": 2, "gen": [1.0, 1e-12, 0.0, 1e-12]},
    "shear": {"dim": 2, "gen": [1e12, 1.0, 0.0, 1.0]},
    "d4": {"dim": 4, "gen": D4_GEN.reshape(-1).tolist()},
}
_MALFORMED_LATTICE_FILES = {
    "truncated": "{", "list": "[]", "null": "null", "no-gen": '{"dim": 2}',
    "short-gen": '{"dim": 2, "gen": [1, 2, 3]}', "text-dim": '{"dim": "two", "gen": [1]}',
    "nan-entry": '{"dim": 2, "gen": [NaN, 0, 0, 1]}', "dim-0": '{"dim": 0, "gen": []}',
    "dim-1e400": '{"dim": 1e400, "gen": [1]}', "text-entry": '{"dim": 2, "gen": ["a", 0, 0, 1]}',
    "singular": '{"dim": 2, "gen": [1, 1, 1, 1]}',
}
_LATTICE_FLOATS = _FUZZ_VALUES + ["-5e-324", "1e-310", "1e154", "1e-154", "1.5"]
# The flags that only one op reads.
_LATTICE_OP_FLAGS = {"cosets": ("--nesting",), "construction-a": ("--p", "--k")}


@pytest.fixture(scope="module")
def lattice_files(tmp_path_factory):
    """Name -> path of every fuzzed lattice file, and of one that is missing."""
    path = tmp_path_factory.mktemp("lattices")
    files = {name: json.dumps(payload) for name, payload in _LATTICE_FILES.items()}
    files.update(_MALFORMED_LATTICE_FILES)
    for name, text in files.items():
        (path / f"{name}.json").write_text(text)
    return {name: str(path / f"{name}.json") for name in (*files, "missing")}


def _run_lattice_cases(cases):
    """Run ``latfun`` on each argument list of ``cases`` in one child
    process, with warnings as errors; each must exit 0 with one line of
    strict JSON, or 2 with one stderr line and no stdout. A case that raises,
    or does not end within the batch's 60 s, fails the test by name.
    Returns the payloads, None for an exit 2."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run([sys.executable, "-W", "error", "-c", _LATTICE_CHILD],
                              input=json.dumps(cases), capture_output=True, text=True,
                              timeout=60, env=env)
        lines, stderr = proc.stdout.splitlines(), proc.stderr
    except subprocess.TimeoutExpired as exc:
        lines, stderr = (exc.stdout or b"").decode().splitlines(), "timed out"
    assert len(lines) == len(cases), f"latfun {' '.join(cases[len(lines)])}: {stderr}"
    payloads = []
    for args, line in zip(cases, lines):
        code, out, err = json.loads(line)
        if code == 0:
            assert err == "" and out.count("\n") == 1, (args, out, err)
            payloads.append(json.loads(out, parse_constant=_reject_constant))
        else:
            assert code == 2 and out == "", (args, code, out)
            assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
            payloads.append(None)
    return payloads


def test_lattice_named_edge_cases_answer_or_exit_two(lattice_files):
    # The Baseline's near-diagonal generator is searched and answers; the
    # sliver and the shear exit 2; a prime past 2^31 - 1 exits 2 at once (2^63
    # - 25 took minutes of trial division); nestings that overflow the
    # generator or the nesting determinant exit 2 with no warning line.
    f = lattice_files
    cases = {
        "near-diagonal": ["--lattice", f["near-diagonal"], "--op", "nsm", "--samples", "2000"],
        "sliver": ["--lattice", f["sliver"], "--op", "moment", "--samples", "2000"],
        "shear": ["--lattice", f["shear"], "--op", "cosets"],
        "p-2^63-25": ["--op", "construction-a", "--p", "9223372036854775783", "--dim", "2"],
        "p-2^31": ["--op", "construction-a", "--p", "2147483659", "--dim", "2"],
        "nesting-overflow": ["--lattice", f["a2-1e150"], "--op", "cosets", "--nesting", "1e300"],
        "det-overflow": ["--lattice", f["a2-1e-150"], "--op", "cosets", "--nesting", "1e300"],
        "tiny": ["--lattice", f["tiny"], "--op", "moment"],
        "malformed": ["--lattice", f["truncated"], "--op", "nsm"],
        "missing": ["--lattice", f["missing"], "--op", "nsm"],
    }
    got = dict(zip(cases, _run_lattice_cases([["lattice", *args] for args in cases.values()])))
    assert got.pop("near-diagonal")["samples"] == 2000
    assert got == dict.fromkeys(got)  # every other case exits 2


@settings(max_examples=3, deadline=None)
@given(cases=st.lists(st.fixed_dictionaries({
    "--op": st.sampled_from(["moment", "nsm", "cosets", "construction-a"]),
    "--lattice": st.sampled_from(["zn", "zn", "a2", *_LATTICE_FILES, *_MALFORMED_LATTICE_FILES,
                                  "missing"]),
    "--samples": st.sampled_from(["-1", "0", "1", "999", "1000", "3000"]),
    "--dim": st.none() | st.integers(-1, 9).map(str),
    "--scale": st.none() | st.sampled_from(_LATTICE_FLOATS),
    "--nesting": st.none() | st.sampled_from(_LATTICE_FLOATS),
    "--seed": st.none() | st.sampled_from(["-1", "0", "7"]),
    "--p": st.none() | st.sampled_from(["-3", "0", "1", "2", "3", "4", "7", "2147483647",
                                        "2147483659", "9223372036854775783"]),
    "--k": st.none() | st.integers(-1, 9).map(str),
    "unread": st.sampled_from([False, False, False, True]),
}), min_size=30, max_size=30))
def test_lattice_fuzzed_arguments_answer_or_exit_two(lattice_files, cases):
    # Every op; --scale and --nesting at +-inf, NaN, +-1e+-300, subnormals,
    # 0 and negative values; --samples, --dim, --p and --k at and past their
    # bounds; lattice files at 1e+-300, the near-diagonal, sliver and shear
    # generators, and malformed or missing files. --samples is always given,
    # so that a non-diagonal moment draws at most 3,000 points. An op exits
    # 2 on a flag it does not read, so only a case drawn with ``unread``
    # keeps those flags; the others reach the op.
    def argv(case):
        case = dict(case, **{"--lattice": lattice_files.get(case["--lattice"], case["--lattice"])})
        if not case.pop("unread"):
            read = _LATTICE_OP_FLAGS.get(case["--op"], ())
            case.update((flag, None) for flag in ("--nesting", "--p", "--k") if flag not in read)
        return ["lattice", *(f"{flag}={value}" for flag, value in case.items() if value is not None)]

    _run_lattice_cases([argv(case) for case in cases])


def test_lattice_zn_nsm(capsys):
    payload = run_json(capsys, "lattice", "--lattice", "zn", "--dim", "1", "--op", "nsm")
    assert payload["normalized_second_moment"] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_lattice_construction_a(capsys):
    payload = run_json(capsys, "lattice", "--op", "construction-a",
                       "--p", "3", "--k", "1", "--dim", "2", "--seed", "1")
    assert payload["coset_count"] == 3
    assert payload["nesting_verified"] is True
    assert payload["nesting_ratio"] == pytest.approx(math.sqrt(3.0))


def test_lattice_a2_nsm_monte_carlo(capsys):
    payload = run_json(capsys, "lattice", "--lattice", "a2", "--op", "nsm",
                       "--samples", "200000", "--seed", "2")
    target = 5.0 / (36.0 * math.sqrt(3.0))
    assert abs(payload["normalized_second_moment"] - target) < 3 * payload["std_error"] + 1e-6


def test_lattice_file_of_a_small_base_matches_the_scaled_lattice(capsys, tmp_path):
    # A2's generator times 1e-6, read from a file, is its own base lattice.
    # Its search runs in an exact power-of-two frame of unit scale, so it
    # prints what --scale 1e-6 prints (a search at the absolute tie
    # tolerances printed 0.3748 here, against A2's 0.0802).
    small = tmp_path / "a2-small.json"
    gen = hexagonal_lattice().gen * 1e-6
    small.write_text(json.dumps({"dim": 2, "gen": gen.ravel().tolist()}))
    args = ("--op", "nsm", "--samples", "20000")
    code, by_file, err = run_cli(capsys, "lattice", "--lattice", str(small), *args)
    assert code == 0, err
    code, by_scale, err = run_cli(capsys, "lattice", "--lattice", "a2", "--scale", "1e-6", *args)
    assert code == 0, err
    assert by_file == by_scale
    assert json.loads(by_file)["normalized_second_moment"] == pytest.approx(0.0804, abs=5e-4)


def test_lattice_scale_multiplies_a_lattice_file(capsys, tmp_path):
    # --scale multiplies a file's generator, as it does Z^n's and A2's, so a
    # moment at the same seed grows by the scale's square.
    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps({"dim": 4, "gen": D4_GEN.reshape(-1).tolist()}))
    args = ("lattice", "--lattice", str(d4), "--op", "moment", "--samples", "2000")
    plain = run_json(capsys, *args)["second_moment"]
    scaled = run_json(capsys, *args, "--scale", "5")["second_moment"]
    assert scaled == pytest.approx(25.0 * plain, rel=1e-9)


def test_lattice_dim_may_restate_the_lattice_dimension(capsys, tmp_path):
    plane = tmp_path / "plane.json"
    plane.write_text('{"dim": 2, "gen": [1.0, 0.0, 0.0, 1.0]}')
    for lattice in ("a2", str(plane)):
        args = ("lattice", "--lattice", lattice, "--op", "cosets", "--nesting", "2")
        assert run_json(capsys, *args, "--dim", "2") == run_json(capsys, *args)


def test_lattice_cosets(capsys):
    payload = run_json(capsys, "lattice", "--lattice", "zn", "--dim", "2",
                       "--op", "cosets", "--nesting", "2")
    assert payload["index"] == 4
    assert payload["count"] == 4


@pytest.mark.parametrize("args, message", [
    (("--op", "moment", "--lattice", "SINGULAR"), "generator is singular within tolerance"),
    (("--op", "construction-a", "--p", "1", "--dim", "2"), "p = 1 is not prime"),
    (("--op", "cosets", "--nesting", "1e20"), "nesting matrix entry 1e+20 is outside the int64 range"),
    # inf times a generator's zero entries is NaN: checked before the product.
    (("--op", "cosets", "--nesting", "inf", "--dim", "2"), "--nesting must be finite, got inf"),
    (("--lattice", "a2", "--op", "cosets", "--nesting", "-inf"), "--nesting must be finite, got -inf"),
    (("--op", "moment", "--seed=-3"), "--seed must be at least 0, got -3"),
    (("--op", "nsm", "--dim", "0"), "--dim must be at least 1, got 0"),
    (("--op", "construction-a", "--dim=-2"), "--dim must be at least 1, got -2"),
    # Z^n's moment is exact and would ignore the count
    (("--op", "moment", "--samples=-1"), "--samples must be at least 1, got -1"),
    (("--lattice", "a2", "--op", "nsm", "--samples", "0"), "--samples must be at least 1, got 0"),
    (("--lattice", "a2", "--op", "moment", "--dim", "7"),
     "--dim 7 does not match the lattice's dimension 2"),
    (("--lattice", "PLANE", "--op", "cosets", "--dim", "3"),
     "--dim 3 does not match the lattice's dimension 2"),
    # An op refuses a flag it would not read, even at the value it would take.
    (("--op", "nsm", "--dim", "2", "--p", "11", "--nesting", "9"),
     "--nesting does not apply to --op nsm"),
    (("--lattice", "PLANE", "--op", "moment", "--nesting", "2"),
     "--nesting does not apply to --op moment"),
    (("--op", "construction-a", "--dim", "2", "--nesting", "2"),
     "--nesting does not apply to --op construction-a"),
    (("--lattice", "a2", "--op", "moment", "--p", "3"), "--p does not apply to --op moment"),
    (("--op", "cosets", "--k", "1"), "--k does not apply to --op cosets"),
], ids=["singular-generator-file", "construction-a-p1", "cosets-nesting-beyond-int64",
        "cosets-nesting-inf-zn", "cosets-nesting-minus-inf-a2", "seed-negative", "dim-zero",
        "dim-negative", "samples-negative-zn", "samples-zero-a2", "dim-of-a2", "dim-of-file",
        "nesting-unread-by-nsm", "nesting-unread-by-moment", "nesting-unread-by-construction-a",
        "p-unread-by-moment", "k-unread-by-cosets"])
def test_lattice_invalid_inputs_exit_two(capsys, tmp_path, args, message):
    files = {"SINGULAR": '{"dim": 2, "gen": [1.0, 2.0, 2.0, 4.0]}',
             "PLANE": '{"dim": 2, "gen": [1.0, 0.0, 0.0, 1.0]}'}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    args = [str(tmp_path / f"{a}.json") if a in files else a for a in args]
    code, out, err = run_cli(capsys, "lattice", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", "--scheme", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (("region", "--scheme", "nope"),
     "argument --scheme: invalid choice: 'nope' (choose from 'lattice', 'bt', 'kuser')"),
    (("simulate", "--trials", "abc"), "argument --trials: invalid int value: 'abc'"),
    (("simulate", "--rho", "abc"), "argument --rho: invalid float value: 'abc'"),
    (("region",), "the following arguments are required: --scheme"),
], ids=["invalid-choice", "non-numeric-int", "non-numeric-float", "missing-scheme"])
def test_argparse_errors_are_one_line(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args", [("--help",), ("simulate", "--help")], ids=["top", "simulate"])
def test_help_keeps_its_usage(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: latfun") and "--help" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("args, flag", [
    (("simulate", "--side-info", "0.1", "--d", "0.05", "--q1", "0.02", "--fixed-dither"),
     "--fixed-dither"),
    (("simulate", "--side-info", "0.1", "--cov", "COV"), "--cov"),
    (("simulate", "--plan", "PLAN", "--c", "1,-0.8", "--fixed-dither"), "--fixed-dither"),
    (("simulate", "--plan", "PLAN", "--c", "1,-0.8", "--side-info", "0.1"), "--side-info"),
    (("simulate", "--cov", "/nonexistent.json"), "--cov"),
    (("simulate", "--cov", "COV"), "--cov"),
    (("region", "--scheme", "lattice", "--plan", "PLAN"), "--plan"),
    (("region", "--scheme", "lattice", "--cov", "COV"), "--cov"),
    (("region", "--scheme", "bt", "--plan", "PLAN"), "--plan"),
    (("region", "--scheme", "bt", "--cov", "COV"), "--cov"),
], ids=["side-info-fixed-dither", "side-info-cov", "plan-fixed-dither", "plan-side-info",
        "two-user-missing-cov", "two-user-cov", "lattice-plan", "lattice-cov", "bt-plan",
        "bt-cov"])
def test_flags_the_scheme_ignores_exit_two(capsys, tmp_path, args, flag):
    """A flag that the chosen scheme would ignore is one error line naming it,
    even where the file it names is valid or does not exist."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(singleton_plan(2, (0.1, 0.1)).to_json())
    cov_file = tmp_path / "cov.json"
    cov_file.write_text("[1.0, 0.8, 0.8, 1.0]")
    files = {"PLAN": str(plan_file), "COV": str(cov_file)}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in args])
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + flag + " ") and err.count("\n") == 1


def test_validation_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "region", "--scheme", "lattice",
                           "--rho", "0.8", "--c", "0.8", "--d", "0.99")
    assert code == 2
    assert "error:" in err


_INPUT_FLAGS = {
    "plan": ("simulate", "--c", "1,-0.8", "--trials", "10", "--plan"),
    "cov": ("simulate", "--c", "1,-0.8", "--trials", "10", "--plan", "PLAN", "--cov"),
    "lattice": ("lattice", "--op", "nsm", "--samples", "10", "--lattice"),
}


@pytest.mark.parametrize("kind, text", [
    ("plan", None), ("cov", None), ("lattice", None),
    ("plan", "{}"),
    ("plan", '{"partition": 5, "order": [0], "q": [0.1]}'),
    ("plan", '{"partition": [[0], []], "order": [0, 1], "q": [0.1, 0.1]}'),
    ("cov", '{"cov": [1, 0, 0, 1]}'),
    ("lattice", '{"dim": 2}'),
    ("lattice", "[1, 2]"),
    # integer fields take JSON integers, not fractions, bools or strings
    ("lattice", '{"dim": 2.7, "gen": [1, 0, 0, 1]}'),
    ("lattice", '{"dim": true, "gen": [1]}'),
    ("lattice", '{"dim": "2", "gen": [1, 0, 0, 1]}'),
    ("plan", '{"partition": [[0], [1.9]], "order": [0, 1], "q": [0.1, 0.1]}'),
    ("plan", '{"partition": [[false], [true]], "order": [0, 1], "q": [0.1, 0.1]}'),
    ("plan", '{"partition": [[0], [1]], "order": [0, 1.0], "q": [0.1, 0.1]}'),
    ("plan", '{"partition": [[0], [1]], "order": [0, true], "q": [0.1, 0.1]}'),
    # q takes JSON numbers, not bools or strings
    ("plan", '{"partition": [[0], [1]], "order": [0, 1], "q": ["0.1", 0.1]}'),
    ("plan", '{"partition": [[0], [1]], "order": [0, 1], "q": [0.1, true]}'),
], ids=["plan-dir", "cov-dir", "lattice-dir", "plan-empty", "plan-partition-int", "plan-empty-cell",
        "cov-object", "lattice-no-gen", "lattice-list", "lattice-fraction-dim", "lattice-bool-dim",
        "lattice-string-dim", "plan-fraction-user", "plan-bool-user", "plan-float-order",
        "plan-bool-order", "plan-string-q", "plan-bool-q"])
def test_malformed_input_file_exit_two(capsys, tmp_path, kind, text):
    """A directory, or a file of the wrong JSON shape, is one line naming it."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(singleton_plan(2, (0.1, 0.1)).to_json())
    bad = tmp_path / "bad"
    if text is None:
        bad.mkdir()
    else:
        bad.write_text(text)
    args = [str(plan_file) if a == "PLAN" else a for a in _INPUT_FLAGS[kind]]
    code, out, err = run_cli(capsys, *args, str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err
