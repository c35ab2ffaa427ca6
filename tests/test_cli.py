"""Command-line interface: JSON payloads, CSV schema, exit codes, determinism."""

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

import latfun
from latfun import (
    bt_min_sum_rates,
    bt_regime,
    function_variance,
    lattice_min_sum_rate,
    two_user_model,
)
from latfun.cli import _g6, _sweep_rows, main
from latfun.gaussian import PartitionPlan


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


def _reference_sweep_rows(rho_values, c_values, d_of_var, collapse_d):
    """The sweep cell by cell, from the public functions only: the rows and
    each cell's distortions, as raw bytes."""
    rows, grids = [], []
    for rho in rho_values:
        for c in c_values:
            model = two_user_model(rho, c)
            var_z = function_variance(model)
            grid = d_of_var(var_z)
            grid = grid[(grid > 0) & (grid < var_z)]
            if len(grid) == 0:
                continue
            grids.append(grid.tobytes())
            lattice_bits = np.array([lattice_min_sum_rate(model, float(d)) for d in grid])
            bt_bits = bt_min_sum_rates(model, grid)
            gaps = bt_bits - lattice_bits
            sel = [int(np.argmax(gaps))] if collapse_d else range(len(grid))
            for i in sel:
                d = float(grid[i])
                values = (rho, c, d, float(lattice_bits[i]), float(bt_bits[i]), float(gaps[i]))
                rows.append(",".join([_g6(v) for v in values] + [bt_regime(model, d)]))
    return rows, grids


def _geom(lo, hi, n):
    return lambda var_z: np.geomspace(lo * var_z, hi * var_z, n, axis=-1)


def _lin(lo, hi, n):
    return lambda var_z: np.linspace(lo * var_z, hi * var_z, n, axis=-1)


_SWEEP_GRIDS = {
    # fig4: one cell, a grid that ignores Var(Z)
    "fig4": ([0.8], [0.8], lambda var_z: np.geomspace(0.021, 0.355, 64), False),
    # fig5: max-gap row per cell, c on both sides of 0
    "fig5": (np.linspace(0.1, 0.9, 5), np.linspace(-2.0, 2.0, 13), _geom(0.01, 0.95, 32), True),
    # linear, D up to 1.3 Var(Z) (filtered), c < 0, c = 0 and c > 0
    "linear": (np.linspace(0.1, 0.9, 7), np.linspace(-2.0, 2.0, 9), _lin(0.01, 1.3, 33), False),
    # a Var(Z) = 0 cell (rho = 1, c = 1) keeps no D; spaced with the other
    # cell in one np.linspace call, its zero step would move 7 of that
    # cell's 24 distortions by an ulp
    "zero_var": ([0.6, 1.0], [1.0], _lin(0.05, 0.95, 24), False),
    # an empty sweep
    "empty": ([], [0.8], _geom(0.01, 0.95, 8), False),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_GRIDS))
def test_sweep_rows_match_per_cell_reference(monkeypatch, name):
    rho_values, c_values, d_of_var, collapse_d = _SWEEP_GRIDS[name]
    grids = []

    def recording(model, d_values, bt_min_sum_rates=latfun.regions.bt_min_sum_rates):
        grids.append(np.asarray(d_values).tobytes())
        return bt_min_sum_rates(model, d_values)

    monkeypatch.setattr(latfun.regions, "bt_min_sum_rates", recording)
    rows = _sweep_rows(rho_values, c_values, d_of_var, collapse_d)
    want_rows, want_grids = _reference_sweep_rows(rho_values, c_values, d_of_var, collapse_d)
    assert rows == want_rows
    assert grids == want_grids
    assert bool(rows) == (name != "empty")


@pytest.mark.parametrize("rho_values, c_values, d_of_var", [
    ([0.0, 1.5], [0.8], _geom(0.05, 0.95, 8)),   # region error, then a bad covariance
    ([0.0, 1.0], [1.0], _geom(0.05, 0.95, 8)),   # region error, then a zero geometric bound
    ([1.0, 0.0], [1.0], _geom(0.05, 0.95, 8)),   # the zero bound first
    ([0.5, 1.0], [1.0], _geom(0.05, 0.95, 8)),   # valid cell, then the zero bound
    ([0.5, float("nan")], [0.8], _geom(0.05, 0.95, 8)),
    ([0.5], [0.8], _geom(0.05, 0.95, -1)),       # a bad count
    # 1e-323 Var(Z) underflows to 0 only where Var(Z) < 0.5 (rho 0.9, c 0.9)
    ([0.0, 0.9], [0.9], _geom(1e-323, 0.95, 8)),
], ids=["region-then-cov", "region-then-grid", "grid-then-region", "grid", "nan-rho", "count",
        "region-then-underflow"])
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


def test_simulate_deterministic(capsys):
    args = ["simulate", "--trials", "20000", "--seed", "9", "--margin", "2",
            "--q1", "0.06", "--rho", "0.8", "--c", "0.8", "--d", "0.1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_nonpositive_trials_exit_two(capsys, trials):
    code, out, err = run_cli(capsys, "simulate", f"--trials={trials}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


def _run_cli_process(*args, timeout):
    """Run ``python -W error -m latfun ARGS`` in a child process; a hang
    fails the test at ``timeout`` seconds instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-W", "error", "-m", "latfun", *args],
                          capture_output=True, text=True, timeout=timeout, env=env)


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


def test_lattice_diagonal_moment_at_the_edge_of_the_range():
    # Each squared scale (1.44e308) is finite but their sum is not.
    proc = _run_cli_process("lattice", "--op", "moment", "--dim", "2", "--scale", "1.2e154",
                            timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["second_moment"] == 1.2e307


def test_import_leaves_scipy_out():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import latfun, latfun.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, _SRC], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_simulate_undefined_statistic_is_null(capsys):
    # One trial that overloads leaves the conditional distortion undefined.
    code, out, err = run_cli(capsys, "simulate", "--trials", "1", "--seed", "3", "--margin", "1")
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["overload_rate"] == 1.0
    assert payload["conditional_distortion"] is None
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


def test_simulate_side_info(capsys):
    payload = run_json(
        capsys, "simulate", "--side-info", "0.1", "--rho", "0.8",
        "--c", "0.8", "--d", "0.05", "--q1", "0.02", "--trials", "100000",
        "--seed", "5", "--margin", "2",
    )
    assert payload["conditional_distortion"] == pytest.approx(0.05, rel=0.1)


# ---------------------------------------------------------------------------
# lattice


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


def test_lattice_cosets(capsys):
    payload = run_json(capsys, "lattice", "--lattice", "zn", "--dim", "2",
                       "--op", "cosets", "--nesting", "2")
    assert payload["index"] == 4
    assert payload["count"] == 4


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", "--scheme", "bogus"])
    assert exc.value.code == 2


def test_validation_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "region", "--scheme", "lattice",
                           "--rho", "0.8", "--c", "0.8", "--d", "0.99")
    assert code == 2
    assert "error:" in err
