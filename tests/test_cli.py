"""Command-line interface: JSON payloads, CSV schema, exit codes, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from latfun.cli import main
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
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_non_finite_inputs_exit_two(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


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
