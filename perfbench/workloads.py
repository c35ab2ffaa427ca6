"""The four benchmark workloads: inputs made from a seed, one op, its check.

Every workload draws its op inputs from a fixed, finite universe (library
seeds for the Monte Carlo workloads, grid shapes for the sweep). The
benchmark seed only chooses the order in which the universe is visited, so
every op any seed can produce has a reference in ``refs/``, pinned from the
library before any optimisation. The library itself receives only the
generated inputs.

A workload object is built from the imported ``latfun`` package and the
benchmark seed. It calls the library through module attributes
(``lf.simulate.run_two_user_experiment``), never through names bound at
import time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math

import numpy as np

# Two-user codec at the CLI defaults of ``latfun simulate``.
RHO, C, D, Q1, MARGIN = 0.8, 0.8, 0.1, 0.06, 2.0

# Exact normalized second moments (Conway and Sloane, Table 2.3).
NSM_A2 = 5.0 / (36.0 * math.sqrt(3.0))
NSM_D4 = 0.0766032
NSM_SIGMAS = 4.0

FLOAT_REL_TOL = 1e-9   # far below Monte Carlo noise, far above summation-order noise
SWEEP_BITS_TOL = 1e-4  # the acceptance suite's oracle tolerance, in bits


def op_order(seed: int, universe: int) -> np.ndarray:
    """Order in which a run visits the universe of op inputs."""
    return np.random.default_rng([seed, 0x6C61]).permutation(universe)


def mc_record(rep) -> dict:
    """The checked content of a ``SimReport``: counts exact, statistics as floats."""
    t = rep.trials
    return {
        "trials": t,
        "overloads": round(rep.overload_rate * t),
        "cell_overloads": [round(r * t) for r in rep.cell_overload_rates],
        "empirical_distortion": rep.empirical_distortion,
        "distortion_std_error": rep.distortion_std_error,
        "conditional_distortion": rep.conditional_distortion,
        "dither_moment_check": rep.dither_moment_check,
        "cell_moment_checks": list(rep.cell_moment_checks),
        "rates_bits": list(rep.rates.rates),
    }


_EXACT = ("trials", "overloads", "cell_overloads")


def _diff_mc(prefix: str, got: dict, want: dict) -> list:
    bad = []
    for field, ref in want.items():
        val = got.get(field)
        if field in _EXACT:
            ok = val == ref
        else:
            refs = ref if isinstance(ref, list) else [ref]
            vals = val if isinstance(val, list) else [val]
            ok = len(vals) == len(refs) and all(
                math.isclose(v, r, rel_tol=FLOAT_REL_TOL, abs_tol=1e-300)
                for v, r in zip(vals, refs)
            )
        if not ok:
            bad.append(f"{prefix}{field}: got {val!r}, pinned {ref!r}")
    return bad


def _g6_granularity(*values: float) -> float:
    """One unit in the last place of the CLI's 6-significant-digit format."""
    big = max(abs(v) for v in values)
    return 0.0 if big == 0.0 else 10.0 ** (math.floor(math.log10(big)) - 5)


class Workload:
    name = ""
    work_unit = ""      # what ``work`` counts, per op
    work = 0
    universe = 0        # number of distinct op inputs
    tail_level = 0.9    # op-time percentile reported as op_tail_s
    traced_ops = 0      # ops in the traced phase of a --trace 1 run

    def __init__(self, lf, seed: int):
        self.lf = lf
        self.order = op_order(seed, self.universe)

    def op(self, i: int):
        """Run the i-th op of this seed; returns (reference key, record)."""
        return self.run(int(self.order[i % self.universe]))

    def run(self, j: int):
        raise NotImplementedError

    def setup_failures(self) -> list:
        return []

    def diff(self, got: dict, want: dict) -> list:
        """Mismatches against the pinned record; a record may hold one
        report or several named ones."""
        if all(isinstance(v, dict) for v in want.values()):
            return [m for part in want for m in _diff_mc(part + ".", got[part], want[part])]
        return _diff_mc("", got, want)


class TwoUserZ1(Workload):
    """The headline codec on Z^1: time splits between ``simulate`` and
    diagonal rounding in ``lattices``; the kernel does no work, so this is
    the bypass for kernel changes."""

    name = "mc_two_user_z1"
    work_unit = "trials"
    trials = 262_144
    work = trials
    universe = 256
    tail_level = 0.95
    traced_ops = 40

    def __init__(self, lf, seed):
        super().__init__(lf, seed)
        model = lf.gaussian.two_user_model(RHO, C)
        self.codec = lf.simulate.build_two_user_codec(model, D, Q1, n=1, margin=MARGIN)

    def run(self, j):
        rep = self.lf.simulate.run_two_user_experiment(self.codec, self.trials, j)
        return str(j), mc_record(rep)

    def provenance(self):
        return {"trials_per_op": {"two_user_z1": self.trials}}


class SequentialZ4(Workload):
    """The K-user and side-information codecs on Z^4: ``simulate`` used with
    per-cell loops, earlier cells as predictors and 3-column draws, so a
    codec refactor that helps the two-user path but slows these shows."""

    name = "mc_seq_codecs_z4"
    work_unit = "trials"
    k_trials = 32_768
    si_trials = 32_768
    work = k_trials + si_trials
    universe = 128
    tail_level = 0.90
    traced_ops = 20
    n = 4

    def __init__(self, lf, seed):
        super().__init__(lf, seed)
        g = lf.gaussian
        cov = np.full((3, 3), RHO)
        np.fill_diagonal(cov, 1.0)
        self.model = g.SourceModel(cov, np.array([1.0, -C, 0.5]))
        self.plan = g.PartitionPlan(((0, 1), (2,)), (0, 1), (0.05, 0.05, 0.05))
        si_model = g.noisy_function_side_model(RHO, C, 0.1)
        self.si_codec = lf.simulate.build_side_info_codec(
            si_model, 0.05, 0.02, n=self.n, margin=MARGIN
        )

    def run(self, j):
        sim = self.lf.simulate
        rep_k = sim.run_k_user_experiment(
            self.model, self.plan, n=self.n, trials=self.k_trials, seed=j, margin=MARGIN
        )
        rep_s = sim.run_side_info_experiment(self.si_codec, self.si_trials, j)
        return str(j), {"k_user": mc_record(rep_k), "side_info": mc_record(rep_s)}

    def provenance(self):
        return {"trials_per_op": {"k_user_z4": self.k_trials, "side_info_z4": self.si_trials}}


def d4_lattice(lf):
    """D4: integer vectors with an even coordinate sum (columns generate)."""
    gen = np.array(
        [[2.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    return lf.lattices.Lattice(gen)


class SphereA2D4(Workload):
    """The two-user codec on the non-diagonal A2 and D4 bases: the only
    workload where the closest-point kernel works, at two dimensions."""

    name = "mc_sphere_a2_d4"
    work_unit = "trials"
    a2_trials = 1024
    d4_trials = 256
    work = a2_trials + d4_trials
    universe = 96
    setups = 4          # distinct moment-estimate streams; the seed picks one
    a2_samples = 20_000
    d4_samples = 10_000
    tail_level = 0.90
    traced_ops = 20

    def __init__(self, lf, seed):
        super().__init__(lf, seed)
        self.setup = seed % self.setups
        rng = np.random.default_rng([self.setup, 0x5350])
        lat = lf.lattices
        model = lf.gaussian.two_user_model(RHO, C)
        self.nsm = {}
        self.codecs = {}
        for tag, base, samples, n in (
            ("a2", lat.hexagonal_lattice(), self.a2_samples, 2),
            ("d4", d4_lattice(lf), self.d4_samples, 4),
        ):
            est = lat.second_moment(base, samples, rng)
            scale = base.volume ** (2.0 / n)
            self.nsm[tag] = (est.value / scale, est.std_error / scale)
            self.codecs[tag] = lf.simulate.build_two_user_codec(
                model, D, Q1, n=n, margin=MARGIN, base_lattice=base.with_moment(est)
            )

    def setup_failures(self):
        bad = []
        for tag, exact in (("a2", NSM_A2), ("d4", NSM_D4)):
            value, se = self.nsm[tag]
            if not abs(value - exact) <= NSM_SIGMAS * se:
                bad.append(f"{tag} NSM {value:.6f} +- {se:.6f} is not within "
                           f"{NSM_SIGMAS:g} standard errors of {exact:.6f}")
        return bad

    def run(self, j):
        sim = self.lf.simulate
        rep_a = sim.run_two_user_experiment(self.codecs["a2"], self.a2_trials, j)
        rep_d = sim.run_two_user_experiment(self.codecs["d4"], self.d4_trials, j)
        return f"{self.setup}:{j}", {"a2": mc_record(rep_a), "d4": mc_record(rep_d)}

    def provenance(self):
        return {
            "trials_per_op": {"two_user_a2": self.a2_trials, "two_user_d4": self.d4_trials},
            "moment_samples": {"a2": self.a2_samples, "d4": self.d4_samples},
            "moment_setup": self.setup,
            "nsm": self.nsm,
        }


class SweepFig5(Workload):
    """A coarse fig5 pass: closed-form (c > 0) and numeric (c <= 0) regions
    with no lattice or simulate work; the closed-form cells bypass any
    change to the numeric minimizer."""

    name = "sweep_fig5_grid"
    work_unit = "cells"
    # (n_rho, n_c): 12 (rho, c) cells each, half of them with c < 0, so
    # every shape costs the same and the seed changes inputs, not cost.
    grids = ((1, 12), (2, 6), (3, 4), (6, 2))
    n_d = 32
    work = 12 * n_d
    universe = len(grids)
    tail_level = 0.85
    traced_ops = 8

    def run(self, j):
        n_rho, n_c = self.grids[j]
        rows = self.lf.cli.sweep_rows_fig5(n_c=n_c, n_rho=n_rho, n_d=self.n_d)
        return f"{n_rho}x{n_c}", {"rows": rows}

    def diff(self, got, want):
        if len(got["rows"]) != len(want["rows"]):
            return [f"{len(got['rows'])} rows, pinned {len(want['rows'])}"]
        bad = []
        for g_row, w_row in zip(got["rows"], want["rows"]):
            g, w = g_row.split(","), w_row.split(",")
            exact = [0, 1, 2, 3, 6]  # rho, c, D, lattice_sum_bits, regime
            ok = len(g) == len(w) and all(g[k] == w[k] for k in exact)
            for k in (4, 5):  # bt_sum_bits, gap_bits
                if ok:
                    a, b = float(g[k]), float(w[k])
                    ok = abs(a - b) <= SWEEP_BITS_TOL + _g6_granularity(a, b)
            if not ok:
                bad.append(f"row {g_row!r}, pinned {w_row!r}")
        return bad

    def provenance(self):
        return {"grids": [list(g) for g in self.grids], "n_d": self.n_d}


WORKLOADS = {w.name: w for w in (TwoUserZ1, SequentialZ4, SphereA2D4, SweepFig5)}
