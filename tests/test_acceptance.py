"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -rA tests/test_acceptance.py` to see every verdict.
"""

import math
import time

import numpy as np

from levyreg.config import parse_config
from levyreg.fields import make_scalar_field
from levyreg.flow_engine import (
    flow_derivative_exponential,
    flow_derivative_variational,
    solve_random_ode,
)
from levyreg.levy_spec import DensityForm, FiniteAtomic, kallenberg_b_profile
from levyreg.path_sampler import LevyPath
from levyreg.scenarios import run_scenario


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_jump_time_derivative_agreement():
    t0 = time.perf_counter()
    summary = run_scenario(parse_config("scenario = S2\nreplicas = 100\nseed = 101\n"))
    wall = time.perf_counter() - t0
    d = summary.diagnostics
    ok = d["all_within_tolerance"] and summary.failures == 0 and wall < 60.0
    _verdict(1, "jump-time derivative vs re-simulation", ok,
             f"max rel err {d['max_relative_error']:.2e} <= 1e-4 over "
             f"{d['configs']} configs, both one-sided limits, {wall:.1f}s")
    assert d["max_relative_error"] <= 1e-4
    assert summary.failures == 0
    assert wall < 60.0


def test_criterion_2_flow_derivative_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    step = 1.0 / 4096
    worst_fd = 0.0
    worst_var = 0.0
    for i in range(100):
        kind = i % 4
        if kind == 0:
            a = make_scalar_field("logistic-slope", {
                "low": 0.0, "high": float(rng.uniform(0.4, 1.0)),
                "rate": float(rng.uniform(0.4, 1.2)),
                "center": float(rng.uniform(-0.5, 0.5))})
        elif kind == 1:
            a = make_scalar_field("linear", {"slope": float(rng.uniform(-0.8, 0.8))})
        elif kind == 2:
            a = make_scalar_field("affine", {
                "slope": float(rng.uniform(-0.8, 0.8)),
                "intercept": float(rng.uniform(-0.3, 0.3))})
        else:
            a = make_scalar_field("arctan-diffusion", {
                "amplitude": float(rng.uniform(0.1, 0.25)),
                "curvature": float(rng.uniform(0.4, 0.9)),
                "center": float(rng.uniform(-0.4, 0.4))})
        n_jumps = int(rng.integers(1, 4))
        times = np.sort(rng.uniform(0.05, 0.95, n_jumps))
        while np.any(np.diff(times) <= 0.01):
            times = np.sort(rng.uniform(0.05, 0.95, n_jumps))
        sizes = rng.uniform(0.15, 0.6, n_jumps) * np.where(
            rng.uniform(size=n_jumps) < 0.5, -1.0, 1.0)
        path = LevyPath(1.0, float(rng.uniform(-0.3, 0.3)), times, sizes)
        x0 = float(rng.uniform(-0.8, 0.8))
        sol = solve_random_ode(a, path, x0, step)
        got = flow_derivative_exponential(a, sol)
        h = 1e-5
        fd = (solve_random_ode(a, path, x0 + h, step).terminal_x
              - solve_random_ode(a, path, x0 - h, step).terminal_x) / (2.0 * h)
        worst_fd = max(worst_fd, abs(got - fd) / abs(fd))
        var = flow_derivative_variational(a, path, x0, step)
        worst_var = max(worst_var, abs(got - var) / abs(var))
    wall = time.perf_counter() - t0
    ok = worst_fd <= 1e-5 and worst_var <= 1e-8
    _verdict(2, "flow derivative: exponential vs oracles", ok,
             f"central-difference rel err {worst_fd:.2e} <= 1e-5 and "
             f"variational rel err {worst_var:.2e} <= 1e-8 over 100 configs, "
             f"{wall:.1f}s")
    assert worst_fd <= 1e-5
    assert worst_var <= 1e-8


def test_criterion_3_doeblin_atom():
    t0 = time.perf_counter()
    summary = run_scenario(parse_config(
        "scenario = S1\nreplicas = 100000\nseed = 303\n"))
    wall = time.perf_counter() - t0
    d = summary.diagnostics
    ok = (d["atom_detected"] and d["location_within_window"]
          and d["mass_within_3se"] and wall < 120.0)
    _verdict(3, "finite-activity atom at the no-jump skeleton", ok,
             f"location {d['atom_location']:.6f} vs skeleton "
             f"{d['skeleton_location']:.6f} (window {d['window']:.1e}), mass "
             f"{d['atom_mass']:.5f} vs {d['expected_mass']:.5f} "
             f"(3se {3 * d['mass_standard_error']:.5f}), {wall:.0f}s")
    assert d["atom_detected"]
    assert d["location_within_window"]
    assert d["mass_within_3se"]
    assert wall < 120.0


def test_criterion_4_regularization():
    t0 = time.perf_counter()
    summary = run_scenario(parse_config(
        "scenario = S3\nreplicas = 10000\nseed = 404\n"))
    wall = time.perf_counter() - t0
    d = summary.diagnostics
    ok = (d["total_rate"] == 8190.0 and d["lattice_concentration_z"] >= 0.999
          and d["lattice_concentration_x"] <= 0.01
          and not d["atoms_detected_x"] and wall < 300.0)
    _verdict(4, "monotone drift regularizes the lattice driver", ok,
             f"lattice(Z)={d['lattice_concentration_z']:.4f} >= 0.999, "
             f"lattice(X)={d['lattice_concentration_x']:.5f} <= 0.01, "
             f"atoms(X)={d['atoms_detected_x']}, rate {d['total_rate']:.0f}, "
             f"{wall:.0f}s")
    assert d["total_rate"] == 8190.0
    assert d["lattice_concentration_z"] >= 0.999
    assert d["lattice_concentration_x"] <= 0.01
    assert not d["atoms_detected_x"]
    assert wall < 300.0


def test_criterion_5_flat_drift_counterexample():
    summary = run_scenario(parse_config(
        "scenario = S4\nreplicas = 10000\nseed = 505\n"))
    d = summary.diagnostics
    ok = d["lattice_concentration_x_shifted"] >= 0.95
    _verdict(5, "flat drift fails to regularize", ok,
             f"lattice(X - shift)={d['lattice_concentration_x_shifted']:.4f} "
             f">= 0.95 (driver lattice {d['lattice_concentration_z']:.4f})")
    assert d["lattice_concentration_x_shifted"] >= 0.95


def test_criterion_6_stratification_invariance():
    summary = run_scenario(parse_config(
        "scenario = S5\nreplicas = 1000\nrepetitions = 100\nseed = 606\n"))
    d = summary.diagnostics
    ok = d["ks_passes"] >= 95 and d["monotone_paths"] == d["monotone_paths_checked"] == 100
    _verdict(6, "first-jump resampling invariance + strict monotonicity", ok,
             f"KS below 1% critical in {d['ks_passes']}/100 repetitions (need 95); "
             f"terminal strictly monotone in the marked time on "
             f"{d['monotone_paths']}/{d['monotone_paths_checked']} residual paths "
             f"({d['monotone_grid_points']}-point grid)")
    assert d["ks_passes"] >= 95
    assert d["monotone_paths_checked"] == 100
    assert d["monotone_paths"] == 100


def test_criterion_7_marcus_suite():
    summary = run_scenario(parse_config("scenario = S6\nreplicas = 50\nseed = 707\n"))
    d = summary.diagnostics
    ok = (d["unit_reduction_pass"] and d["proportional_pass"]
          and d["conjugacy_pass"] and d["chain_rule_pass"] and d["remainder_stable"])
    _verdict(7, "Marcus reductions", ok,
             f"unit-diffusion gap {d['unit_reduction_worst']:.1e} <= 1e-10; "
             f"proportional closed form {d['proportional_worst']:.1e} <= 1e-6; "
             f"conjugacy {d['conjugacy_worst']:.1e} <= 1e-5; chain rule "
             f"{d['chain_rule_residual']:.1e} <= 1e-5; remainder constant "
             f"{d['remainder_constant_coarse']:.3f} -> "
             f"{d['remainder_constant_fine']:.3f} (+-10%)")
    assert d["unit_reduction_worst"] <= 1e-10
    assert d["proportional_worst"] <= 1e-6
    assert d["conjugacy_worst"] <= 1e-5
    assert d["chain_rule_residual"] <= 1e-5
    assert d["remainder_stable"]


def test_criterion_8_doss_sussman_equivalence():
    summary = run_scenario(parse_config(
        "scenario = S7\nreplicas = 10000\nseed = 808\n"))
    d = summary.diagnostics
    ok = d["equivalence_pass"]
    _verdict(8, "Doss-Sussmann vs Marcus terminal law", ok,
             f"KS {d['ks_statistic']:.5f} < 1% critical {d['ks_critical_1pct']:.5f} "
             f"over 10000 paths (max pathwise gap {d['max_pathwise_gap']:.1e})")
    assert d["ks_statistic"] < d["ks_critical_1pct"]


def test_criterion_9_determinism(tmp_path):
    text = "scenario = S1\nreplicas = 2000\nseed = 909\n"
    config = parse_config(text)
    run_scenario(config, out_dir=tmp_path / "a")
    run_scenario(config, out_dir=tmp_path / "b")
    run_scenario(parse_config(text + "threads = 8\n"), out_dir=tmp_path / "t8")
    bytes_a = (tmp_path / "a" / "samples.csv").read_bytes()
    ok = (bytes_a == (tmp_path / "b" / "samples.csv").read_bytes()
          and bytes_a == (tmp_path / "t8" / "samples.csv").read_bytes())
    _verdict(9, "byte-identical replication", ok,
             "same seed twice and threads 1 vs 8 give identical samples.csv "
             f"({len(bytes_a)} bytes)")
    assert bytes_a == (tmp_path / "b" / "samples.csv").read_bytes()
    assert bytes_a == (tmp_path / "t8" / "samples.csv").read_bytes()


def test_criterion_10_kallenberg_profile():
    spec = DensityForm(intensity=lambda z: abs(z) ** -1.5, abs_max=1.0)
    grid = [10.0 ** (-i / 2.0) for i in range(2, 13)]
    assert 1e-4 in grid
    profile = kallenberg_b_profile(spec, grid)
    ratios = profile.ratios()
    at = grid.index(1e-4)
    # independent quadrature oracle: trapezoid on a fine log grid
    z = np.logspace(-12, math.log10(1e-4), 400_001)
    mu = float(np.trapezoid(2.0 * z ** -1.5 * z * z / (1.0 + z * z), z))
    oracle = mu / (1e-8 * abs(math.log(1e-4)))
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    atomic = kallenberg_b_profile(FiniteAtomic(((0.1, 3.0), (1.0, 2.0))),
                                  [0.05, 0.02, 0.01])
    flat_zero = atomic.ratios() == [0.0, 0.0, 0.0]
    ok = (abs(ratios[at] - oracle) <= 0.01 * oracle
          and abs(ratios[at] - 14.48) <= 0.01 * 14.48
          and monotone and flat_zero)
    _verdict(10, "Kallenberg-Sato condition (b) profile", ok,
             f"ratio at 1e-4 = {ratios[at]:.4f} vs oracle {oracle:.4f} "
             f"(within 1%), monotone increasing along the default grid; "
             f"atomic spec ratio identically 0 below the smallest atom")
    assert abs(ratios[at] - oracle) <= 0.01 * oracle
    assert abs(ratios[at] - 14.48) <= 0.01 * 14.48
    assert monotone
    assert flat_zero
