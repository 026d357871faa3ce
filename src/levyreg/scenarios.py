"""Built-in scenarios, deterministic replication, and result emission.

Each scenario is a self-contained demonstration at desk scale:

* S1 doeblin-atom — finite jump activity leaves a point mass of the terminal
  law at the no-jump skeleton (Doblin dichotomy, drifted form).
* S2 derivative-validation — the analytic jump-time derivative against
  re-simulation finite differences, monotone and non-monotone drifts.
* S3 regularization — an (idealized infinite) truncated dyadic family:
  the driver terminal sits on a lattice, the monotone-drift solution does not.
* S4 flat-drift — a constant drift only translates the singular driver law:
  no regularization without local monotonicity.
* S5 stratification — the law of the terminal is invariant under uniform
  resampling of the first marked jump time, while each fixed-residual slice
  is strictly monotone in that time.
* S6 marcus-suite — unit-diffusion reduction, proportional closed form,
  change-of-variables conjugacy, chain-rule residual, jump-remainder bound.
* S7 doss-sussmann — with a Brownian part, the Doss-Sussmann construction
  and the Marcus integrator produce the same terminal law.

Replicas are independent work items: replica i draws from RngStream(seed, i)
no matter how work is chunked, so (config, seed) pins every output byte
except the wall-time field. Other draws come from the replica streams'
children (rng's tag rule): S5's resamples from tag 1, S6's checks (a), (c),
(d) from tags 1, 2, 3 and S3's trend level lv from tag lv.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .batch import doss_terminals, marcus_terminals, ode_terminals, pack_paths
# not called here: perfbench/tracer.py patches this name in this module, until
# the run trace of ROADMAP item 1 (PR B) replaces its patches
from .batch import flow_map_array  # noqa: F401
from .config import (
    S2_JUMP_MARGIN,
    S2_JUMP_RATE,
    S2_MAX_DRAWS,
    S6_JUMP_MARGIN,
    RunPlan,
    ScenarioConfig,
    plan_run,
)
from .diagnostics import (
    SampleBatch,
    TooFewSamples,
    detect_atoms,
    deterministic_skeleton,
    lattice_concentration,
    two_sample_ks,
)
from .fields import make_diffusion_field, make_scalar_field
from .flow_engine import ScalarField, SolverBlowUp, jump_time_derivative, solve_random_ode
from .levy_spec import FiniteAtomic, LevyTriplet
from .marcus import DiffusionField, FlowDivergence, chain_rule_residual, marcus_solve
from .path_sampler import (
    LevyPath,
    PathLaw,
    decompose_first_jump,
    marked_jump_indices,
    reinsert_marked_jump,
    resample_first_jump_time,
    sample_many,
    sample_path,
    shift_jump_time,
)
from .rng import PhiloxDraws, RngStream, StreamGenerator, stream_draws
from .transforms import proportional_solution, reduced_drift, unit_diffusion_transform

#: Failed-replica fraction beyond which a run reports numeric failure.
FAILURE_FRACTION_LIMIT = 0.01

#: Grid points S6's remainder fit evaluates at once, in whole y rows: its
#: fine grid of 332 100 points took 21 MiB of temporaries in one piece, and
#: takes under 3 MiB in blocks of this many.
REMAINDER_BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class RunSummary:
    scenario: str
    seed: int
    replicas: int
    threads: int
    failed_replicas: tuple[int, ...]
    wall_time_s: float
    diagnostics: dict
    version: str = __version__

    @property
    def failures(self) -> int:
        return len(self.failed_replicas)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "replicas": self.replicas,
            "threads": self.threads,
            "failures": self.failures,
            "failed_replicas": list(self.failed_replicas),
            "wall_time_s": self.wall_time_s,
            "diagnostics": self.diagnostics,
            "version": self.version,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


@dataclass
class ScenarioResult:
    """One row per replica, in replica order: row i is replica i."""

    diagnostics: dict
    terminal_x: np.ndarray
    terminal_z: np.ndarray
    failed: np.ndarray           # bool


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _sample_and_solve(config: ScenarioConfig, law: PathLaw, solve,
                      stream_offset: int = 0) -> list[np.ndarray]:
    """Replicas stream_offset + [0, config.replicas) of `law` on config.cells
    cells, sampled into PackedPaths in the law's chunk_sizes; solve(packed)'s
    arrays, each concatenated over the chunks."""
    parts, lo = [], stream_offset
    for size in law.chunk_sizes(config.replicas):
        parts.append(solve(law.packed(config.seed, lo, size, config.cells)))
        lo += size
    return [np.concatenate(column) for column in zip(*parts)]


def _ode_solver(a: ScalarField, x0: float):
    """solve for _sample_and_solve: (X_horizon, Z_horizon) of Y' = a(Y + Z_t)."""
    return lambda packed: (ode_terminals(a, packed, x0)[0], packed.z_terminal)


# --------------------------------------------------------------------------
# scenario runners; each runs a config.RunPlan: the config with its defaults
# filled in, and the laws it samples


def _if_enough(diagnostic, *args):
    """diagnostic(*args), or None when divergence left it too few finite
    samples to run: it then reports null and its verdict fails."""
    try:
        return diagnostic(*args)
    except TooFewSamples:
        return None


def _unless_diverged(solve, fallback):
    """solve(), or `fallback` when a scalar solver diverges on the way; numpy
    overflow in the diverging state is not reported."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return solve()
        except (SolverBlowUp, FlowDivergence):
            return fallback


def run_s1(plan: RunPlan) -> ScenarioResult:
    config, ((law, _),) = plan.config, plan.laws
    x0 = config.x0
    a = make_scalar_field(config.drift_field.name, config.drift_field.params)
    x, z = _sample_and_solve(config, law, _ode_solver(a, x0))
    failed = ~np.isfinite(x)
    ok = ~failed
    batch = SampleBatch(x[ok])
    report = _if_enough(detect_atoms, batch, config.window, config.threshold)
    skeleton = deterministic_skeleton(a, law.drift, x0, config.horizon)
    p_atom = math.exp(-law.rate * config.horizon)
    se = math.sqrt(p_atom * (1.0 - p_atom) / batch.count) if batch.count else math.nan
    if report is None:
        detected, top, window, threshold = None, (math.nan, math.nan), math.nan, math.nan
    else:
        detected, window, threshold = report.atoms_present, report.window, report.threshold
        top = report.candidates[0] if report.candidates else (math.nan, 0.0)
    diagnostics = {
        "atom_detected": detected,
        "atom_location": top[0],
        "atom_mass": top[1],
        "skeleton_location": skeleton,
        "expected_mass": p_atom,
        "mass_standard_error": se,
        "location_within_window": bool(abs(top[0] - skeleton) <= window),
        "mass_within_3se": bool(abs(top[1] - p_atom) <= 3.0 * se),
        "window": window,
        "threshold": threshold,
    }
    return ScenarioResult(diagnostics, x, z, failed)


def _s2_field(kind: int, gen: np.random.Generator) -> tuple[ScalarField, str]:
    if kind == 0:
        f = make_scalar_field("logistic-slope", {
            "low": 0.0, "high": float(gen.uniform(0.4, 1.2)),
            "rate": float(gen.uniform(0.4, 1.4)),
            "center": float(gen.uniform(-0.5, 0.5))})
        return f, "logistic-slope"
    if kind == 1:
        return make_scalar_field("linear", {"slope": float(gen.uniform(-0.8, 0.8))
                                            or 0.3}), "linear"
    if kind == 2:
        return make_scalar_field("affine", {
            "slope": float(gen.uniform(-0.8, 0.8)) or 0.4,
            "intercept": float(gen.uniform(-0.3, 0.3))}), "affine"
    f = make_scalar_field("arctan-diffusion", {
        "amplitude": float(gen.uniform(0.1, 0.3)),
        "curvature": float(gen.uniform(0.5, 1.0)),
        "center": float(gen.uniform(-0.4, 0.4))})
    return f, "arctan-diffusion"


#: S2 draws each config's atom size uniformly from this range.
S2_SIZE_RANGE = (0.25, 0.55)


def _s2_config(config: ScenarioConfig, i: int,
               step: float) -> tuple[str, float, float, float] | None:
    """(field kind, X_horizon, Z_horizon, worst relative error against the
    finite-difference oracle) of config i, or None when no drawn path has a
    usable first jump: one at least S2_JUMP_MARGIN from both ends of the
    horizon and 1e-3 before the next jump."""
    gen = RngStream(config.seed, i).generator()
    a, kind_name = _s2_field(i % 4, gen)
    size = float(gen.uniform(*S2_SIZE_RANGE))
    triplet = LevyTriplet(drift=float(gen.uniform(-0.2, 0.2)),
                          jumps=FiniteAtomic(((size, S2_JUMP_RATE),)))
    x0 = float(gen.uniform(-0.5, 0.5))
    for _ in range(S2_MAX_DRAWS):
        path = sample_path(triplet, config.horizon, 0.05, gen=gen)
        if path.n_jumps < 2:
            continue
        t_j, next_t = float(path.jump_times[0]), float(path.jump_times[1])
        if next_t - t_j < 1e-3 or not (
                S2_JUMP_MARGIN <= t_j <= config.horizon - S2_JUMP_MARGIN):
            continue
        sol = solve_random_ode(a, path, x0, step)
        analytic = jump_time_derivative(a, sol, t_j)
        if abs(analytic) >= 1e-4:
            break
    else:
        return None
    base_y = sol.terminal_y

    def y1(p: LevyPath) -> float:
        return solve_random_ode(a, p, x0, step).terminal_y

    worst = 0.0
    for sign in (1.0, -1.0):
        d_h = (y1(shift_jump_time(path, 0, sign * 1e-4)) - base_y) / (sign * 1e-4)
        d_h10 = (y1(shift_jump_time(path, 0, sign * 1e-5)) - base_y) / (sign * 1e-5)
        oracle = (10.0 * d_h10 - d_h) / 9.0
        worst = max(worst, abs(analytic - oracle) / abs(analytic))
    return kind_name, sol.terminal_x, path.terminal, worst


def run_s2(plan: RunPlan) -> ScenarioResult:
    config = plan.config
    step = config.horizon / config.cells
    rel_tol = 1e-4
    rows_x, rows_z, failed = [], [], []
    kinds = {"logistic-slope": 0, "linear": 0, "affine": 0, "arctan-diffusion": 0}
    max_rel_err = 0.0
    for i in range(config.replicas):
        row = _unless_diverged(
            lambda: _s2_config(config, i, step), None)
        if row is None:
            failed.append(True)
            rows_x.append(math.nan)
            rows_z.append(math.nan)
            continue
        kind_name, x, z, worst = row
        kinds[kind_name] += 1
        max_rel_err = max(max_rel_err, worst)
        rows_x.append(x)
        rows_z.append(z)
        failed.append(worst > rel_tol)
    diagnostics = {
        "configs": config.replicas,
        "max_relative_error": max_rel_err,
        "tolerance": rel_tol,
        "all_within_tolerance": bool(max_rel_err <= rel_tol and not any(failed)),
        "field_kinds": kinds,
    }
    return ScenarioResult(diagnostics, np.asarray(rows_x), np.asarray(rows_z),
                          np.asarray(failed))


def run_s3(plan: RunPlan) -> ScenarioResult:
    config, ((law, _), *trend_laws) = plan.config, plan.laws
    spacing, halfwidth = config.spacing, config.halfwidth
    a = make_scalar_field(config.drift_field.name, config.drift_field.params)
    solve = _ode_solver(a, config.x0)
    x, z = _sample_and_solve(config, law, solve)
    failed = ~np.isfinite(x)
    ok = ~failed
    lattice_z = lattice_concentration(SampleBatch(z[np.isfinite(z)]), spacing, halfwidth)
    lattice_x = lattice_concentration(SampleBatch(x[ok]), spacing, halfwidth)
    report = _if_enough(detect_atoms, SampleBatch(x[ok]), config.window, config.threshold)
    atoms = None if report is None else report.atoms_present
    diagnostics = {
        "levels": config.measure.levels,
        "total_rate": law.rate,
        "lattice_concentration_z": lattice_z,
        "lattice_concentration_x": lattice_x,
        "atoms_detected_x": atoms,
        "spacing": spacing,
        "halfwidth": halfwidth,
        "regularization_pass": bool(lattice_z >= 0.999 and lattice_x <= 0.01
                                    and atoms is False),
    }
    if config.trend_levels:
        trend = {}
        for lv, (law_lv, band) in zip(config.trend_levels, trend_laws):
            xs_lv, _ = _sample_and_solve(config, law_lv, solve, stream_offset=band)
            ok_lv = np.isfinite(xs_lv)
            trend[str(lv)] = lattice_concentration(
                SampleBatch(xs_lv[ok_lv]), spacing, halfwidth)
        diagnostics["lattice_concentration_x_by_level"] = trend
    return ScenarioResult(diagnostics, x, z, failed)


def run_s4(plan: RunPlan) -> ScenarioResult:
    config, ((law, _),) = plan.config, plan.laws
    x0, spacing, halfwidth = config.x0, config.spacing, config.halfwidth
    a = make_scalar_field(config.drift_field.name, config.drift_field.params)
    x, z = _sample_and_solve(config, law, _ode_solver(a, x0))
    failed = ~np.isfinite(x)
    shift = x0 + a.value(x0) * config.horizon
    lattice_shifted = lattice_concentration(SampleBatch(x[~failed] - shift),
                                            spacing, halfwidth)
    lattice_z = lattice_concentration(SampleBatch(z[np.isfinite(z)]), spacing, halfwidth)
    diagnostics = {
        "shift": shift,
        "lattice_concentration_x_shifted": lattice_shifted,
        "lattice_concentration_z": lattice_z,
        "spacing": spacing,
        "halfwidth": halfwidth,
        "no_regularization_pass": bool(lattice_shifted >= 0.95),
    }
    return ScenarioResult(diagnostics, x, z, failed)


def run_s5(plan: RunPlan) -> ScenarioResult:
    config, ((law, _),) = plan.config, plan.laws
    n, reps, x0, cells = config.replicas, config.repetitions, config.x0, config.cells
    mark_lo, mark_hi = config.mark_low, config.mark_high
    a = make_scalar_field(config.drift_field.name, config.drift_field.params)

    def has_two_marked(p: LevyPath) -> bool:
        return marked_jump_indices(p, mark_lo, mark_hi).size >= 2

    streams = StreamGenerator(config.seed)
    ks_passes = ks_skipped = 0
    all_x, all_z = [], []
    for r in range(reps):
        offset = r * n
        paths = sample_many(law, n, config.seed, accept=has_two_marked,
                            stream_offset=offset)
        decomps = [decompose_first_jump(p, mark_lo, mark_hi) for p in paths]
        if r == 0:
            first_rep_decomps = decomps
        resampled = [
            resample_first_jump_time(
                d, gen=streams.at(RngStream(config.seed, offset + i).child(1).stream_id))
            for i, d in enumerate(decomps)]
        # originals and resamples in one sweep: the engine is elementwise
        packed = pack_paths(paths + resampled, cells)
        x_o, x_r = np.split(ode_terminals(a, packed, x0)[0], 2)
        ok = np.isfinite(x_o) & np.isfinite(x_r)
        ks = _if_enough(two_sample_ks, SampleBatch(x_o[ok]), SampleBatch(x_r[ok]))
        ks_skipped += ks is None
        ks_passes += ks is not None and ks[0] < ks[1]
        all_x.append(x_o)
        all_z.append(packed.z_terminal[:n])

    # monotonicity of the terminal in the marked jump time, residual fixed
    n_paths_mono = min(100, n)
    grid_pts = 64
    rebuilt: list[LevyPath] = []
    for d in first_rep_decomps[:n_paths_mono]:
        ts = np.linspace(d.T2 / (grid_pts + 1), grid_pts * d.T2 / (grid_pts + 1),
                         grid_pts)
        rebuilt.extend(reinsert_marked_jump(d, float(t)) for t in ts)
    packed_m = pack_paths(rebuilt, cells)
    x_m, _ = ode_terminals(a, packed_m, x0)
    y_m = (x_m - packed_m.z_terminal).reshape(n_paths_mono, grid_pts)
    with np.errstate(invalid="ignore"):  # a diverged path's inf - inf fails both tests
        diffs = np.diff(y_m, axis=1)
    monotone = int(np.sum(np.all(diffs < 0.0, axis=1) | np.all(diffs > 0.0, axis=1)))

    x = np.concatenate(all_x)
    z = np.concatenate(all_z)
    diagnostics = {
        "repetitions": reps,
        "replicas_per_repetition": n,
        "ks_passes": int(ks_passes),
        "ks_pass_fraction": ks_passes / reps,
        "ks_skipped": int(ks_skipped),
        "invariance_pass": bool(ks_passes >= math.ceil(0.95 * reps)),
        "monotone_paths": monotone,
        "monotone_paths_checked": n_paths_mono,
        "monotone_grid_points": grid_pts,
        "monotonicity_pass": bool(monotone == n_paths_mono),
        "marked_window": [mark_lo, mark_hi],
    }
    return ScenarioResult(diagnostics, x, z, ~np.isfinite(x))


def _s6_sigma(kind: int, gen: PhiloxDraws) -> DiffusionField:
    if kind == 0:
        return make_diffusion_field("constant", {"level": gen.uniform(0.6, 1.8)})
    if kind == 1:
        low = gen.uniform(0.5, 0.9)
        return make_diffusion_field("logistic-slope", {
            "low": low, "high": low + gen.uniform(0.3, 0.9),
            "rate": gen.uniform(0.4, 1.2),
            "center": gen.uniform(-0.5, 0.5)})
    return make_diffusion_field("arctan-diffusion", {
        "amplitude": gen.uniform(0.7, 1.3),
        "curvature": gen.uniform(0.3, 0.7), "center": 0.0})


def _s6_path(gen: PhiloxDraws, horizon: float) -> LevyPath:
    k = gen.integers(1, 4)
    times = np.sort(gen.uniform(S6_JUMP_MARGIN, horizon - S6_JUMP_MARGIN, k))
    sizes = gen.uniform(0.08, 0.3, k) * np.where(gen.uniform(size=k) < 0.5, -1.0, 1.0)
    return LevyPath(horizon, gen.uniform(-0.2, 0.2), times, sizes)


def run_s6(plan: RunPlan) -> ScenarioResult:
    config = plan.config
    step = config.horizon / config.cells
    a_default = make_scalar_field("logistic-slope",
                                  {"low": 0.0, "high": 0.8, "rate": 1.1, "center": 0.3})

    # (a) unit-diffusion reduction against the random-ODE solver
    ones = make_diffusion_field("constant", {"level": 1.0})
    worst_reduction = 0.0
    checks = [RngStream(config.seed, i).child(1).stream_id for i in range(5)]
    for gen in stream_draws(config.seed, checks):
        path = _s6_path(gen, config.horizon)
        x0 = gen.uniform(-0.5, 0.5)
        gap = _unless_diverged(
            lambda: abs(marcus_solve(a_default, ones, path, x0, step).terminal
                        - solve_random_ode(a_default, path, x0, step).terminal_x),
            math.inf)
        worst_reduction = max(worst_reduction, gap)

    # (b) proportional closed form vs the integrator
    worst_prop = 0.0
    rows_x, rows_z, failed = [], [], []
    for i, gen in enumerate(stream_draws(config.seed, range(config.replicas))):
        sigma = _s6_sigma(i % 3, gen)
        k = gen.uniform(-0.5, 0.5)
        a_prop = ScalarField(value=lambda x, s=sigma, k=k: k * s.value(x),
                             derivative=lambda x, s=sigma, k=k: k * s.derivative(x))
        path = _s6_path(gen, config.horizon)
        x0 = gen.uniform(-0.3, 0.3)
        closed, terminal = _unless_diverged(
            lambda: (proportional_solution(sigma, k, x0, path),
                     marcus_solve(a_prop, sigma, path, x0, step).terminal),
            (math.nan, math.nan))
        # a diverged config (NaN) is flagged in its row, not in the worst error
        if math.isfinite(terminal):
            worst_prop = max(worst_prop, abs(closed - terminal))
        rows_x.append(terminal)
        rows_z.append(path.terminal)
        failed.append(not math.isfinite(terminal))

    # (c) unit-diffusion conjugacy between the two solvers
    worst_conj = 0.0
    configs = (RngStream(config.seed, i).child(2).stream_id for i in range(config.replicas))
    for i, gen in enumerate(stream_draws(config.seed, configs)):
        sigma = _s6_sigma(1 + (i % 2), gen)
        a = make_scalar_field("logistic-slope", {
            "low": gen.uniform(-0.3, 0.0),
            "high": gen.uniform(0.2, 0.6),
            "rate": gen.uniform(0.5, 1.2),
            "center": gen.uniform(-0.5, 0.5)})
        path = _s6_path(gen, config.horizon)
        x0 = gen.uniform(-0.5, 0.5)
        diffeo = unit_diffusion_transform(sigma, 0.0, -8.0, 8.0)
        red = reduced_drift(a, sigma, diffeo)

        def conjugacy_gap():
            marcus_term = marcus_solve(a, sigma, path, x0, step).terminal
            unit_term = solve_random_ode(red, path, diffeo.forward(x0), step).terminal_x
            return abs(diffeo.forward(marcus_term) - unit_term)

        worst_conj = max(worst_conj, _unless_diverged(conjugacy_gap, math.inf))

    # (d) chain-rule residual in the f' sigma = k specialization
    f_log = ScalarField(lambda x: math.log(x), lambda x: 1.0 / x)
    sig_lin = DiffusionField(lambda x: x, lambda x: 1.0, min_abs=None)
    zero = ScalarField(lambda x: 0.0, lambda x: 0.0)
    (gen,) = stream_draws(config.seed, [RngStream(config.seed).child(3).stream_id])
    path = _s6_path(gen, config.horizon)
    f_id = ScalarField(lambda x: x, lambda x: 1.0)

    def chain_residual():
        traj = marcus_solve(zero, sig_lin, path, 1.0, step)
        residual_log = chain_rule_residual(f_log, zero, sig_lin, traj, 1.0, path)
        traj2 = marcus_solve(a_default, ones, path, 0.2, step)
        residual_id = chain_rule_residual(f_id, a_default, ones, traj2, 1.0, path)
        return max(residual_log, residual_id)

    worst_chain = _unless_diverged(chain_residual, math.inf)

    # (e) jump-remainder quadratic bound, stability under grid refinement
    sigma_q = make_diffusion_field("arctan-diffusion",
                                   {"amplitude": 1.0, "curvature": 1.0, "center": 0.0})

    def fitted_k(n_y: int, n_z: int) -> float:
        """max |rho| / z^2 over the n_y x n_z grid without z = 0, evaluated
        in blocks of whole y rows: the largest block maximum is the grid's."""
        y_grid = np.linspace(-1.0, 1.0, n_y)
        z_row = np.linspace(-0.5, 0.5, n_z)
        z_row = z_row[z_row != 0.0]
        rows = max(1, REMAINDER_BLOCK_POINTS // z_row.size)
        block_max = []
        for lo in range(0, n_y, rows):
            ys = np.repeat(y_grid[lo:lo + rows], z_row.size)
            zs = np.tile(z_row, ys.size // z_row.size)
            phi = sigma_q.flow(ys, zs)[0]
            rho = phi - ys - sigma_q.value(ys) * zs
            block_max.append(np.max(np.abs(rho) / (zs * zs)))
        return float(np.max(block_max))

    k_coarse = fitted_k(41, 81)
    k_fine = fitted_k(410, 810)
    k_stable = abs(k_fine - k_coarse) <= 0.10 * k_coarse

    diagnostics = {
        "configs": config.replicas,
        "unit_reduction_worst": worst_reduction,
        "unit_reduction_pass": bool(worst_reduction <= 1e-10),
        "proportional_worst": worst_prop,
        "proportional_pass": bool(worst_prop <= 1e-6),
        "conjugacy_worst": worst_conj,
        "conjugacy_pass": bool(worst_conj <= 1e-5),
        "chain_rule_residual": worst_chain,
        "chain_rule_pass": bool(worst_chain <= 1e-5),
        "remainder_constant_coarse": k_coarse,
        "remainder_constant_fine": k_fine,
        "remainder_stable": bool(k_stable),
    }
    return ScenarioResult(diagnostics, np.asarray(rows_x), np.asarray(rows_z),
                          np.asarray(failed))


def run_s7(plan: RunPlan) -> ScenarioResult:
    config, ((law, _),) = plan.config, plan.laws
    x0 = config.x0
    a = make_scalar_field(config.drift_field.name, config.drift_field.params)
    sigma = make_diffusion_field(config.diffusion_field.name,
                                 config.diffusion_field.params)
    x_doss, x_marc, z = _sample_and_solve(
        config, law,
        lambda packed: (doss_terminals(a, sigma, packed, x0),
                        marcus_terminals(a, sigma, packed, x0), packed.z_terminal))
    ok = np.isfinite(x_doss) & np.isfinite(x_marc)
    gaps = np.abs(x_doss[ok] - x_marc[ok])
    stat, crit = _if_enough(two_sample_ks, SampleBatch(x_doss[ok]),
                            SampleBatch(x_marc[ok])) or (math.nan, math.nan)
    diagnostics = {
        "ks_statistic": stat,
        "ks_critical_1pct": crit,
        "equivalence_pass": bool(stat < crit),
        "max_pathwise_gap": float(gaps.max()) if gaps.size else math.nan,
        "brownian_variance": config.brownian_variance,
        "cells": config.cells,
    }
    return ScenarioResult(diagnostics, x_marc, z, ~ok)


@dataclass(frozen=True)
class ScenarioDef:
    title: str
    claim: str
    runner: object


SCENARIOS: dict[str, ScenarioDef] = {
    "S1": ScenarioDef("doeblin-atom",
                      "finite jump activity leaves an atom of the terminal law at the "
                      "no-jump skeleton (Doblin dichotomy, drifted form)", run_s1),
    "S2": ScenarioDef("derivative-validation",
                      "analytic jump-time derivative of the terminal value matches "
                      "re-simulation finite differences, both one-sided limits", run_s2),
    "S3": ScenarioDef("regularization",
                      "idealized-infinite dyadic jump family: driver terminal sits on "
                      "a lattice, strictly monotone drift smears it into a smooth law",
                      run_s3),
    "S4": ScenarioDef("flat-drift",
                      "a locally constant drift merely translates the singular driver "
                      "law: no regularization without local monotonicity", run_s4),
    "S5": ScenarioDef("stratification-invariance",
                      "uniform resampling of the first marked jump time preserves the "
                      "terminal law; per-residual slices are strictly monotone in it",
                      run_s5),
    "S6": ScenarioDef("marcus-reductions",
                      "Marcus equations: unit-diffusion reduction, proportional closed "
                      "form, change-of-variables conjugacy, chain rule, jump remainder",
                      run_s6),
    "S7": ScenarioDef("doss-sussmann",
                      "with a Brownian part, the Doss-Sussmann representation and the "
                      "Marcus integrator agree in law at the horizon", run_s7),
}


def list_scenarios() -> str:
    lines = ["Built-in scenarios:"]
    for sid in sorted(SCENARIOS):
        d = SCENARIOS[sid]
        lines.append(f"  {sid} {d.title}: {d.claim}")
    return "\n".join(lines) + "\n"


def write_outputs(result: ScenarioResult, summary: RunSummary, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # written a block of rows at a time, so no whole-file string is ever held
    block = 4096
    columns = (np.asarray(result.terminal_x, dtype=float),
               np.asarray(result.terminal_z, dtype=float), result.failed)
    with open(out_dir / "samples.csv", "w") as out:
        out.write("replica,terminal_x,terminal_z,failed\n")
        for lo in range(0, len(columns[0]), block):
            xs, zs, fs = (c[lo:lo + block].tolist() for c in columns)
            out.write("".join(f"{rid},{x!r},{z!r},{int(f)}\n"
                              for rid, (x, z, f) in enumerate(zip(xs, zs, fs), lo)))
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    (plots / "histogram.gp").write_text(
        "# render with: gnuplot histogram.gp\n"
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,600\n"
        "set output 'terminal_histogram.png'\n"
        "binwidth = 0.02\n"
        "bin(x, width) = width * floor(x / width) + width / 2.0\n"
        "set boxwidth binwidth\n"
        "set style fill solid 0.6\n"
        "plot '../samples.csv' every ::1 using "
        "(bin($2, binwidth)):(1.0) smooth freq with boxes title 'terminal values'\n")
    (plots / "driver_vs_solution.gp").write_text(
        "# render with: gnuplot driver_vs_solution.gp\n"
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,600\n"
        "set output 'driver_vs_solution.png'\n"
        "plot '../samples.csv' every ::1 using 3:2 with points pt 7 ps 0.3 "
        "title 'terminal: driver vs solution'\n")
    (out_dir / "summary.json").write_text(summary.to_json() + "\n")


def run_plan(plan: RunPlan, out_dir: str | Path | None = None) -> RunSummary:
    """Execute a planned run single-threaded and write its outputs to out_dir,
    if given; the `threads` key is only recorded in the summary, so outputs
    are bit-identical for any thread count."""
    config = plan.config
    t0 = time.perf_counter()
    result = SCENARIOS[config.scenario].runner(plan)
    wall = time.perf_counter() - t0
    summary = RunSummary(
        scenario=config.scenario, seed=config.seed, replicas=len(result.terminal_x),
        threads=config.threads, failed_replicas=tuple(np.flatnonzero(result.failed).tolist()),
        wall_time_s=wall, diagnostics=_json_safe(result.diagnostics))
    if out_dir is not None:
        write_outputs(result, summary, out_dir)
    return summary


def run_scenario(config: ScenarioConfig,
                 out_dir: str | Path | None = None) -> RunSummary:
    """run_plan of config's plan_run: a config it refuses raises its PlanError
    before anything is sampled, as `validate` and `levyreg run` refuse it."""
    if config.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario id {config.scenario!r}")
    return run_plan(plan_run(config), out_dir)
