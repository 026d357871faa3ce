"""Marcus-canonical integration of dX = a(X) dt + sigma(X) o dZ.

Between jumps the equation is an ODE in X (the Stratonovich continuous part
against a piecewise-linear Brownian skeleton reduces to an effective drift),
solved by RK4, or by Stratonovich-Heun predictor-corrector steps on cells
carrying a Brownian increment. Each jump of size u moves the state along the
unit-time flow of the field x -> sigma(x) * u, started from the left limit —
that jump rule is what buys the first-order chain rule checked by
`chain_rule_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow_engine import ScalarField, grid_segments, probe_derivative, rk4_step
from .path_sampler import LevyPath

#: Jump size per substep of the unit-time jump flow (see flow_substeps).
FLOW_SUBSTEP_SCALE = 0.05
#: Most substeps one jump flow runs: a size needing more (|u| beyond
#: MAX_FLOW_SUBSTEPS * FLOW_SUBSTEP_SCALE, about 52 429) is not run. Far
#: below 2^63, so a count never wraps; Richardson doubling stops at it too.
MAX_FLOW_SUBSTEPS = 2 ** 20
_MAX_FLOW_DOUBLINGS = 12


class FlowDivergence(RuntimeError):
    """The jump flow (or trajectory) left the finite range."""


@dataclass(frozen=True)
class DiffusionField:
    """Nonvanishing C^1 diffusion coefficient with its derivative.

    `min_abs`, when set, witnesses |sigma| >= min_abs on the scenario's
    state range (the ellipticity assumption in dimension one). `flow`, when
    set, is the exact flow (y, u) -> (phi, dphi/dy) of y' = sigma(y) over time
    u, on floats or arrays, nan where it diverges or meets a non-finite
    argument; the catalogue states it where the parameters give a closed form,
    and `batch.doss_terminals`, `transforms.unit_diffusion_transform` and
    `transforms.proportional_solution` use it in place of the jump-flow kernel
    or the quadrature.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    min_abs: float | None = None
    flow: Callable[[float, float], tuple[float, float]] | None = None

    def validate(self, lo: float, hi: float, n: int = 101) -> None:
        for x in probe_derivative(self, lo, hi, n):
            if self.min_abs is not None and abs(self.value(x)) < self.min_abs:
                raise ValueError(f"|sigma({x})| falls below the declared min_abs")


def flow_substeps(u):
    """Substeps of the unit-time jump flow of size u: an int for a float u,
    an int64 array elementwise for an array u. A u that is not finite, or
    that needs more than MAX_FLOW_SUBSTEPS, gets 0: its flow is not run, and
    it comes out nan (or raises FlowDivergence)."""
    # |u| is clamped far past the cap first, so the division cannot overflow
    n = np.ceil(np.minimum(np.abs(u), 1e300) / FLOW_SUBSTEP_SCALE)
    n = np.where(n <= MAX_FLOW_SUBSTEPS, np.maximum(n, 8), 0)
    return n.astype(np.int64) if np.ndim(u) else int(n)


def _runnable_substeps(u: float) -> int:
    """flow_substeps(u) for the scalar flows, which raise on a u not run."""
    n = flow_substeps(u)
    if n == 0:
        raise FlowDivergence(f"jump flow not run: size {u} is not finite or needs "
                             f"more than {MAX_FLOW_SUBSTEPS} substeps")
    return n


def _flow_once(sigma: DiffusionField, y: float, u: float, n: int,
               sensitivity: bool = False) -> tuple[float, float]:
    """n RK4 steps of dphi/ds = sigma(phi) * u over s in [0, 1].

    Returns (phi, acc). With `sensitivity`, acc is the RK4 quadrature of
    sigma'(phi) * u over the same stages, read off the stage states as they
    are evaluated; otherwise it stays 0.0 and sigma' is never called.
    """
    sig, slope = sigma.value, sigma.derivative
    ds = 1.0 / n
    stages = []

    def f(_, p):
        if sensitivity:
            stages.append(slope(p) * u)
        return sig(p) * u

    phi, acc = y, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            phi = rk4_step(f, None, phi, ds)
            if not math.isfinite(phi):
                raise FlowDivergence(
                    f"jump flow diverged: start {y}, size {u}")
            if sensitivity:
                d1, d2, d3, d4 = stages
                acc = acc + (ds / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                stages.clear()
    return phi, acc


def jump_flow_phi(sigma: DiffusionField, y: float, u: float,
                  tol: float = 1e-10) -> float:
    """Time-u flow of sigma from y, i.e. the Marcus jump destination.

    RK4 with substeps scaled to |u|, then Richardson-refined until the
    step-halving estimate sits below tol, within MAX_FLOW_SUBSTEPS substeps.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if u == 0.0:
        return float(y)
    n = _runnable_substeps(u)
    coarse, _ = _flow_once(sigma, y, u, n)
    for _ in range(_MAX_FLOW_DOUBLINGS):
        if 2 * n > MAX_FLOW_SUBSTEPS:
            break
        fine, _ = _flow_once(sigma, y, u, 2 * n)
        err = abs(fine - coarse) / 15.0
        if err <= tol * max(1.0, abs(fine)):
            return fine + (fine - coarse) / 15.0
        n *= 2
        coarse = fine
    raise FlowDivergence(
        f"jump flow failed to meet tol={tol}: start {y}, size {u}")


def flow_with_sensitivity(sigma: DiffusionField, y: float, u: float,
                          n: int | None = None) -> tuple[float, float]:
    """Return (phi(y, u), integral of sigma'(phi(y, s u)) u ds over [0, 1]).

    exp of the second component is the y-sensitivity of the flow.
    """
    if u == 0.0:
        return float(y), 0.0
    if n is None:
        n = _runnable_substeps(u)
    phi, acc = _flow_once(sigma, float(y), u, n, sensitivity=True)
    return float(phi), float(acc)


def marcus_remainder_rho(sigma: DiffusionField, y: float, z: float,
                         tol: float = 1e-10) -> float:
    """Deviation of the jump flow from its first-order part:
    phi(y, z) - y - sigma(y) z. Bounded by a constant times z^2 on compacts."""
    return jump_flow_phi(sigma, y, z, tol) - y - sigma.value(y) * z


@dataclass(frozen=True)
class MarcusTrajectory:
    """Cadlag solution on the solver grid, jump times entered twice."""

    times: np.ndarray
    x_values: np.ndarray
    jump_log: tuple[tuple[float, float, float, float], ...]  # (t, pre, size, post)
    terminal: float
    horizon: float
    x0: float


def marcus_solve(a: ScalarField, sigma: DiffusionField, path: LevyPath,
                 x0: float, step: float | None = None) -> MarcusTrajectory:
    """Solve the Marcus equation along one driver realization."""
    a_val, sig = a.value, sigma.value
    drift = path.drift_rate
    use_heun = path.brownian is not None

    def F(_, u):
        return a_val(u) + drift * sig(u)

    times = [0.0]
    xs = [float(x0)]
    log = []
    x = float(x0)
    for _, t1, _, slope, size, substeps in grid_segments(path, step):
        for t, t_next, h in substeps:
            if use_heun:
                db = slope * h
                fx, sx = F(None, x), sig(x)
                xp = x + fx * h + sx * db
                x = x + 0.5 * h * (fx + F(None, xp)) + 0.5 * db * (sx + sig(xp))
            else:
                x = rk4_step(F, None, x, h)
            if not math.isfinite(x):
                raise FlowDivergence(f"trajectory diverged near t={t}")
            times.append(t_next)
            xs.append(x)
        if size is not None:
            try:
                post = jump_flow_phi(sigma, x, size)
            except FlowDivergence as exc:
                raise FlowDivergence(f"{exc} (jump at t={t1})") from exc
            log.append((t1, x, size, post))
            x = post
            times.append(t1)
            xs.append(x)

    return MarcusTrajectory(
        times=np.asarray(times), x_values=np.asarray(xs),
        jump_log=tuple(log), terminal=float(x),
        horizon=path.horizon, x0=float(x0))


def _segmented_running_integral(times: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Running integral of g over the solver grid, 4th-order inside segments.

    Within each segment (delimited by duplicated jump entries) the substep
    counts are even, so composite Simpson applies pairwise; the intermediate
    node of each pair gets the matching 3-point half rule.
    """
    m = len(times)
    out = np.zeros(m)
    i = 0
    while i < m - 1:
        j = i + 1
        while j < m and times[j] != times[j - 1]:
            j += 1
        seg_end = j - 1
        idx = i
        while idx + 2 <= seg_end:
            t0, t1, t2 = times[idx], times[idx + 1], times[idx + 2]
            h1 = t1 - t0
            out[idx + 1] = out[idx] + h1 * (5.0 * g[idx] + 8.0 * g[idx + 1]
                                            - g[idx + 2]) / 12.0
            out[idx + 2] = out[idx] + (t2 - t0) / 6.0 * (g[idx] + 4.0 * g[idx + 1]
                                                         + g[idx + 2])
            idx += 2
        if idx < seg_end:
            out[idx + 1] = out[idx] + 0.5 * (g[idx] + g[idx + 1]) \
                * (times[idx + 1] - times[idx])
            idx += 1
        if j < m:
            out[j] = out[seg_end]
            j += 1
        i = j - 1 if j - 1 > i else j
    return out


def chain_rule_residual(f: ScalarField, a: ScalarField, sigma: DiffusionField,
                        traj: MarcusTrajectory, k: float, path: LevyPath) -> float:
    """Sup-norm defect of f(X_t) = f(x0) + int f'(X) a(X) ds + k Z_t.

    Valid when f' sigma is the constant k; that identity is probed on the
    trajectory's state range before anything is integrated.
    """
    lo = float(np.min(traj.x_values))
    hi = float(np.max(traj.x_values))
    if hi <= lo:
        hi = lo + 1.0
    for x in np.linspace(lo, hi, 101).tolist():
        if abs(f.derivative(x) * sigma.value(x) - k) > 1e-8:
            raise ValueError("f' * sigma is not the constant k on the probe grid")
    times = traj.times
    g = np.asarray([f.derivative(x) * a.value(x) for x in traj.x_values.tolist()])
    running = _segmented_running_integral(times, g)
    f0 = f.value(traj.x0)
    worst = 0.0
    for i, (t, x) in enumerate(zip(times, traj.x_values)):
        left_dup = i + 1 < len(times) and times[i + 1] == t
        z = path.left_value(float(t)) if left_dup else path.value(float(t))
        worst = max(worst, abs(f.value(x) - f0 - running[i] - k * z))
    return worst
