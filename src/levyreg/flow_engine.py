"""Pathwise solver for the random ODE behind the drifted jump SDE.

The SDE X_t = x0 + int a(X_s) ds + Z_t is solved pathwise: X = Y + Z where
Y_t = x0 + int a(Y_s + Z_s) ds is a classical ODE once the driver realization
Z is fixed. The solver is fixed-substep RK4 on a grid forcibly aligned to the
jump times (and Brownian knots) of Z, so Y is integrated across smooth
right-hand sides only and left limits of X at jump times are stored exactly.

The two derivative computations are:

* flow derivative d/dx0 of the terminal value — the exponential of the
  integral of a'(X_s) along the trajectory;
* jump-time derivative d/dT of the terminal Y when one marked jump time T
  moves — (a(X_{T-}) - a(X_T)) * exp(int_T^horizon a'(X_s) ds), vanishing
  once T passes the horizon and undefined exactly at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .path_sampler import LevyPath


class NonDifferentiablePoint(ValueError):
    """The marked jump time sits exactly at the evaluation horizon."""


class SolverBlowUp(RuntimeError):
    """State became non-finite."""


@dataclass(frozen=True)
class ScalarField:
    """C^1 coefficient: value and derivative."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]

    def validate(self, lo: float, hi: float, n: int = 101) -> None:
        """Probe-grid check that `derivative` really differentiates `value`."""
        probe_derivative(self, lo, hi, n)


def probe_derivative(field, lo: float, hi: float, n: int = 101) -> np.ndarray:
    """Probe-grid check that `field.derivative` really differentiates
    `field.value` on [lo, hi]; returns the probe grid."""
    grid = np.linspace(lo, hi, n)
    for x in grid:
        h = 1e-5 * (1.0 + abs(x))
        fd = (field.value(x + h) - field.value(x - h)) / (2.0 * h)
        d = field.derivative(x)
        if abs(fd - d) > 1e-6 * (1.0 + abs(d)):
            raise ValueError(
                f"derivative mismatch at x={x}: finite diff {fd}, stated {d}")
    return grid


def segment_knots(path: LevyPath) -> np.ndarray:
    """Segment boundaries: 0, horizon, jump times, Brownian knots."""
    pts = [0.0, path.horizon]
    pts.extend(float(t) for t in path.jump_times)
    if path.brownian is not None:
        pts.extend(float(t) for t in path.brownian.times if 0.0 < t < path.horizon)
    return np.unique(np.asarray(pts))


def substep_count(length: float, step: float) -> int:
    """Even number of RK4 substeps covering `length` at granularity <= step."""
    return 2 * max(1, math.ceil(length / (2.0 * step)))


def _substeps(t0: float, t1: float, n: int):
    h = (t1 - t0) / n
    t = t0
    for i in range(1, n + 1):
        t_next = t1 if i == n else t0 + i * h
        yield t, t_next, h
        t = t_next


def grid_segments(path: LevyPath, step: float | None):
    """Walk the jump-aligned grid of `path` segment by segment.

    Yields (t0, t1, base, slope, size, substeps) per segment [t0, t1]: there
    the driver is Z_t = drift * t + base + slope * t, `size` is the jump at t1
    (None if there is none) and `substeps` yields the (t, t_next, h) RK4
    substeps covering the segment, the last ending exactly at t1. Substeps
    are at most `step` long; None means horizon / 2^12.
    """
    if step is None:
        step = path.horizon / 4096.0
    if step <= 0.0:
        raise ValueError("step must be > 0")
    brown = path.brownian
    jump_at = {float(t): float(s)
               for t, s in zip(path.jump_times, path.jump_sizes)}
    knots = segment_knots(path)
    jump_sum = 0.0
    for t0, t1 in zip(knots[:-1], knots[1:]):
        if brown is None:
            b0 = slope = 0.0
        else:
            b0 = float(brown.value(t0))
            slope = (float(brown.value(t1)) - b0) / (t1 - t0)
        base = jump_sum + b0 - slope * t0
        size = jump_at.get(t1)
        yield t0, t1, base, slope, size, _substeps(t0, t1, substep_count(t1 - t0, step))
        if size is not None:
            jump_sum += size


def rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y) from t to t + h.

    t = None marks an autonomous f: it is called as f(None, y) and no time
    arithmetic is done. y may be a float or a numpy array. Stages 2 and 3
    receive the same t_mid object.
    """
    half = 0.5 * h
    if t is None:
        t_mid = t_end = None
    else:
        t_mid, t_end = t + half, t + h
    k1 = f(t, y)
    k2 = f(t_mid, y + half * k1)
    k3 = f(t_mid, y + half * k2)
    # as large as y when h is an array; freed here, it stays out of the
    # last stage's peak
    del half
    k4 = f(t_end, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class FlowSolution:
    """Dense trajectory on the solver grid, jump times entered twice.

    At a jump time the grid holds the left limit first and the post-jump
    value second; y is continuous so both entries agree in y.
    """

    times: np.ndarray
    y_values: np.ndarray
    x_values: np.ndarray
    jump_records: tuple[tuple[float, float, float, float], ...]  # (t, x_left, x_right, size)
    terminal_y: float
    terminal_x: float
    horizon: float
    x0: float

    @property
    def terminal(self) -> float:
        return self.terminal_x


def solve_random_ode(a: ScalarField, path: LevyPath, x0: float,
                     step: float | None = None) -> FlowSolution:
    """RK4 solution of Y' = a(Y + Z_t) on the jump-aligned grid; X = Y + Z."""
    a_val = a.value
    drift = path.drift_rate

    times = [0.0]
    ys = [float(x0)]
    xs = [float(x0)]
    records = []
    y = float(x0)
    for _, t1, base, slope, size, substeps in grid_segments(path, step):
        def f(t, u):
            return a_val(u + drift * t + base + slope * t)

        for t, t_next, h in substeps:
            y = rk4_step(f, t, y, h)
            if not math.isfinite(y):
                raise SolverBlowUp(f"state became non-finite near t={t_next}")
            times.append(t_next)
            ys.append(y)
            xs.append(y + drift * t_next + base + slope * t_next)
        if size is not None:
            x_left = xs[-1]
            x_right = x_left + size
            times.append(t1)
            ys.append(y)
            xs.append(x_right)
            records.append((t1, x_left, x_right, size))

    times_arr = np.asarray(times)
    ys_arr = np.asarray(ys)
    xs_arr = np.asarray(xs)
    return FlowSolution(
        times=times_arr, y_values=ys_arr, x_values=xs_arr,
        jump_records=tuple(records),
        terminal_y=float(ys_arr[-1]), terminal_x=float(xs_arr[-1]),
        horizon=path.horizon, x0=float(x0))


def flow_derivative_exponential(a: ScalarField, solution: FlowSolution) -> float:
    """exp of the trapezoid quadrature of a'(X_s) along the stored grid."""
    vals = np.asarray([a.derivative(x) for x in solution.x_values])
    return float(np.exp(np.trapezoid(vals, solution.times)))


def flow_derivative_variational(a: ScalarField, path: LevyPath, x0: float,
                                step: float | None = None) -> float:
    """Independent route: integrate u' = a'(Y + Z) u alongside Y' = a(Y + Z).

    Kept free of the exponential formula so it can serve as its oracle. (y, u)
    are two floats stepped by `rk4_step`'s formula written out per component,
    in its operation order, so the bits are those of a numpy 2-vector state.
    """
    a_val, a_dot = a.value, a.derivative
    drift = path.drift_rate
    y, u = float(x0), 1.0
    for _, _, base, slope, _, substeps in grid_segments(path, step):
        def f(t, y, u):
            x = y + drift * t + base + slope * t
            return a_val(x), a_dot(x) * u

        for t, _, h in substeps:
            half = 0.5 * h
            t_mid, t_end = t + half, t + h
            k1y, k1u = f(t, y, u)
            k2y, k2u = f(t_mid, y + half * k1y, u + half * k1u)
            k3y, k3u = f(t_mid, y + half * k2y, u + half * k2u)
            k4y, k4u = f(t_end, y + h * k3y, u + h * k3u)
            y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    return float(u)


def jump_time_derivative(a: ScalarField, solution: FlowSolution, T: float) -> float:
    """Derivative of the terminal Y with respect to the marked jump time T.

    `solution` must be the solved trajectory of the path with a jump at T.
    """
    if T > solution.horizon:
        return 0.0
    if T == solution.horizon:
        raise NonDifferentiablePoint(
            "one-sided derivatives differ when the marked jump sits at the horizon")
    record = next((r for r in solution.jump_records if r[0] == T), None)
    if record is None:
        raise ValueError("solution has no jump at the marked time")
    _, x_left, x_right, _ = record
    i0 = int(np.searchsorted(solution.times, T, side="left"))
    times = solution.times[i0:]
    vals = np.asarray([a.derivative(x) for x in solution.x_values[i0:]])
    quad = float(np.trapezoid(vals, times))
    return (a.value(x_left) - a.value(x_right)) * math.exp(quad)
