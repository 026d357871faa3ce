"""Diffeomorphic reductions for the elliptic jump SDE.

With a nonvanishing diffusion coefficient sigma, three classical devices
turn the Marcus equation into something already solved elsewhere:

* unit_diffusion_transform — f(x) = int dt/sigma from a base point conjugates
  the equation to one with unit diffusion and drift (a/sigma) o f^-1. The
  inverse is the sigma-flow from the base point, f^-1(y) = phi(base, y): one
  call of the exact flow for a catalogue sigma that states one, Newton's
  method on a quadrature table of f otherwise;
* proportional_solution — when a = k*sigma the solution is the sigma-flow
  evaluated at the linearly drifted driver, in closed form;
* doss_sussman_solve — X_t = phi(Y_t, Z_t) with Y solving a random ODE whose
  right-hand side divides a by the flow's state sensitivity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow_engine import ScalarField, divide, grid_segments, rk4_step
from .marcus import DiffusionField, FlowDivergence, flow_with_sensitivity, jump_flow_phi
from .path_sampler import LevyPath
from .quadrature import adaptive_simpson

#: Newton steps, and halvings of one step, that the flow-based f(x) may take.
_FORWARD_CAP = 100


class AssumptionHViolation(ValueError):
    """sigma vanishes (or changes sign) on the requested range."""


@dataclass(frozen=True)
class Diffeomorphism:
    """Strictly monotone change of variables with a numeric inverse."""

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    base_point: float
    range_lo: float
    range_hi: float

    def validate(self, n: int = 101) -> None:
        xs = np.linspace(self.range_lo, self.range_hi, n)
        fwd = [self.forward(float(x)) for x in xs]
        diffs = np.diff(fwd)
        if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
            raise ValueError("forward map is not strictly monotone on its range")
        for x, y in zip(xs, fwd):
            if abs(self.inverse(y) - float(x)) > 1e-9 * (1.0 + abs(float(x))):
                raise ValueError(f"inverse roundtrip failed at x={x}")


def unit_diffusion_transform(sigma: DiffusionField, base_point: float,
                             range_lo: float, range_hi: float,
                             cells: int = 512) -> Diffeomorphism:
    """Build f(x) = int_base^x dt/sigma(t), the time the sigma-flow takes
    from base_point to x, so that f^-1(y) = phi(base_point, y).

    sigma must keep a fixed sign on [range_lo, range_hi], checked at cells + 1
    nodes. For a sigma with an exact flow (`DiffusionField.flow`), the inverse
    is one flow call and f(x) is Newton's method on it. Otherwise f comes from
    a cumulative quadrature table: adaptive Simpson (tol 1e-12) per table
    cell, with point evaluations integrating only across the enclosing cell,
    and the inverse is Newton's method on f. Either way a non-finite argument
    or result raises FlowDivergence.
    """
    if not (range_lo < range_hi):
        raise ValueError("need range_lo < range_hi")
    if not (range_lo <= base_point <= range_hi):
        raise ValueError("base_point must lie in the range")
    # Python lists: the cell lookups bisect them without a numpy call
    nodes = np.linspace(range_lo, range_hi, cells + 1).tolist()
    sig_vals = np.array([sigma.value(x) for x in nodes])
    floor = sigma.min_abs if sigma.min_abs is not None else 1e-12
    if np.any(np.abs(sig_vals) < floor) or np.any(np.sign(sig_vals) != np.sign(sig_vals[0])):
        raise AssumptionHViolation(
            "sigma vanishes or changes sign on the requested range")
    if sigma.flow is not None:
        forward, inverse = _flow_maps(sigma, float(base_point))
    else:
        forward, inverse = _quadrature_maps(sigma, base_point, nodes,
                                            increasing=sig_vals[0] > 0.0)
    return Diffeomorphism(forward=forward, inverse=inverse, base_point=base_point,
                          range_lo=range_lo, range_hi=range_hi)


def _flow_maps(sigma: DiffusionField, base: float):
    """(f, f^-1) from the exact flow: f^-1(y) = phi(base, y), and f(x) the
    root y of phi(base, y) = x by Newton's method from y = 0, with
    dphi/dy = sigma(phi). A step whose flow diverges is halved."""
    flow, sig = sigma.flow, sigma.value

    def inverse(y: float) -> float:
        x = flow(base, float(y))[0]
        if not math.isfinite(x):
            raise FlowDivergence(f"unit-diffusion transform inverse at y = {y}")
        return x

    def forward(x: float) -> float:
        if not math.isfinite(x):
            raise FlowDivergence(f"unit-diffusion transform at x = {x}")
        y, p = 0.0, base
        for _ in range(_FORWARD_CAP):
            # a float: a step past the float range is inf, without a numpy warning
            slope = float(sig(p))
            if not abs(slope) > 0.0:  # the flow ran onto a zero of sigma
                break
            step = (x - p) / slope
            for _ in range(_FORWARD_CAP):
                q = flow(base, y + step)[0]
                if math.isfinite(q):
                    break
                step *= 0.5
            else:  # no finite step: an infinite one halves to itself
                break
            y, p = y + step, q
            if abs(step) <= 1e-14 * (1.0 + abs(y)):
                return y
        raise FlowDivergence(f"unit-diffusion transform at x = {x}: no convergence")

    return forward, inverse


def _quadrature_maps(sigma: DiffusionField, base_point: float, nodes: list[float],
                     increasing: bool):
    """(f, f^-1) from the quadrature table on `nodes`, the oracle for a sigma
    without an exact flow."""
    range_lo, range_hi, cells = nodes[0], nodes[-1], len(nodes) - 1
    inv = lambda t: 1.0 / sigma.value(t)
    cell_ints = [adaptive_simpson(inv, nodes[k], nodes[k + 1], tol=1e-12)
                 for k in range(cells)]
    cumsum = np.concatenate([[0.0], np.cumsum(cell_ints)])
    cumulative = cumsum.tolist()

    def forward_raw(x: float) -> float:
        if x < range_lo:
            k, lo = 0, range_lo
        elif x > range_hi:
            k, lo = cells, range_hi
        else:
            # nan compares false everywhere and lands in the last cell
            k = max(min(bisect_right(nodes, x) - 1, cells - 1), 0)
            lo = nodes[k]
        try:
            return cumulative[k] + adaptive_simpson(inv, lo, x, tol=1e-12)
        # a nan or infinite x, the evaluation budget, or a zero of sigma
        except (ValueError, ZeroDivisionError) as exc:
            raise FlowDivergence(f"unit-diffusion transform at x = {x}: {exc}") from None

    base_val = forward_raw(base_point)

    def forward(x: float) -> float:
        return forward_raw(x) - base_val

    # inverse bisects an increasing table: the negated one for a decreasing f
    table = cumulative if increasing else (-cumsum).tolist()

    def inverse(y: float) -> float:
        target = y + base_val
        # Newton's residual test passes vacuously at an infinite target; a nan
        # one reaches forward_raw, which raises
        if math.isinf(target):
            raise FlowDivergence(f"unit-diffusion transform inverse at y = {y}")
        t = target if increasing else -target
        if t <= table[0]:
            x = range_lo
        elif t < table[-1]:
            x = nodes[bisect_left(table, t) - 1]
        else:  # at or past the top of the table, or nan
            x = range_hi
        # Newton on forward_raw; derivative is 1/sigma
        for _ in range(100):
            r = forward_raw(x) - target
            if abs(r) <= 1e-13 * (1.0 + abs(target)):
                break
            x = x - r * sigma.value(x)
        return x

    return forward, inverse


def reduced_drift(a: ScalarField, sigma: DiffusionField,
                  diffeo: Diffeomorphism) -> ScalarField:
    """Drift of the unit-diffusion conjugate: y -> (a/sigma)(f^-1(y))."""
    inv = diffeo.inverse
    a_val, a_dot = a.value, a.derivative
    s_val, s_dot = sigma.value, sigma.derivative

    # f^-1(y) may leave the range where sigma was checked and meet a zero of
    # it: the drift is then +-inf or nan, and the solver flags the state
    def value(y: float) -> float:
        x = inv(y)
        return divide(a_val(x), s_val(x))

    def derivative(y: float) -> float:
        # chain rule with (f^-1)'(y) = sigma(f^-1(y))
        x = inv(y)
        return divide(a_dot(x) * s_val(x) - a_val(x) * s_dot(x), s_val(x))

    return ScalarField(value=value, derivative=derivative)


def proportional_solution(sigma: DiffusionField, k: float, x0: float,
                          path: LevyPath, tol: float = 1e-10) -> float:
    """Closed-form terminal value when a = k * sigma: the sigma-flow of x0
    evaluated at Z_horizon + k * horizon, exact for a sigma with a `flow`, by
    the Richardson-refined jump flow to `tol` otherwise."""
    u = path.terminal + k * path.horizon
    if sigma.flow is None:
        return jump_flow_phi(sigma, x0, u, tol)
    x = sigma.flow(float(x0), float(u))[0]
    if not math.isfinite(x):
        raise FlowDivergence(f"flow diverged: start {x0}, time {u}")
    return x


def doss_sussman_drift(a: ScalarField, sigma: DiffusionField,
                       x: float, z: float) -> float:
    """b(x, z) = a(phi(x, z)) / phi_x(x, z), the random-ODE right-hand side."""
    phi, log_sens = flow_with_sensitivity(sigma, x, z)
    try:
        growth = math.exp(-log_sens)
    except OverflowError:   # the sensitivity underflows to 0: b is infinite
        growth = math.inf
    return a.value(phi) * growth


def doss_sussman_solve(a: ScalarField, sigma: DiffusionField, path: LevyPath,
                       x0: float, step: float | None = None) -> float:
    """Terminal value via X_t = phi(Y_t, Z_t) with Y a pathwise random ODE.

    The flow-commutation that makes this exact holds for the Marcus jump
    rule in one dimension for any cadlag driver, Brownian part or not.
    """
    drift = path.drift_rate
    y = float(x0)
    for _, _, base, slope, _, substeps in grid_segments(path, step):
        def f(t, u):
            return doss_sussman_drift(a, sigma, u, drift * t + base + slope * t)

        for t, _, h in substeps:
            y = rk4_step(f, t, y, h)
            if not math.isfinite(y):
                raise FlowDivergence(f"transformed state diverged near t={t}")
    return jump_flow_phi(sigma, y, path.terminal)
