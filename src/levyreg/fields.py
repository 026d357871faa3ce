"""Closed-form coefficient catalogue for scenario configs.

Every field ships an analytic derivative, so the probe-grid invariants hold
exactly and the derivative-based formulas are honest. All callables accept
floats or numpy float arrays (the batch engines evaluate them vectorized). A
float, np.float64 included, takes a Python-float branch that gives the same
bits as a one-element array, with np.exp as its only numpy call; on arrays,
logistic-slope works in place in the one new array x - center. An entry may
also ship a fused jet, x -> (value, derivative) from one shared evaluation
with the same arithmetic as the two callables; diffusion fields built from it
hand it to `DiffusionField.jet`.

Each entry is a factory whose keyword arguments are the field's parameters,
with their defaults; it returns the field and, where the parameters bound
|value| away from 0, that bound (the ellipticity witness `min_abs`). Where
the parameters give one, it also states the field's exact flow as a diffusion
coefficient, (y, u) -> (phi, dphi/dy) with phi the time-u solution of
y' = sigma(y) from y and dphi/dy = sigma(phi) / sigma(y):

* constant c: phi = y + c u;
* linear s: phi = y e^{s u};
* affine (s, b): phi = (y + b/s) e^{s u} - b/s;
* arctan-diffusion (A, k, c): phi = c + tan(arctan(k (y - c)) + A k u) / k,
  nan once the tan argument leaves (-pi/2, pi/2), where the flow diverges;
* logistic-slope with low L > 0 and high H > 0: phi = h^-1(h(y) + u) with
  h = int dx / sigma, that is x / H - S / (H r L) ln(H + L e^{-r (x - c)})
  for span S and rate r, inverted by Newton's method (h' = 1 / sigma) from
  the Euler step y + sigma(y) u.

Degenerate parameters, under which sigma is constant, take the constant form:
rate 0 or span 0 for logistic-slope, slope 0 for linear and affine, and
curvature or amplitude 0 for arctan-diffusion. logistic-slope with low <= 0 or
high <= 0 has no closed flow, nor has an entry whose constants b/s,
S / (H r L) or A k overflow or underflow to 0. Each element runs its own Newton
iteration and stops at |step| <= 2^-50 max(1, |x|); one still going after
_NEWTON_CAP steps comes out nan, so it is flagged, never silently wrong. The
batch-wide loop bound never enters element arithmetic.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, NamedTuple

import numpy as np

from .flow_engine import ScalarField
from .marcus import DiffusionField

_EXP_CLIP = 60.0
_NEWTON_TOL = 2.0 ** -50
_NEWTON_CAP = 50


def _expit_float(t):
    """expit(t) on a float (np.float64 included), the scalar solvers' states:
    Python comparisons clamp with the bits of the array clamp and let nan
    through; np.exp stays, since math.exp rounds some values differently."""
    if t > _EXP_CLIP:
        t = _EXP_CLIP
    elif t < -_EXP_CLIP:
        t = -_EXP_CLIP
    return 1.0 / (1.0 + np.exp(-t))


def _expit_owned(t, rate: float):
    """expit(rate * t) for an array t that the caller owns, computed in place
    in it. np.minimum/np.maximum clamp like np.clip (nan and +-inf included)
    without np.clip's Python wrapper."""
    t *= rate
    np.maximum(t, -_EXP_CLIP, out=t)
    np.minimum(t, _EXP_CLIP, out=t)
    # the negation stays its own step: folded into the rate, it would keep
    # the sign bit of a nan that the float branch flips
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


class _Entry(NamedTuple):
    value: Callable
    derivative: Callable
    jet: Callable | None = None
    min_abs: float | None = None     # |value| >= min_abs everywhere, when set
    flow: Callable | None = None     # exact (y, u) -> (phi, dphi/dy), when set


def _const_like(x, c: float):
    if not isinstance(x, float) and np.ndim(x):
        return np.full(np.shape(x), c)
    return c


def _flow(closed):
    """The flow (y, u) -> (phi, dphi/dy) on floats or arrays, from `closed`,
    which sees only flat arrays of finite y and finite nonzero u. A u of
    +-0.0 gives y as it is, with slope 1.0; a y or u that is not finite gives
    nan. No numpy warning is raised."""
    def flow(y, u):
        y, u = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(u, dtype=float))
        shape = y.shape
        y, u = y.ravel(), u.ravel()
        live = np.isfinite(y) & np.isfinite(u) & (u != 0.0)
        with np.errstate(all="ignore"):
            if live.all():
                phi, slope = closed(y, u)
            else:
                phi = np.where(u == 0.0, y, np.nan)
                slope = np.where(u == 0.0, 1.0, np.nan)
                if live.any():
                    phi[live], slope[live] = closed(y[live], u[live])
        return phi.reshape(shape)[()], slope.reshape(shape)[()]

    return flow


def _constant_flow(level: float):
    return _flow(lambda y, u: (y + level * u, np.ones_like(y)))


def _constant(level: float = 0.3):
    """level."""
    return _Entry(lambda x: _const_like(x, level),
                  lambda x: _const_like(x, 0.0),
                  min_abs=abs(level) if level != 0.0 else None,
                  flow=_constant_flow(level))


def _linear(slope: float = 0.5):
    """slope * x."""
    def closed(y, u):
        growth = np.exp(slope * u)
        return y * growth, growth

    return _Entry(lambda x: slope * x,
                  lambda x: _const_like(x, slope),
                  flow=_flow(closed) if slope != 0.0 else _constant_flow(0.0))


def _affine(slope: float = 0.5, intercept: float = 0.0):
    """slope * x + intercept."""
    shift = intercept / slope if slope != 0.0 else 0.0

    def closed(y, u):
        growth = np.exp(slope * u)
        return (y + shift) * growth - shift, growth

    if slope == 0.0:
        flow = _constant_flow(intercept)
    else:
        flow = _flow(closed) if math.isfinite(shift) else None
    return _Entry(lambda x: slope * x + intercept,
                  lambda x: _const_like(x, slope), flow=flow)


def _logistic_slope(low: float = 0.0, high: float = 1.0,
                    rate: float = 1.0, center: float = 0.0):
    """low + (high - low) * expit(rate * (x - center)): strictly increasing
    from low to high when rate > 0 and high > low; positive low and high make
    it an elliptic diffusion coefficient."""
    span = high - low
    gain = span * rate
    # low + v is v unless v is -0.0, and span * e is never -0.0 when
    # span > 0.0, so a zero low is dropped there; the float branch keeps it
    add_low = not (low == 0.0 and span > 0.0)

    # a float x takes the float branch; on a float array, x - center is the
    # one new array and the rest runs in place in it
    def value(x):
        d = x - center
        if isinstance(d, float):
            return low + span * _expit_float(rate * d)
        v = _expit_owned(d, rate)
        v *= span
        if add_low:
            v += low
        return v

    def derivative(x):
        d = x - center
        if isinstance(d, float):
            e = _expit_float(rate * d)
            return span * rate * e * (1.0 - e)
        e = _expit_owned(d, rate)
        w = np.subtract(1.0, e)
        e *= gain
        e *= w
        return e

    def jet(x):
        d = x - center
        if isinstance(d, float):
            e = _expit_float(rate * d)
            return low + span * e, span * rate * e * (1.0 - e)
        e = _expit_owned(d, rate)
        slope = np.multiply(gain, e)
        slope *= np.subtract(1.0, e)
        e *= span
        if add_low:
            e += low
        return e, slope

    flow = None
    if rate == 0.0 or span == 0.0:
        flow = _constant_flow(low + span * 0.5)
    elif low > 0.0 and high > 0.0:
        closed = _logistic_inverse(value, low, high, rate, center)
        flow = _flow(closed) if closed is not None else None
    return _Entry(value, derivative, jet,
                  min(low, high) if low > 0.0 and high > 0.0 else None, flow)


def _log_mix(t, v):
    """ln(1 - w + w e^v) for the weights w = 1 / (1 + e^t): log1p(w expm1(v))
    while |w expm1(v)| < 1/2, logaddexp(ln(1 - w), ln w + v) beyond."""
    arg = np.expm1(v)
    arg /= 1.0 + np.exp(t)
    log = np.log1p(arg)
    far = ~(np.abs(arg) < 0.5)
    if far.any():
        t = t[far]
        log[far] = np.logaddexp(-np.logaddexp(0.0, -t), v[far] - np.logaddexp(0.0, t))
    return log


def _logistic_inverse(value, low: float, high: float, rate: float, center: float):
    """phi = h^-1(h(y) + u) for h = int dx / sigma. Newton's method carries
    the residual R = h(x) - h(y) - u from step to step: from R = -u at x = y
    (whose first step is the Euler step), each step d adds
    h(x + d) - h(x) = d / H - K ln(1 - w + w e^{-r d}), with K = S / (H r L)
    and w = 1 / (1 + (H / L) e^{r (x - c)}). Every term added is of the size
    of its step, so the rounding left in R shrinks with the steps. None
    where K underflows to 0 or overflows."""
    product = high * rate * low
    scale = (high - low) / product if product != 0.0 else math.inf
    if not 0.0 < abs(scale) < math.inf:
        return None
    log_ratio = math.log(high) - math.log(low)

    def closed(y, u):
        x, residual = y, -u
        phi = np.full_like(y, np.nan)
        rows = np.arange(y.size)
        for _ in range(_NEWTON_CAP):
            step = residual * value(x)
            x_new = x - step
            # False for a non-finite step or x_new too, which then stops as it is
            going = np.abs(step) > _NEWTON_TOL * np.maximum(1.0, np.abs(x_new))
            if not going.all():
                phi[rows[~going]] = x_new[~going]
                if not going.any():
                    break
                rows, x, x_new, residual = (a[going] for a in (rows, x, x_new, residual))
            d = x_new - x
            residual = residual + d / high - scale * _log_mix(log_ratio + rate * (x - center),
                                                              -rate * d)
            x = x_new
        return phi, value(phi) / value(y)

    return closed


def _arctan_diffusion(amplitude: float = 1.0, curvature: float = 1.0,
                      center: float = 0.0):
    """amplitude * (1 + (curvature (x - center))^2); its unit-diffusion
    transform is an arctangent."""
    def value(x):
        t = curvature * (x - center)
        return amplitude * (1.0 + t * t)

    def derivative(x):
        return 2.0 * amplitude * curvature * curvature * (x - center)

    gain = amplitude * curvature

    def closed(y, u):
        t = curvature * (y - center)
        theta = np.arctan(t) + gain * u
        tan = np.tan(theta)
        phi = center + tan / curvature
        # past the pole the flow has diverged; tan would wrap round to a finite value
        phi[np.abs(theta) > np.pi / 2] = np.nan
        return phi, (1.0 + tan * tan) / (1.0 + t * t)

    if gain == 0.0:
        flow = _constant_flow(amplitude)
    else:
        flow = _flow(closed) if math.isfinite(gain) else None
    return _Entry(value, derivative, min_abs=amplitude if amplitude > 0.0 else None,
                  flow=flow)


_CATALOGUE = {
    "constant": _constant,
    "linear": _linear,
    "affine": _affine,
    "logistic-slope": _logistic_slope,
    "arctan-diffusion": _arctan_diffusion,
}


def catalogue_names() -> list[str]:
    return sorted(_CATALOGUE)


def canonical_params(name: str, params: dict[str, float] | None = None) -> dict[str, float]:
    """The field's parameters with its defaults filled in, for config
    round-trips; `canonical_params(name)` lists them all."""
    if name not in _CATALOGUE:
        raise KeyError(f"unknown field {name!r}; choose from {catalogue_names()}")
    defaults = {key: p.default
                for key, p in inspect.signature(_CATALOGUE[name]).parameters.items()}
    unknown = sorted(set(params or ()) - set(defaults))
    if unknown:
        raise ValueError(f"bad parameters for field {name!r}: {unknown} not among "
                         f"{sorted(defaults)}")
    return {**defaults, **(params or {})}


def resolve_field(name: str, params: dict[str, float] | None = None) -> _Entry:
    """(value, derivative, fused jet or None, min_abs or None, exact flow or
    None) of a catalogue entry."""
    return _CATALOGUE[name](**canonical_params(name, params))


def make_scalar_field(name: str, params: dict[str, float] | None = None) -> ScalarField:
    entry = resolve_field(name, params)
    return ScalarField(value=entry.value, derivative=entry.derivative)


def make_diffusion_field(name: str, params: dict[str, float] | None = None) -> DiffusionField:
    entry = resolve_field(name, params)
    return DiffusionField(value=entry.value, derivative=entry.derivative,
                          min_abs=entry.min_abs, fused_jet=entry.jet, flow=entry.flow)
