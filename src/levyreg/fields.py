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

Names and parameters:

* constant(level)
* linear(slope)
* affine(slope, intercept)
* logistic-slope(low, high, rate, center) — strictly increasing from low to
  high when rate > 0 and high > low; positive low makes it an elliptic
  diffusion coefficient.
* arctan-diffusion(amplitude, curvature, center) — amplitude * (1 + (curvature
  (x - center))^2); its unit-diffusion transform is an arctangent.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .flow_engine import ScalarField
from .marcus import DiffusionField

_EXP_CLIP = 60.0


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
    params: dict[str, float]
    jet: Callable | None = None


def _const_like(x, c: float):
    if not isinstance(x, float) and np.ndim(x):
        return np.full(np.shape(x), c)
    return c


def _constant(level: float = 0.3):
    return _Entry(lambda x: _const_like(x, level),
                  lambda x: _const_like(x, 0.0),
                  {"level": level})


def _linear(slope: float = 0.5):
    return _Entry(lambda x: slope * x,
                  lambda x: _const_like(x, slope),
                  {"slope": slope})


def _affine(slope: float = 0.5, intercept: float = 0.0):
    return _Entry(lambda x: slope * x + intercept,
                  lambda x: _const_like(x, slope),
                  {"slope": slope, "intercept": intercept})


def _logistic_slope(low: float = 0.0, high: float = 1.0,
                    rate: float = 1.0, center: float = 0.0):
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

    return _Entry(value, derivative, {"low": low, "high": high,
                                      "rate": rate, "center": center}, jet)


def _arctan_diffusion(amplitude: float = 1.0, curvature: float = 1.0,
                      center: float = 0.0):
    def value(x):
        t = curvature * (x - center)
        return amplitude * (1.0 + t * t)

    def derivative(x):
        return 2.0 * amplitude * curvature * curvature * (x - center)

    return _Entry(value, derivative, {"amplitude": amplitude, "curvature": curvature,
                                      "center": center})


_CATALOGUE = {
    "constant": _constant,
    "linear": _linear,
    "affine": _affine,
    "logistic-slope": _logistic_slope,
    "arctan-diffusion": _arctan_diffusion,
}


def catalogue_names() -> list[str]:
    return sorted(_CATALOGUE)


def resolve_field(name: str, params: dict[str, float] | None = None) -> _Entry:
    """(value, derivative, canonical params, fused jet or None) for a
    catalogue entry."""
    if name not in _CATALOGUE:
        raise KeyError(f"unknown field {name!r}; choose from {catalogue_names()}")
    factory = _CATALOGUE[name]
    try:
        return factory(**(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for field {name!r}: {exc}") from exc


def make_scalar_field(name: str, params: dict[str, float] | None = None) -> ScalarField:
    entry = resolve_field(name, params)
    return ScalarField(value=entry.value, derivative=entry.derivative)


def make_diffusion_field(name: str, params: dict[str, float] | None = None) -> DiffusionField:
    entry = resolve_field(name, params)
    canonical = entry.params
    min_abs = None
    if name == "constant" and canonical["level"] != 0.0:
        min_abs = abs(canonical["level"])
    elif name == "logistic-slope" and canonical["low"] > 0.0 and canonical["high"] > 0.0:
        min_abs = min(canonical["low"], canonical["high"])
    elif name == "arctan-diffusion" and canonical["amplitude"] > 0.0:
        min_abs = canonical["amplitude"]
    return DiffusionField(value=entry.value, derivative=entry.derivative,
                          min_abs=min_abs, fused_jet=entry.jet)


def canonical_params(name: str, params: dict[str, float] | None = None) -> dict[str, float]:
    """Parameters with defaults filled in, for config round-trips."""
    return resolve_field(name, params).params
