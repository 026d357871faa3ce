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
|value| away from 0, that bound (the ellipticity witness `min_abs`).
"""

from __future__ import annotations

import inspect
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
    jet: Callable | None = None
    min_abs: float | None = None     # |value| >= min_abs everywhere, when set


def _const_like(x, c: float):
    if not isinstance(x, float) and np.ndim(x):
        return np.full(np.shape(x), c)
    return c


def _constant(level: float = 0.3):
    """level."""
    return _Entry(lambda x: _const_like(x, level),
                  lambda x: _const_like(x, 0.0),
                  min_abs=abs(level) if level != 0.0 else None)


def _linear(slope: float = 0.5):
    """slope * x."""
    return _Entry(lambda x: slope * x,
                  lambda x: _const_like(x, slope))


def _affine(slope: float = 0.5, intercept: float = 0.0):
    """slope * x + intercept."""
    return _Entry(lambda x: slope * x + intercept,
                  lambda x: _const_like(x, slope))


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

    return _Entry(value, derivative, jet,
                  min(low, high) if low > 0.0 and high > 0.0 else None)


def _arctan_diffusion(amplitude: float = 1.0, curvature: float = 1.0,
                      center: float = 0.0):
    """amplitude * (1 + (curvature (x - center))^2); its unit-diffusion
    transform is an arctangent."""
    def value(x):
        t = curvature * (x - center)
        return amplitude * (1.0 + t * t)

    def derivative(x):
        return 2.0 * amplitude * curvature * curvature * (x - center)

    return _Entry(value, derivative, min_abs=amplitude if amplitude > 0.0 else None)


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
    """(value, derivative, fused jet or None, min_abs or None) of a catalogue
    entry."""
    return _CATALOGUE[name](**canonical_params(name, params))


def make_scalar_field(name: str, params: dict[str, float] | None = None) -> ScalarField:
    entry = resolve_field(name, params)
    return ScalarField(value=entry.value, derivative=entry.derivative)


def make_diffusion_field(name: str, params: dict[str, float] | None = None) -> DiffusionField:
    entry = resolve_field(name, params)
    return DiffusionField(value=entry.value, derivative=entry.derivative,
                          min_abs=entry.min_abs, fused_jet=entry.jet)
