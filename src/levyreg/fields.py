"""Closed-form coefficient catalogue for scenario configs.

Every field ships an analytic derivative, so the probe-grid invariants hold
exactly and the derivative-based formulas are honest. All callables accept
floats or numpy float arrays (the batch engines evaluate them vectorized).

On floats the contract is: a float in gives a Python float out. A float,
np.float64 included, takes a Python-float branch that gives the same bits as
a one-element array, with np.exp as its only numpy call and its result made a
Python float at once, so the scalar solvers' states never become np.float64,
whose arithmetic costs about twice as much. On arrays, logistic-slope works
in place in the one new array x - center, and the array branches of its
value, derivative and one-signed flow follow the operand rule stated beside
the module's constants: 0-d float64 operands and bare numpy calls, no Python
float and no Python-level numpy wrapper. A flow called on a float y and u
takes a float branch too, with the numpy calls of the array path on floats,
each result made a Python float, and returns Python floats with the bits of
a one-element array: the scalar solvers of the unit-diffusion transform call
it at every step. It raises no numpy warning and no Python arithmetic error
(ZeroDivisionError, OverflowError). All closed forms
but the zero-end logistic-slope run on floats without an errstate, which
costs more than their arithmetic: they enter one only for an np.exp or
np.expm1 argument of 709 or more, where these may overflow, an np.tan of an
infinite angle, or an np.logaddexp that would meet nan.

Each entry is a factory whose keyword arguments are the field's parameters,
with their defaults; it returns the field as a DiffusionField with, where the
parameters bound |value| away from 0, that bound (the ellipticity witness
`min_abs`). Where the parameters give one, it also states the field's exact
flow as a diffusion coefficient, (y, u) -> (phi, dphi/dy) with phi the time-u
solution of y' = sigma(y) from y and dphi/dy = sigma(phi) / sigma(y):

* constant c: phi = y + c u;
* linear s: phi = y e^{s u};
* affine (s, b): phi = (y + b/s) e^{s u} - b/s;
* arctan-diffusion (A, k, c): phi = c + tan(arctan(k (y - c)) + A k u) / k,
  nan once the tan argument leaves (-pi/2, pi/2), where the flow diverges;
* logistic-slope with low L and high H of one sign, neither more than
  _RATIO_CAP times the other: phi = h^-1(h(y) + u)
  with h = int dx / sigma = x / H - S / (H r L) ln(H + L e^{-r (x - c)}) for
  span S and rate r, by Newton's method (h' = 1 / sigma); with a zero end,
  the same with h = (s - e^{-r s} / r) / A for sigma = A expit(r s), s = x - c.

Degenerate parameters, under which sigma is constant, take the constant form:
rate 0 or span 0 for logistic-slope, slope 0 for linear and affine, and
curvature or amplitude 0 for arctan-diffusion. A logistic-slope that changes
sign has no closed flow, nor has one whose ends lie more than _RATIO_CAP
apart, nor an entry whose constants b/s, S / (H r L), A k or r A overflow or
underflow to 0. An element still going after
_NEWTON_CAP Newton steps comes out nan, so it is flagged, never silently wrong.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
from numpy import ndarray

from .flow_engine import ScalarField, operand
from .marcus import DiffusionField

_EXP_CLIP = 60.0
_NEWTON_TOL = 2.0 ** -50
_NEWTON_CAP = 50
# Most |H / L| or |L / H| for which a one-signed logistic-slope states its
# closed flow. d / H and K ln(...) in a Newton step are about that ratio
# times the h-change they sum to, so about eps times the ratio is lost to
# cancellation. Measured against a 60-digit solve of h(phi) = h(y) + u, over
# y in [-40, 40], u in [-30, 30] and rates 0.3 to 3: 2.6e-13 worst relative
# error at ratio 1e3, 5.8e-12 at 1e4, 1.7e-10 at 1e6, against the kernel's
# 1e-10 tolerance; at 1e17 the flow ran backwards. Past the cap the field
# states no flow: the jump-flow kernel and the transforms' quadrature run.
_RATIO_CAP = 2.0 ** 10
# The operand rule. An array branch hands numpy arrays only: its constants
# are 0-d operands (flow_engine.operand), built once, and it calls no
# Python-level numpy wrapper (ndarray.clip, .all, .any, np.broadcast_arrays,
# np.full_like), so each call costs numpy's floor at the sweep's widths. A
# float branch keeps Python floats, since a 0-d operand would make its
# results np.float64.
_ZERO, _HALF, _ONE, _NAN = (operand(v) for v in (0.0, 0.5, 1.0, math.nan))
_CLAMP = operand(-_EXP_CLIP)
_TOL = operand(_NEWTON_TOL)
# np.exp and np.expm1 overflow, with a numpy warning, only above
# ln(DBL_MAX) = 709.78...; below this they are quiet
_QUIET_EXP = 709.0
_HALF_PI = math.pi / 2


def _expit_float(t):
    """expit(t) on a float (np.float64 included), the scalar solvers' states,
    as a Python float: Python comparisons clamp with the bits of the array
    clamp and let nan through; np.exp stays, since math.exp rounds some values
    differently."""
    if t > _EXP_CLIP:
        t = _EXP_CLIP
    elif t < -_EXP_CLIP:
        t = -_EXP_CLIP
    return 1.0 / (1.0 + float(np.exp(-t)))


def _exp(v, fn=np.exp):
    """fn(v) for fn np.exp or np.expm1: on an array as it is; on a float as a
    Python float, with no numpy warning (an argument that may overflow takes
    an errstate)."""
    if not isinstance(v, float):
        return fn(v)
    if not v >= _QUIET_EXP:
        return float(fn(v))
    with np.errstate(over="ignore"):
        return float(fn(v))


def _scalar(v):
    """v, with a numpy scalar made a Python float."""
    return v if isinstance(v, np.ndarray) else float(v)


def _expit_owned(t, rate):
    """expit(rate * t) for an array t that the caller owns, computed in place
    in it; rate is a 0-d operand, or None for a rate of exactly 1.0, whose
    multiply would return t's bits. The clamp is one-sided, np.maximum at
    -60, which keeps a nan's sign and payload: above 60, 1 + e^-t rounds to 1
    as it does at 60, so the float branch's upper clamp changes no bit (e^-t
    may underflow there, quietly under numpy's default errstate)."""
    if rate is not None:
        t *= rate
    np.maximum(t, _CLAMP, out=t)
    # the negation stays its own step: folded into the rate, it would keep
    # the sign bit of a nan that the float branch flips
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += _ONE
    return np.reciprocal(t, out=t)


def _const_like(x, c: float):
    if not isinstance(x, float) and np.ndim(x):
        return np.full(np.shape(x), c)
    return c


def _flow(closed):
    """The flow (y, u) -> (phi, dphi/dy) on floats or arrays, from `closed`,
    which sees only finite y and finite nonzero u, as two Python floats or two
    flat arrays, and returns Python floats on floats. A u of +-0.0 gives y as
    it is, with slope 1.0; a y or u that is not finite gives nan. A float y
    and u (np.float64 included) take the float branch: Python floats with the
    bits of a one-element array. No numpy warning is raised: arrays run under
    an errstate, and on floats `closed` keeps its own numpy calls quiet, since
    an errstate costs more than the arithmetic of most closed forms."""
    def flow(y, u):
        if isinstance(y, float) and isinstance(u, float):
            y, u = float(y), float(u)
            if u == 0.0:
                return y, 1.0
            if not (math.isfinite(y) and math.isfinite(u)):
                return math.nan, math.nan
            return closed(y, u)
        y, u = np.asarray(y, dtype=float), np.asarray(u, dtype=float)
        if y.shape != u.shape:
            y, u = np.broadcast_arrays(y, u)
        shape = y.shape
        y, u = y.ravel(), u.ravel()
        live = np.isfinite(y) & np.isfinite(u) & (u != _ZERO)
        n_live = np.count_nonzero(live)
        with np.errstate(all="ignore"):
            if n_live == live.size:
                phi, slope = closed(y, u)
            else:
                still = u == _ZERO
                phi = np.where(still, y, _NAN)
                slope = np.where(still, _ONE, _NAN)
                if n_live:
                    phi[live], slope[live] = closed(y[live], u[live])
        return phi.reshape(shape)[()], slope.reshape(shape)[()]

    return flow


def _constant_flow(level: float):
    return _flow(lambda y, u: (y + level * u, _const_like(y, 1.0)))


def _constant(level: float = 0.3):
    """level."""
    return DiffusionField(lambda x: _const_like(x, level),
                          lambda x: _const_like(x, 0.0),
                          min_abs=abs(level) if level != 0.0 else None,
                          flow=_constant_flow(level))


def _linear(slope: float = 0.5):
    """slope * x."""
    def closed(y, u):
        growth = _exp(slope * u)
        return y * growth, growth

    return DiffusionField(lambda x: slope * x,
                          lambda x: _const_like(x, slope),
                          flow=_flow(closed) if slope != 0.0 else _constant_flow(0.0))


def _affine(slope: float = 0.5, intercept: float = 0.0):
    """slope * x + intercept."""
    shift = intercept / slope if slope != 0.0 else 0.0

    def closed(y, u):
        growth = _exp(slope * u)
        return (y + shift) * growth - shift, growth

    if slope == 0.0:
        flow = _constant_flow(intercept)
    else:
        flow = _flow(closed) if math.isfinite(shift) else None
    return DiffusionField(lambda x: slope * x + intercept,
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

    # a float x (or a 0-d array) takes the float branch, tested first as the
    # cheaper test for the scalar solvers; on an array x, x - center is the
    # one new array and the rest runs in place in it, with a unit rate or
    # span skipping its multiply (x * 1.0 has x's bits)
    center0, gain0 = operand(center), operand(gain)
    rate0 = operand(rate) if rate != 1.0 else None
    span0 = operand(span) if span != 1.0 else None
    low0 = operand(low) if add_low else None

    def value(x):
        if isinstance(x, float) or not (isinstance(x, ndarray) and x.ndim):
            return low + span * _expit_float(rate * (x - center))
        v = _expit_owned(x - center0, rate0)
        if span0 is not None:
            v *= span0
        if low0 is not None:
            v += low0
        return v

    def derivative(x):
        if isinstance(x, float) or not (isinstance(x, ndarray) and x.ndim):
            e = _expit_float(rate * (x - center))
            return span * rate * e * (1.0 - e)
        e = _expit_owned(x - center0, rate0)
        w = _ONE - e
        e *= gain0
        e *= w
        return e

    flow = None
    if rate == 0.0 or span == 0.0:
        flow = _constant_flow(low + span * 0.5)
    elif min(low, high) > 0.0 or max(low, high) < 0.0:
        flow = _logistic_flow(value, low, high, rate, center)
    elif low == 0.0:
        flow = _expit_flow(high, rate, center)
    elif high == 0.0:
        # low (1 - expit(r s)) = low expit(-r s)
        flow = _expit_flow(low, -rate, center)
    return DiffusionField(value, derivative,
                          min(low, high) if low > 0.0 and high > 0.0 else None, flow)


def _newton(x, residual, step, sigma, advance):
    """Newton's method on R = h(x) - h(y) - u, h' = 1 / sigma, from x = y,
    R = -u and a first step. A step d carries R to advance(R, x, d) =
    R + h(x + d) - h(x), whose terms are of the size of d, so the rounding left
    in R shrinks with the steps. Each element stops on its own at
    |step| <= 2^-50 max(1, |x|), under a batch-wide loop bound. A float x
    takes a float loop with the same steps."""
    if isinstance(x, float):
        return _newton_float(x, residual, step, sigma, advance)
    phi = np.empty_like(x)
    phi.fill(math.nan)
    rows = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        x_new = x - step
        # False for a non-finite step or x_new too, which then stops as it is
        going = np.abs(step) > _TOL * np.maximum(_ONE, np.abs(x_new))
        n_going = np.count_nonzero(going)
        if n_going < going.size:
            stop = ~going
            phi[rows[stop]] = x_new[stop]
            if not n_going:
                break
            rows, x, x_new, residual = (a[going] for a in (rows, x, x_new, residual))
        residual = advance(residual, x, x_new - x)
        x = x_new
        step = residual * sigma(x)
    return phi


def _newton_float(x, residual, step, sigma, advance):
    """`_newton` on a float: max(1, |x|) keeps a nan |x| as np.maximum does."""
    for _ in range(_NEWTON_CAP):
        x_new = x - step
        size = abs(x_new)
        if not abs(step) > _NEWTON_TOL * (1.0 if size < 1.0 else size):
            return x_new
        residual = advance(residual, x, x_new - x)
        x = x_new
        step = residual * sigma(x)
    return math.nan


def _log_mix(t, v):
    """ln(1 - w + w e^v) for the weights w = 1 / (1 + e^t): log1p(w expm1(v))
    while |w expm1(v)| < 1/2, logaddexp(ln(1 - w), ln w + v) beyond."""
    if isinstance(t, float):
        arg = _exp(v, np.expm1) / (1.0 + _exp(t))
        if abs(arg) < 0.5:
            return float(np.log1p(arg))
        # np.logaddexp warns on a nan argument: t, from a finite Newton
        # state, is never nan, and `far` is nan only where v and t are +inf
        near, far = -float(np.logaddexp(0.0, -t)), v - float(np.logaddexp(0.0, t))
        if far == far:
            return float(np.logaddexp(near, far))
        with np.errstate(invalid="ignore"):
            return float(np.logaddexp(near, far))
    arg = np.expm1(v)
    weight = np.exp(t)
    weight += _ONE
    arg /= weight
    log = np.log1p(arg)
    far = ~(np.abs(arg) < _HALF)
    if np.count_nonzero(far):
        t = t[far]
        log[far] = np.logaddexp(-np.logaddexp(_ZERO, -t), v[far] - np.logaddexp(_ZERO, t))
    return log


def _logistic_flow(value, low: float, high: float, rate: float, center: float):
    """The flow for low L and high H of one sign, by `_newton` from the Euler
    step y + sigma(y) u: h(x + d) - h(x) = d / H - K ln(1 - w + w e^{-r d}),
    with K = S / (H r L) and w = 1 / (1 + (H / L) e^{r (x - c)}). None where K
    underflows to 0 or overflows, or where H / L or L / H passes _RATIO_CAP."""
    product = high * rate * low
    scale = (high - low) / product if product != 0.0 else math.inf
    if not 0.0 < abs(scale) < math.inf or max(abs(high / low), abs(low / high)) > _RATIO_CAP:
        return None
    log_ratio = math.log(abs(high)) - math.log(abs(low))
    center0, rate0, turn0 = operand(center), operand(rate), operand(-rate)
    high0, scale0, log_ratio0 = operand(high), operand(scale), operand(log_ratio)

    def advance(residual, x, d):
        return residual + d / high - scale * _log_mix(log_ratio + rate * (x - center),
                                                      -rate * d)

    # advance on arrays with the same bits: 0-d operands, and in place in its
    # own new arrays (the sums and products commute)
    def advance_array(residual, x, d):
        t = x - center0
        t *= rate0
        t += log_ratio0
        mix = _log_mix(t, turn0 * d)
        mix *= scale0
        out = d / high0
        out += residual
        out -= mix
        return out

    def closed(y, u):
        sigma_y = value(y)
        start = -u
        phi = _newton(y, start, start * sigma_y, value,
                      advance if isinstance(y, float) else advance_array)
        # sigma is never 0 here: that needs high - low to round to -low, with
        # the ends some 2^53 apart, far past _RATIO_CAP
        return phi, value(phi) / sigma_y

    return _flow(closed)


def _expit_flow(level: float, rate: float, center: float):
    """The flow for sigma = A expit(r s), s = x - c, by `_newton` on
    h = (s - e^{-r s} / r) / A with the unclamped sigma. In t = r s and time
    tau = r A u, h is the increasing, concave g(t) = t - e^{-t}, so Newton's
    method climbs to the root from below. It starts from the higher of two
    points below it: the Euler step t + expit(t) tau and, for tau < 0,
    t - ln(1 - tau e^t), where e^{-t} has moved by -tau. None where r A, 1 / r
    or 1 / A overflows or underflows to 0."""
    gain = rate * level
    if not all(0.0 < abs(v) < math.inf for v in (gain, 1.0 / rate, 1.0 / level)):
        return None

    def sigma(x):
        return level / (1.0 + _exp(-rate * (x - center)))

    def advance(residual, x, d):
        # e^{-r s} expm1(-r d), with the exponential taken at the step's end
        # of larger e^{-r s}: no factor overflows where the product is finite
        move = rate * d
        change = np.exp(-rate * (x - center) - np.minimum(move, 0.0)) * np.expm1(-np.abs(move))
        return residual + _scalar(d - np.sign(move) * change / rate) / level

    def closed(y, u):
        # its own errstate, floats too: np.log(0.0) where tau underflows,
        # overflow in the exponentials and a nan phi in np.logaddexp
        with np.errstate(all="ignore"):
            t, tau = rate * (y - center), gain * u
            tail = np.where(tau < 0.0, t - np.logaddexp(0.0, t + np.log(np.abs(tau))), -np.inf)
            start = _scalar(np.fmax(t + tau / (1.0 + np.exp(-t)), tail))
            phi = _newton(y, -u, (t - start) / rate, sigma, advance)
            return phi, _scalar(np.exp(np.logaddexp(0.0, -t)
                                       - np.logaddexp(0.0, rate * (center - phi))))

    return _flow(closed)


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
        if isinstance(t, float):
            theta = float(np.arctan(t)) + gain * u
            if math.isfinite(theta):
                tan = float(np.tan(theta))
            else:   # np.tan warns at +-inf
                with np.errstate(invalid="ignore"):
                    tan = float(np.tan(theta))
        else:
            theta = np.arctan(t) + gain * u
            tan = np.tan(theta)
        phi = center + tan / curvature
        slope = (1.0 + tan * tan) / (1.0 + t * t)
        # past the pole the flow has diverged; tan would wrap round to a finite value
        if isinstance(phi, float):
            return math.nan if abs(theta) > _HALF_PI else phi, slope
        phi[np.abs(theta) > _HALF_PI] = np.nan
        return phi, slope

    if gain == 0.0:
        flow = _constant_flow(amplitude)
    else:
        flow = _flow(closed) if math.isfinite(gain) else None
    return DiffusionField(value, derivative,
                          min_abs=amplitude if amplitude > 0.0 else None, flow=flow)


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


def make_diffusion_field(name: str, params: dict[str, float] | None = None) -> DiffusionField:
    """The catalogue entry with its defaults filled in: value, derivative,
    min_abs or None, and exact flow or None."""
    return _CATALOGUE[name](**canonical_params(name, params))


def make_scalar_field(name: str, params: dict[str, float] | None = None) -> ScalarField:
    field = make_diffusion_field(name, params)
    return ScalarField(value=field.value, derivative=field.derivative)
