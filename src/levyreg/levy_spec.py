"""Jump-measure specifications and the classical absolute-continuity criteria.

Two representations of a jump measure are supported:

* FiniteAtomic — a finite list of (size, rate) atoms. The atomic families
  (dyadic_family, sparse_family) are their first N levels, sizes decreasing
  to 0; the `idealized_infinite` flag records whether the family they
  truncate has infinite total mass.
* DensityForm — an intensity function on a band {abs_min <= |z| <= abs_max}.

On top of these, `doblin_predicts_atoms` evaluates the Doblin dichotomy
(atoms of the marginal law iff the measure is finite) and
`kallenberg_b_profile` evaluates the ratio test of the Kallenberg–Sato
criterion, condition (b). Condition (a) — absolute continuity of a
convolution power — has no numerical test here and is reported as
"not evaluated".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .quadrature import shell_integral, two_sided_shell_integral

#: Reported verdict for Kallenberg–Sato condition (a); see module docstring.
CONVOLUTION_CONDITION = "not evaluated"

# Divergence thresholds for the dyadic-shell walk in is_infinite.
_MASS_CAP = 1.0e6
_SHELL_FLOOR = 1.0e-14
_MAX_SHELLS = 200


@dataclass(frozen=True)
class FiniteAtomic:
    """Finite measure: sum of rate_i * delta_{size_i}.

    `idealized_infinite` records whether the measure is the truncation of one
    with infinite total mass (the atomic families below); the atoms
    themselves are always a finite measure.
    """

    atoms: tuple[tuple[float, float], ...]
    idealized_infinite: bool = False

    def __post_init__(self):
        atoms = tuple((float(s), float(r)) for s, r in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for s, r in atoms:
            if s == 0.0:
                raise ValueError("atom sizes must be nonzero")
            if not (r >= 0.0 and math.isfinite(r)):
                raise ValueError("atom rates must be finite and >= 0")


def dyadic_family(levels: int, sign: float = 1.0,
                  rate_scale: float = 1.0,
                  idealized_infinite: bool = True) -> FiniteAtomic:
    """Levels n = 1..levels of the family with sizes sign*2^-n and rates
    rate_scale*2^n."""
    return FiniteAtomic(tuple((sign * 2.0 ** (-n), rate_scale * 2.0 ** n)
                              for n in range(1, levels + 1)), idealized_infinite)


def sparse_family(levels: int, sign: float = -1.0,
                  rate: float = 1.0) -> FiniteAtomic:
    """Levels n = 1..levels of the family with sizes sign*2^-n and constant
    rate per level."""
    return FiniteAtomic(tuple((sign * 2.0 ** (-n), rate)
                              for n in range(1, levels + 1)), True)


@dataclass(frozen=True)
class DensityForm:
    """Intensity function on the band {abs_min <= |z| <= abs_max}.

    The intensity is evaluated at signed z; set `two_sided=False` for a
    measure supported on positive sizes only.
    """

    intensity: Callable[[float], float]
    abs_min: float = 0.0
    abs_max: float = 1.0
    two_sided: bool = True

    def __post_init__(self):
        if not (0.0 <= self.abs_min < self.abs_max):
            raise ValueError("need 0 <= abs_min < abs_max")

    def _band_integral(self, f: Callable[[float], float],
                       lo: float, hi: float, tol: float = 1e-11) -> float:
        lo = max(lo, self.abs_min) if self.abs_min > 0.0 else lo
        hi = min(hi, self.abs_max)
        if lo >= hi:
            return 0.0
        if self.two_sided:
            return two_sided_shell_integral(lambda z: f(z) * self.intensity(z), lo, hi, tol)
        return shell_integral(lambda z: f(z) * self.intensity(z), lo, hi, tol)


JumpMeasureSpec = FiniteAtomic | DensityForm


def _first_shell_exponent(hi: float) -> int:
    """Largest k with 2^k < hi."""
    k = math.floor(math.log2(hi))
    if 2.0 ** k >= hi:
        k -= 1
    return k


def _density_mass_near_zero(spec: DensityForm, weight,
                            hi: float) -> tuple[float, bool]:
    """Shell-walk integral of weight(z)*intensity over {abs_min <= |z| <= hi}.

    Walks dyadic shells toward 0 and returns (mass, converged). The walk
    stops early once the shell masses have decayed below a floor (the
    remaining tail is then negligible), declares divergence past the cap,
    and treats a walk that exhausts all shells without decaying (e.g. the
    log-divergent |z|^-1) as divergent too.
    """
    f = (lambda z: weight(z) * (spec.intensity(z) + spec.intensity(-z))) \
        if spec.two_sided else (lambda z: weight(z) * spec.intensity(z))
    lo = spec.abs_min
    hi = min(hi, spec.abs_max)
    if hi <= lo:
        return 0.0, True
    k = _first_shell_exponent(hi)
    total = 0.0
    upper = hi
    for _ in range(_MAX_SHELLS):
        lower = 2.0 ** k
        if lower <= lo:
            total += shell_integral(f, lo, upper) if lo < upper else 0.0
            return total, total <= _MASS_CAP
        mass = shell_integral(f, lower, upper)
        total += mass
        if total > _MASS_CAP:
            return total, False
        if mass < _SHELL_FLOOR * max(1.0, total):
            return total, True
        upper = lower
        k -= 1
    return total, False


def total_rate(spec: JumpMeasureSpec, cutoff: float) -> float:
    """Mass of the measure on {|z| >= cutoff}."""
    if not cutoff > 0.0:
        raise ValueError("cutoff must be > 0")
    if isinstance(spec, FiniteAtomic):
        return float(sum(r for s, r in spec.atoms if abs(s) >= cutoff))
    return spec._band_integral(lambda z: 1.0, cutoff, spec.abs_max)


def is_infinite(spec: JumpMeasureSpec) -> bool:
    """Whether the (idealized) measure has infinite total mass.

    Atomic measures report their declared flag. For densities, dyadic
    shells are walked toward 0 and divergence is declared when the running
    mass blows past the cap or the shell masses refuse to decay.
    """
    if isinstance(spec, FiniteAtomic):
        return spec.idealized_infinite
    _, converged = _density_mass_near_zero(spec, lambda z: 1.0, spec.abs_max)
    return not converged


def doblin_predicts_atoms(spec: JumpMeasureSpec) -> bool:
    """Doblin dichotomy: the marginal law carries atoms iff the measure is finite."""
    return not is_infinite(spec)


def mu_measure(spec: JumpMeasureSpec, epsilon: float) -> float:
    """integral over {|z| < epsilon} of z^2 / (1 + z^2) d(spec)."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if isinstance(spec, FiniteAtomic):
        return float(sum(r * s * s / (1.0 + s * s)
                         for s, r in spec.atoms if abs(s) < epsilon))
    mass, converged = _density_mass_near_zero(
        spec, lambda z: z * z / (1.0 + z * z), epsilon)
    if not converged:
        raise ValueError("mu integral did not converge; spec is not a Levy measure")
    return mass


@dataclass(frozen=True)
class LevyTriplet:
    """Driving law: deterministic drift, Brownian variance rate, jump measure.

    The jump-regularity statements studied by the toolkit live in the pure-jump
    setting (brownian_variance = 0); a positive variance is only consumed by
    the Doss–Sussmann scenario.
    """

    drift: float
    jumps: JumpMeasureSpec
    brownian_variance: float = 0.0

    def __post_init__(self):
        if self.brownian_variance < 0.0:
            raise ValueError("brownian_variance must be >= 0")


def default_eps_grid() -> list[float]:
    """10^-i/2 for i = 2..12 — spans the regime where |log eps| matters."""
    return [10.0 ** (-i / 2.0) for i in range(2, 13)]


@dataclass(frozen=True)
class KallenbergProfile:
    """Ratio mu(-eps, eps) / (eps^2 |log eps|) along a decreasing eps grid.

    `diverging` is True when the ratios increase monotonically along the grid
    and grow overall — the numerical reading of condition (b)'s divergence.
    """

    grid: tuple[tuple[float, float], ...]
    diverging: bool
    convolution_condition: str = CONVOLUTION_CONDITION

    def __post_init__(self):
        eps = [e for e, _ in self.grid]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("profile grid must be strictly decreasing")
        if any(r < 0.0 for _, r in self.grid):
            raise ValueError("profile ratios must be >= 0")

    def ratios(self) -> list[float]:
        return [r for _, r in self.grid]


def kallenberg_b_profile(spec: JumpMeasureSpec,
                         eps_grid: Sequence[float] | None = None) -> KallenbergProfile:
    """Evaluate the condition-(b) ratio on a strictly decreasing eps grid."""
    if eps_grid is None:
        eps_grid = default_eps_grid()
    eps_grid = list(eps_grid)
    if not eps_grid:
        raise ValueError("eps grid must be nonempty")
    if any(not (0.0 < e < 1.0) for e in eps_grid):
        raise ValueError("eps grid values must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be strictly decreasing")
    rows = []
    for eps in eps_grid:
        ratio = mu_measure(spec, eps) / (eps * eps * abs(math.log(eps)))
        rows.append((eps, ratio))
    ratios = [r for _, r in rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    diverging = increasing and len(ratios) >= 2 and ratios[-1] > 2.0 * ratios[0] > 0.0
    return KallenbergProfile(grid=tuple(rows), diverging=diverging)
