"""Adaptive Simpson quadrature and dyadic-shell integration helpers.

Shell integration is the workhorse for jump-intensity integrals: power-law
intensities blow up toward 0, so the domain is cut into dyadic shells
[2^-k-1, 2^-k] and each shell is integrated with adaptive Simpson.
"""

from __future__ import annotations

import math
from typing import Callable


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 40) -> float:
    """Integrate f on [a, b] with adaptive Simpson refinement.

    Signed: a > b yields the negated integral. A nan or infinite end point
    raises ValueError: the error test could never pass on it.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"adaptive_simpson needs finite end points, got [{a}, {b}]")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def shell_integral(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-10) -> float:
    """Integrate f over [lo, hi], 0 < lo < hi, splitting at dyadic points.

    Splitting at powers of two keeps adaptive Simpson honest for integrands
    with a power-law singularity at 0.
    """
    if not (0.0 < lo < hi):
        if lo >= hi:
            return 0.0
        raise ValueError("shell_integral needs 0 < lo < hi")
    k_hi = math.floor(math.log2(hi))
    k_lo = math.floor(math.log2(lo))
    if k_hi == k_lo:
        return adaptive_simpson(f, lo, hi, tol)
    total = adaptive_simpson(f, lo, 2.0 ** (k_lo + 1), tol)
    for k in range(k_lo + 1, k_hi):
        total += adaptive_simpson(f, 2.0 ** k, 2.0 ** (k + 1), tol)
    total += adaptive_simpson(f, 2.0 ** k_hi, hi, tol)
    return total


def two_sided_shell_integral(f: Callable[[float], float], lo: float, hi: float,
                             tol: float = 1e-10) -> float:
    """Integrate f over {lo <= |z| <= hi} (both signs of z)."""
    pos = shell_integral(f, lo, hi, tol)
    neg = shell_integral(lambda z: f(-z), lo, hi, tol)
    return pos + neg
