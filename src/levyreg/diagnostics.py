"""Statistical diagnostics on terminal-value Monte Carlo samples.

The point of the toolkit is distributional: does the terminal law carry
atoms, does it concentrate on a lattice, does a drift smear it out. The
tools here are deliberately elementary — sliding-window mass on the sorted
sample for atoms (no binning artifacts), offset-optimized lattice tube
counts, the asymptotic two-sample Kolmogorov-Smirnov test, and the RK4
no-jump skeleton that locates the atom S1 looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow_engine import ScalarField, rk4_step

#: Asymptotic two-sample KS coefficient at the 1% level.
KS_COEFF_1PCT = 1.628

#: Fewest samples atom detection and the KS test accept.
MIN_SAMPLES = 1000


class TooFewSamples(ValueError):
    """A sample is smaller than MIN_SAMPLES, so the diagnostic cannot run."""


@dataclass(frozen=True)
class SampleBatch:
    """Sorted terminal-value sample."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if np.any(np.diff(v) < 0.0):
            v = np.sort(v)
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def span(self) -> float:
        return float(self.values[-1] - self.values[0]) if self.count else 0.0


def default_window(batch: SampleBatch) -> float:
    """1e-6 of the sample range (floored away from zero)."""
    return max(1e-6 * batch.span, 1e-12)


def default_threshold(count: int) -> float:
    """3 sqrt(log n / n): far above any continuous law's window mass."""
    return 3.0 * math.sqrt(math.log(count) / count)


@dataclass(frozen=True)
class AtomReport:
    """Sliding-window atom candidates, heaviest first."""

    candidates: tuple[tuple[float, float, float], ...]  # (location, mass, width)
    atoms_present: bool
    window: float
    threshold: float

    def __post_init__(self):
        for _, mass, _ in self.candidates:
            if not (0.0 <= mass <= 1.0):
                raise ValueError("atom mass estimates must lie in [0, 1]")
        masses = [m for _, m, _ in self.candidates]
        if any(b > a for a, b in zip(masses, masses[1:])):
            raise ValueError("candidates must be sorted by mass descending")


def detect_atoms(batch: SampleBatch, window: float | None = None,
                 threshold: float | None = None) -> AtomReport:
    """Slide a width-`window` interval over the sorted sample; report every
    maximal interval carrying at least `threshold` of the total mass."""
    if batch.count < MIN_SAMPLES:
        raise TooFewSamples(f"atom detection needs at least {MIN_SAMPLES} samples")
    if window is None:
        window = default_window(batch)
    if window <= 0.0:
        raise ValueError("window must be > 0")
    if threshold is None:
        threshold = default_threshold(batch.count)
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    v = batch.values
    n = batch.count
    right = np.searchsorted(v, v + window, side="right")
    mass = (right - np.arange(n)) / n
    heavy = np.flatnonzero(mass >= threshold)
    candidates = []
    k = 0
    while k < heavy.size:
        start = heavy[k]
        best = start
        cluster_end = v[start] + window
        k += 1
        while k < heavy.size and v[heavy[k]] <= cluster_end:
            if mass[heavy[k]] > mass[best]:
                best = heavy[k]
            cluster_end = max(cluster_end, v[heavy[k]] + window)
            k += 1
        covered_lo = v[best]
        covered_hi = v[right[best] - 1]
        # halved first: the bits of 0.5 * (lo + hi) for normal floats, without
        # its overflow near the top of the float range
        candidates.append((float(0.5 * covered_lo + 0.5 * covered_hi),
                           float(mass[best]), float(window)))
    candidates.sort(key=lambda c: -c[1])
    return AtomReport(candidates=tuple(candidates),
                      atoms_present=bool(candidates),
                      window=float(window), threshold=float(threshold))


def lattice_tube_error(spacing: float, halfwidth: float) -> str | None:
    """Why tubes of this halfwidth around a lattice of this spacing are not
    disjoint nonempty intervals, or None."""
    if not 0.0 < halfwidth < spacing / 2.0:
        return (f"lattice tubes need 0 < halfwidth < spacing / 2, got halfwidth "
                f"{halfwidth:g} and spacing {spacing:g}")
    return None


def lattice_concentration(batch: SampleBatch, spacing: float,
                          halfwidth: float, n_offsets: int = 1000) -> float:
    """Largest sample fraction within `halfwidth` of any offset lattice
    offset + spacing * Z, the offset scanned over one period; nan for an
    empty sample."""
    reason = lattice_tube_error(spacing, halfwidth)
    if reason is not None:
        raise ValueError(reason)
    if not batch.count:
        return math.nan
    r = np.sort(np.mod(batch.values, spacing))
    offsets = np.arange(n_offsets) * (spacing / n_offsets)
    lo = offsets - halfwidth
    hi = offsets + halfwidth
    counts = (np.searchsorted(r, hi, side="right")
              - np.searchsorted(r, lo, side="left")).astype(float)
    wrap_lo = lo < 0.0
    counts[wrap_lo] += batch.count - np.searchsorted(r, lo[wrap_lo] + spacing,
                                                     side="left")
    wrap_hi = hi > spacing
    counts[wrap_hi] += np.searchsorted(r, hi[wrap_hi] - spacing, side="right")
    return float(counts.max() / batch.count)


def two_sample_ks(batch1: SampleBatch, batch2: SampleBatch
                  ) -> tuple[float, float]:
    """(KS statistic, asymptotic 1% critical value)."""
    if min(batch1.count, batch2.count) < MIN_SAMPLES:
        raise TooFewSamples(f"KS test needs at least {MIN_SAMPLES} samples per batch")
    v1, v2 = batch1.values, batch2.values
    pooled = np.concatenate([v1, v2])
    cdf1 = np.searchsorted(v1, pooled, side="right") / batch1.count
    cdf2 = np.searchsorted(v2, pooled, side="right") / batch2.count
    stat = float(np.max(np.abs(cdf1 - cdf2)))
    n, m = batch1.count, batch2.count
    crit = KS_COEFF_1PCT * math.sqrt((n + m) / (n * m))
    return stat, crit


def deterministic_skeleton(a: ScalarField, d: float, x0: float, t: float,
                           n_steps: int = 4096) -> float:
    """RK4 solution of the no-jump dynamics x' = a(x) + d at time t."""
    if t <= 0.0:
        raise ValueError("t must be > 0")
    h = t / n_steps
    x = float(x0)
    a_val = a.value

    def f(_, u):
        return a_val(u) + d

    # a skeleton that overflows comes out non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            x = rk4_step(f, None, x, h)
    return x
