"""Realized Levy paths: sampling, first-jump decomposition, resampling.

A LevyPath is the simulable truncation of a driving Levy process: a drift
rate plus a finite, time-sorted jump list, optionally with a piecewise-linear
Brownian skeleton. The sampled process IS this truncated object; statements
about infinite activity are studied along increasing truncation levels.

The decomposition/resampling pair implements the stratification device: fix
everything except the first jump time T landing in a marked size window;
conditionally, T is uniform on [0, T2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_spec import DensityForm, FiniteAtomic, LevyTriplet, total_rate
from .rng import StreamGenerator

#: Brownian skeleton resolution per unit time unless a scenario refines it.
DEFAULT_BROWNIAN_CELLS_PER_UNIT = 4096

#: Expected jumps per chunk of packed replicas; a law expecting more jumps
#: per path than this cannot fit one path in a chunk and is rejected.
MAX_JUMPS_PER_CHUNK = 4_000_000


class NotEnoughMarkedJumps(ValueError):
    """Raised when a path has fewer than two jumps in the marked window."""


@dataclass(frozen=True)
class BrownianSkeleton:
    """Piecewise-linear interpolation of a Brownian path on a uniform grid."""

    times: np.ndarray
    values: np.ndarray

    def value(self, t) -> np.ndarray | float:
        return np.interp(t, self.times, self.values)


@dataclass(frozen=True)
class LevyPath:
    """Cadlag driver realization: drift line + jumps (+ Brownian skeleton)."""

    horizon: float
    drift_rate: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    brownian: BrownianSkeleton | None = None

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        s = np.asarray(self.jump_sizes, dtype=float)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "jump_sizes", s)
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if t.shape != s.shape:
            raise ValueError("jump times and sizes must align")
        if t.size:
            if np.any(np.diff(t) <= 0.0):
                raise ValueError("jump times must be strictly increasing")
            if t[0] <= 0.0 or t[-1] > self.horizon:
                raise ValueError("jump times must lie in (0, horizon]")
            if np.any(s == 0.0):
                raise ValueError("jump sizes must be nonzero")

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def value(self, t: float) -> float:
        """Z_t (cadlag: jumps at t are included)."""
        return self._value(t, "right")

    def left_value(self, t: float) -> float:
        """Z_{t-} (jumps at t are excluded)."""
        return self._value(t, "left")

    def _value(self, t: float, side: str) -> float:
        z = self.drift_rate * t
        k = np.searchsorted(self.jump_times, t, side=side)
        z += float(self.jump_sizes[:k].sum())
        if self.brownian is not None:
            z += float(self.brownian.value(t))
        return z

    @property
    def terminal(self) -> float:
        return self.value(self.horizon)

    def with_jumps(self, times: np.ndarray, sizes: np.ndarray) -> "LevyPath":
        return LevyPath(self.horizon, self.drift_rate, times, sizes, self.brownian)


@dataclass
class PackedPaths:
    """Batch of driver realizations on a shared cell grid."""

    horizon: float
    drift_rate: float
    n_cells: int
    edges: np.ndarray            # (C+1,) cell boundaries
    flat_times: np.ndarray       # all jump times, path-major, each path sorted
    flat_sizes: np.ndarray
    offsets: np.ndarray          # (P+1,) slice bounds into the flat arrays
    brown_edges: np.ndarray | None   # (P, C+1) Brownian values at cell edges
    z_terminal: np.ndarray       # (P,) exact Z_horizon per path

    @property
    def n_paths(self) -> int:
        return len(self.offsets) - 1


@dataclass(frozen=True)
class PathDecomposition:
    """Conditioning data: everything except the first marked jump time."""

    window: tuple[float, float]
    T: float
    T2: float
    marked_size: float
    residual: LevyPath

    def __post_init__(self):
        eta, upper = self.window
        if not (0.0 < self.T < self.T2 <= self.residual.horizon):
            raise ValueError("need 0 < T < T2 <= horizon")
        if not (eta <= self.marked_size <= upper):
            raise ValueError("marked size must lie in the window")


def _compensator(spec, trunc: float) -> float:
    """integral of z over {trunc < |z| <= 1}."""
    if isinstance(spec, FiniteAtomic):
        return float(sum(s * r for s, r in spec.atoms if trunc < abs(s) <= 1.0))
    return spec._band_integral(lambda z: z, trunc, 1.0, tol=1e-10)


def _density_size_table(spec: DensityForm, trunc: float, nodes: int = 4096):
    """Inverse-CDF table for sizes drawn from spec restricted above trunc."""
    lo = max(trunc, spec.abs_min, 1e-300)
    hi = spec.abs_max
    if lo >= hi:
        raise ValueError("truncation level leaves no jump mass")
    grid = np.geomspace(lo, hi, nodes)

    def branch_cdf(xs):
        pdf = np.array([spec.intensity(z) for z in xs])
        return np.concatenate(
            [[0.0], np.cumsum(np.diff(xs) * 0.5 * (pdf[1:] + pdf[:-1]))])

    if not spec.two_sided:
        xs = grid
        cdf = branch_cdf(xs)
    else:
        neg_xs = -grid[::-1]
        neg_cdf = branch_cdf(neg_xs)
        pos_cdf = branch_cdf(grid)
        xs = np.concatenate([neg_xs, grid])
        # no mass on the excluded band (-lo, lo): the cdf is flat across it
        cdf = np.concatenate([neg_cdf, neg_cdf[-1] + pos_cdf])
    if cdf[-1] <= 0.0:
        raise ValueError("no jump mass above the truncation level")
    return xs, cdf


def _size_sampler(spec, trunc: float):
    """u -> jump sizes from spec restricted to |z| >= trunc, one per uniform
    u in [0, 1): inverse CDF of the atom rates or of the density table."""
    if isinstance(spec, FiniteAtomic):
        kept = [(s, r) for s, r in spec.atoms if abs(s) >= trunc and r > 0.0]
        cum = np.cumsum([r for _, r in kept])
        total = float(cum[-1])
        # a draw that rounds up to the total rate lands one past the end: the last atom
        table = np.array([s for s, _ in kept] + [kept[-1][0]])
        return lambda u: table[cum.searchsorted(total * u, side="right")]
    xs, cdf = _density_size_table(spec, trunc)
    total = float(cdf[-1])
    return lambda u: np.interp(total * u, cdf, xs)


def _dedupe_times(times: np.ndarray) -> np.ndarray:
    """Nudge float-equal jump times apart by one ulp to keep strict order."""
    if times.size < 2 or np.all(np.diff(times) > 0.0):
        return times
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    return times


def _dedupe_packed(flat_times: np.ndarray, offsets: np.ndarray,
                   block: int = 1 << 16) -> None:
    """_dedupe_times, in place, on every path of a packed range.

    Ties are found block by block, so no temporary is as long as the range:
    a time that does not exceed its predecessor is a tie unless it starts a
    path.
    """
    for lo in range(1, flat_times.size, block):
        hi = min(lo + block, flat_times.size)
        drops = np.flatnonzero(flat_times[lo:hi] <= flat_times[lo - 1:hi - 1]) + lo
        path = np.searchsorted(offsets, drops, side="right") - 1
        for p in np.unique(path[offsets[path] != drops]):
            _dedupe_times(flat_times[offsets[p]:offsets[p + 1]])


def _jump_capacity(mean_jumps: float) -> int:
    """Flat-array length for a range expecting mean_jumps jumps in total:
    six standard deviations of the Poisson total above the mean."""
    return int(mean_jumps + 6.0 * math.sqrt(mean_jumps)) + 64


def _grown(arr: np.ndarray, used: int, need: int) -> np.ndarray:
    out = np.empty(max(need, 2 * arr.size))
    out[:used] = arr[:used]
    return out


@dataclass(frozen=True)
class PathLaw:
    """A driver law from path_law, with everything that does not depend on
    the replica (rate, drift, size table, Brownian grid) computed once."""

    horizon: float
    drift: float                 # drift of the sampled driver
    rate: float                  # jump rate above trunc
    mean_jumps: float            # rate times horizon
    sizes: object                # uniforms -> sizes; None when the rate is 0
    brownian_grid: np.ndarray | None   # skeleton knots; None without a Brownian part
    brownian_sd: float

    def draw(self, gen: np.random.Generator):
        """(times, sizes, Brownian values at the grid knots or None) of one path.

        Draw order is fixed (count, times, sizes, Brownian cells) so a
        stream identity pins the path exactly. Times come out sorted but not
        yet nudged apart (see _dedupe_times).
        """
        n = int(gen.poisson(self.mean_jumps)) if self.sizes is not None else 0
        if n > 0:
            # the times' uniforms, then the sizes'; scale * u is the double
            # gen.uniform(0.0, scale) would give for the same u, and the
            # in-place h + (-h) * u below is h - h * u exactly
            u = gen.random(2 * n)
            times = u[:n]
            times *= -self.horizon
            times += self.horizon
            times.sort()
            sizes = self.sizes(u[n:])
        else:
            times = np.empty(0)
            sizes = np.empty(0)
        brown = None
        if self.brownian_grid is not None:
            incr = gen.normal(0.0, self.brownian_sd, size=self.brownian_grid.size - 1)
            brown = np.concatenate([[0.0], np.cumsum(incr)])
        return times, sizes, brown

    def path(self, gen: np.random.Generator) -> LevyPath:
        times, sizes, brown = self.draw(gen)
        brownian = None
        if brown is not None:
            brownian = BrownianSkeleton(times=self.brownian_grid, values=brown)
        return LevyPath(self.horizon, self.drift, _dedupe_times(times), sizes, brownian)

    def packed(self, seed: int, stream_offset: int, n: int, cells: int) -> PackedPaths:
        """Replicas stream_offset + [0, n) drawn straight into flat arrays."""
        if n < 1:
            raise ValueError("need at least one path")
        streams = StreamGenerator(seed)
        edges = np.linspace(0.0, self.horizon, cells + 1)
        offsets = np.zeros(n + 1, dtype=np.int64)
        jump_sums = np.zeros(n)
        brown_edges = np.empty((n, cells + 1)) if self.brownian_grid is not None \
            else None
        flat_times = np.empty(_jump_capacity(self.mean_jumps * n))
        flat_sizes = np.empty(flat_times.size)
        pos = 0
        draw, at = self.draw, streams.at
        for i in range(n):
            times, sizes, brown = draw(at(stream_offset + i))
            k = times.size
            if k:
                if pos + k > flat_times.size:
                    flat_times = _grown(flat_times, pos, pos + k)
                    flat_sizes = _grown(flat_sizes, pos, pos + k)
                flat_times[pos:pos + k] = times
                flat_sizes[pos:pos + k] = sizes
                jump_sums[i] = sizes.sum()
                pos += k
            offsets[i + 1] = pos
            if brown is not None:
                brown_edges[i] = np.interp(edges, self.brownian_grid, brown)
        flat_times = flat_times[:pos]
        _dedupe_packed(flat_times, offsets)
        z_term = self.drift * self.horizon + jump_sums
        if brown_edges is not None:
            z_term = z_term + brown_edges[:, -1]
        return PackedPaths(horizon=self.horizon, drift_rate=self.drift, n_cells=cells,
                           edges=edges, flat_times=flat_times,
                           flat_sizes=flat_sizes[:pos], offsets=offsets,
                           brown_edges=brown_edges, z_terminal=z_term)


def jump_budget_error(rate: float, horizon: float) -> str | None:
    """Why paths of a law with this jump rate above truncation do not fit
    one chunk of MAX_JUMPS_PER_CHUNK jumps, or None."""
    if not math.isfinite(rate):
        return "jump rate above truncation is not finite"
    if rate * horizon > MAX_JUMPS_PER_CHUNK:
        return (f"expected jumps per path (rate {rate:g} x horizon {horizon:g}) "
                f"exceed the chunk budget of {MAX_JUMPS_PER_CHUNK} jumps")
    return None


def path_law(triplet: LevyTriplet, horizon: float, trunc: float,
             compensate: bool = False, brownian_cells: int | None = None) -> PathLaw:
    """The truncated-compound-Poisson driver on [0, horizon]: jumps above
    `trunc` at rate total_rate(spec, trunc), times iid uniform on (0, horizon],
    sizes iid from the normalized restriction. With `compensate`, the drift
    absorbs minus the mean of jumps in (trunc, 1]. A Brownian part is sampled
    on `brownian_cells` cells (default DEFAULT_BROWNIAN_CELLS_PER_UNIT per
    unit time)."""
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if trunc <= 0.0:
        raise ValueError("truncation level must be > 0")
    rate = total_rate(triplet.jumps, trunc)
    reason = jump_budget_error(rate, horizon)
    if reason is not None:
        raise ValueError(reason)
    grid = None
    sd = 0.0
    if triplet.brownian_variance > 0.0:
        cells = brownian_cells if brownian_cells is not None else \
            max(1, round(DEFAULT_BROWNIAN_CELLS_PER_UNIT * horizon))
        grid = np.linspace(0.0, horizon, cells + 1)
        grid.flags.writeable = False
        sd = math.sqrt(triplet.brownian_variance * (horizon / cells))
    compensator = _compensator(triplet.jumps, trunc) if compensate else 0.0
    return PathLaw(
        horizon=horizon,
        drift=triplet.drift - compensator,
        rate=rate,
        mean_jumps=rate * horizon,
        sizes=_size_sampler(triplet.jumps, trunc) if rate > 0.0 else None,
        brownian_grid=grid,
        brownian_sd=sd,
    )


def sample_path(triplet: LevyTriplet, horizon: float, trunc: float,
                gen: np.random.Generator, compensate: bool = False,
                brownian_cells: int | None = None) -> LevyPath:
    """One path of path_law(triplet, horizon, trunc, ...), drawn from gen."""
    return path_law(triplet, horizon, trunc, compensate, brownian_cells).path(gen)


def sample_many(law: PathLaw, n: int, seed: int, accept=None,
                stream_offset: int = 0) -> list[LevyPath]:
    """Draw n paths of `law`, replica i from RngStream(seed, stream_offset + i).

    `accept` may reject a draw; rejected paths are redrawn from the same
    stream, so the result is a deterministic function of the stream identity.
    """
    streams = StreamGenerator(seed)
    paths: list[LevyPath] = []
    for i in range(n):
        gen = streams.at(stream_offset + i)
        for _ in range(1000):
            p = law.path(gen)
            if accept is None or accept(p):
                paths.append(p)
                break
        else:
            raise RuntimeError(
                f"replica {stream_offset + i}: no acceptable path in 1000 draws")
    return paths


def mark_window_error(eta: float, upper: float) -> str | None:
    """Why [eta, upper] is not a marked size window, or None."""
    if not (0.0 < eta <= upper):
        return f"the marked window [{eta:g}, {upper:g}] needs 0 < low <= high"
    return None


def marked_jump_indices(path: LevyPath, eta: float, upper: float) -> np.ndarray:
    """Indices of jumps with size in the one-sided window [eta, upper]."""
    reason = mark_window_error(eta, upper)
    if reason is not None:
        raise ValueError(reason)
    mask = (path.jump_sizes >= eta) & (path.jump_sizes <= upper)
    return np.flatnonzero(mask)


def decompose_first_jump(path: LevyPath, eta: float, upper: float) -> PathDecomposition:
    """Split off the first jump landing in the marked window [eta, upper]."""
    marked = marked_jump_indices(path, eta, upper)
    if marked.size < 2:
        raise NotEnoughMarkedJumps(
            f"found {marked.size} marked jump(s) in [{eta}, {upper}]; need >= 2")
    i1, i2 = int(marked[0]), int(marked[1])
    T = float(path.jump_times[i1])
    T2 = float(path.jump_times[i2])
    marked_size = float(path.jump_sizes[i1])
    residual = path.with_jumps(np.delete(path.jump_times, i1),
                               np.delete(path.jump_sizes, i1))
    return PathDecomposition(window=(eta, upper), T=T, T2=T2,
                             marked_size=marked_size, residual=residual)


def reinsert_marked_jump(decomp: PathDecomposition, new_time: float) -> LevyPath:
    """Path rebuilt with the marked jump placed at new_time in (0, T2)."""
    residual = decomp.residual
    t = float(new_time)
    if not (0.0 < t < decomp.T2):
        raise ValueError("new marked time must lie in (0, T2)")
    while np.any(residual.jump_times == t):
        t = np.nextafter(t, np.inf)
    k = int(np.searchsorted(residual.jump_times, t))
    times = np.insert(residual.jump_times, k, t)
    sizes = np.insert(residual.jump_sizes, k, decomp.marked_size)
    return residual.with_jumps(times, sizes)


def resample_first_jump_time(decomp: PathDecomposition,
                             gen: np.random.Generator) -> LevyPath:
    """Redraw the marked jump time uniformly on (0, T2); all else unchanged."""
    t = float(gen.uniform(0.0, decomp.T2))
    while t <= 0.0:
        t = float(gen.uniform(0.0, decomp.T2))
    return reinsert_marked_jump(decomp, t)


def shift_jump_time(path: LevyPath, jump_index: int, h: float) -> LevyPath:
    """Move jump `jump_index` from t to t + h, preserving strict ordering."""
    n = path.n_jumps
    if not (0 <= jump_index < n):
        raise ValueError("jump index out of range")
    t_new = float(path.jump_times[jump_index]) + h
    lo = path.jump_times[jump_index - 1] if jump_index > 0 else 0.0
    hi = path.jump_times[jump_index + 1] if jump_index < n - 1 else np.inf
    if not (lo < t_new < hi) or not (0.0 < t_new <= path.horizon):
        raise ValueError("shifted time violates ordering or horizon bounds")
    times = path.jump_times.copy()
    times[jump_index] = t_new
    return path.with_jumps(times, path.jump_sizes.copy())
