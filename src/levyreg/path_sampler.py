"""Realized Levy paths: sampling, first-jump decomposition, resampling.

A LevyPath is the simulable truncation of a driving Levy process: a drift
rate plus a finite, time-sorted jump list, optionally with a piecewise-linear
Brownian skeleton. The sampled process IS this truncated object; statements
about infinite activity are studied along increasing truncation levels.

The decomposition/resampling pair implements the stratification device: fix
everything except the first jump time T landing in a marked size window;
conditionally, T is uniform on [0, T2].

The range sampler PathLaw.packed writes each replica the path that `draw`
gives on the replica's stream, bit for bit, straight into the flat arrays of
PackedPaths, one block of replicas at a time. Philox is counter-based, so
below POISSON_PTRS_MEAN = 10 mean jumps it computes the first words of a
block of streams at once (rng.philox_words) and draws the block's counts
from them as arrays: there numpy's Poisson count multiplies uniforms, a
fixed function of the words. It writes these array rows one jump count at a
time: the rows of count c are column slices of their uniforms, and numpy
sums their sizes along the row with the bits of each row's own .sum(). The
other rows it draws per replica and writes as soon as each is drawn: a row
that needs more words than it holds, every row of a law at or above the
cutoff, where numpy switches to PTRS rejection sampling, and every row of a
law with a Brownian part, whose normals follow the jump words on the stream.
A path depends on its own stream alone, so no byte depends on the block
size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .levy_spec import DensityForm, FiniteAtomic, LevyTriplet, total_rate
from .quadrature import shell_integral
from .rng import StreamGenerator, philox_words

#: Expected jumps per chunk of packed replicas at 16 bytes a jump (a float64
#: time and size); a chunk of atom-coded jumps holds as many bytes. A law
#: expecting more jumps per path than this is rejected, whatever its coding.
MAX_JUMPS_PER_CHUNK = 4_000_000

#: Packed bytes per chunk of replicas: MAX_JUMPS_PER_CHUNK jumps at 16 bytes.
CHUNK_BYTES = 16 * MAX_JUMPS_PER_CHUNK

#: A run holds every samples.csv row in memory until it writes them: the
#: diagnostics need all terminal values. Peak RSS grows by about 75 bytes a
#: row in S1 (1M to 3M replicas), 64 in S7 (at equal chunks) and 55 in S5
#: (20 to 200 repetitions), so a run of more rows than MAX_RESULT_BYTES holds
#: at the largest, RESULT_BYTES_PER_ROW, is refused rather than started: 4 GiB
#: is half of an 8-GiB machine, 57 266 230 rows.
RESULT_BYTES_PER_ROW = 75
MAX_RESULT_BYTES = 2 ** 32


#: numpy's Generator.poisson counts by multiplying uniforms until their
#: product falls to e^-mean while the mean is below this, and by PTRS
#: (Hormann's transformed rejection) from it on. Only the former is a fixed
#: function of the stream's uniforms, which PathLaw.packed computes as arrays.
POISSON_PTRS_MEAN = 10.0

#: Replicas PathLaw.packed writes as one block: first the rows it draws per
#: replica, then the array rows of one philox_words array of this many rows.
PACK_BLOCK = 4096

#: Buckets of an atomic law's IndexedSearch. A key in a bucket that holds
#: at most one cumulative rate costs one gather and one compare: 4096 buckets
#: hold S3's dyadic table (2, 6, ..., 8190) one to a bucket, in a guide of a
#: few KiB.
_GUIDE_BUCKETS = 4096

#: Draws sample_many makes for one replica before it gives up on `accept`.
MAX_DRAWS = 1000


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
    """Batch of driver realizations on a shared cell grid.

    An atomic law's jump sizes are stored as unsigned codes into its
    `size_table`, the smallest unsigned type that indexes the table, so a jump
    costs 9 bytes instead of 16 while the table has at most 256 entries;
    `size_table[flat_sizes]` gives the sizes. A density law's sizes are stored
    as float64 and `size_table` is None.
    """

    horizon: float
    drift_rate: float
    n_cells: int
    edges: np.ndarray            # (C+1,) cell boundaries
    flat_times: np.ndarray       # all jump times, path-major, each path sorted
    flat_sizes: np.ndarray       # jump sizes, or codes into size_table
    offsets: np.ndarray          # (P+1,) slice bounds into the flat arrays
    brown_edges: np.ndarray | None   # (P, C+1) Brownian values at cell edges
    z_terminal: np.ndarray       # (P,) exact Z_horizon per path
    size_table: np.ndarray | None = None   # sizes by code; None: flat_sizes are sizes

    @property
    def n_paths(self) -> int:
        return len(self.offsets) - 1


def size_decoder(table: np.ndarray | None):
    """keys -> jump sizes: table.take, or the keys themselves without a table."""
    return (lambda keys: keys) if table is None else table.take


def _key_dtype(table: np.ndarray | None) -> np.dtype:
    """Dtype of the size keys: the smallest unsigned type that indexes
    table; float64 without one, whose keys are the sizes."""
    return np.dtype(np.float64) if table is None else np.min_scalar_type(table.size - 1)


def _packed_paths(horizon, drift, edges, flat_times, flat_sizes, offsets, brown_edges,
                  jump_sums, size_table) -> PackedPaths:
    """PackedPaths of filled flat arrays, with Z_horizon from each path's jump sum."""
    z_term = drift * horizon + jump_sums
    if brown_edges is not None:
        z_term = z_term + brown_edges[:, -1]
    return PackedPaths(horizon=horizon, drift_rate=drift, n_cells=len(edges) - 1,
                       edges=edges, flat_times=flat_times, flat_sizes=flat_sizes,
                       offsets=offsets, brown_edges=brown_edges, z_terminal=z_term,
                       size_table=size_table)


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


@dataclass(frozen=True)
class IndexedSearch:
    """u -> cum.searchsorted(total * u, side="right"), in the guide's dtype,
    by an indexed ("guide table") search: Chen & Asau (1974); Devroye (1986),
    section III.2.4.

    x = total * u falls in bucket b(x) = int(x * scale). guide[b] counts the
    cum values whose own bucket, by the same float expression, is below b,
    and one pass adds 1 where x >= ext[key], `ext` being cum followed by
    +inf. The keys are exact by construction:
    - b is monotone in x, so a value in a lower bucket than x lies below x,
      and a value in a higher one lies above it. guide[b(x)] never passes
      the key, and falls short of it by at most the values in x's bucket;
    - x >= cum[key] holds exactly while key is below the true key, so in a
      bucket that holds at most one value the pass gives the key;
    - a key whose bucket holds two or more values (`crowded`; None when no
      bucket does) is cum.searchsorted's own. A bucket is 1 / 4096 of
      [0, total], so about that share of the keys per crowded bucket.
    This holds at bucket edges, for repeated cum values, and for x = total,
    whose key is one past the last value: the size table's extra entry.
    """

    total: float
    scale: float
    guide: np.ndarray     # (int(total * scale) + 1,) keys of the bucket starts
    ext: np.ndarray       # cum followed by +inf
    crowded: np.ndarray | None   # by bucket: holds two or more cum values

    @classmethod
    def of(cls, cum: np.ndarray, dtype: np.dtype) -> "IndexedSearch":
        """The search of positive, nondecreasing cumulative rates `cum`,
        with keys of `dtype`."""
        total = float(cum[-1])
        # a tiny total clamps the scale, which then puts every value in bucket 0
        scale = min(_GUIDE_BUCKETS / total, sys.float_info.max)
        buckets = (cum * scale).astype(np.intp)
        guide = buckets.searchsorted(np.arange(buckets[-1] + 1)).astype(dtype)
        crowded = np.bincount(buckets) > 1
        return cls(total, scale, guide, np.append(cum, np.inf),
                   crowded if crowded.any() else None)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.keys(self.total * u)

    def keys(self, x: np.ndarray) -> np.ndarray:
        """cum.searchsorted(x, side="right") for x in [0, total]."""
        buckets = (x * self.scale).astype(np.intp)
        keys = self.guide.take(buckets)
        keys += x >= self.ext.take(keys)
        if self.crowded is not None:
            rest = np.flatnonzero(self.crowded.take(buckets))
            keys.reshape(-1)[rest] = self.ext[:-1].searchsorted(x.reshape(-1)[rest],
                                                               side="right")
        return keys


def _size_sampler(spec, trunc: float):
    """(u -> size keys, size table) for spec restricted to |z| >= trunc, one
    key per uniform u in [0, 1), by the inverse CDF of the atom rates or of
    the density table. An atomic law's keys index its size table, as the
    smallest unsigned type that does, by an IndexedSearch of the cumulative
    rates; a density law's keys are the sizes and its table is None."""
    if isinstance(spec, FiniteAtomic):
        kept = [(s, r) for s, r in spec.atoms if abs(s) >= trunc and r > 0.0]
        # a draw that rounds up to the total rate lands one past the end: the last atom
        table = np.array([s for s, _ in kept] + [kept[-1][0]])
        cum = np.cumsum([r for _, r in kept])
        return IndexedSearch.of(cum, _key_dtype(table)), table
    xs, cdf = _density_size_table(spec, trunc)
    total = float(cdf[-1])
    return (lambda u: np.interp(total * u, cdf, xs)), None


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
        # `path` is sorted, so dict.fromkeys gives each tied path once, in
        # order; np.unique would import numpy.ma, 1.6 MiB, on its first call
        for p in dict.fromkeys(path[offsets[path] != drops].tolist()):
            _dedupe_times(flat_times[offsets[p]:offsets[p + 1]])


def _jump_capacity(mean_jumps: float) -> int:
    """Flat-array length for a range expecting mean_jumps jumps in total:
    six standard deviations of the Poisson total above the mean."""
    return int(mean_jumps + 6.0 * math.sqrt(mean_jumps)) + 64


def _row_words(mean_jumps: float) -> int:
    """Philox words drawn per replica in an array block, a whole number of
    4-word blocks: enough for a path of up to mean + 2 sd + 1 jumps (3 words
    a jump and one more for the count). A path with more, about 2% at 2 mean
    jumps, is drawn per replica, which costs less than the words that would
    cover it for every row."""
    jumps = int(mean_jumps + 2.0 * math.sqrt(mean_jumps)) + 1
    return 4 * -(-(3 * jumps + 1) // 4)


def _grown(arr: np.ndarray, need: int) -> np.ndarray:
    """arr copied to the front of an array of at least `need` elements."""
    out = np.empty(max(need, 2 * arr.size), dtype=arr.dtype)
    out[:arr.size] = arr
    return out


@dataclass(frozen=True)
class PathLaw:
    """A driver law from path_law, with everything that does not depend on
    the replica (rate, drift, size table, Brownian grid) computed once."""

    horizon: float
    drift: float                 # drift of the sampled driver
    rate: float                  # jump rate above trunc
    mean_jumps: float            # rate times horizon
    sizes: object                # uniforms -> size keys; None when the rate is 0
    size_table: np.ndarray | None    # an atomic law's sizes by key; None: keys are sizes
    brownian_grid: np.ndarray | None   # skeleton knots; None without a Brownian part
    brownian_sd: float

    @property
    def key_dtype(self) -> np.dtype:
        """Packed dtype of the size keys (see _key_dtype)."""
        return _key_dtype(self.size_table)

    @property
    def bytes_per_jump(self) -> int:
        """Packed bytes of one jump: a float64 time and its size key."""
        return 8 + self.key_dtype.itemsize

    @property
    def bytes_per_path(self) -> float:
        """Packed bytes a path is expected to take: its jumps, counted as one
        at least, and, with a Brownian part, its float64 values at the cell
        edges of the skeleton's grid."""
        grid = 0 if self.brownian_grid is None else 8 * self.brownian_grid.size
        return self.bytes_per_jump * max(1.0, self.mean_jumps) + grid

    def chunk_sizes(self, n: int) -> list[int]:
        """n replicas cut into the fewest chunks of at most the paths that
        fill CHUNK_BYTES at bytes_per_path (one path at least), with sizes
        that differ by at most one, larger chunks first."""
        k = -(-n // max(1, int(CHUNK_BYTES // self.bytes_per_path)))
        q, r = divmod(n, k)
        return [q + 1] * r + [q] * (k - r)

    def draw(self, gen: np.random.Generator):
        """(times, size keys, Brownian (grid knots, values) or None) of one
        path; size_decoder(size_table)(keys) are the sizes.

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
            keys = self.sizes(u[n:])
        else:
            times = np.empty(0)
            keys = np.empty(0, dtype=self.key_dtype)
        brown = None
        if self.brownian_grid is not None:
            incr = gen.normal(0.0, self.brownian_sd, size=self.brownian_grid.size - 1)
            brown = self.brownian_grid, np.concatenate([[0.0], np.cumsum(incr)])
        return times, keys, brown

    def path(self, gen: np.random.Generator) -> LevyPath:
        times, keys, brown = self.draw(gen)
        sizes = size_decoder(self.size_table)(keys)
        brownian = None if brown is None else BrownianSkeleton(*brown)
        return LevyPath(self.horizon, self.drift, _dedupe_times(times), sizes, brownian)

    def packed(self, seed: int, stream_offset: int, n: int, cells: int) -> PackedPaths:
        """Replicas stream_offset + [0, n) drawn straight into flat arrays,
        PACK_BLOCK replicas at a time, each path the one `draw` gives on its
        stream (see the module docstring). A block first draws, in replica
        order, the rows that _array_counts leaves to `draw`, and writes each
        where the block's counts before it end; then _array_jumps writes the
        array rows one jump count at a time."""
        if n < 1:
            raise ValueError("need at least one path")
        edges = np.linspace(0.0, self.horizon, cells + 1)
        offsets = np.zeros(n + 1, dtype=np.int64)
        jump_sums = np.zeros(n)
        brown_edges = None if self.brownian_grid is None else np.empty((n, cells + 1))
        flat_times = np.empty(_jump_capacity(self.mean_jumps * n))
        flat_sizes = np.empty(flat_times.size, dtype=self.key_dtype)
        decode = size_decoder(self.size_table)
        streams = StreamGenerator(seed)
        for lo in range(0, n, PACK_BLOCK):
            hi = min(n, lo + PACK_BLOCK)
            ids = np.arange(stream_offset + lo, stream_offset + hi, dtype=np.uint64)
            counts, u = self._array_counts(seed, ids)
            drawn = np.flatnonzero(counts < 0)
            pos, prev = offsets[lo], 0
            for r in drawn:
                if r > prev:
                    pos += counts[prev:r].sum()
                times, keys, brown = self.draw(streams.at(ids[r]))
                k = counts[r] = times.size
                if pos + k > flat_times.size:
                    flat_times = _grown(flat_times, pos + k)
                    flat_sizes = _grown(flat_sizes, pos + k)
                flat_times[pos:pos + k] = times
                flat_sizes[pos:pos + k] = keys
                jump_sums[lo + r] = decode(keys).sum()
                if brown is not None:
                    brown_edges[lo + r] = np.interp(edges, *brown)
                pos += k
                prev = r + 1
            ends = offsets[lo] + np.cumsum(counts)
            offsets[lo + 1:hi + 1] = ends
            if ends[-1] > flat_times.size:
                flat_times = _grown(flat_times, ends[-1])
                flat_sizes = _grown(flat_sizes, ends[-1])
            starts = ends - counts
            counts[drawn] = 0
            self._array_jumps(u, counts, starts, flat_times, flat_sizes, decode,
                              jump_sums[lo:hi])
        flat_times, flat_sizes = flat_times[:offsets[-1]], flat_sizes[:offsets[-1]]
        _dedupe_packed(flat_times, offsets)
        return _packed_paths(self.horizon, self.drift, edges, flat_times, flat_sizes,
                             offsets, brown_edges, jump_sums, self.size_table)

    def _array_counts(self, seed: int, ids: np.ndarray):
        """(jump counts, uniforms) of the replicas `ids`: the uniforms are the
        doubles Generator.random makes of each stream's first words (None
        when no word is drawn), and a count is what Generator.poisson counts
        from them, or -1 where the row's words run out. Below
        POISSON_PTRS_MEAN, Poisson counts the uniforms whose running product
        stays above e^-mean and draws one more; a count c thus uses 3c + 1
        words with its times and sizes. Every row of a law at or above
        POISSON_PTRS_MEAN or with a Brownian part is -1, whatever its rate."""
        if self.mean_jumps >= POISSON_PTRS_MEAN or self.brownian_grid is not None:
            return np.full(ids.size, -1, dtype=np.int64), None
        if self.sizes is None or self.mean_jumps == 0.0:
            return np.zeros(ids.size, dtype=np.int64), None
        words = _row_words(self.mean_jumps)
        bits = philox_words(seed, ids, words)
        bits >>= np.uint64(11)
        u = bits * 2.0 ** -53
        stop = np.multiply.accumulate(u, axis=1) <= math.exp(-self.mean_jumps)
        counts = stop.argmax(axis=1)
        counts[~stop[np.arange(ids.size), counts] | (3 * counts + 1 > words)] = -1
        return counts, u

    def _array_jumps(self, u, counts, starts, flat_times, flat_sizes, decode, sums):
        """Write the jumps of the rows with counts[r] > 0, drawn from their
        uniforms u as `draw` does, into flat_times and flat_sizes from
        starts[r] on, and their jump sums into sums[r]. The rows of one count
        c are drawn together: the c uniforms after the count's c + 1 are the
        times, the next c the sizes. Their sizes are a C-contiguous (rows, c)
        array, whose .sum(axis=1) has the bits of each row's .sum()."""
        for c in range(1, counts.max() + 1):
            rows = np.flatnonzero(counts == c)
            dest = starts[rows, None] + np.arange(c)
            times = u[rows, c + 1:2 * c + 1]
            times *= -self.horizon
            times += self.horizon
            times.sort(axis=1)
            flat_times[dest] = times
            keys = self.sizes(u[rows, 2 * c + 1:3 * c + 1])
            flat_sizes[dest] = keys
            sums[rows] = decode(keys).sum(axis=1)


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
             compensate: bool = False, brownian_cells: int | None = None,
             rate: float | None = None) -> PathLaw:
    """The truncated-compound-Poisson driver on [0, horizon]: jumps above
    `trunc` at rate total_rate(spec, trunc), times iid uniform on (0, horizon],
    sizes iid from the normalized restriction. With `compensate`, the drift
    absorbs minus the mean of jumps in (trunc, 1]. A Brownian part is sampled
    on `brownian_cells` cells, which a triplet with brownian_variance > 0
    must give. A caller that has computed total_rate(spec, trunc) passes it
    as `rate`, and it is not computed again."""
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if trunc <= 0.0:
        raise ValueError("truncation level must be > 0")
    if rate is None:
        rate = total_rate(triplet.jumps, trunc)
    reason = jump_budget_error(rate, horizon)
    if reason is not None:
        raise ValueError(reason)
    grid = None
    sd = 0.0
    if triplet.brownian_variance > 0.0:
        if brownian_cells is None:
            raise ValueError("a Brownian part needs brownian_cells")
        grid = np.linspace(0.0, horizon, brownian_cells + 1)
        grid.flags.writeable = False
        sd = math.sqrt(triplet.brownian_variance * (horizon / brownian_cells))
    compensator = _compensator(triplet.jumps, trunc) if compensate else 0.0
    sizes, table = _size_sampler(triplet.jumps, trunc) if rate > 0.0 else (None, None)
    return PathLaw(
        horizon=horizon,
        drift=triplet.drift - compensator,
        rate=rate,
        mean_jumps=rate * horizon,
        sizes=sizes,
        size_table=table,
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
        for _ in range(MAX_DRAWS):
            p = law.path(gen)
            if accept is None or accept(p):
                paths.append(p)
                break
        else:
            raise RuntimeError(
                f"replica {stream_offset + i}: no acceptable path in {MAX_DRAWS} draws")
    return paths


def mark_window_error(eta: float, upper: float) -> str | None:
    """Why [eta, upper] is not a marked size window, or None."""
    if not (0.0 < eta <= upper):
        return f"the marked window [{eta:g}, {upper:g}] needs 0 < low <= high"
    return None


def marked_rate(spec, trunc: float, eta: float, upper: float) -> float:
    """Rate of the jumps above trunc whose size lies in [eta, upper]."""
    if isinstance(spec, FiniteAtomic):
        return float(sum(r for s, r in spec.atoms if abs(s) >= trunc and eta <= s <= upper))
    return shell_integral(spec.intensity, max(eta, trunc, spec.abs_min),
                          min(upper, spec.abs_max))


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
