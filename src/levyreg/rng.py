"""Reproducible random streams for parallel Monte Carlo replication.

Each replica owns an RngStream identified by (seed, stream_id). Streams are
backed by the counter-based Philox generator keyed directly by the pair, so
the draw sequence of a stream depends only on its identity — never on
evaluation order, thread count, or how replicas are batched.
StreamGenerator walks many streams of one seed with a single generator, and
philox_words computes the raw words of many streams at once as arrays.
stream_draws reads Generator.uniform and Generator.integers, bit for bit,
off such arrays (PhiloxDraws), so a run that draws only those never loads
numpy.random.

Independent draws of one run never share a key: replica i uses stream id i,
and a draw for another purpose uses `child(tag)`, which adds tag * 2^48. So
tag t owns the ids [t * 2^48, (t + 1) * 2^48), and streams stay distinct as
long as every replica id of the run lies below TAG_BAND = 2^48 and tags lie
below 2^16.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

_MASK64 = (1 << 64) - 1

#: Stream ids each child tag owns; a run's replica ids must stay below it.
TAG_BAND = 1 << 48

#: Philox4x64-10's round multipliers and key increments (Salmon et al.,
#: "Parallel random numbers: as easy as 1, 2, 3", SC'11), as numpy uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)

#: Streams whose words stream_draws computes in one philox_words call, and
#: the words it first computes for each: a draw that runs past them computes
#: its stream again with 4 times the words.
DRAWS_BLOCK = 1024
DRAWS_WORDS = 32


@dataclass(frozen=True)
class RngStream:
    """Identity of one reproducible draw sequence."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, tag: int) -> "RngStream":
        """Derived stream for a distinct purpose (resampling draws etc.): the
        same id in tag's band, distinct from every replica id below TAG_BAND."""
        return RngStream(self.seed, (self.stream_id + tag * TAG_BAND) & _MASK64)


class StreamGenerator:
    """One Philox generator re-keyed in place to the start of any stream.

    `at(stream_id)` returns the same Generator every time, reset to key
    (seed, stream_id), counter 0, an empty output buffer and no cached 32-bit
    half, which is exactly the state RngStream(seed, stream_id).generator()
    starts in, so every draw matches bit for bit. Re-keying costs a few
    microseconds; building a Generator costs about 25, more than the draws
    of a path with a handful of jumps.
    """

    def __init__(self, seed: int):
        self._key = np.array([seed & _MASK64, 0], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=self._key)
        self._fresh = self._bitgen.state
        self._fresh["state"]["key"] = self._key
        self.generator = np.random.Generator(self._bitgen)

    def at(self, stream_id: int) -> np.random.Generator:
        self._key[1] = int(stream_id) & _MASK64
        self._bitgen.state = self._fresh
        return self.generator


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the products m * x, from 32-bit halves."""
    mh, ml = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    xh, xl = x >> _32, x & _LOW32
    # neither partial sum can pass 2^64
    t = ml * xh + ((ml * xl) >> _32)
    u = mh * xl + (t & _LOW32)
    return mh * xh + (t >> _32) + (u >> _32), x * np.uint64(m)


def philox_words(seed: int, stream_ids: np.ndarray, k: int) -> np.ndarray:
    """(len(stream_ids), k) uint64 array whose row i is the first k words of
    stream (seed, stream_ids[i]): what RngStream(seed, stream_ids[i])'s bit
    generator gives from random_raw(k).

    Philox is counter-based: word j of a stream is lane j % 4 of the block
    that ten rounds make of the counter j // 4 + 1 (numpy bumps the counter
    before its first block) and the key, so all rows are computed together.
    """
    key1 = np.asarray(stream_ids, dtype=np.uint64).reshape(-1, 1)
    ctr = np.arange(1, -(-k // 4) + 1, dtype=np.uint64) + np.zeros_like(key1)
    c0, c1, c2, c3 = ctr, 0, np.zeros_like(ctr), 0
    key0 = seed & _MASK64
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ key1, lo0
        key0 = (key0 + _PHILOX_W[0]) & _MASK64
        key1 = key1 + np.uint64(_PHILOX_W[1])
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(key1), -1)[:, :k]


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that Generator.random makes of 64-bit words:
    the top 53 bits of each, times 2^-53. Shifts `words` in place."""
    words >>= _11
    return words * 2.0 ** -53


class PhiloxDraws:
    """Generator.uniform and Generator.integers read off the words of one
    stream, bit for bit what RngStream(seed, stream_id).generator() gives for
    the same calls in the same order.

    uniform(low, high) is low + (high - low) * u, u a word's unit double, and
    a sized call does this element by element. integers(low, high) draws
    32-bit halves as numpy's Philox does, low half first and the high half
    kept for the next 32-bit draw, and maps them into the range by Lemire's
    method (ACM TOMACS 2019) as numpy does: it draws nothing when
    high - low == 1, and takes a half as it is when high - low == 2^32.
    A wider range would need numpy's 64-bit method, so it raises.
    """

    def __init__(self, seed: int, stream_id: int, words: np.ndarray):
        self.seed, self.stream_id = seed, stream_id
        self._set(words)
        self._pos, self._half = 0, None

    def _set(self, words: np.ndarray) -> None:
        self._words = words.tolist()
        self._units = unit_doubles(words.copy()).tolist()

    def _take(self, k: int) -> int:
        """Index of the next k words, which the stream then has used; it may
        replace the word lists, so read them after it returns."""
        while self._pos + k > len(self._words):
            # Philox is counter-based: the longer row starts with these words
            ids = np.array([self.stream_id], dtype=np.uint64)
            self._set(philox_words(self.seed, ids, 4 * len(self._words))[0])
        pos, self._pos = self._pos, self._pos + k
        return pos

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        pos = self._take(1 if size is None else size)
        if size is None:
            return low + (high - low) * self._units[pos]
        return low + (high - low) * np.array(self._units[pos:pos + size])

    def _uint32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        pos = self._take(1)
        word = self._words[pos]
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"integers reads ranges of 1 to 2^32 values, not {span}")
        if span == 1:
            return low
        if span == 1 << 32:
            return low + self._uint32()
        m = self._uint32() * span
        if (m & 0xFFFFFFFF) < span:
            threshold = (1 << 32) % span
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * span
        return low + (m >> 32)


def stream_draws(seed: int, stream_ids: Iterable[int]) -> Iterator[PhiloxDraws]:
    """A PhiloxDraws for each of stream_ids in turn, the first DRAWS_WORDS
    words of DRAWS_BLOCK streams at a time from one philox_words call."""
    ids = iter(stream_ids)
    while (block := np.fromiter(islice(ids, DRAWS_BLOCK), dtype=np.uint64)).size:
        words = philox_words(seed, block, DRAWS_WORDS)
        for stream_id, row in zip(block.tolist(), words):
            yield PhiloxDraws(seed, stream_id, row)
