"""Reproducible random streams for parallel Monte Carlo replication.

Each replica owns an RngStream identified by (seed, stream_id). Streams are
backed by the counter-based Philox generator keyed directly by the pair, so
the draw sequence of a stream depends only on its identity — never on
evaluation order, thread count, or how replicas are batched.
StreamGenerator walks many streams of one seed with a single generator, and
philox_words computes the raw words of many streams at once as arrays.

Independent draws of one run never share a key: replica i uses stream id i,
and a draw for another purpose uses `child(tag)`, which adds tag * 2^48. So
tag t owns the ids [t * 2^48, (t + 1) * 2^48), and streams stay distinct as
long as every replica id of the run lies below TAG_BAND = 2^48 and tags lie
below 2^16.
"""

from __future__ import annotations

from dataclasses import dataclass

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
