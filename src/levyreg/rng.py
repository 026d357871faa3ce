"""Reproducible random streams for parallel Monte Carlo replication.

Each replica owns an RngStream identified by (seed, stream_id). Streams are
backed by the counter-based Philox generator keyed directly by the pair, so
the draw sequence of a stream depends only on its identity — never on
evaluation order, thread count, or how replicas are batched.
StreamGenerator walks many streams of one seed with a single generator.

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
        self._key[1] = stream_id & _MASK64
        self._bitgen.state = self._fresh
        return self.generator
