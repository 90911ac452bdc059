"""Reproducible random number streams.

Every stochastic routine in the package takes an :class:`RngStream` rather
than a bare seed.  A stream is identified by ``(seed, stream_id)``:
identical pairs reproduce identical draws, distinct ``stream_id`` values
give statistically independent generators (via ``numpy.random.SeedSequence``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Substream ids are packed as parent_id * _SUBSTREAM_FACTOR + 1 + index, so
# sibling substreams never collide as long as index < _SUBSTREAM_FACTOR.
_SUBSTREAM_FACTOR = 1 << 20

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # the seed is masked to 64 bits, but an id outside [0, 2**64) would
        # alias another stream's id, so it is refused
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError(f"stream_id must lie in [0, 2**64): {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(
            entropy=(int(self.seed) & _MASK64, int(self.stream_id))
        )
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream.

        Child ids for distinct parents or distinct indices never collide
        (requires ``0 <= index < 2**20``).  Each level of nesting takes 20
        bits of the id, and ids must fit in 64 bits: a child id of 2**64 or
        more raises ``ValueError`` instead of wrapping onto another stream.
        """
        if index < 0 or index >= _SUBSTREAM_FACTOR:
            raise ValueError(f"substream index out of range: {index}")
        return RngStream(self.seed, self.stream_id * _SUBSTREAM_FACTOR + 1 + index)
