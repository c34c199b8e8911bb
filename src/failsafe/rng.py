"""Reproducible random streams for simulations.

Every randomized routine in the package draws from a ``RandomSource``: a
(master_seed, stream_id) pair mapped onto a counter-based Philox generator.
Replicate *i* of a simulation owns stream *i*, so any single replicate can
be rerun in isolation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_U64 = 2**64


@dataclass(frozen=True)
class RandomSource:
    """A named, independent random stream.

    Identical (master_seed, stream_id) pairs always produce identical draw
    sequences; distinct stream_ids under one master seed are statistically
    independent.  A source is single-owner: share the pair, not a live
    generator.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < _U64):
            raise DomainError("master_seed must fit in 64 unsigned bits")
        if not (0 <= self.stream_id < _U64):
            raise DomainError("stream_id must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "RandomSource":
        """Sibling source under the same master seed."""
        return RandomSource(self.master_seed, stream_id)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for the ``index``-th member of a batch.

    Used to give each scenario in a grid its own master seed so that grid
    results are independent of ordering.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])
