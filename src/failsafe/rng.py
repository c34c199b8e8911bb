"""Reproducible random streams for simulations.

A stream is named by a (master_seed, stream_id) pair: key (master_seed,
stream_id) of a counter-based Philox generator, at counter 0.
``RandomSource.generator`` builds a fresh generator at the start of a
stream; ``rewind`` moves an existing one there, at a fraction of the cost.
The coverage study keeps one generator per scenario and rewinds it to stream
``j * replicates + i`` for replicate *i* of cell *j*, so any single
replicate can be rerun in isolation from a fresh generator.

numpy loads only when a generator is built or a seed derived.  The bootstrap
of ``analyze`` builds no generator: ``inference.ci_bootstrap`` seeds the
standard library's Mersenne Twister with the pair instead, so that it needs
no numpy, and its draws differ from the coverage engine's.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import record
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_U64 = 2**64
_ZERO4 = (0, 0, 0, 0)


@record
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
        if not all(isinstance(v, int) and 0 <= v < _U64
                   for v in (self.master_seed, self.stream_id)):
            raise DomainError(f"seed and stream must fit in 64 unsigned bits, got {self}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        import numpy as np
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def rewind(g: np.random.Generator, master_seed: int,
           stream_id: int) -> np.random.Generator:
    """Move ``g``, a Philox-backed generator, to the start of stream
    (master_seed, stream_id) and return it.

    Its draws from here on equal those of a fresh
    ``RandomSource(master_seed, stream_id).generator()``, whatever ``g`` had
    drawn before: the counter and the buffered output are cleared along with
    the key.  Unlike building a generator, it reads no OS entropy; it takes
    under a tenth of the time.  It checks nothing: the pair must be one that
    ``RandomSource`` accepts, as in the coverage study, whose seed
    ``CoverageScenario`` has checked and whose stream index stays below
    ``replicates * len(k_values)``.
    """
    g.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": (master_seed, stream_id)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return g


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for the ``index``-th member of a batch.

    Used to give each scenario in a grid its own master seed so that grid
    results are independent of ordering.
    """
    RandomSource(master_seed, index)  # checks the range
    import numpy as np
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])
