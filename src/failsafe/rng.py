"""Reproducible random streams for simulations.

A stream is named by a (master_seed, stream_id) pair: key (master_seed,
stream_id) of a counter-based Philox generator, at counter 0.
``RandomSource.generator`` builds a fresh generator at the start of a
stream; ``rewind`` moves an existing one there, at a fraction of the cost.
The coverage study keeps one generator per scenario and rewinds it to stream
``j * replicates + i`` for replicate *i* of cell *j*, so any single
replicate can be rerun in isolation from a fresh generator.

numpy loads only when a generator is built or a seed derived.  ``_indices``
draws a stream's bounded integers in pure Python, bit for bit as the
generator does, so that the bootstrap of ``analyze`` needs no numpy: 30 000
indices (3 750 Philox blocks) take 8 to 12 ms on a 2-core x86-64 box under
CPython 3.11, of which the blocks take 3 to 5 ms.
"""
from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING

from ._record import record
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_U64 = 2**64
_ZERO4 = (0, 0, 0, 0)
# Philox4x64-10 (Salmon et al. 2011): the round multipliers and the Weyl
# constants that bump the key between rounds
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# _indices draws this many blocks (2 048 words) at a time: all of a
# 30 000-index draw's words at once raised the peak RSS by 1.2 MB
_BATCH_BLOCKS = 256
# 1, and the lane's index, in each 128-bit lane of a batch
_LANES = int.from_bytes((b"\1" + bytes(15)) * _BATCH_BLOCKS, "little")
_LANE_INDEX = int.from_bytes(b"".join(i.to_bytes(16, "little")
                                      for i in range(_BATCH_BLOCKS)), "little")


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


def _philox_u32(src: RandomSource, first: int, blocks: int) -> list[int]:
    """The 32-bit words of Philox4x64-10 blocks ``first`` .. ``first + blocks
    - 1`` (at most ``_BATCH_BLOCKS``) of stream ``src``, in the order numpy's
    generator reads them: x0 .. x3, each 64-bit word's low half first.

    numpy's Philox increments its 256-bit counter before each block, so a
    fresh stream's first block has counter 1; a stream never reaches 2**64
    blocks, so only the lowest counter word is ever nonzero.  Block i holds
    bits [128 i, 128 i + 64) of one int per word, so one multiply by a 64-bit
    constant gives every block its 128-bit product, with no carry between.
    """
    mask = _U64 - 1
    top = (1 << 128 * blocks) - 1
    ones = _LANES & top
    lo = ones * mask
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    seed, stream = src.master_seed, src.stream_id
    x0, x1, x2, x3 = first * ones + (_LANE_INDEX & top), 0, 0, 0
    for r in range(_PHILOX_ROUNDS):  # the round key, bumped r times, in every lane
        p0 = m0 * x0
        p1 = m1 * x2
        x0 = ((p1 >> 64) & lo) ^ x1 ^ ((seed + r * w0) & mask) * ones
        x2 = ((p0 >> 64) & lo) ^ x3 ^ ((stream + r * w1) & mask) * ones
        x1 = p1 & lo
        x3 = p0 & lo
    # 16 bytes a block: (x0, x1) from the first int, (x2, x3) from the second
    low = array("I", (x0 | x1 << 64).to_bytes(16 * blocks, "little"))
    high = array("I", (x2 | x3 << 64).to_bytes(16 * blocks, "little"))
    words = low + high
    for j in range(4):
        words[j::8] = low[j::4]
        words[j + 4::8] = high[j::4]
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _indices(src: RandomSource, k: int, n: int) -> list[int]:
    """``src.generator().integers(0, k, n).tolist()``, bit for bit, without
    numpy, for 1 <= k <= 2**32.

    numpy draws a bound below 2**32 by Lemire's method (2019) on the 32-bit
    stream: a word u gives (u k) >> 32, and is rejected where the low half of
    u k falls below 2**32 mod k.  Words are drawn in whole blocks, from the
    stream's first block on, and the indices past ``n`` dropped.
    """
    threshold = 2**32 % k
    out: list[int] = []
    block = 1
    while len(out) < n:
        blocks = min(-(-(n - len(out)) // 8), _BATCH_BLOCKS)
        words = _philox_u32(src, block, blocks)
        block += blocks
        out += [m >> 32 for u in words if (m := u * k) & 0xFFFFFFFF >= threshold]
    del out[n:]
    return out


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
