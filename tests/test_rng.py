"""Rewinding a generator to the start of a stream, and the range check of
the pair that names a stream."""
import numpy as np
import pytest

from failsafe import DomainError, RandomSource
from failsafe.rng import rewind

PAIRS = [(0, 0), (99, 5), (12345, 10**6), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)]

DRAWS = {
    "poisson": lambda g: g.poisson(3.5, 64),
    "standard_normal": lambda g: g.standard_normal(64),
    "normal": lambda g: g.normal(1.0, 2.0, 64),
    "integers": lambda g: g.integers(0, 1000, 64),
    "integers_uint32": lambda g: g.integers(0, 1000, 64, dtype=np.uint32),
    "random": lambda g: g.random(64),
}


def used_generator() -> np.random.Generator:
    """A generator left mid-buffer: a half-used 64-bit word and a partly read
    block of four."""
    g = RandomSource(7, 3).generator()
    g.integers(0, 10, dtype=np.uint32)
    g.bit_generator.random_raw(2)
    state = g.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
    assert state["state"]["counter"].any()
    return g


@pytest.mark.parametrize("kind", DRAWS)
@pytest.mark.parametrize("seed, stream", PAIRS)
def test_rewound_draws_equal_a_fresh_generator(seed, stream, kind):
    g = rewind(used_generator(), seed, stream)
    fresh = RandomSource(seed, stream).generator()
    assert np.array_equal(DRAWS[kind](g), DRAWS[kind](fresh))
    # and the stream continues identically
    assert np.array_equal(g.random(8), fresh.random(8))


def test_one_generator_across_streams():
    g = used_generator()
    for seed, stream in PAIRS:
        rewind(g, seed, stream)
        fresh = RandomSource(seed, stream).generator()
        for draw in DRAWS.values():
            assert np.array_equal(draw(g), draw(fresh))


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64),
                                          (1.5, 0), (0, 1.5)])
def test_range_checks(seed, stream):
    # the one check of the pair; rewind makes none, and the coverage study
    # passes it a seed that has been through this one
    with pytest.raises(DomainError, match="must fit in 64 unsigned bits"):
        RandomSource(seed, stream)

