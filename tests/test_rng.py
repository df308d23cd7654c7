"""The batched keyed-stream states against numpy's own SeedSequence and PCG64."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankqda.rng import _keyed_states, _keyed_streams, substream

# one to three entropy words for the seed, so keys of three to five words,
# the last taking SeedSequence's extra mixing loop
SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(0, 2**80)


@st.composite
def keyed_grids(draw):
    blocks, count = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    key = st.tuples(st.integers(0, blocks - 1), st.integers(0, count - 1))
    return draw(SEEDS), blocks, count, [(0, 0), (blocks - 1, count - 1), *draw(st.lists(key, max_size=6))]


@settings(max_examples=80, deadline=None)
@given(keyed_grids())
def test_batched_states_equal_each_substream_state(grid):
    seed, blocks, count, keys = grid
    states = _keyed_states(seed, blocks, count)
    assert [len(row) for row in states] == [count] * blocks
    for b, c in keys:
        expected = substream(seed, b, c).bit_generator.state["state"]
        assert states[b][c] == (expected["state"], expected["inc"])


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 12), st.integers(1, 8), st.data())
def test_keyed_streams_draw_what_substream_draws(seed, count, p, data):
    d = data.draw(st.integers(1, p))
    b = data.draw(st.integers(0, 3))
    generator = np.random.Generator(np.random.PCG64())
    states = _keyed_states(seed, b + 1, count)[b]
    # each flavor's first draw; choice may leave half a 64-bit word buffered,
    # which must not leak into the next stream
    for draw in (lambda g: g.standard_normal((d, p)), lambda g: g.choice(p, size=d, replace=False)):
        for c, rng in enumerate(_keyed_streams(generator, states)):
            assert rng is generator
            expected = substream(seed, b, c)
            assert draw(rng).tobytes() == draw(expected).tobytes()
            assert rng.integers(2**31, size=3).tobytes() == expected.integers(2**31, size=3).tobytes()
