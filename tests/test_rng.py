"""The batched keyed streams against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankqda.rng import _keyed_streams, _Words, substream

# one to five entropy words for the seed, so keys of three to seven words,
# those past four taking SeedSequence's extra mixing loop once per word
SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7]) | st.integers(0, 2**130)


@st.composite
def keyed_grids(draw):
    blocks, count = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    key = st.tuples(st.integers(0, blocks - 1), st.integers(0, count - 1))
    return draw(SEEDS), blocks, count, [(0, 0), (blocks - 1, count - 1), *draw(st.lists(key, max_size=6))]


@settings(max_examples=80, deadline=None)
@given(keyed_grids())
def test_keyed_generators_start_where_each_substream_starts(grid):
    seed, blocks, count, keys = grid
    wanted = {}
    for b, c in keys:
        wanted.setdefault(b, set()).add(c)
    seen = 0
    for b, streams in enumerate(_keyed_streams(seed, blocks, count)):
        seen += 1
        if b in wanted:
            generators = list(streams)
            assert len(generators) == count
            for c in wanted[b]:
                assert generators[c].bit_generator.state == substream(seed, b, c).bit_generator.state
    assert seen == blocks


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 12), st.integers(1, 8), st.data())
def test_keyed_streams_draw_what_substream_draws_in_any_order(seed, count, p, data):
    d = data.draw(st.integers(1, p))
    b = data.draw(st.integers(0, 3))
    # each flavor's first draw; choice may leave half a 64-bit word buffered,
    # which must not leak into another stream. A whole block's generators
    # are held at once and drawn last to first, so none may share a state
    for draw in (lambda g: g.standard_normal((d, p)), lambda g: g.choice(p, size=d, replace=False)):
        generators = list(list(_keyed_streams(seed, b + 1, count))[b])
        for c in reversed(range(count)):
            expected = substream(seed, b, c)
            assert draw(generators[c]).tobytes() == draw(expected).tobytes()
            assert generators[c].integers(2**31, size=3).tobytes() == expected.integers(2**31, size=3).tobytes()


def test_precomputed_words_serve_only_pcg64_s_request():
    words = np.random.SeedSequence((7, 1, 2)).generate_state(4, np.uint64)
    assert _Words(words).generate_state(4, np.uint64) is words
    for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)]:
        with pytest.raises(ValueError, match="precomputed seed words"):
            _Words(words).generate_state(n_words, dtype)
