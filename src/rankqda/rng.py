"""Deterministic random-stream derivation.

Every stochastic routine in the package takes an explicit
``numpy.random.Generator``. Streams for subtasks (ensemble blocks,
candidate projections, train/test splits) are derived from a master seed
plus an integer key, so results do not depend on execution order or on
how many workers share the job.

Training needs ``b1 x b2`` keyed streams, and building a ``SeedSequence``,
a ``PCG64`` and a ``Generator`` per key is the largest single cost of a
small fit. So :func:`_keyed_states` computes the PCG64 ``(state, inc)`` of
every key ``(seed, b, c)`` of a fit at once: ``SeedSequence``'s entropy
mixing and state generation in one vectorized ``uint32`` pass, then
PCG64's seeding step in Python integers. :func:`_keyed_streams` sets a
block's states in turn on one reused generator, in one pass: training
draws each candidate's projection once and never comes back to a stream.
Each state is bit for bit the one :func:`substream` starts from, so the
draws are too. NEP 19 fixes the ``SeedSequence`` and ``PCG64`` algorithms
across numpy versions, which is what makes computing their states outside
numpy stable.
"""

import numpy as np


def substream(*key: int) -> np.random.Generator:
    """Return a generator deterministically derived from an integer key.

    The first key component is conventionally the master seed; the rest
    identify the subtask, e.g. ``substream(seed, block, candidate)``.
    Identical keys always yield identical streams.
    """
    return np.random.default_rng(np.random.SeedSequence(key))


# numpy.random.SeedSequence's hash constants and pool size, and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_SHIFT = np.uint32(16)


def _words(n: int) -> list[int]:
    """``n``'s little-endian 32-bit words, as SeedSequence coerces an int (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: call k xors with ``init * mult**k`` and
    multiplies by ``init * mult**(k + 1)``, mod 2**32.

    The constants do not depend on the hashed words, so one call hashes a
    ``uint32`` array of words, one per key.
    """
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return hash_


def _mix(x, y):
    """SeedSequence's mix of two pool words, on ``uint32`` arrays."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _SHIFT)


def _keyed_states(seed: int, blocks: int, count: int) -> list[list[tuple[int, int]]]:
    """PCG64 ``(state, inc)`` of ``substream(seed, b, c)`` for b < blocks, c < count.

    Row b lists block b's ``count`` pairs. Every key is hashed at once in
    ``uint32`` arrays: ``SeedSequence.mix_entropy`` over the key's entropy
    words (the seed's words, then b's and c's, one each since both are
    below 2**32; keys of more than four words take its extra loop), then
    ``generate_state(4, uint64)``. PCG64's seeding step follows in Python
    integers: ``inc = 2 * initseq + 1``, then one LCG step from
    ``inc + initstate``.
    """
    n = blocks * count
    b = np.repeat(np.arange(blocks, dtype=np.uint32), count)
    c = np.tile(np.arange(count, dtype=np.uint32), blocks)
    entropy = [np.full(n, w, dtype=np.uint32) for w in _words(seed)] + [b, c]

    hash_a = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hash_a(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a(word))

    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian into (initstate high, low, initseq high, low)
    hash_b = _hasher(_INIT_B, _MULT_B)
    words = [hash_b(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    high0, low0, high1, low1 = (
        (words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)
    )
    pairs = []
    for h0, l0, h1, l1 in zip(high0, low0, high1, low1):
        inc = ((h1 << 64 | l1) << 1 | 1) & _MASK128
        pairs.append((((inc + (h0 << 64 | l0)) * _PCG_MULT + inc) & _MASK128, inc))
    return [pairs[start:start + count] for start in range(0, len(pairs), count)]


def _keyed_streams(generator: np.random.Generator, states):
    """Yield ``generator``, a PCG64 ``Generator``, set to each stream's start in turn.

    ``states`` lists each stream's PCG64 ``(state, inc)``, a row of
    :func:`_keyed_states`. Every stream is visited once, in order, so draw
    from each before taking the next.
    """
    bit_generator = generator.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator
