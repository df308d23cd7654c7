"""Deterministic random-stream derivation.

Every stochastic routine in the package takes an explicit
``numpy.random.Generator``. Streams for subtasks (ensemble blocks,
candidate projections, train/test splits) are derived from a master seed
plus an integer key, so results do not depend on execution order or on
how many workers share the job.

Training needs ``b1 x b2`` keyed streams, and building a ``SeedSequence``
per key is the largest single cost of a small fit. So
:func:`_keyed_streams` hashes every key ``(seed, b, c)`` of a fit at once:
``SeedSequence``'s entropy mixing and state generation in one vectorized
``uint32`` pass, up to the four ``uint64`` words that seed a ``PCG64``.
numpy's own ``PCG64`` then seeds each candidate's generator from its
words (:class:`_Words`), so no generator is shared and the streams may be
drawn in any order. Each generator starts bit for bit where
:func:`substream` does, so the draws are the same. NEP 19 fixes the
``SeedSequence`` and ``PCG64`` algorithms across numpy versions, which is
what makes computing the seeding words outside numpy stable.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def substream(*key: int) -> np.random.Generator:
    """Return a generator deterministically derived from an integer key.

    The first key component is conventionally the master seed; the rest
    identify the subtask, e.g. ``substream(seed, block, candidate)``.
    Identical keys always yield identical streams.
    """
    return np.random.default_rng(np.random.SeedSequence(key))


# numpy.random.SeedSequence's hash constants and pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 2**32 - 1
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


class _Words(ISeedSequence):
    """A seed sequence that hands ``PCG64`` one key's precomputed words.

    ``words`` is a C-contiguous (4,) ``uint64`` array, what
    ``SeedSequence(key).generate_state(4, np.uint64)`` returns. Any other
    request raises ``ValueError``, so a numpy that seeds ``PCG64``
    differently fails loudly instead of drawing other streams.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"precomputed seed words serve (4, uint64), not ({n_words}, {np.dtype(dtype)})")
        return self.words


def _keyed_streams(seed: int, blocks: int, count: int):
    """Yield, per block b < blocks, the generators ``substream(seed, b, c)`` for c < count.

    Every key is hashed at once in ``uint32`` arrays:
    ``SeedSequence.mix_entropy`` over the key's entropy words (the seed's
    words, then b's and c's, one each since both are below 2**32; keys of
    more than four words take its extra loop), then
    ``generate_state(4, uint64)``. Each block's generators are built
    lazily from those words, one ``PCG64`` per candidate.
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

    # generate_state(4, uint64): eight words cycling over the pool, paired little-endian
    hash_b = _hasher(_INIT_B, _MULT_B)
    halves = [hash_b(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    words = np.stack([halves[2 * j] | halves[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)
    for block in words.reshape(blocks, count, 4):
        yield (np.random.Generator(np.random.PCG64(_Words(key))) for key in block)
