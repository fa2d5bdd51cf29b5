"""Per-round random streams, stream layout v1.

Round i of a session seeded by the ``SeedSequence`` ``master`` draws from
two PCG64 streams, the verifiers' (j = 0) and the device's (j = 1), each
seeded exactly as ``PCG64`` would seed itself from
``SeedSequence(master.entropy, spawn_key=(*master.spawn_key, i, j),
pool_size=master.pool_size)``, the grandchildren ``master.spawn(n)[i].spawn(2)``
would hand out.  Instead of building those sequences round by round, the
``SeedSequence`` hash of the words every round shares is run once per
session and the rest as one numpy pass over a block of round indices, and
each ``PCG64`` takes its four seed words through its public seeding
interface, so no PCG arithmetic is reimplemented.

Importing this module loads ``numpy.random``; ``protocol`` imports it when a
session first runs, not when the package is imported.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

# Rounds whose stream seeds are derived in one pass.  A power of two, so the
# aligned blocks never straddle 2**32, where a round index gains a uint32 word.
STREAM_BLOCK = 512

# The constants of numpy's SeedSequence hash (Melissa O'Neill's seed_seq_fe).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(value: int, multiplier: int):
    """The (current, next) uint32 pairs a SeedSequence hash walks through."""
    while True:
        following = value * multiplier & _MASK32
        yield np.uint32(value), np.uint32(following)
        value = following


def _hash(words: np.ndarray, constants) -> np.ndarray:
    current, following = next(constants)
    words = (words ^ current) * following
    return words ^ (words >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def stream_seeds(
    master: np.random.SeedSequence, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seed words of the verifier and device streams of rounds ``start..stop-1``.

    Row ``i - start`` of stream j, an array of shape (stop - start, 4), equals
    ``SeedSequence(master.entropy, spawn_key=(*master.spawn_key, i, j),
    pool_size=master.pool_size).generate_state(4, np.uint64)``, which is all
    ``PCG64`` reads from its seed sequence.  Every index in the range must
    take the same number of uint32 words.
    """
    return _block_seeds(_mixed_prefix(master), start, stop)


def _mixed_prefix(master: np.random.SeedSequence) -> tuple[list[np.ndarray], int]:
    """The pool after hashing the words every round shares, and the next hash constant.

    Those words (entropy padded to the pool size, then the spawn key) always
    fill the pool, so a block only mixes in its round index and stream words.
    """
    entropy = _coerce_to_uint32_array(master.entropy)
    padding = np.zeros(max(master.pool_size - entropy.size, 0), dtype=np.uint32)
    prefix = np.concatenate([entropy, padding, _coerce_to_uint32_array(master.spawn_key)])
    # Each word a (1, 1) array that broadcasts against a block's (rounds, streams).
    words = [np.full((1, 1), word, dtype=np.uint32) for word in prefix]

    # SeedSequence.mix_entropy: hash the first pool_size words into the pool,
    # cross-mix the pool, then mix each remaining word into every pool word.
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, constants) for word in words[: master.pool_size]]
    for source in range(len(pool)):
        for target in range(len(pool)):
            if source != target:
                pool[target] = _mix(pool[target], _hash(pool[source], constants))
    for word in words[master.pool_size:]:
        for target in range(len(pool)):
            pool[target] = _mix(pool[target], _hash(word, constants))
    return pool, int(next(constants)[0])


def _block_seeds(
    prefix: tuple[list[np.ndarray], int], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """``stream_seeds`` of rounds ``start..stop-1`` from the master's ``_mixed_prefix``."""
    width = _coerce_to_uint32_array(stop - 1).size
    if _coerce_to_uint32_array(start).size != width:
        raise ValueError(f"rounds {start}..{stop - 1} straddle a uint32 word boundary")
    pool, constant = prefix
    index = np.arange(start, stop, dtype=np.uint64)[:, None]
    words = [(index >> np.uint64(32 * k) & np.uint64(_MASK32)).astype(np.uint32)
             for k in range(width)]
    words.append(np.arange(2, dtype=np.uint32)[None, :])
    constants = _hash_constants(constant, _MULT_A)
    for word in words:  # new lists: the prefix's pool is shared by every block
        pool = [_mix(pooled, _hash(word, constants)) for pooled in pool]

    # SeedSequence.generate_state(4, np.uint64): eight uint32 words, read as
    # little-endian pairs.
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty((stop - start, 2, 8), dtype=np.uint32)
    for k in range(8):
        state[..., k] = _hash(pool[k % len(pool)], constants)
    seeds = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return seeds[:, 0], seeds[:, 1]


class SeedWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` one precomputed row of seed words."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = np.array(words, dtype=np.uint64)  # a copy keeps no block alive

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds exactly the four uint64 words PCG64 asks for")
        return self._words


def round_generators(
    master: np.random.SeedSequence, rounds: int
) -> Iterator[tuple[np.random.Generator, np.random.Generator]]:
    """(verifier, device) generators of rounds 0..rounds-1, one block of seeds at a time."""
    prefix = _mixed_prefix(master)
    for start in range(0, rounds, STREAM_BLOCK):
        verifier_seeds, device_seeds = _block_seeds(
            prefix, start, min(start + STREAM_BLOCK, rounds)
        )
        for verifier_words, device_words in zip(verifier_seeds, device_seeds):
            yield (
                np.random.Generator(np.random.PCG64(SeedWords(verifier_words))),
                np.random.Generator(np.random.PCG64(SeedWords(device_words))),
            )
