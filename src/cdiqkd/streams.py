"""Per-block random streams, stream layout v9.

A session's rounds fall into blocks of ``STREAM_BLOCK`` (the last block may
be shorter).  Block k has three streams, each keyed by a 128-bit key K, the
first 16 bytes of

    SHA-256(DOMAIN || session words || stream id || k)

The session words are the 32 bytes ``master.generate_state(8)`` of the
session's ``SeedSequence`` (little-endian uint32s), which reads the sequence
without advancing it; the stream id is one byte and k eight little-endian
bytes.  The streams:

- ``PUBLIC``: the verifiers' public coins, and ``DEVICE``: the device, each
  a counter-based ``Generator(Philox(key=K))`` (Salmon et al., "Parallel
  random numbers: as easy as 1, 2, 3", SC'11), K read as two little-endian
  uint64 words.  A session plays one block at a time: the device is reset
  once a block with the block's device generator, and each of its draws
  is one array with an entry per round (or per round and side) of the
  block, in a fixed order per device kind:

  - honest and noisy: the branch bits, the domain points (``on_keys``);
    the challenge-a coins, the d strings (``on_challenges``); 4 uniforms
    a round, then the noisy device's 2 flip uniforms (``on_questions``);
  - classical-random: the commitments, the responses, the answer bits;
  - classical-table: nothing;
- ``PRIVATE``: the verifiers' private coins.  Round ``start + i`` gets the
  ``SEED_BYTES`` (16) bytes from ``16 i`` on of ``SHAKE-128(K)``, whose first
  and last 8, read as little-endian uint64s, are Alice's and Bob's key
  seeds: ``etcf`` draws each key from its seed alone.

Knowing one block's key, or one round's seed, tells nothing of any other.

``STREAM_LAYOUT`` is the layout's number; the transcript and trapdoor-store
headers state it as their ``version``.  Layout v3 moved only the private
coins from v2, whose public and device streams it keeps byte for byte.
Layout v4 keeps v3's streams and seeds, and the ideal keys drawn from them;
it moved only the toy-lattice keys, now drawn in systematic form.  Layout
v5 keeps v4's public coins, round seeds and keys byte for byte; it moved
only the device's draws, now one array a message for a whole block
(``devices``).  Layout v6 keeps v5's streams, seeds, ideal keys and device
draws; it moved only the toy-lattice keys at q > 2, whose values are now
their words mod q (``etcf.keygen_toy``).  Layout v7 keeps v6's streams,
seeds, toy-lattice keys and device draws; it moved only the ideal keys, now
keyed permutations of their seeds' words in place of argsorted tables
(``etcf._permute``).  Layout v8 keeps v7's domain, stream ids, key
derivation and per-round seed rule; it moved only the block length, from
256 rounds to 2,048.  Layout v9 keeps v8's streams, seeds, device draws,
toy-lattice keys and claw-free ideal keys; it moved only the injective
ideal keys, now f_b(x) = P(b 2**w + x) with the claw-free keys' P
(``etcf._claws``).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

# Rounds per block.  Part of the layout: changing it changes every session.
STREAM_BLOCK = 2048
STREAM_LAYOUT = 9
SEED_BYTES = 16  # a round's private seed
DOMAIN = b"cdiqkd stream layout v2"  # v3 to v9 keep it, and with it v2's stream keys
PUBLIC, PRIVATE, DEVICE = 0, 1, 2


class Block(NamedTuple):
    """A stream block's rounds ``start..stop-1``, its public and device generators and its
    rounds' seeds."""

    start: int
    stop: int
    public: np.random.Generator
    seeds: bytes  # SEED_BYTES a round
    device: np.random.Generator


def session_words(master: np.random.SeedSequence) -> bytes:
    """The 32 bytes of a session's ``SeedSequence`` that key all its streams."""
    return master.generate_state(8, np.uint32).astype("<u4").tobytes()


def block_key(words: bytes, stream: int, block: int) -> np.ndarray:
    """The key K (two uint64 words) of one stream of one block."""
    import hashlib  # loads OpenSSL: paid by the first session, not by every import

    digest = hashlib.sha256(
        DOMAIN + words + stream.to_bytes(1, "little") + block.to_bytes(8, "little")
    ).digest()
    return np.frombuffer(digest[:16], dtype="<u8").astype(np.uint64)


def block_streams(master: np.random.SeedSequence, rounds: int) -> Iterator[Block]:
    """The blocks of a ``rounds``-round session, in order."""
    import hashlib

    words = session_words(master)
    for block, start in enumerate(range(0, rounds, STREAM_BLOCK)):
        stop = min(start + STREAM_BLOCK, rounds)
        public, device = (
            np.random.Generator(np.random.Philox(key=block_key(words, stream, block)))
            for stream in (PUBLIC, DEVICE)
        )
        private = block_key(words, PRIVATE, block).astype("<u8").tobytes()
        seeds = hashlib.shake_128(private).digest(SEED_BYTES * (stop - start))
        yield Block(start, stop, public, seeds, device)

