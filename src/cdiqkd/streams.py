"""Per-block random streams, stream layout v7.

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
  uint64 words.  A session plays a batch of stream blocks at once
  (``batches``), each draw split by block: the device is reset once a
  batch with a ``BatchGenerator`` over its blocks' generators, and each of
  its draws is one array with an entry per round (or per round and side)
  of the batch, each block's share drawn from that block's own generator,
  in a fixed order per device kind:

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
So each block's generators give the draws they give with the block played
alone, and how many blocks a batch holds moves no byte.

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
(``etcf._permute``).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

# Rounds per block.  Part of the layout: changing it changes every session.
STREAM_BLOCK = 256
STREAM_LAYOUT = 7
SEED_BYTES = 16  # a round's private seed
DOMAIN = b"cdiqkd stream layout v2"  # v3 to v7 keep it, and with it v2's stream keys
PUBLIC, PRIVATE, DEVICE = 0, 1, 2


class Block(NamedTuple):
    """Rounds ``start..stop-1``, their public and device generators and their seeds: a
    stream block's, or a batch's (``batches``)."""

    start: int
    stop: int
    public: np.random.Generator | BatchGenerator
    seeds: bytes  # SEED_BYTES a round
    device: np.random.Generator | BatchGenerator


class BatchGenerator:
    """One stream of a batch of stream blocks: each block's generator and its length.

    Each draw's ``size`` is a shape with the round as its leading axis, and the draw
    takes each block's share of it from that block's own generator, in order, so each
    generator gives exactly what it gives when its block is played alone.
    """

    def __init__(self, generators: list[np.random.Generator], lengths: list[int]) -> None:
        self.generators, self.lengths = generators, lengths

    def random(self, size):
        return self._draw(lambda rng, share: rng.random(share), size)

    def integers(self, high, size):
        return self._draw(lambda rng, share: rng.integers(high, size=share), size)

    def _draw(self, draw, size) -> np.ndarray:
        rounds, *tail = size
        if rounds != sum(self.lengths):
            raise ValueError(f"a draw for {rounds} rounds from a batch of {sum(self.lengths)}")
        shares = [draw(rng, (length, *tail)) for rng, length in zip(self.generators, self.lengths)]
        return shares[0] if len(shares) == 1 else np.concatenate(shares)


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


def batches(blocks: Iterable[Block], size: int) -> Iterator[Block]:
    """Runs of ``size`` consecutive ``blocks`` (the last may be shorter), each as one
    Block: its blocks' rounds and seeds, and one ``BatchGenerator`` per stream."""
    blocks = iter(blocks)
    while group := list(itertools.islice(blocks, size)):
        lengths = [block.stop - block.start for block in group]
        yield Block(
            group[0].start, group[-1].stop,
            BatchGenerator([block.public for block in group], lengths),
            b"".join(block.seeds for block in group),
            BatchGenerator([block.device for block in group], lengths),
        )
