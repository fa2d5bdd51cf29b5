"""Per-block random streams, stream layout v2.

A session's rounds fall into blocks of ``STREAM_BLOCK`` (the last block may
be shorter).  Block k draws from three counter-based streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), each a
``Generator(Philox(key=K))`` whose 128-bit key K is the first 16 bytes of

    SHA-256(DOMAIN || session words || stream id || k)

read as two little-endian uint64 words.  The session words are the 32
bytes ``master.generate_state(8)`` of the session's ``SeedSequence``
(little-endian uint32s), which reads the sequence without advancing it;
the stream id is one byte and k eight little-endian bytes.  The streams:

- ``PUBLIC``: the verifiers' public coins;
- ``PRIVATE``: the verifiers' private coins, the ETCF key material;
- ``DEVICE``: the device.

Knowing one block's key tells nothing of any other stream or block.

``STREAM_LAYOUT`` is the layout's number.  It is part of ``DOMAIN``, and the
transcript and trapdoor-store headers state it as their ``version``.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

# Rounds per block.  Part of the layout: changing it changes every session.
STREAM_BLOCK = 256
STREAM_LAYOUT = 2
DOMAIN = f"cdiqkd stream layout v{STREAM_LAYOUT}".encode()
PUBLIC, PRIVATE, DEVICE = 0, 1, 2


class Block(NamedTuple):
    """Rounds ``start..stop-1`` and the three generators they draw from."""

    start: int
    stop: int
    public: np.random.Generator
    private: np.random.Generator
    device: np.random.Generator


def session_words(master: np.random.SeedSequence) -> bytes:
    """The 32 bytes of a session's ``SeedSequence`` that key all its streams."""
    return master.generate_state(8, np.uint32).astype("<u4").tobytes()


def block_key(words: bytes, stream: int, block: int) -> np.ndarray:
    """The Philox key (two uint64 words) of one stream of one block."""
    import hashlib  # loads OpenSSL: paid by the first session, not by every import

    digest = hashlib.sha256(
        DOMAIN + words + stream.to_bytes(1, "little") + block.to_bytes(8, "little")
    ).digest()
    return np.frombuffer(digest[:16], dtype="<u8").astype(np.uint64)


def block_streams(master: np.random.SeedSequence, rounds: int) -> Iterator[Block]:
    """The blocks of a ``rounds``-round session, in order."""
    words = session_words(master)
    for block, start in enumerate(range(0, rounds, STREAM_BLOCK)):
        public, private, device = (
            np.random.Generator(np.random.Philox(key=block_key(words, stream, block)))
            for stream in (PUBLIC, PRIVATE, DEVICE)
        )
        yield Block(start, min(start + STREAM_BLOCK, rounds), public, private, device)
