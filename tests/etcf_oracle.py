"""The scalar ETCF maps: each family's law stated one key and one point at a time, on
Python ints, as the reference the batch maps of ``cdiqkd.etcf`` (``DrawnKeys.claws``,
``check_preimages``, ``preimages``) and the one-key calls built on them are tested
against.

Only plain data comes from ``cdiqkd.etcf``: the key classes, their kinds, the
parameters, the inversion error and ``fits``.  An ideal key's permutations are
recomputed here from its seed's SplitMix64 words, and a toy-lattice key's maps from
its matrix and shift, so no code of the batch maps is shared.
"""

from __future__ import annotations

import numpy as np

from cdiqkd.etcf import IdealKeyPair, KeyKind, NoPreimageError, ToyLatticeKeyPair, fits

MASK64 = 2**64 - 1
GAMMA, MIX_1, MIX_2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# Feistel rounds of every ideal-key permutation, as etcf documents them.
ROUNDS = 8


def _permute_one(seed: int, first: int, bits: int, value: int, inverse: bool) -> int:
    """P(value), or P^-1(value), of the keyed permutation of the ``bits``-bit strings
    whose round words begin at word ``first`` of ``seed``: a Feistel network of
    ``ROUNDS`` rounds on (L, R), L the high bits // 2 bits, round r mapping (L, R) to
    (R, L xor F), F the top |L| bits of word first + r * 2**ceil(bits / 2) + R.  Word j
    of a seed is SplitMix64's j-th output, mix(seed + j * gamma), whose top bits are
    those of its mix before the last xorshift, which moves only its low 33."""
    low = bits - bits // 2
    left, right, shifts = value >> low, value & ((1 << low) - 1), (64 - bits + low, 64 - low)
    rounds = range(ROUNDS)
    if inverse:
        left, right, shifts, rounds = right, left, shifts[::-1], reversed(rounds)
    for r in rounds:
        word = (seed + (first + (r << low) + right) * GAMMA) & MASK64
        word = ((word ^ word >> 30) * MIX_1) & MASK64
        word = ((word ^ word >> 27) * MIX_2) & MASK64
        left, right, shifts = right, left ^ word >> shifts[0], shifts[::-1]
    if inverse:
        left, right = right, left
    return left << low | right


def _m_first(domain_bits: int) -> int:
    """The word at which a claw-free key's M begins: its P of the codomain takes the
    words from word 1 on, 2**ceil((w + 2) / 2) a round."""
    return 1 + (ROUNDS << (domain_bits + 3) // 2)


def _claws_at(key: IdealKeyPair, b: int, x: int) -> tuple[int, int]:
    """(f_b(x), partner) of an ideal key at one branch bit and domain point, each
    checked, on Python ints."""
    if not fits(b, 1):
        raise ValueError(f"branch bit must be 0/1, got {b}")
    if not key.in_domain(x):
        raise ValueError(f"{x} outside the {key.domain_bits}-bit domain")
    b, x, w, seed = int(b), int(x), key.domain_bits, key.seed
    if key.kind is KeyKind.INJECTIVE:
        return _permute_one(seed, 1, w + 2, b << w | x, False), 0
    partner = _permute_one(seed, _m_first(w), w, x, b == 1)
    return _permute_one(seed, 1, w + 2, partner if b else x, False), partner


def _preimage(key: IdealKeyPair, c: int):
    """``invert`` of a codomain point ``c`` under an ideal key, on Python ints: the claw
    (x0, x1), or (b, x) for an injective key; None if ``c`` has no preimage."""
    w, seed = key.domain_bits, key.seed
    v = _permute_one(seed, 1, w + 2, c, True)
    if key.kind is KeyKind.INJECTIVE:
        return (v >> w, v & ((1 << w) - 1)) if v >> w < 2 else None
    return (v, _permute_one(seed, _m_first(w), w, v, False)) if v >> w == 0 else None


def _coord_bits(q: int) -> int:
    return (q - 1).bit_length()


def encode_vector(vec, q: int) -> int:
    """Pack a mod-q vector into an int, little-endian bits per coordinate."""
    cb = _coord_bits(q)
    value = 0
    for i, coord in enumerate(vec):
        value |= int(coord) << (i * cb)
    return value


def decode_vector(value: int, length: int, q: int) -> np.ndarray | None:
    """Inverse of encode_vector; None if any coordinate decodes to >= q."""
    cb = _coord_bits(q)
    mask = (1 << cb) - 1
    out = np.empty(length, dtype=np.int64)
    for i in range(length):
        coord = (value >> (i * cb)) & mask
        if coord >= q:
            return None
        out[i] = coord
    if value >> (length * cb):
        return None
    return out


def _toy_evaluate(key: ToyLatticeKeyPair, b: int, x: int) -> int:
    if not fits(b, 1):
        raise ValueError(f"branch bit must be 0/1, got {b}")
    vec = decode_vector(x, key.n, key.q) if fits(x, key.domain_bits) else None
    if vec is None:
        raise ValueError(f"{x} does not encode a vector in the domain")
    y = (key.matrix @ vec + b * key.shift) % key.q
    return encode_vector(y, key.q)


def _solve(key: ToyLatticeKeyPair, y: np.ndarray):
    """The x with A x = y over Z_q: A = [I; R], so x is y's first n coordinates, kept
    if R x is y's rest; None when y is outside the column space of A."""
    x = y[:key.n]
    return None if np.any((key.matrix @ x - y) % key.q) else x


def _in_domain(key, x: int) -> bool:
    if isinstance(key, IdealKeyPair):
        return fits(x, key.domain_bits)
    return fits(x, key.domain_bits) and decode_vector(x, key.n, key.q) is not None


def evaluate(key, b: int, x: int) -> int:
    if isinstance(key, IdealKeyPair):
        return _claws_at(key, b, x)[0]
    return _toy_evaluate(key, b, x)


def invert(key, y: int):
    """Trapdoor inversion: the claw (x0, x1) of a claw-free key, (b_hat, x_hat) of an
    injective one.  Raises NoPreimageError when y is outside the image."""
    if not fits(y, key.codomain_bits):
        raise NoPreimageError(f"{y} outside the codomain")
    if isinstance(key, IdealKeyPair):
        preimage = _preimage(key, int(y))
        if preimage is None:
            raise NoPreimageError(f"{y} has no preimage")
        return preimage
    vec = decode_vector(y, key.m, key.q)
    if vec is None:
        raise NoPreimageError(f"{y} does not encode a codomain vector")
    if key.kind is KeyKind.CLAW_FREE:
        x0 = _solve(key, vec)
        if x0 is None:
            raise NoPreimageError(f"{y} has no preimage")
        x1 = (x0 - key.shift[:key.n]) % key.q  # the shift A s begins with s
        return encode_vector(x0, key.q), encode_vector(x1, key.q)
    for b in (0, 1):
        x = _solve(key, (vec - b * key.shift) % key.q)
        if x is not None:
            return b, encode_vector(x, key.q)
    raise NoPreimageError(f"{y} has no preimage")


def check_preimage(key, z: int, c: int) -> bool:
    """True iff z = (b || x) satisfies f_b(x) = c; raises on a z outside the
    (1 + domain_bits)-wide range, and a remainder outside the domain fails."""
    if not fits(z, 1 + key.domain_bits):
        raise ValueError(f"malformed z: not a {1 + key.domain_bits}-bit string")
    b, x = z & 1, z >> 1
    if not _in_domain(key, x):
        return False
    return bool(evaluate(key, b, x) == c)


def claw_partner(key, b: int, x: int) -> int:
    """The other claw member of a claw-free key: M or its inverse, or x -+ s."""
    if key.kind is not KeyKind.CLAW_FREE:
        raise ValueError("claw_partner is defined for claw-free keys only")
    if isinstance(key, IdealKeyPair):
        return _claws_at(key, b, x)[1]
    secret = key.shift[:key.n]
    vec = decode_vector(x, key.n, key.q)
    if vec is None:
        raise ValueError(f"{x} does not encode a vector in the domain")
    partner = (vec - secret) % key.q if b == 0 else (vec + secret) % key.q
    return encode_vector(partner, key.q)


def _domain_iter(key):
    if isinstance(key, IdealKeyPair):
        yield from range(1 << key.domain_bits)
        return
    for packed in range(key.q ** key.n):
        vec = np.empty(key.n, dtype=np.int64)
        rest = packed
        for i in range(key.n):
            vec[i] = rest % key.q
            rest //= key.q
        yield encode_vector(vec, key.q)


def image(key) -> set[int]:
    """The image of the pair, by exhaustive evaluation.  Desk scale only."""
    return {evaluate(key, b, x) for b in (0, 1) for x in _domain_iter(key)}
