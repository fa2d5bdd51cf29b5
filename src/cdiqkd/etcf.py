"""Extended trapdoor claw-free (ETCF) function families.

Two instantiations behind one interface:

- ``ideal``: explicit random tables.  A claw-free pair is a uniformly
  random perfect matching of the two domain copies, mapped injectively to
  random distinct codomain points (exactly 2-to-1).  An injective pair is
  a uniformly random injective map whose two branch images land in
  disjoint codomain halves.  Properties hold exactly, so an honest device
  wins with probability exactly 1.

- ``toy-lattice``: noise-free linear maps mod a prime q.  Claw-free:
  f_b(x) = A x + b (A s); the claw partner of x under branch 1 is x - s.
  Injective: f_b(x) = A x + b u with u outside the column space of A.
  A is drawn in systematic form [I_n; R], the canonical form of a uniform
  full-rank key up to a relabeling of the domain and of the rows (as with
  Micciancio's Hermite-normal-form keys, CaLC 2001).  So A has full column
  rank, and the x with A x = y is y's first n coordinates.  Functionally an
  ETCF, deliberately offering no hardness (adversaries in this simulator
  are scripted, not computational).

Every key is drawn from a 64-bit key seed alone: its words are the
SplitMix64 outputs of the seed (``key_words``), an ideal key's tables are
argsorts of them, and a toy-lattice key's entries are them masked and kept
below q.  So any seed yields a key its family draws, and the seed is all a
trapdoor store keeps of a key.  Each family draws a list of keys as arrays
at once (``keygen_ideal``, ``keygen_toy``), and ``keygen`` is their one-key
case.  Keys and trapdoors are immutable plain data; a trapdoor holds its
key.

Domain and codomain elements cross module boundaries as fixed-width bit
strings packed into ints (lattice vectors via little-endian per-coordinate
encoding), because the downstream phase arithmetic is a bit-string inner
product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bits import exact_int, fits


class KeyKind(Enum):
    """Claw-free pairs back Hadamard state bases; injective pairs back computational."""

    CLAW_FREE = "claw_free"
    INJECTIVE = "injective"


class NoPreimageError(ValueError):
    """Raised by trapdoor inversion when the point is outside the image."""


@dataclass(frozen=True)
class EtcfParams:
    """Parameters for either family.

    ``family`` is "ideal" (uses ``domain_bits``) or "toy-lattice" (uses the
    lattice dimensions ``n``, ``m`` and prime modulus ``q``).  ``validate``
    takes each size the family uses only as an ``int``, never a ``bool``.
    """

    family: str = "ideal"
    domain_bits: int = 4
    n: int = 3
    m: int = 6
    q: int = 17

    def validate(self) -> None:
        if self.family == "ideal":
            exact_int(self.domain_bits, "domain_bits")
            if not 2 <= self.domain_bits <= 16:
                raise ValueError(f"domain_bits must be in 2..16, got {self.domain_bits}")
        elif self.family == "toy-lattice":
            for name in ("n", "m", "q"):
                exact_int(getattr(self, name), name)
            if self.n < 1:
                raise ValueError("lattice dimension n must be positive")
            if self.m < 2 * self.n:
                raise ValueError(f"m must be at least 2*n, got m={self.m}, n={self.n}")
            # Devices draw codomain messages as int64, and A x stays exact in int64;
            # checked first, as the primality test would stall on a huge q.
            if self.m * _coord_bits(self.q) > 63:
                raise ValueError(f"m * ceil(log2 q) must be at most 63, got m={self.m}, q={self.q}")
            if not _is_prime(self.q):
                raise ValueError(f"q must be prime, got {self.q}")
        else:
            raise ValueError(f"unknown ETCF family {self.family!r}")


@functools.lru_cache(maxsize=64)  # a run validates its params in its config and its session
def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    for p in range(2, int(math.isqrt(v)) + 1):
        if v % p == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Ideal table-based family
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealKeyPair:
    """Public evaluation tables for the ideal family.

    ``tables[b][x]`` is f_b(x).  Codomain width is domain_bits + 2 for both
    kinds: wide enough that the two branch images of an injective pair fit
    in disjoint halves, that every pair leaves non-image points (so invalid
    commitments are detectable), and that key material does not reveal the
    kind by its width.
    """

    kind: KeyKind
    domain_bits: int
    tables: np.ndarray  # shape (2, 2**domain_bits)

    @property
    def codomain_bits(self) -> int:
        return self.domain_bits + 2

    def in_domain(self, x: int) -> bool:
        return fits(x, self.domain_bits)

    def evaluate(self, b: int, x: int) -> int:
        if not fits(b, 1):
            raise ValueError(f"branch bit must be 0/1, got {b}")
        if not self.in_domain(x):
            raise ValueError(f"{x} outside the {self.domain_bits}-bit domain")
        return int(self.tables[b, x])


# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): word j >= 1 of a key seed is mix(seed + j * gamma).
# The constants are 0-d arrays, which numpy reads faster than scalars.
_GAMMA, _SHIFT_30, _SHIFT_27, _SHIFT_31, _MIX_1, _MIX_2 = (
    np.array(value, dtype=np.uint64)
    for value in (0x9E3779B97F4A7C15, 30, 27, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)
# Key words one keygen step holds at most, one key's at least: a block's
# keygen temporaries stay this small whatever its keys' number or width.
_CHUNK_WORDS = 1 << 12


@functools.lru_cache(maxsize=16)
def _steps(first: int, count: int) -> np.ndarray:
    steps = np.arange(first, first + count, dtype=np.uint64)
    steps *= _GAMMA
    steps.flags.writeable = False  # one cached array serves every caller
    return steps


def _mix(words: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, a bijection of the uint64s, applied in place."""
    temp = np.empty_like(words)
    for shift, multiplier in ((_SHIFT_30, _MIX_1), (_SHIFT_27, _MIX_2), (_SHIFT_31, None)):
        np.right_shift(words, shift, temp)
        np.bitwise_xor(words, temp, words)
        if multiplier is not None:
            np.multiply(words, multiplier, words)
    return words


def key_words(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """Words ``first .. first+count-1`` of each uint64 key seed, one row per seed,
    mixed ``_CHUNK_WORDS`` at a time.  A key's words never repeat.
    """
    words = seeds[:, None] + _steps(first, count)
    flat = words.reshape(-1)
    for lo in range(0, flat.size, _CHUNK_WORDS):
        _mix(flat[lo:lo + _CHUNK_WORDS])
    return words


def _claw_free_tables(words: np.ndarray, size: int, tables: np.ndarray) -> None:
    """The matching is the argsort of words 1..2**w; f_0 is the first 2**w entries of
    the argsort of the next 4 * 2**w words, and f_1(matching[x0]) = f_0(x0)."""
    matching = words[:, :size].argsort(axis=1)
    image = words[:, size:].argsort(axis=1)[:, :size]
    tables[:, 0] = image
    tables[np.arange(len(words))[:, None], 1, matching] = image


def _injective_tables(words: np.ndarray, size: int, tables: np.ndarray) -> None:
    """Word 1's low bit picks the branch in the low codomain half; each branch's image is
    the first 2**w entries of the argsort of the next 2 * 2**w words, in its half."""
    branch_0_high = (words[:, :1] & np.uint64(1)).astype(np.int64) * (2 * size)
    for b, offset in ((0, branch_0_high), (1, 2 * size - branch_0_high)):
        image = words[:, 1 + 2 * b * size:1 + 2 * (b + 1) * size].argsort(axis=1)[:, :size]
        np.add(image, offset, tables[:, b])


def keygen_ideal(kinds: list[KeyKind], domain_bits: int, seeds: np.ndarray) -> list[Trapdoor]:
    """The trapdoor of an ideal key of each of ``kinds``, in order, drawn from its uint64
    key seed in ``seeds``.  A key's tables are a view of its kind's (keys, 2, 2**w) array.
    """
    size = 1 << domain_bits
    step = max(1, _CHUNK_WORDS // (5 * size))
    trapdoors: list = [None] * len(kinds)
    draws = ((KeyKind.CLAW_FREE, _claw_free_tables), (KeyKind.INJECTIVE, _injective_tables))
    for kind, draw in draws:
        where = [i for i, k in enumerate(kinds) if k is kind]
        tables = np.empty((len(where), 2, size), dtype=np.int64)
        for lo in range(0, len(where), step):
            draw(key_words(seeds[where[lo:lo + step]], 1, 5 * size), size, tables[lo:lo + step])
        for i, key_tables in zip(where, tables):
            trapdoors[i] = Trapdoor(IdealKeyPair(kind, domain_bits, key_tables))
    return trapdoors


# ---------------------------------------------------------------------------
# Toy lattice family (noise-free, no hardness)
# ---------------------------------------------------------------------------


def _coord_bits(q: int) -> int:
    return (q - 1).bit_length()


def encode_vector(vec: np.ndarray, q: int) -> int:
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


@dataclass(frozen=True, eq=False)
class ToyLatticeKeyPair:
    """Public matrix A = [I_n; R] in systematic form and shift vector (A s for
    claw-free, u for injective).
    """

    kind: KeyKind
    n: int
    m: int
    q: int
    matrix: np.ndarray  # (m, n) mod q, its first n rows the identity
    shift: np.ndarray  # (m,) mod q

    @property
    def domain_bits(self) -> int:
        return self.n * _coord_bits(self.q)

    @property
    def codomain_bits(self) -> int:
        return self.m * _coord_bits(self.q)

    def in_domain(self, x: int) -> bool:
        return fits(x, self.domain_bits) and decode_vector(x, self.n, self.q) is not None

    def evaluate(self, b: int, x: int) -> int:
        if not fits(b, 1):
            raise ValueError(f"branch bit must be 0/1, got {b}")
        vec = decode_vector(x, self.n, self.q) if fits(x, self.domain_bits) else None
        if vec is None:
            raise ValueError(f"{x} does not encode a vector in the domain")
        y = (self.matrix @ vec + b * self.shift) % self.q
        return encode_vector(y, self.q)


def _toy_words(count: int, q: int) -> int:
    """Words a row reads for ``count`` values mod q: their mean number plus four
    standard deviations.  One row in 1,200 to 2,000 fell short and read more (seeds
    0 to 199,999, (n, m, q) = (3, 6, 17), (2, 4, 3) and (1, 3, 7), either kind)."""
    rate = q / (1 << _coord_bits(q))  # the share of masked words kept
    return int(np.ceil((count + 4 * (count * (1 - rate)) ** 0.5) / rate))


def _toy_values(seeds: np.ndarray, read: np.ndarray, count: int, q: int):
    """(values, read): the next ``count`` values mod q of each uint64 key seed after the
    ``read`` words it has read, and the words read up to the last value taken.  A value
    is a word masked to ceil(log2 q) bits and kept if below q.  A row with too few kept
    values reads as many words again, and only such rows do.
    """
    mask = np.uint64((1 << _coord_bits(q)) - 1)
    starts = seeds + read.astype(np.uint64) * _GAMMA  # word j of a start is word read + j
    values = np.empty((len(seeds), count), dtype=np.int64)
    read = read.copy()
    rows = np.arange(len(seeds))
    words = key_words(starts, 1, _toy_words(count, q))
    words &= mask
    while rows.size:
        keep = words < q
        kept = np.cumsum(keep, axis=1, dtype=np.int32)  # values up to each word
        done = kept[:, -1] >= count
        keep &= (kept <= count) & done[:, None]  # the first count values of a full row
        values[rows[done]] = words[keep].reshape(-1, count)
        read[rows[done]] += (kept[done] < count).sum(axis=1) + 1
        rows, words = rows[~done], words[~done]
        if rows.size:
            more = key_words(starts[rows], 1 + words.shape[1], words.shape[1])
            more &= mask
            words = np.concatenate([words, more], axis=1)
    return values, read


def _in_column_space(matrices: np.ndarray, ys: np.ndarray, q: int) -> np.ndarray:
    """Whether A y[:n] = y mod q, for each (A, y) of a stack: A = [I; R] maps y[:n] to y
    exactly when y is in its column space."""
    return ~np.any(((matrices @ ys[:, :matrices.shape[2], None])[..., 0] - ys) % q, axis=1)


def keygen_toy(kinds: list[KeyKind], params: EtcfParams, seeds: np.ndarray) -> list[Trapdoor]:
    """The trapdoor of a toy-lattice key of each of ``kinds``, in order, drawn from its
    uint64 key seed in ``seeds``.  A key's values mod q are its seed's words masked to
    ceil(log2 q) bits, those below q kept, in order.  R is the first (m - n) * n values,
    row-major, and A = [I_n; R]; then s (n values), or u (m values, and the next m while
    u is in A's column space).  A key's arrays are rows of its kind's stacks: products
    on them took as long as on owned copies (``evaluate`` 12.2 us on either, ``invert``
    14-20 us on either, 512 keys at the default sizes, best of 5, three runs).
    """
    n, m, q = params.n, params.m, params.q
    entries = (m - n) * n  # of R
    trapdoors: list = [None] * len(kinds)
    for kind, tail in ((KeyKind.CLAW_FREE, n), (KeyKind.INJECTIVE, m)):
        where = [i for i, k in enumerate(kinds) if k is kind]
        matrices = np.empty((len(where), m, n), dtype=np.int64)
        matrices[:, :n] = np.eye(n, dtype=np.int64)
        tails = np.empty((len(where), tail), dtype=np.int64)  # s or u
        step = max(1, _CHUNK_WORDS // _toy_words(entries + tail, q))
        for lo in range(0, len(where), step):
            chunk_seeds = seeds[where[lo:lo + step]]
            unread = np.zeros(len(chunk_seeds), dtype=np.int64)
            values, read = _toy_values(chunk_seeds, unread, entries + tail, q)
            chunk_matrices, chunk_tails = matrices[lo:lo + step], tails[lo:lo + step]
            chunk_matrices[:, n:] = values[:, :entries].reshape(-1, m - n, n)
            chunk_tails[:] = values[:, entries:]
            if kind is KeyKind.INJECTIVE:  # u must leave the column space
                redo = np.flatnonzero(_in_column_space(chunk_matrices, chunk_tails, q))
                while redo.size:
                    chunk_tails[redo], read[redo] = _toy_values(chunk_seeds[redo], read[redo], m, q)
                    redo = redo[_in_column_space(chunk_matrices[redo], chunk_tails[redo], q)]
        if kind is KeyKind.CLAW_FREE:
            shifts = np.matmul(matrices, tails[..., None])[..., 0]
            np.remainder(shifts, q, out=shifts)
            secrets = tails
        else:
            shifts, secrets = tails, [None] * len(where)
        for i, matrix, shift, secret in zip(where, matrices, shifts, secrets):
            trapdoors[i] = Trapdoor(ToyLatticeKeyPair(kind, n, m, q, matrix, shift), secret)
    return trapdoors


def _solve(key: ToyLatticeKeyPair, y: np.ndarray):
    """The x with A x = y over Z_q: A = [I; R], so x is y's first n coordinates, kept
    if R x is y's rest; None when y is outside the column space of A."""
    x = y[:key.n]
    return None if np.any((key.matrix @ x - y) % key.q) else x


# ---------------------------------------------------------------------------
# Family-agnostic operations
# ---------------------------------------------------------------------------

EtcfKeyPair = IdealKeyPair | ToyLatticeKeyPair


@dataclass(frozen=True, eq=False)
class Trapdoor:
    """Private inversion data of one key: the key itself plus, for claw-free
    toy-lattice keys, the claw secret s (None otherwise).  An ideal key's
    tables are its trapdoor, so they are not held twice.
    """

    key: EtcfKeyPair
    secret: np.ndarray | None = None


def keygen(kind: KeyKind, params: EtcfParams, seed):
    """(public key pair, trapdoor) of ``kind`` drawn from a uint64 key ``seed``, or from
    one drawn from ``seed`` when it is a ``Generator``.  ``params`` must be valid: a
    session or a replay validates its family once, not at each key.
    """
    if isinstance(seed, np.random.Generator):
        seed = seed.integers(2**64, dtype=np.uint64)
    seeds = np.array([seed], dtype=np.uint64)
    if params.family == "ideal":
        trapdoor = keygen_ideal([kind], params.domain_bits, seeds)[0]
    else:
        trapdoor = keygen_toy([kind], params, seeds)[0]
    return trapdoor.key, trapdoor


def evaluate(key: EtcfKeyPair, b: int, x: int) -> int:
    return key.evaluate(b, x)


def invert(trapdoor: Trapdoor, y: int):
    """Trapdoor inversion.

    Claw-free keys return the claw (x0, x1); injective keys return
    (b_hat, x_hat).  Raises NoPreimageError when y is outside the image.
    """
    key = trapdoor.key
    if not fits(y, key.codomain_bits):
        raise NoPreimageError(f"{y} outside the codomain")
    if isinstance(key, IdealKeyPair):
        x0, x1 = _ideal_preimage(key, 0, y), _ideal_preimage(key, 1, y)
        if key.kind is KeyKind.CLAW_FREE:
            if x0 is None or x1 is None:
                raise NoPreimageError(f"{y} has no preimage")
            return x0, x1
        if x0 is not None:
            return 0, x0
        if x1 is not None:
            return 1, x1
        raise NoPreimageError(f"{y} has no preimage")
    vec = decode_vector(y, key.m, key.q)
    if vec is None:
        raise NoPreimageError(f"{y} does not encode a codomain vector")
    if key.kind is KeyKind.CLAW_FREE:
        x0 = _solve(key, vec)
        if x0 is None:
            raise NoPreimageError(f"{y} has no preimage")
        x1 = (x0 - trapdoor.secret) % key.q
        return encode_vector(x0, key.q), encode_vector(x1, key.q)
    for b in (0, 1):
        x = _solve(key, (vec - b * key.shift) % key.q)
        if x is not None:
            return b, encode_vector(x, key.q)
    raise NoPreimageError(f"{y} has no preimage")


def _ideal_preimage(key: IdealKeyPair, b: int, y: int) -> int | None:
    """The x with f_b(x) = y, by a scan of branch b's table; None if there is none."""
    hits = np.flatnonzero(key.tables[b] == y)
    return int(hits[0]) if hits.size else None


def check_preimage(key: EtcfKeyPair, z: int, c: int) -> bool:
    """True iff z = (b || x) satisfies f_b(x) = c.

    The first bit of z selects the branch, the remainder is the domain
    element.  Raises on a z outside the (1 + domain_bits)-wide range; a z
    whose remainder is not a valid domain encoding simply fails the check.
    """
    if not fits(z, 1 + key.domain_bits):
        raise ValueError(f"malformed z: not a {1 + key.domain_bits}-bit string")
    b, x = z & 1, z >> 1
    if not key.in_domain(x):
        return False
    return bool(key.evaluate(b, x) == c)


def claw_partner(key: EtcfKeyPair, b: int, x: int) -> int:
    """The other claw member, recovered from public key material only.

    For these desk-scale families the claw is publicly computable (table
    scan, or s read off the shift A s); this stands in for the claw an
    honest device holds in superposition.  Trapdoors never enter here.
    """
    if key.kind is not KeyKind.CLAW_FREE:
        raise ValueError("claw_partner is defined for claw-free keys only")
    if isinstance(key, IdealKeyPair):
        return _ideal_preimage(key, 1 - b, key.evaluate(b, x))
    # Noise-free instance in systematic form: the shift A s begins with s.
    secret = key.shift[:key.n]
    vec = decode_vector(x, key.n, key.q)
    if vec is None:
        raise ValueError(f"{x} does not encode a vector in the domain")
    partner = (vec - secret) % key.q if b == 0 else (vec + secret) % key.q
    return encode_vector(partner, key.q)


def image(key: EtcfKeyPair) -> set[int]:
    """The image of the pair, by exhaustive evaluation.  Desk scale only."""
    if isinstance(key, IdealKeyPair):
        return set(int(v) for v in key.tables.ravel())
    points = set()
    for b in (0, 1):
        for x in _domain_iter(key):
            points.add(key.evaluate(b, x))
    return points


def _domain_iter(key: ToyLatticeKeyPair):
    cb = _coord_bits(key.q)
    for packed in range(key.q ** key.n):
        vec = np.empty(key.n, dtype=np.int64)
        rest = packed
        for i in range(key.n):
            vec[i] = rest % key.q
            rest //= key.q
        yield encode_vector(vec, key.q)
