"""Extended trapdoor claw-free (ETCF) function families.

Two instantiations behind one interface:

- ``ideal``: keyed permutations of small domains, with no table.  Every
  pair has a permutation P of the 2**(w+2) codomain points.  A claw-free
  pair also has a permutation M of the 2**w domain points: f_0(x) = P(x)
  and f_1(x) = f_0(M^-1(x)), exactly 2-to-1, and y has the claw x0 =
  P^-1(y), x1 = M(x0) exactly when x0 < 2**w.  An injective pair has f_b(x)
  = P(b 2**w + x), so its two images are disjoint, and y has the preimage
  (b, x) = (v >> w, v mod 2**w) of v = P^-1(y) exactly when v < 2**(w+1).
  Each permutation is a Feistel network keyed by the seed's words
  (``_permute``), so every evaluation and inversion is a fixed number of
  array operations, whatever w.  Properties hold exactly, so an honest
  device wins with probability exactly 1.

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
SplitMix64 outputs of the seed (``key_words``), an ideal key's Feistel
round functions are their top bits, and a toy-lattice key's entries are
them mod q.  So any seed yields a key its family draws, and the seed is all
a trapdoor store keeps of a key; an ideal key is nothing but its seed.
Each family draws a list of keys as stacked arrays at once
(``keygen_ideal``, ``keygen_toy``), a ``DrawnKeys`` that builds each key
only when it is read and checks and inverts many keys at once;
``draw_keys`` is the one place that picks the family, and ``keygen`` is
its one-key case.  Keys are immutable plain data, and each key is its own
trapdoor: an ideal key's permutations invert it, and a claw-free toy key's
shift A s begins with s.

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
# Ideal family: keyed permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealKeyPair:
    """An ideal key: its kind, its domain width and its 64-bit key seed, which is all
    of it.  f_b(x) and its inverse are keyed permutations of the seed (``_claws``,
    ``_preimages``), evaluated when asked, at one point on Python ints
    (``_claws_at``, ``_preimage``); ``tables`` lists f_0 and f_1 whole.

    Codomain width is domain_bits + 2 for both kinds: wide enough that every pair
    leaves non-image points (so invalid commitments are detectable), and that key
    material does not reveal the kind by its width.
    """

    kind: KeyKind
    domain_bits: int
    seed: int

    @property
    def codomain_bits(self) -> int:
        return self.domain_bits + 2

    def in_domain(self, x: int) -> bool:
        return fits(x, self.domain_bits)

    def evaluate(self, b: int, x: int) -> int:
        return self._claws_at(b, x)[0]

    @functools.cached_property
    def tables(self) -> np.ndarray:
        """(2, 2**domain_bits) int64, read-only: tables[b][x] is f_b(x), computed once
        for inspection."""
        size = 1 << self.domain_bits
        branch, x = np.divmod(np.arange(2 * size), size)
        seeds = np.full(2 * size, self.seed, dtype=np.uint64)
        claw_free = np.full(2 * size, self.kind is KeyKind.CLAW_FREE)
        table = _claws(seeds, claw_free, self.domain_bits, branch, x)[0].reshape(2, size)
        table.flags.writeable = False
        return table

    def _claws_at(self, b: int, x: int) -> tuple[int, int]:
        """``_claws`` of this key at one branch bit and domain point, each checked, on
        Python ints."""
        if not fits(b, 1):
            raise ValueError(f"branch bit must be 0/1, got {b}")
        if not self.in_domain(x):
            raise ValueError(f"{x} outside the {self.domain_bits}-bit domain")
        b, x, w, seed = int(b), int(x), self.domain_bits, self.seed
        if self.kind is KeyKind.INJECTIVE:
            return _permute_one(seed, 1, w + 2, b << w | x, False), 0
        partner = _permute_one(seed, _m_first(w), w, x, b == 1)
        return _permute_one(seed, 1, w + 2, partner if b else x, False), partner

    def _preimage(self, c: int):
        """``invert`` of a codomain point ``c`` under this key, on Python ints: the claw
        (x0, x1), or (b, x) for an injective key; None if ``c`` has no preimage."""
        w, seed = self.domain_bits, self.seed
        v = _permute_one(seed, 1, w + 2, c, True)
        if self.kind is KeyKind.INJECTIVE:
            return (v >> w, v & ((1 << w) - 1)) if v >> w < 2 else None
        return (v, _permute_one(seed, _m_first(w), w, v, False)) if v >> w == 0 else None


# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): word j >= 1 of a key seed is mix(seed + j * gamma).
# The constants are 0-d arrays, which numpy reads faster than scalars.
_GAMMA, _SHIFT_30, _SHIFT_27, _SHIFT_31, _MIX_1, _MIX_2 = (
    np.array(value, dtype=np.uint64)
    for value in (0x9E3779B97F4A7C15, 30, 27, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)
_GAMMA_INT, _MIX_1_INT, _MIX_2_INT, _MASK = (int(v) for v in (_GAMMA, _MIX_1, _MIX_2, 2**64 - 1))
# Toy-lattice key words one keygen step holds at most, one key's at least: a block's
# keygen temporaries stay this small whatever its keys' number or size.
_CHUNK_WORDS = 1 << 12
# Feistel rounds of every keyed permutation: even, so that the halves end as they began.
_ROUNDS = 8


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


def _permute(seeds: np.ndarray, first: int, bits: int, values: np.ndarray,
             inverse=False) -> np.ndarray:
    """P(v), or P^-1(v) where ``inverse`` (one bool, or an array with an entry per key),
    of each key's keyed permutation P of the ``bits``-bit strings whose round words
    begin at word ``first`` of its seed.

    P is a Feistel network (Luby & Rackoff, SIAM J. Comput. 1988) of ``_ROUNDS``
    rounds on v = (L, R), L its high floor(bits / 2) bits and R the rest.  Round r
    maps (L, R) to (R, L xor F_r(R)), F_r(R) the top |L| bits of word first + r *
    2**ceil(bits / 2) + R of the seed; so an odd width alternates the two unequal
    halves (as in Black & Rogaway, CT-RSA 2002), and the top bits of a SplitMix64
    word are those of its mix before the last xorshift, which moves only its low 33.
    A round on halves of two bits or more is an even permutation (Even & Goldreich
    1983); 1-bit halves, as M has at w = 2, reach odd ones too.
    P^-1 runs the rounds from the last, on the halves swapped at each end.  One value
    is permuted on Python ints (``_permute_one``), as one key's scalar calls permute
    theirs (``IdealKeyPair._claws_at``, ``_preimage``): numpy takes about a
    microsecond a call on a one-element array, 100 us a permutation.
    """
    if len(values) == 1:
        inverse = bool(np.asarray(inverse).reshape(-1)[0])
        return np.array([_permute_one(int(seeds[0]), first, bits, int(values[0]), inverse)])
    # The per-call constants are Python ints taken mod 2**64, as uint64 scalar
    # arithmetic would warn where it wraps; uint64 array arithmetic wraps silently.
    low = bits - bits // 2
    step = _GAMMA_INT << low & _MASK
    values = values.astype(np.uint64)
    left, right = values >> np.uint64(low), values & np.uint64((1 << low) - 1)
    shift, other = np.uint64(64 - bits + low), np.uint64(64 - low)  # top-bit shifts: |L|, |R|
    state = seeds + np.uint64(first * _GAMMA_INT & _MASK)
    steps = np.uint64(step)
    swapped = np.asarray(inverse, dtype=bool)
    if swapped.any():  # from the last round's words, halves swapped and each step back
        left, right = np.where(swapped, right, left), np.where(swapped, left, right)
        shift, other = np.where(swapped, other, shift), np.where(swapped, shift, other)
        state += np.where(swapped, np.uint64(step * (_ROUNDS - 1) & _MASK), np.uint64(0))
        steps = np.where(swapped, np.uint64(-step & _MASK), steps)
    word, temp = np.empty_like(left), np.empty_like(left)
    for _ in range(_ROUNDS):
        np.multiply(right, _GAMMA, word)
        np.add(word, state, word)
        for by, multiplier in ((_SHIFT_30, _MIX_1), (_SHIFT_27, _MIX_2)):
            np.right_shift(word, by, temp)
            np.bitwise_xor(word, temp, word)
            np.multiply(word, multiplier, word)
        np.right_shift(word, shift, word)
        np.bitwise_xor(left, word, left)
        left, right, shift, other = right, left, other, shift
        np.add(state, steps, state)
    if swapped.any():
        left, right = np.where(swapped, right, left), np.where(swapped, left, right)
    return ((left << np.uint64(low)) | right).astype(np.int64)


def _permute_one(seed: int, first: int, bits: int, value: int, inverse: bool) -> int:
    """``_permute`` of one value, on Python ints."""
    low = bits - bits // 2
    left, right, shifts = value >> low, value & ((1 << low) - 1), (64 - bits + low, 64 - low)
    rounds = range(_ROUNDS)
    if inverse:
        left, right, shifts, rounds = right, left, shifts[::-1], reversed(rounds)
    for r in rounds:
        word = (seed + (first + (r << low) + right) * _GAMMA_INT) & _MASK
        word = ((word ^ word >> 30) * _MIX_1_INT) & _MASK
        word = ((word ^ word >> 27) * _MIX_2_INT) & _MASK
        left, right, shifts = right, left ^ word >> shifts[0], shifts[::-1]
    if inverse:
        left, right = right, left
    return left << low | right


def _m_first(domain_bits: int) -> int:
    """The word at which a claw-free key's M begins: its P of the codomain takes the
    words from word 1 on, 2**ceil((w + 2) / 2) a round."""
    return 1 + (_ROUNDS << (domain_bits + 3) // 2)


def _claws(seeds: np.ndarray, claw_free: np.ndarray, domain_bits: int, branch: np.ndarray,
           x: np.ndarray):
    """(f_b(x), partner) for each key, its branch bit b and its domain point x: a
    claw-free key's partner is the x' with f_{1-b}(x') = f_b(x), an injective key's 0.

    A claw-free key has f_0(x) = P(x) and f_1(x) = P(M^-1(x)), so the partner is M(x)
    for b = 0 and M^-1(x) for b = 1.  An injective key has f_b(x) = P(b 2**w + x).
    """
    points = branch << domain_bits | x
    partners = np.zeros(len(x), dtype=np.int64)
    cf = np.flatnonzero(claw_free)
    if cf.size:
        ones = branch[cf] == 1
        partners[cf] = _permute(seeds[cf], _m_first(domain_bits), domain_bits, x[cf], ones)
        points[cf] = np.where(ones, partners[cf], x[cf])
    return _permute(seeds, 1, domain_bits + 2, points), partners


def _preimages(seeds: np.ndarray, claw_free: np.ndarray, domain_bits: int, c: np.ndarray):
    """(hits, x) of ``DrawnKeys.preimages`` for ideal keys, from v = P^-1(c): a
    claw-free key has the claw x0 = v, x1 = M(v) when v < 2**w, an injective key
    the preimage v mod 2**w under branch v >> w when v < 2**(w+1)."""
    v = _permute(seeds, 1, domain_bits + 2, c, True)
    branch = v >> domain_bits
    hits = np.zeros((len(c), 2), dtype=bool)
    x = np.zeros((len(c), 2), dtype=np.int64)
    inj = np.flatnonzero(~claw_free & (branch < 2))
    hits[inj, branch[inj]] = True
    x[inj, branch[inj]] = v[inj] & ((1 << domain_bits) - 1)
    cf = np.flatnonzero(claw_free & (branch == 0))
    if cf.size:
        hits[cf] = True
        x[cf, 0] = v[cf]
        x[cf, 1] = _permute(seeds[cf], _m_first(domain_bits), domain_bits, v[cf])
    return hits, x


def ideal_claws(keys: DrawnKeys, branch: np.ndarray, x: np.ndarray):
    """``_claws`` of each of a block's ideal keys, at its branch bit and domain point."""
    return _claws(keys.arrays[0], keys.claw_free, keys.params.domain_bits, branch, x)


def _claw_free(kinds) -> np.ndarray:
    """``kinds``, key kinds or a bool array True where a key is claw-free, as that array."""
    if isinstance(kinds, np.ndarray):
        return kinds
    return np.fromiter((kind is KeyKind.CLAW_FREE for kind in kinds), bool, len(kinds))


def _rows_by_kind(claw_free: np.ndarray) -> dict[KeyKind, np.ndarray]:
    """The indices of the keys of each kind, from the claw-free mask."""
    return {KeyKind.CLAW_FREE: np.flatnonzero(claw_free),
            KeyKind.INJECTIVE: np.flatnonzero(~claw_free)}


def keygen_ideal(kinds, domain_bits: int, seeds: np.ndarray) -> DrawnKeys:
    """An ideal key of each of ``kinds`` (key kinds, or a claw-free mask), in order:
    its uint64 key seed in ``seeds``, which is the whole key."""
    return DrawnKeys(EtcfParams("ideal", domain_bits), _claw_free(kinds), (seeds,))


# ---------------------------------------------------------------------------
# Toy lattice family (noise-free, no hardness)
# ---------------------------------------------------------------------------


def _coord_bits(q: int) -> int:
    return (q - 1).bit_length()


def key_widths(params: EtcfParams) -> tuple[int, int]:
    """(domain_bits, codomain_bits) of every key of the family and sizes ``params`` name."""
    if params.family == "ideal":
        return params.domain_bits, params.domain_bits + 2
    return params.n * _coord_bits(params.q), params.m * _coord_bits(params.q)


def encode_vector(vec: np.ndarray, q: int) -> int:
    """Pack a mod-q vector into an int, little-endian bits per coordinate."""
    cb = _coord_bits(q)
    value = 0
    for i, coord in enumerate(vec):
        value |= int(coord) << (i * cb)
    return value


def encode_vectors(vectors: np.ndarray, q: int) -> np.ndarray:
    """encode_vector of each vector along the last axis of an int64 array, as int64s:
    a codomain point takes at most 63 bits (``EtcfParams.validate``)."""
    shifts = np.arange(vectors.shape[-1], dtype=np.int64) * _coord_bits(q)
    return (vectors << shifts).sum(axis=-1)


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
    claw-free, u for injective).  A claw-free shift begins with s, its first n
    coordinates, so the key is its own trapdoor.
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


def _in_column_space(lower: np.ndarray, ys: np.ndarray, q: int) -> np.ndarray:
    """Whether y is in the column space of A = [I; R], for each (R, y) of a stack: A
    maps y[:n] to y exactly when R y[:n] = y[n:] mod q."""
    n = lower.shape[2]
    return ~np.any(((lower @ ys[:, :n, None])[..., 0] - ys[:, n:]) % q, axis=1)


def keygen_toy(kinds, params: EtcfParams, seeds: np.ndarray) -> DrawnKeys:
    """A toy-lattice key of each of ``kinds`` (key kinds, or a claw-free mask), in order,
    drawn from its uint64 key seed in ``seeds``, a few keys at a time.  A key's values
    mod q are its seed's words mod q, in order: R is the first (m - n) * n values,
    row-major, and A = [I_n; R]; then s (n values), or u (m values, and the next m
    while u is in A's column space).  A word mod q is within 2^-64 of uniform, a
    relative error under 2^-33 as q < 2^31.
    A key's arrays are rows of one stack of each: products on them took as long as on
    owned copies (``evaluate`` 12.2 us on either, ``invert`` 14-20 us on either, 512
    keys at the default sizes, best of 5, three runs).
    """
    n, m, q = params.n, params.m, params.q
    entries = (m - n) * n  # of R
    modulus = np.uint64(q)  # uint64 words mod a signed int would be float64s
    claw_free = _claw_free(kinds)
    matrices = np.empty((len(claw_free), m, n), dtype=np.int64)
    matrices[:, :n] = np.eye(n, dtype=np.int64)
    shifts = np.empty((len(claw_free), m), dtype=np.int64)
    rows_of = _rows_by_kind(claw_free)
    for kind, tail in ((KeyKind.CLAW_FREE, n), (KeyKind.INJECTIVE, m)):
        where = rows_of[kind]
        step = max(1, _CHUNK_WORDS // (entries + tail))
        for lo in range(0, len(where), step):
            rows = where[lo:lo + step]
            values = key_words(seeds[rows], 1, entries + tail) % modulus
            lower = values[:, :entries].reshape(-1, m - n, n).astype(np.int64)  # R
            matrices[rows, n:] = lower
            tails = values[:, entries:].astype(np.int64)  # s or u
            if kind is KeyKind.CLAW_FREE:  # the shift A s is (s, R s)
                shifts[rows, :n] = tails
                shifts[rows, n:] = (lower @ tails[..., None])[..., 0] % q
                continue
            redo = np.flatnonzero(_in_column_space(lower, tails, q))  # u must leave it
            first = 1 + entries + m  # the same for every row redrawn as often
            while redo.size:
                tails[redo] = key_words(seeds[rows[redo]], first, m) % modulus
                redo = redo[_in_column_space(lower[redo], tails[redo], q)]
                first += m
            shifts[rows] = tails
    return DrawnKeys(params, claw_free, (matrices, shifts))


def _solve(key: ToyLatticeKeyPair, y: np.ndarray):
    """The x with A x = y over Z_q: A = [I; R], so x is y's first n coordinates, kept
    if R x is y's rest; None when y is outside the column space of A."""
    x = y[:key.n]
    return None if np.any((key.matrix @ x - y) % key.q) else x


# ---------------------------------------------------------------------------
# Family-agnostic operations
# ---------------------------------------------------------------------------

EtcfKeyPair = IdealKeyPair | ToyLatticeKeyPair


class DrawnKeys:
    """Keys drawn together, in draw order: their kinds as a bool array, True where a key
    is claw-free, and their arrays stacked in that order, an ideal family's uint64
    seeds (keys,) or a toy-lattice family's matrices (keys, m, n) and shifts (keys,
    m).  A key is built when it is read, its arrays rows of these, and a slice is the
    same view of the slice's keys.  So the keys can be checked and inverted many at
    once (``check_preimages``, ``preimages``): the ideal family's as one fixed number
    of array operations, the toy-lattice family's a few keys' arrays at a time, as
    keygen draws them; and none is built unless read.
    """

    def __init__(self, params: EtcfParams, claw_free: np.ndarray, arrays: tuple) -> None:
        self.params, self.claw_free, self.arrays = params, claw_free, arrays

    def __len__(self) -> int:
        return len(self.claw_free)

    def __getitem__(self, index):
        if isinstance(index, slice):
            arrays = tuple(a[index] for a in self.arrays)
            return DrawnKeys(self.params, self.claw_free[index], arrays)
        kind = KeyKind.CLAW_FREE if self.claw_free[index] else KeyKind.INJECTIVE
        params = self.params
        if params.family == "ideal":
            return IdealKeyPair(kind, params.domain_bits, int(self.arrays[0][index]))
        matrices, shifts = self.arrays
        return ToyLatticeKeyPair(kind, params.n, params.m, params.q, matrices[index], shifts[index])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _chunks(self, count: int):
        """Slices of ``count`` rows, each covering at most ``_CHUNK_WORDS`` array entries."""
        step = max(1, _CHUNK_WORDS // int(np.prod(self.arrays[0].shape[1:])))
        return (slice(lo, lo + step) for lo in range(0, count, step))

    def check_preimages(self, rows: np.ndarray, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``check_preimage`` of the keys at ``rows``, each with its int64 z (within
        1 + domain_bits) and c: whether z = (b || x) has f_b(x) = c."""
        branch, x = z & 1, z >> 1
        if self.params.family == "ideal":
            seeds, claw_free = self.arrays[0][rows], self.claw_free[rows]
            return _claws(seeds, claw_free, self.params.domain_bits, branch, x)[0] == c
        n, q = self.params.n, self.params.q
        matrices, shifts = self.arrays
        ok = np.empty(len(rows), dtype=bool)
        for chunk in self._chunks(len(rows)):
            r = rows[chunk]
            vectors, valid = _decode_vectors(x[chunk], n, q)
            y = (matrices[r] @ vectors[..., None])[..., 0] + branch[chunk, None] * shifts[r]
            ok[chunk] = valid & (encode_vectors(y % q, q) == c[chunk])
        return ok

    def preimages(self, rows: np.ndarray, c: np.ndarray):
        """``invert`` of the keys at ``rows``, each at its int64 c (within codomain_bits),
        branch by branch: (hits, x), each (len(rows), 2), hits[i, b] whether c has a
        preimage under f_b, and x[i, b] that preimage (0 when there is none)."""
        if self.params.family == "ideal":
            seeds, claw_free = self.arrays[0][rows], self.claw_free[rows]
            return _preimages(seeds, claw_free, self.params.domain_bits, c)
        hits = np.empty((len(rows), 2), dtype=bool)
        x = np.zeros((len(rows), 2), dtype=np.int64)
        n, m, q = self.params.n, self.params.m, self.params.q
        matrices, shifts = self.arrays
        for chunk in self._chunks(len(rows)):
            r = rows[chunk]
            vectors, valid = _decode_vectors(c[chunk], m, q)
            lower = matrices[r, n:]
            for b, y in enumerate((vectors, (vectors - shifts[r]) % q)):
                hits[chunk, b] = valid & _in_column_space(lower, y, q)
                x[chunk, b] = encode_vectors(y[:, :n], q)
        return hits, x


def stack_keys(keys) -> DrawnKeys:
    """``keys``, keys of one family and its sizes, as a ``DrawnKeys``: themselves if they
    are one, else their arrays stacked."""
    if isinstance(keys, DrawnKeys):
        return keys
    first, claw_free = keys[0], _claw_free([key.kind for key in keys])
    if isinstance(first, IdealKeyPair):
        seeds = np.array([key.seed for key in keys], dtype=np.uint64)
        return DrawnKeys(EtcfParams("ideal", first.domain_bits), claw_free, (seeds,))
    params = EtcfParams("toy-lattice", n=first.n, m=first.m, q=first.q)
    arrays = np.stack([key.matrix for key in keys]), np.stack([key.shift for key in keys])
    return DrawnKeys(params, claw_free, arrays)


def _decode_vectors(values: np.ndarray, length: int, q: int):
    """``decode_vector`` of each int64 of ``values``, each within length * coordinate
    bits: the (len(values), length) coordinates, and whether each is below q."""
    bits = _coord_bits(q)
    vectors = (values[:, None] >> (np.arange(length) * bits)) & ((1 << bits) - 1)
    return vectors, np.all(vectors < q, axis=1)


def draw_keys(kinds, params: EtcfParams, seeds: bytes) -> DrawnKeys:
    """A key of each of ``kinds`` (key kinds, or a bool array True where a key is
    claw-free), in order, drawn from its key seed: the next 8 bytes of ``seeds``, read
    as a little-endian uint64.  ``params`` picks the family, which draws
    all the keys at once; it must be valid: a session or a replay validates its family
    once, not at each block.
    """
    key_seeds = np.frombuffer(seeds, dtype="<u8").astype(np.uint64)
    if params.family == "ideal":
        return keygen_ideal(kinds, params.domain_bits, key_seeds)
    return keygen_toy(kinds, params, key_seeds)


def keygen(kind: KeyKind, params: EtcfParams, seed):
    """(public key pair, trapdoor) of ``kind`` drawn from a uint64 key ``seed``, or from
    one drawn from ``seed`` when it is a ``Generator``: one key, both its public part
    and its trapdoor.  ``params`` must be valid, as for ``draw_keys``.
    """
    if isinstance(seed, np.random.Generator):
        seed = seed.integers(2**64, dtype=np.uint64)
    [key] = draw_keys([kind], params, np.array([seed], dtype="<u8").tobytes())
    return key, key


def evaluate(key: EtcfKeyPair, b: int, x: int) -> int:
    return key.evaluate(b, x)


def invert(key: EtcfKeyPair, y: int):
    """Trapdoor inversion: the key is its own trapdoor.

    Claw-free keys return the claw (x0, x1); injective keys return
    (b_hat, x_hat).  Raises NoPreimageError when y is outside the image.
    """
    if not fits(y, key.codomain_bits):
        raise NoPreimageError(f"{y} outside the codomain")
    if isinstance(key, IdealKeyPair):
        preimage = key._preimage(int(y))
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

    For these desk-scale families the claw is publicly computable (M or its
    inverse, or s read off the shift A s), as each key is its own trapdoor;
    this stands in for the claw an honest device holds in superposition.
    """
    if key.kind is not KeyKind.CLAW_FREE:
        raise ValueError("claw_partner is defined for claw-free keys only")
    if isinstance(key, IdealKeyPair):
        return key._claws_at(b, x)[1]
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
