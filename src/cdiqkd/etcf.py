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
  A has full column rank, and one left inverse L (L A = I mod q), derived
  once per key, solves every point of its column space as x = L y.
  Functionally an ETCF, deliberately offering no hardness (adversaries in
  this simulator are scripted, not computational).

Keys and trapdoors are immutable plain data; a trapdoor holds its key.

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

from .bits import fits


class KeyKind(Enum):
    """Claw-free pairs back Hadamard state bases; injective pairs back computational."""

    CLAW_FREE = "claw_free"
    INJECTIVE = "injective"


_KIND_FROM = {kind.value: kind for kind in KeyKind}


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
            _require_int("domain_bits", self.domain_bits)
            if not 2 <= self.domain_bits <= 16:
                raise ValueError(f"domain_bits must be in 2..16, got {self.domain_bits}")
        elif self.family == "toy-lattice":
            _require_int("n", self.n)
            _require_int("m", self.m)
            _require_int("q", self.q)
            if self.n < 1:
                raise ValueError("lattice dimension n must be positive")
            if self.m < 2 * self.n:
                raise ValueError(f"m must be at least 2*n, got m={self.m}, n={self.n}")
            # Devices draw codomain messages as int64, and A x, L y stay exact in
            # int64; checked first, as the primality test would stall on a huge q.
            if self.m * _coord_bits(self.q) > 63:
                raise ValueError(f"m * ceil(log2 q) must be at most 63, got m={self.m}, q={self.q}")
            if not _is_prime(self.q):
                raise ValueError(f"q must be prime, got {self.q}")
        else:
            raise ValueError(f"unknown ETCF family {self.family!r}")


def _require_int(name: str, value) -> None:
    if type(value) is not int:  # a bool, a float or a string is no size
        raise ValueError(f"{name} must be an integer, got {value!r}")


@functools.lru_cache(maxsize=64)  # keygen validates its params once per toy key
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
        if b not in (0, 1):
            raise ValueError(f"branch bit must be 0/1, got {b}")
        if not self.in_domain(x):
            raise ValueError(f"{x} outside the {self.domain_bits}-bit domain")
        return int(self.tables[b, x])


# Table entries one shuffle call holds at most, one row at least: a block's
# keygen temporaries stay this small whatever its keys' number or width.
_SHUFFLE_ENTRIES = 1 << 16


def _shuffled_rows(rng: np.random.Generator, out: np.ndarray, length: int) -> None:
    """Fill each row of ``out`` with the first entries of a fresh permutation of range(length).

    Row by row these are the draws of ``rng.permutation(length)``:
    ``Generator.permuted`` shuffles the rows of its argument one after
    another, so splitting the rows over several calls changes no draw.
    """
    rows, keep = out.shape
    step = max(1, _SHUFFLE_ENTRIES // length)
    ordered = np.arange(length)
    buffer = np.empty((min(step, rows), length), dtype=np.int64)
    for lo in range(0, rows, step):
        shuffled = buffer[:min(step, rows - lo)]
        shuffled[...] = ordered
        out[lo:lo + len(shuffled)] = rng.permuted(shuffled, axis=1, out=shuffled)[:, :keep]


def _claw_free_tables(count: int, size: int, rng: np.random.Generator) -> np.ndarray:
    tables = np.empty((count, 2, size), dtype=np.int64)
    image, matching = tables[:, 0], tables[:, 1]
    _shuffled_rows(rng, matching, size)  # x1 = matching[x0], until the images land
    _shuffled_rows(rng, image, 4 * size)  # f_0(x0), distinct codomain points
    step = max(1, _SHUFFLE_ENTRIES // size)
    for lo in range(0, count, step):  # f_1(matching[x0]) = f_0(x0)
        rows = slice(lo, lo + step)
        np.put_along_axis(matching[rows], matching[rows].copy(), image[rows], axis=1)
    return tables


def _injective_tables(count: int, size: int, rng: np.random.Generator) -> np.ndarray:
    low_branch = rng.integers(2, size=count)  # which branch lands in the low codomain half
    tables = np.empty((count, 2, size), dtype=np.int64)
    _shuffled_rows(rng, tables.reshape(2 * count, size), 2 * size)
    tables += np.where(np.arange(2) == low_branch[:, None], 0, 2 * size)[:, :, None]
    return tables


def keygen_ideal(
    kinds: list[KeyKind], domain_bits: int, rng: np.random.Generator
) -> list[Trapdoor]:
    """The trapdoor of an ideal key of each of ``kinds``, in order, drawn as arrays.

    The claw-free keys draw first: every key's matching (a permutation of
    the 2**w domain points), then every key's image (the first 2**w entries
    of a permutation of the 4 * 2**w codomain points).  Then the injective
    keys: every key's low-branch coin, then key by key each branch's image
    (the first 2**w entries of a permutation of its 2 * 2**w-point codomain
    half).  A key's tables are a view of its kind's (keys, 2, 2**w) array.
    """
    size = 1 << domain_bits
    trapdoors: list = [None] * len(kinds)
    draws = ((KeyKind.CLAW_FREE, _claw_free_tables), (KeyKind.INJECTIVE, _injective_tables))
    for kind, draw in draws:
        where = [i for i, k in enumerate(kinds) if k is kind]
        if where:
            for i, tables in zip(where, draw(len(where), size, rng)):
                key = IdealKeyPair(kind=kind, domain_bits=domain_bits, tables=tables)
                trapdoors[i] = Trapdoor(key)
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


def _row_reduce(rows: list[list[int]], q: int, cols: int) -> list[int]:
    """Gauss-Jordan elimination over Z_q (q prime) on the first ``cols`` columns, in place.

    Returns the pivot columns: afterwards row r has a leading 1 in column
    ``pivots[r]`` and zeros in every other pivot column, and the rows past
    the last pivot are zero in the first ``cols`` columns.  Plain int lists
    beat numpy rows at these matrix sizes.
    """
    m = len(rows)
    pivots: list[int] = []
    for col in range(cols):
        row = len(pivots)
        if row == m:
            break
        pivot = next((r for r in range(row, m) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = pow(rows[row][col], q - 2, q)
        lead = [v * inv % q for v in rows[row]]
        rows[row] = lead
        for r in range(m):
            factor = rows[r][col]
            if r != row and factor:
                rows[r] = [(v - factor * w) % q for v, w in zip(rows[r], lead)]
        pivots.append(col)
    return pivots


def _left_inverse(matrix: np.ndarray, q: int) -> np.ndarray | None:
    """L with L A = I over Z_q (q prime), by one elimination of [A | I]; None
    unless A has full column rank.
    """
    m, n = matrix.shape
    rows = [row + [int(r == c) for c in range(m)] for r, row in enumerate((matrix % q).tolist())]
    if len(_row_reduce(rows, q, n)) < n:
        return None
    return np.array([row[n:] for row in rows[:n]], dtype=np.int64)


def _solve(matrix: np.ndarray, left_inverse: np.ndarray, y: np.ndarray, q: int):
    """The x with A x = y over Z_q, as L y; None when y is outside the column space of A."""
    x = left_inverse @ y % q
    return None if np.any((matrix @ x - y) % q) else x


@dataclass(frozen=True, eq=False)
class ToyLatticeKeyPair:
    """Public matrix A, shift vector (A s for claw-free, u for injective) and
    left inverse L of A; derived once from the public A, L is public too.
    """

    kind: KeyKind
    n: int
    m: int
    q: int
    matrix: np.ndarray  # (m, n) mod q, full column rank
    shift: np.ndarray  # (m,) mod q
    left_inverse: np.ndarray  # (n, m) mod q, L A = I

    @property
    def domain_bits(self) -> int:
        return self.n * _coord_bits(self.q)

    @property
    def codomain_bits(self) -> int:
        return self.m * _coord_bits(self.q)

    def in_domain(self, x: int) -> bool:
        return fits(x, self.domain_bits) and decode_vector(x, self.n, self.q) is not None

    def evaluate(self, b: int, x: int) -> int:
        if b not in (0, 1):
            raise ValueError(f"branch bit must be 0/1, got {b}")
        vec = decode_vector(x, self.n, self.q) if fits(x, self.domain_bits) else None
        if vec is None:
            raise ValueError(f"{x} does not encode a vector in the domain")
        y = (self.matrix @ vec + b * self.shift) % self.q
        return encode_vector(y, self.q)


def _keygen_toy(kind: KeyKind, params: EtcfParams, rng: np.random.Generator) -> Trapdoor:
    n, m, q = params.n, params.m, params.q
    left_inverse = None
    while left_inverse is None:
        matrix = rng.integers(0, q, size=(m, n), dtype=np.int64)
        left_inverse = _left_inverse(matrix, q)
    if kind is KeyKind.CLAW_FREE:
        secret = rng.integers(0, q, size=n, dtype=np.int64)
        key = ToyLatticeKeyPair(kind, n, m, q, matrix, (matrix @ secret) % q, left_inverse)
        return Trapdoor(key, secret)
    u = rng.integers(0, q, size=m, dtype=np.int64)
    while _solve(matrix, left_inverse, u, q) is not None:  # u must leave the column space
        u = rng.integers(0, q, size=m, dtype=np.int64)
    return Trapdoor(ToyLatticeKeyPair(kind, n, m, q, matrix, u, left_inverse))


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


def keygen(kind: KeyKind, params: EtcfParams, rng: np.random.Generator):
    """Generate (public key pair, trapdoor) for the requested kind."""
    params.validate()
    if params.family == "ideal":
        trapdoor = keygen_ideal([kind], params.domain_bits, rng)[0]
    else:
        trapdoor = _keygen_toy(kind, params, rng)
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
        x0 = _solve(key.matrix, key.left_inverse, vec, key.q)
        if x0 is None:
            raise NoPreimageError(f"{y} has no preimage")
        x1 = (x0 - trapdoor.secret) % key.q
        return encode_vector(x0, key.q), encode_vector(x1, key.q)
    for b in (0, 1):
        x = _solve(key.matrix, key.left_inverse, (vec - b * key.shift) % key.q, key.q)
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
    return key.evaluate(b, x) == c


def claw_partner(key: EtcfKeyPair, b: int, x: int) -> int:
    """The other claw member, recovered from public key material only.

    For these desk-scale families the claw is publicly computable (table
    scan or noise-free linear algebra); this stands in for the claw an
    honest device holds in superposition.  Trapdoors never enter here.
    """
    if key.kind is not KeyKind.CLAW_FREE:
        raise ValueError("claw_partner is defined for claw-free keys only")
    if isinstance(key, IdealKeyPair):
        return _ideal_preimage(key, 1 - b, key.evaluate(b, x))
    # Noise-free instance: s is recoverable from (A, A s) as L (A s).
    secret = _solve(key.matrix, key.left_inverse, key.shift, key.q)
    if secret is None:
        raise ValueError("claw-free toy key with inconsistent shift")
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


# ---------------------------------------------------------------------------
# Wire serialization (hex tables / matrices), used by the trapdoor store.
# A trapdoor is written without its family and sizes, which the reader
# gives as one EtcfParams; every entry fits the stored int32, because each
# valid params bounds it below 2**31.
# ---------------------------------------------------------------------------


def _array_to_hex(a: np.ndarray) -> str:
    return a.astype("<i4").tobytes().hex()


def _array_from_hex(text: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype="<i4").astype(np.int64)


def _is_ideal_key(kind: KeyKind, tables: np.ndarray) -> bool:
    """True iff ``tables`` have the shape ``keygen_ideal`` draws for ``kind``.

    Each branch holds 2**w distinct points of the 4 * 2**w-point codomain;
    a claw-free key's branches share one image, and an injective key's
    branches lie in opposite codomain halves.
    """
    f0, f1 = tables.tolist()
    size = len(f0)
    image0, image1 = set(f0), set(f1)
    if len(image0) < size or len(image1) < size:
        return False
    if kind is KeyKind.CLAW_FREE:
        return image0 == image1 and 0 <= min(f0) and max(f0) < 4 * size
    low, high = (f0, f1) if f0[0] < f1[0] else (f1, f0)
    return 0 <= min(low) and max(low) < 2 * size <= min(high) and max(high) < 4 * size


def trapdoor_to_dict(trapdoor: Trapdoor) -> dict:
    """A trapdoor as the store writes it: its key's kind and arrays and, for a
    claw-free toy-lattice key, the claw secret s.  The family and its sizes
    are not written: the store's reader is given them once.
    """
    key = trapdoor.key
    if isinstance(key, IdealKeyPair):
        return {"kind": key.kind.value, "tables": _array_to_hex(key.tables)}
    data = {
        "kind": key.kind.value,
        "matrix": _array_to_hex(key.matrix),
        "shift": _array_to_hex(key.shift),
    }
    if trapdoor.secret is not None:
        data["secret"] = _array_to_hex(trapdoor.secret)
    return data


def trapdoor_from_dict(data: dict, params: EtcfParams) -> Trapdoor:
    """The trapdoor of the valid family ``params`` that ``trapdoor_to_dict`` writes as ``data``.

    Raises ValueError, LookupError or TypeError unless ``data`` is exactly
    what ``trapdoor_to_dict`` writes for the trapdoor read from it (no other
    field, hex in its spelling) and that key is one its family's keygen can
    draw: ideal tables of the shape ``keygen_ideal`` draws, or a toy-lattice
    key with every entry in 0..q-1, a matrix of full column rank and either
    a claw secret s that solves A s = shift or an injective shift outside
    the matrix's column space.
    """
    kind = _KIND_FROM[data["kind"]]
    if params.family == "ideal":
        tables = _array_from_hex(data["tables"]).reshape(2, 1 << params.domain_bits)
        if not _is_ideal_key(kind, tables):
            raise ValueError(f"ideal tables are not a {kind.value} key")
        trapdoor = Trapdoor(IdealKeyPair(kind, params.domain_bits, tables))
    else:
        n, m, q = params.n, params.m, params.q
        matrix = _array_from_hex(data["matrix"]).reshape(m, n)
        shift = _array_from_hex(data["shift"]).reshape(m)
        secret = _array_from_hex(data["secret"]).reshape(n) if kind is KeyKind.CLAW_FREE else None
        if any(np.any((v < 0) | (v >= q)) for v in (matrix, shift, secret) if v is not None):
            raise ValueError("toy-lattice key entries must lie in 0..q-1")
        left_inverse = _left_inverse(matrix, q)
        if left_inverse is None:
            raise ValueError("toy-lattice matrix lacks full column rank")
        if secret is not None and np.any((matrix @ secret - shift) % q):
            raise ValueError("toy-lattice claw secret does not match its key")
        if secret is None and _solve(matrix, left_inverse, shift, q) is not None:
            raise ValueError("injective toy-lattice shift lies in the matrix's column space")
        trapdoor = Trapdoor(ToyLatticeKeyPair(kind, n, m, q, matrix, shift, left_inverse), secret)
    if trapdoor_to_dict(trapdoor) != data:
        raise ValueError("a trapdoor must be written as trapdoor_to_dict writes it")
    return trapdoor
