"""Shared test utilities: statistical tolerances, independent matrix oracles
and reference key draws.

The matrix oracles build operators with plain numpy kron/diag calls so
that circuit-level code is checked against an implementation it shares
nothing with.  The reference key draws transcribe, one key at a time, the
keys the batched keygens must draw.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np
from scipy.stats import chi2

from cdiqkd.etcf import EtcfParams, KeyKind, ToyLatticeKeyPair

# Two-sided 5-sigma tail probability of a normal.
FIVE_SIGMA_PVALUE = 5.733e-7


def five_sigma(p: float, n: int) -> float:
    """Half-width of the 5-sigma band for a frequency estimate of p over n trials."""
    return 5.0 * math.sqrt(p * (1.0 - p) / n)


def assert_frequency(count: int, n: int, p: float, label: str = "") -> None:
    """Assert an observed count is within 5 sigma of a binomial expectation."""
    assert n > 0, f"{label}: no samples"
    deviation = abs(count / n - p)
    bound = five_sigma(p, n)
    assert deviation <= bound, (
        f"{label}: frequency {count}/{n} = {count / n:.5f} deviates from {p:.5f} "
        f"by {deviation:.5f} > 5 sigma = {bound:.5f}"
    )


def assert_multinomial(counts, probs, label: str = "") -> None:
    """Chi-square goodness-of-fit at the 5-sigma-equivalent significance."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    n = counts.sum()
    expected = probs * n
    assert np.all(expected > 0), f"{label}: zero expected cell"
    statistic = float(((counts - expected) ** 2 / expected).sum())
    threshold = float(chi2.isf(FIVE_SIGMA_PVALUE, df=len(counts) - 1))
    assert statistic <= threshold, (
        f"{label}: chi-square {statistic:.2f} > {threshold:.2f} (counts {counts}, expected {expected})"
    )


# Independent single-qubit operators and helpers.
I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def kron_all(*operators: np.ndarray) -> np.ndarray:
    out = operators[0]
    for op in operators[1:]:
        out = np.kron(out, op)
    return out


def pauli_power(h_x: int, h_z: int) -> np.ndarray:
    """X^h_x Z^h_z as a 2x2 matrix."""
    out = I2
    if h_z:
        out = PAULI_Z @ out
    if h_x:
        out = PAULI_X @ out
    return out


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-like random pure state amplitudes."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def overlap2(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


# Reference key draws.
MASK64 = 2**64 - 1


def splitmix64_words(seed: int) -> Iterator[int]:
    """The outputs of SplitMix64 seeded with ``seed``, one at a time: the published C
    ``next()`` (Steele, Lea & Flood, OOPSLA 2014), transcribed with Python ints."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``."""
    return list(itertools.islice(splitmix64_words(seed), count))


# Feistel rounds of every ideal-key permutation, as etcf documents them.
FEISTEL_ROUNDS = 8


def documented_permutation(words: list[int], first: int, bits: int) -> list[int]:
    """P[v] for each ``bits``-bit v of the keyed permutation ``etcf._permute`` documents,
    from a key's SplitMix64 words (``words[j - 1]`` is word j) whose rounds begin at
    word ``first``: v = (L, R) with L the high bits // 2 bits, and round r maps (L, R)
    to (R, L ^ F), F the top |L| bits of word first + r * 2**ceil(bits / 2) + R."""
    high, low = bits // 2, bits - bits // 2
    table = []
    for v in range(1 << bits):
        left, right, left_bits = v >> low, v & ((1 << low) - 1), high
        for r in range(FEISTEL_ROUNDS):
            f = words[first + r * (1 << low) + right - 1] >> (64 - left_bits)
            left, right, left_bits = right, left ^ f, bits - left_bits
        table.append(left << low | right)
    return table


def documented_tables(kind: KeyKind, w: int, seed: int) -> np.ndarray:
    """The tables ``IdealKeyPair.tables`` documents for one key, from the transcribed
    words: P of w + 2 bits from word 1 gives an injective key f_b(x) = P(b 2**w + x);
    a claw-free key's M of w bits after P gives f_0(x) = P(x) and f_1(x) = P(M^-1(x))."""
    size = 1 << w
    p_words = FEISTEL_ROUNDS << (w + 3) // 2  # P's rounds, 2**ceil((w + 2) / 2) words each
    words = splitmix64(seed, p_words + (FEISTEL_ROUNDS << (w + 1) // 2))
    p = documented_permutation(words, 1, w + 2)
    if kind is KeyKind.INJECTIVE:
        return np.array([p[:size], p[size:2 * size]])
    m = documented_permutation(words, 1 + p_words, w)
    m_inverse = {y: x for x, y in enumerate(m)}
    return np.array([[p[x] for x in range(size)], [p[m_inverse[x]] for x in range(size)]])


def reference_keygen_toy(kind: KeyKind, params: EtcfParams, seed: int) -> ToyLatticeKeyPair:
    """One toy-lattice key, drawn on its own by a scalar loop: the reference that
    ``keygen_toy`` must equal key for key.

    Values mod q are the key seed's SplitMix64 words mod q, in order, each word read
    only when its value is taken.  R is the first (m - n) * n values, row-major, and
    A = [I_n; R]; then s (n values), or u (m values, redrawn while in A's column space).
    """
    n, m, q = params.n, params.m, params.q
    words = splitmix64_words(seed)

    def draw(count: int) -> np.ndarray:
        return np.array([next(words) % q for _ in range(count)], dtype=np.int64)

    matrix = np.concatenate([np.eye(n, dtype=np.int64), draw((m - n) * n).reshape(m - n, n)])
    if kind is KeyKind.CLAW_FREE:
        return ToyLatticeKeyPair(kind, n, m, q, matrix, matrix @ draw(n) % q)
    u = draw(m)
    while not np.any((matrix @ u[:n] - u) % q):  # u must leave the column space
        u = draw(m)
    return ToyLatticeKeyPair(kind, n, m, q, matrix, u)
