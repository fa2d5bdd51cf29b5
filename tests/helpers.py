"""Shared test utilities: statistical tolerances, independent matrix oracles
and reference key draws.

The matrix oracles build operators with plain numpy kron/diag calls so
that circuit-level code is checked against an implementation it shares
nothing with.  The reference key draws transcribe, one key at a time, the
keys the batched keygens must draw.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

from cdiqkd.etcf import (
    EtcfParams,
    KeyKind,
    ToyLatticeKeyPair,
    Trapdoor,
    _coord_bits,
    _mix,
    _steps,
)

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


def splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``: the published C
    ``next()`` (Steele, Lea & Flood, OOPSLA 2014), transcribed with Python ints."""
    state, out = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def _argsort(values) -> list[int]:
    return sorted(range(len(values)), key=values.__getitem__)


def documented_tables(kind: KeyKind, w: int, seed: int) -> np.ndarray:
    """The tables ``keygen_ideal`` documents for one key, from the transcribed words."""
    size = 1 << w
    if kind is KeyKind.CLAW_FREE:
        words = splitmix64(seed, 5 * size)
        matching, image = _argsort(words[:size]), _argsort(words[size:])[:size]
        f1 = [0] * size
        for x0 in range(size):
            f1[matching[x0]] = image[x0]
        return np.array([image, f1])
    words = splitmix64(seed, 1 + 4 * size)
    low_branch = words[0] & 1
    return np.array([
        [y + (0 if b == low_branch else 2 * size)
         for y in _argsort(words[1 + 2 * b * size:1 + 2 * (b + 1) * size])[:size]]
        for b in (0, 1)
    ])


def reference_keygen_toy(kind: KeyKind, params: EtcfParams, seed: int) -> Trapdoor:
    """One toy-lattice key, drawn on its own by a scalar loop: the reference that
    ``keygen_toy`` must equal key for key.

    Values mod q are the key seed's words masked to ceil(log2 q) bits, those below q
    kept, in order.  R is the first (m - n) * n values, row-major, and A = [I_n; R];
    then s (n values), or u (m values, redrawn while in A's column space).
    """
    n, m, q = params.n, params.m, params.q
    mask, seed = np.uint64((1 << _coord_bits(q)) - 1), np.uint64(seed)
    values, used, read, chunk = np.empty(0, dtype=np.int64), 0, 0, 4 * m * n

    def draw(count: int) -> np.ndarray:
        nonlocal values, used, read
        while len(values) < used + count:
            words = _mix(_steps(1 + read, chunk) + seed) & mask  # as key_words draws them
            kept = words[words < q].view(np.int64)
            values, read = np.concatenate([values, kept]) if read else kept, read + chunk
        used += count
        return values[used - count:used].copy()

    matrix = np.concatenate([np.eye(n, dtype=np.int64), draw((m - n) * n).reshape(m - n, n)])
    if kind is KeyKind.CLAW_FREE:
        secret = draw(n)
        return Trapdoor(ToyLatticeKeyPair(kind, n, m, q, matrix, matrix @ secret % q), secret)
    u = draw(m)
    while not np.any((matrix @ u[:n] - u) % q):  # u must leave the column space
        u = draw(m)
    return Trapdoor(ToyLatticeKeyPair(kind, n, m, q, matrix, u))

