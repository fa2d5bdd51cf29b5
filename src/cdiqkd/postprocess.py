"""One-way information reconciliation and privacy amplification.

Reconciliation publishes per-block Hamming(7,4) syndromes (Alice to Bob,
one way) and a 64-bit Toeplitz verification hash under a fresh public
seed; every published bit is counted as leakage.  Privacy amplification
is Toeplitz two-universal hashing over GF(2).  Keys are numpy uint8 bit
arrays throughout; ``reconcile`` and ``privacy_amplify`` raise ValueError
on a key entry other than 0 or 1.

Both hashes are one numpy FFT convolution of seed and key.  It is exact:
each output is an integer of at most len(key), which rounding recovers.
The transform length is the least 5-smooth length (prime factors 2, 3
and 5 only) that holds the product without wrap: numpy's FFT is fast on
every such length, and it pads a length of 1,000 or more by at most
6.6%, where the next power of two pads by up to 2x.  Reconciliation
hashes both keys in one transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .keyrate import binary_entropy

VERIFY_HASH_BITS = 64
# The schemes ``reconcile`` takes.
RECON_SCHEMES = ("hamming74", "none")

# Parity-check matrix of Hamming(7,4): column j is the binary expansion of
# j+1, so a nonzero syndrome difference names the flipped position directly.
_HAMMING_H = np.array(
    [[(j + 1) >> i & 1 for j in range(7)] for i in range(3)], dtype=np.uint8
)


@dataclass(frozen=True)
class ReconciliationResult:
    corrected_key_b: np.ndarray
    leak_bits: int
    verified: bool
    syndromes: np.ndarray  # shape (blocks, 3); empty for scheme "none"
    hash_seed: np.ndarray
    hash_a: np.ndarray
    hash_b: np.ndarray


@dataclass(frozen=True)
class PaSpec:
    """Toeplitz extractor specification; seed length is input + output - 1."""

    seed: np.ndarray
    input_len: int
    output_len: int

    def validate(self) -> None:
        if self.output_len < 0 or self.output_len > self.input_len:
            raise ValueError(
                f"output length {self.output_len} must be in [0, input length {self.input_len}]"
            )
        expected = max(self.input_len + self.output_len - 1, 0)
        if len(self.seed) != expected:
            raise ValueError(f"seed length {len(self.seed)} != {expected}")


def _fft_length(target: int) -> int:
    """The least 5-smooth integer >= ``target`` (1 for ``target`` <= 1).

    pocketfft costs up to about 15% more per element on a length whose odd
    part is large (a power of 3 or 5) than on a power of two, so the power
    of two just above such a length can be slightly faster.  Over random
    targets of 2,000 to 33,000, keeping to multiples of 4, or to lengths
    whose odd part is at most their square root, changed the total time by
    under 2% either way, so the least length is taken, with no exception.
    """
    best = 1 << max(target - 1, 0).bit_length()
    odd = 1  # each 3^i 5^j below best, completed by the least power of two
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-target // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def toeplitz_hash(key: np.ndarray, seed: np.ndarray, output_len: int) -> np.ndarray:
    """T key over GF(2) for the Toeplitz matrix T[i, j] = seed[n-1+i-j], n = key.shape[-1].

    ``key`` is one key or a stack of keys of shape (rows, n), each hashed
    under the same seed, whose transform is taken once.  Row i is the
    convolution seed * key at index n-1+i, which a cyclic FFT convolution of
    length >= n + output_len - 1 computes without wrap; the length is the
    least 5-smooth one (``_fft_length``), on which numpy's FFT is fast.  The
    product is exact: each sum is an integer of at most n, and the float64
    error stays far below 1/2, so rounding recovers it before the mod 2.
    """
    if output_len < 0:
        raise ValueError(f"output length {output_len} is negative")
    key = np.asarray(key)
    n = key.shape[-1]
    if len(seed) < n + output_len - 1:
        raise ValueError(f"seed length {len(seed)} < {n + output_len - 1}")
    if n == 0 or output_len == 0:
        return np.zeros(key.shape[:-1] + (output_len,), dtype=np.uint8)
    size = _fft_length(n + output_len - 1)
    spectrum = np.fft.rfft(seed[: n + output_len - 1], size) * np.fft.rfft(key, size)
    sums = np.rint(np.fft.irfft(spectrum, size)[..., n - 1 : n - 1 + output_len])
    return (sums.astype(np.int64) & 1).astype(np.uint8)


def _bits(key) -> np.ndarray:
    """``key`` as a uint8 array; ValueError if an entry is other than 0 or 1."""
    key = np.asarray(key)
    if not ((key == 0) | (key == 1)).all():
        raise ValueError("a key entry is other than 0 or 1")
    return key.astype(np.uint8, copy=False)


def reconcile(
    key_a: np.ndarray,
    key_b: np.ndarray,
    scheme: str,
    rng: np.random.Generator,
) -> ReconciliationResult:
    """One-way reconciliation of Bob's key toward Alice's.

    ``hamming74`` publishes the 3-bit syndrome of each 7-bit block of
    Alice's key (final block zero-padded publicly); Bob corrects at most
    one flip per block.  ``none`` skips correction (noiseless runs).  Both
    schemes end with a 64-bit public-seeded hash comparison; the hash and
    any syndromes are counted in ``leak_bits``.
    """
    key_a = _bits(key_a)
    key_b = _bits(key_b)
    if key_a.shape != key_b.shape:
        raise ValueError(f"key lengths differ: {len(key_a)} vs {len(key_b)}")
    n = len(key_a)
    if scheme == "none":
        corrected = key_b.copy()
        syndromes = np.zeros((0, 3), dtype=np.uint8)
        leak = VERIFY_HASH_BITS
    elif scheme == "hamming74":
        blocks_a = np.pad(key_a, (0, -n % 7)).reshape(-1, 7)
        blocks_b = np.pad(key_b, (0, -n % 7)).reshape(-1, 7)
        syndromes = (blocks_a @ _HAMMING_H.T) % 2
        # 1-based position of each block's flipped bit; 0 means a clean block.
        position = (syndromes ^ (blocks_b @ _HAMMING_H.T) % 2) @ np.array([1, 2, 4])
        corrected = (blocks_b ^ (position[:, None] == np.arange(1, 8))).ravel()[:n]
        leak = 3 * len(syndromes) + VERIFY_HASH_BITS
    else:
        raise ValueError(f"unknown reconciliation scheme {scheme!r}")

    hash_seed = rng.integers(0, 2, size=n + VERIFY_HASH_BITS - 1, dtype=np.uint8)
    hash_a, hash_b = toeplitz_hash(np.stack([key_a, corrected]), hash_seed, VERIFY_HASH_BITS)
    return ReconciliationResult(
        corrected_key_b=corrected,
        leak_bits=leak,
        verified=bool(np.array_equal(hash_a, hash_b)),
        syndromes=syndromes,
        hash_seed=hash_seed,
        hash_a=hash_a,
        hash_b=hash_b,
    )


def privacy_amplify(key: np.ndarray, spec: PaSpec) -> np.ndarray:
    """Compress with the Toeplitz extractor: output = T(seed) key over GF(2)."""
    key = _bits(key)
    if len(key) != spec.input_len:
        raise ValueError(f"key length {len(key)} != spec input length {spec.input_len}")
    spec.validate()
    return toeplitz_hash(key, np.asarray(spec.seed, dtype=np.uint8), spec.output_len)


def final_length(n_raw: int, qber_est: float, leak_bits: int, eps_sec: float) -> int:
    """Post-amplification key length with the asymptotic rate and a security margin.

    floor(n_raw (1 - h2(qber)) - leak_bits - 2 log2(1/eps_sec)), floored at 0.
    """
    if not 0.0 <= qber_est < 0.5:
        raise ValueError(f"QBER estimate {qber_est} outside [0, 1/2)")
    if not 0.0 < eps_sec < 1.0:
        raise ValueError(f"security parameter {eps_sec} outside (0, 1)")
    if n_raw < 0:
        raise ValueError("raw length must be nonnegative")
    value = n_raw * (1.0 - binary_entropy(qber_est)) - leak_bits - 2.0 * math.log2(1.0 / eps_sec)
    return max(0, math.floor(value))
