"""Reconciliation and privacy amplification tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd.postprocess import (
    PaSpec,
    final_length,
    privacy_amplify,
    reconcile,
    toeplitz_hash,
)


def bits(rng, n):
    return rng.integers(0, 2, size=n, dtype=np.uint8)


class TestReconcileNone:
    def test_identical_keys_verify_with_hash_leak_only(self):
        rng = np.random.default_rng(0)
        key = bits(rng, 120)
        result = reconcile(key, key.copy(), "none", rng)
        assert result.verified
        assert result.leak_bits == 64
        assert np.array_equal(result.corrected_key_b, key)

    def test_mismatch_is_caught(self):
        rng = np.random.default_rng(1)
        key = bits(rng, 120)
        other = key.copy()
        other[17] ^= 1
        result = reconcile(key, other, "none", rng)
        assert not result.verified

    def test_empty_keys(self):
        rng = np.random.default_rng(2)
        empty = np.zeros(0, dtype=np.uint8)
        result = reconcile(empty, empty, "none", rng)
        assert result.verified
        assert result.leak_bits == 64


class TestReconcileHamming:
    def test_single_flip_in_every_position_is_corrected(self):
        rng = np.random.default_rng(3)
        key = bits(rng, 28)
        for position in range(28):
            noisy = key.copy()
            noisy[position] ^= 1
            result = reconcile(key, noisy, "hamming74", rng)
            assert np.array_equal(result.corrected_key_b, key), position
            assert result.verified

    def test_one_flip_per_block_everywhere(self):
        rng = np.random.default_rng(4)
        lengths = [35, 0, 1, 6, 8, 13, 700, 1001, 16381, 16384]
        lengths += [int(n) for n in rng.integers(1, 16385, size=6)]
        for n in lengths:
            key = bits(rng, n)
            noisy = key.copy()
            # At most one flip per block; the final block may be partial.
            for block in range(-(-n // 7)):
                if rng.random() < 0.8:
                    noisy[min(7 * block + int(rng.integers(7)), n - 1)] ^= 1
            result = reconcile(key, noisy, "hamming74", rng)
            assert np.array_equal(result.corrected_key_b, key), n
            assert result.verified, n
            assert result.leak_bits == 3 * math.ceil(n / 7) + 64, n

    def test_double_flip_in_one_block_fails_verification(self):
        rng = np.random.default_rng(5)
        key = bits(rng, 21)
        for seed in range(20):
            local = np.random.default_rng(seed)
            noisy = key.copy()
            noisy[0] ^= 1
            noisy[4] ^= 1
            result = reconcile(key, noisy, "hamming74", local)
            # Hamming(7,4) miscorrects double errors; the 64-bit hash catches
            # the mismatch except with probability 2^-64 over seeds.
            assert not result.verified

    def test_padding_of_final_partial_block(self):
        rng = np.random.default_rng(6)
        key = bits(rng, 9)
        noisy = key.copy()
        noisy[8] ^= 1
        result = reconcile(key, noisy, "hamming74", rng)
        assert np.array_equal(result.corrected_key_b, key)
        assert result.leak_bits == 3 * 2 + 64

    def test_leak_accounting_matches_published_bits(self):
        rng = np.random.default_rng(7)
        key = bits(rng, 70)
        result = reconcile(key, key.copy(), "hamming74", rng)
        published = result.syndromes.size + len(result.hash_a)
        assert result.leak_bits == published == 3 * 10 + 64

    def test_length_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            reconcile(bits(rng, 10), bits(rng, 11), "hamming74", rng)

    def test_unknown_scheme(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            reconcile(bits(rng, 10), bits(rng, 10), "cascade", rng)


def dense_toeplitz_hash(key, seed, m):
    # Oracle: the dense matrix T[i, j] = seed[n-1+i-j], multiplied over GF(2).
    i, j = np.indices((m, len(key)))
    return (seed[len(key) - 1 + i - j].astype(np.int64) @ key) % 2


_SHAPES = np.random.default_rng(10)
RANDOM_SHAPES = [(int(n), int(_SHAPES.integers(0, n + 1))) for n in _SHAPES.integers(0, 1500, 12)]


class TestToeplitz:
    @pytest.mark.parametrize(
        "n, m",
        [(0, 0), (1, 0), (1, 1), (9, 0), (9, 9), (13, 5), (64, 64), (101, 37), (1000, 1),
         (1501, 1501), (4097, 257), (16383, 64), (16384, 64), (16384, 129)] + RANDOM_SHAPES,
    )
    def test_fft_product_matches_dense_oracle(self, n, m):
        rng = np.random.default_rng(n * 31 + m)
        seed_len = max(n + m - 1, 0)
        for seed in (bits(rng, seed_len), np.ones(seed_len, dtype=np.uint8)):
            for key in (bits(rng, n), np.ones(n, dtype=np.uint8)):
                expected = dense_toeplitz_hash(key, seed, m)
                np.testing.assert_array_equal(toeplitz_hash(key, seed, m), expected)
                np.testing.assert_array_equal(privacy_amplify(key, PaSpec(seed, n, m)), expected)
                hash_seed = bits(rng, n + 63)
                np.testing.assert_array_equal(
                    toeplitz_hash(key, hash_seed, 64), dense_toeplitz_hash(key, hash_seed, 64)
                )

    def test_short_seed_is_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            toeplitz_hash(bits(rng, 10), bits(rng, 12), 5)

    def test_hash_is_linear(self):
        rng = np.random.default_rng(11)
        seed = bits(rng, 40 + 63)
        k1, k2 = bits(rng, 40), bits(rng, 40)
        h1 = toeplitz_hash(k1, seed, 64)
        h2 = toeplitz_hash(k2, seed, 64)
        both = toeplitz_hash(k1 ^ k2, seed, 64)
        np.testing.assert_array_equal(both, h1 ^ h2)


class TestPrivacyAmplify:
    def test_zero_key_maps_to_zero(self):
        rng = np.random.default_rng(12)
        spec = PaSpec(bits(rng, 50 + 19), 50, 20)
        assert not privacy_amplify(np.zeros(50, dtype=np.uint8), spec).any()

    def test_identity_seed(self):
        n = 33
        seed = np.zeros(2 * n - 1, dtype=np.uint8)
        seed[n - 1] = 1
        key = bits(np.random.default_rng(13), n)
        np.testing.assert_array_equal(privacy_amplify(key, PaSpec(seed, n, n)), key)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 48, 24
        spec = PaSpec(bits(rng, n + m - 1), n, m)
        k1, k2 = bits(rng, n), bits(rng, n)
        np.testing.assert_array_equal(
            privacy_amplify((k1 ^ k2).astype(np.uint8), spec),
            privacy_amplify(k1, spec) ^ privacy_amplify(k2, spec),
        )

    def test_determinism(self):
        rng = np.random.default_rng(14)
        spec = PaSpec(bits(rng, 60 + 29), 60, 30)
        key = bits(rng, 60)
        np.testing.assert_array_equal(privacy_amplify(key, spec), privacy_amplify(key, spec))

    def test_spec_validation(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            PaSpec(bits(rng, 10), 5, 6).validate()
        with pytest.raises(ValueError):
            privacy_amplify(bits(rng, 5), PaSpec(bits(rng, 3), 5, 2))
        with pytest.raises(ValueError):
            privacy_amplify(bits(rng, 4), PaSpec(bits(rng, 6), 5, 2))

    def test_zero_output_length(self):
        rng = np.random.default_rng(16)
        out = privacy_amplify(bits(rng, 10), PaSpec(bits(rng, 9), 10, 0))
        assert out.size == 0


class TestFinalLength:
    def test_noiseless_arithmetic(self):
        assert final_length(1280, 0.0, 64, 2**-32) == 1152

    def test_qber_half_limit_gives_zero(self):
        assert final_length(1000, 0.4999999, 0, 2**-32) == 0

    def test_zero_raw(self):
        assert final_length(0, 0.0, 0, 2**-32) == 0

    def test_monotone_in_qber(self):
        lengths = [final_length(1000, q, 64, 2**-32) for q in (0.0, 0.01, 0.05, 0.1, 0.2)]
        assert lengths == sorted(lengths, reverse=True)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            final_length(100, 0.5, 0, 2**-32)
        with pytest.raises(ValueError):
            final_length(100, 0.0, 0, 1.0)
        with pytest.raises(ValueError):
            final_length(-1, 0.0, 0, 2**-32)

    def test_matches_direct_formula(self):
        for n_raw, qber, leak in [(500, 0.02, 100), (64, 0.11, 30)]:
            h2 = -(qber * math.log2(qber) + (1 - qber) * math.log2(1 - qber))
            expected = max(0, math.floor(n_raw * (1 - h2) - leak - 64))
            assert final_length(n_raw, qber, leak, 2**-32) == expected
