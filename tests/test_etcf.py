"""ETCF family tests: exhaustive structure, inversion, claw identities."""

import ast
import contextlib
import hashlib
import io
import itertools
import math
import runpy
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd.etcf import (
    EtcfParams,
    KeyKind,
    NoPreimageError,
    check_preimage,
    claw_partner,
    decode_vector,
    encode_vector,
    encode_vectors,
    evaluate,
    image,
    invert,
    key_words,
    keygen,
    keygen_ideal,
    keygen_toy,
    sample_domain,
)
from cdiqkd import etcf
from cdiqkd.devices import make_device
from cdiqkd.protocol import ProtocolParams, run_session

from . import etcf_oracle
from .helpers import (
    assert_multinomial,
    documented_tables,
    reference_keygen_toy,
    splitmix64,
)


def ideal(w: int) -> EtcfParams:
    return EtcfParams(family="ideal", domain_bits=w)


TOY = EtcfParams(family="toy-lattice", n=3, m=6, q=17)


class TestParams:
    def test_ideal_bounds(self):
        with pytest.raises(ValueError):
            EtcfParams(family="ideal", domain_bits=1).validate()
        with pytest.raises(ValueError):
            EtcfParams(family="ideal", domain_bits=17).validate()

    def test_toy_lattice_constraints(self):
        with pytest.raises(ValueError):
            EtcfParams(family="toy-lattice", n=3, m=5, q=17).validate()
        with pytest.raises(ValueError):
            EtcfParams(family="toy-lattice", n=3, m=6, q=15).validate()
        # The codomain must fit an int64 draw, m * ceil(log2 q) <= 63: not 6 * 11 bits.
        with pytest.raises(ValueError, match="at most 63"):
            EtcfParams(family="toy-lattice", n=3, m=6, q=1031).validate()
        with pytest.raises(ValueError, match="at most 63"):
            EtcfParams(family="toy-lattice", n=1, m=2, q=2**61 - 1).validate()
        EtcfParams(family="toy-lattice", n=3, m=6, q=1021).validate()
        EtcfParams(family="toy-lattice", n=1, m=2, q=2**31 - 1).validate()

    def test_primality_is_tested_once_per_q(self, monkeypatch):
        # A toy-lattice session validates its params at each keygen, two a round;
        # trial division to sqrt(q) must not run again for each of them.
        tested = []
        monkeypatch.setattr(
            etcf, "math", SimpleNamespace(isqrt=lambda v: tested.append(v) or math.isqrt(v))
        )
        q = 2**31 - 1
        lattice = EtcfParams(family="toy-lattice", n=1, m=2, q=q)
        session = run_session(make_device("honest"), ProtocolParams(64, 0.05, lattice), 1)
        assert not session.aborted
        assert tested.count(q) <= 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            EtcfParams(family="lwe").validate()

    @pytest.mark.parametrize("family", [["ideal"], {"ideal": 4}, None, 4])
    def test_a_family_that_is_not_a_string_is_unknown(self, family):
        # A replayed header may hold any JSON value there, hashable or not.
        with pytest.raises(ValueError, match="unknown ETCF family"):
            EtcfParams(family=family).validate()

    @pytest.mark.parametrize(
        "params",
        [
            EtcfParams(family="toy-lattice", n=3, m=6, q=17.0),
            EtcfParams(family="toy-lattice", n=3.0, m=6, q=17),
            EtcfParams(family="toy-lattice", n=3, m=True, q=17),
            EtcfParams(family="ideal", domain_bits=4.0),
            EtcfParams(family="ideal", domain_bits=True),
            EtcfParams(family="ideal", domain_bits="4"),
        ],
        ids=["float-q", "float-n", "bool-m", "float-domain-bits", "bool-domain-bits",
             "str-domain-bits"],
    )
    def test_sizes_must_be_integers(self, params):
        with pytest.raises(ValueError, match="must be an integer"):
            params.validate()

    def test_only_the_family_sizes_are_checked(self):
        # The lattice sizes have no meaning for the ideal family, nor domain_bits for the lattice.
        EtcfParams(family="ideal", domain_bits=4, q=17.0).validate()
        EtcfParams(family="toy-lattice", domain_bits=None, n=3, m=6, q=17).validate()


class TestIdealClawFree:
    def test_every_image_point_has_exactly_two_preimages(self):
        key, _ = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(1))
        preimages = Counter()
        branch_hits = Counter()
        for b in (0, 1):
            for x in range(16):
                y = evaluate(key, b, x)
                preimages[y] += 1
                branch_hits[(b, y)] += 1
        assert all(count == 2 for count in preimages.values())
        # one preimage per branch: images of f0 and f1 coincide
        assert all(count == 1 for count in branch_hits.values())

    def test_image_size_is_half_the_inputs(self):
        key, _ = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(2))
        assert len(image(key)) == 16

    def test_invert_returns_the_claw(self):
        key, trap = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(3))
        for x in range(16):
            y = evaluate(key, 0, x)
            x0, x1 = invert(trap, y)
            assert x0 == x
            assert evaluate(key, 1, x1) == y

    def test_invert_outside_image(self):
        key, trap = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(4))
        gap = min(set(range(64)) - image(key))
        with pytest.raises(NoPreimageError):
            invert(trap, gap)

    def test_keygen_is_seed_deterministic(self):
        key1, _ = keygen(KeyKind.CLAW_FREE, ideal(2), np.random.default_rng(99))
        key2, _ = keygen(KeyKind.CLAW_FREE, ideal(2), np.random.default_rng(99))
        assert np.array_equal(key1.tables, key2.tables)

    def test_claw_partner_matches_trapdoor(self):
        key, trap = keygen(KeyKind.CLAW_FREE, ideal(5), np.random.default_rng(5))
        for x in range(32):
            x0, x1 = invert(trap, evaluate(key, 0, x))
            assert claw_partner(key, 0, x) == x1
            assert claw_partner(key, 1, x1) == x0

    def test_claw_partner_rejects_injective(self):
        key, _ = keygen(KeyKind.INJECTIVE, ideal(3), np.random.default_rng(6))
        with pytest.raises(ValueError):
            claw_partner(key, 0, 1)


class TestIdealInjective:
    def test_images_disjoint(self):
        key, _ = keygen(KeyKind.INJECTIVE, ideal(4), np.random.default_rng(7))
        image0 = {evaluate(key, 0, x) for x in range(16)}
        image1 = {evaluate(key, 1, x) for x in range(16)}
        assert len(image0) == 16 and len(image1) == 16
        assert not image0 & image1

    def test_invert_round_trip(self):
        key, trap = keygen(KeyKind.INJECTIVE, ideal(4), np.random.default_rng(8))
        for b in (0, 1):
            for x in range(16):
                assert invert(trap, evaluate(key, b, x)) == (b, x)

    def test_exhaustively_found_gap_raises(self):
        key, trap = keygen(KeyKind.INJECTIVE, ideal(4), np.random.default_rng(9))
        gaps = set(range(64)) - image(key)
        assert gaps, "injective pair should not cover the codomain"
        with pytest.raises(NoPreimageError):
            invert(trap, min(gaps))


SEEDS = [0, 1, 2**64 - 1]


class TestSplitMix64:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_words_are_the_published_generator(self, seed):
        words = key_words(np.array([seed], dtype=np.uint64), 1, 100)
        assert words.dtype == np.uint64 and words.shape == (1, 100)
        assert words[0].tolist() == splitmix64(seed, 100)
        # Words from any offset on, and for several seeds at once, are the same words.
        rows = key_words(np.array(SEEDS, dtype=np.uint64), 41, 60)
        assert rows[SEEDS.index(seed)].tolist() == splitmix64(seed, 100)[40:]

    def test_first_word_of_seed_zero(self):
        assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_keys_words_never_repeat(self, seed):
        # mix is a bijection and seed + j * gamma takes 2**64 distinct values for j < 2**64.
        words = key_words(np.array([seed], dtype=np.uint64), 1, 5 << 16)[0]
        assert len(np.unique(words)) == len(words)


class TestKeyedPermutation:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 9, 18])
    def test_one_value_and_arrays_agree_and_invert(self, bits):
        # A value permuted alone (on Python ints) is permuted as in an array, with
        # either direction per value, and the inverse undoes the permutation.
        rng = np.random.default_rng(bits)
        seeds = rng.integers(2**64, size=200, dtype=np.uint64)
        first = int(rng.integers(1, 2**20))
        values = rng.integers(1 << bits, size=200)
        images = {}
        for inverse in (False, True):
            images[inverse] = etcf._permute(seeds, first, bits, values, inverse)
            assert images[inverse].min() >= 0 and images[inverse].max() < 1 << bits
            back = etcf._permute(seeds, first, bits, images[inverse], not inverse)
            assert np.array_equal(back, values)
            alone = [etcf._permute(seeds[i:i + 1], first, bits, values[i:i + 1], inverse)[0]
                     for i in range(len(values))]
            assert images[inverse].tolist() == alone
        mixed = rng.integers(2, size=200).astype(bool)
        assert np.array_equal(etcf._permute(seeds, first, bits, values, mixed),
                              np.where(mixed, images[True], images[False]))


@pytest.mark.parametrize("kind", list(KeyKind))
@pytest.mark.parametrize("w", [2, 3, 4, 5, 6])
def test_one_key_calls_are_the_array_maps_at_every_point(w, kind):
    # evaluate, claw_partner, invert and check_preimage of one ideal key, and _claws and
    # _preimages of its seed, are the scalar maps (etcf_oracle) at every point of their
    # ranges.
    size, claw_free = 1 << w, kind is KeyKind.CLAW_FREE
    for seed in (0, 7, 2**64 - 1, 0x9E3779B97F4A7C15):
        key, _ = keygen(kind, ideal(w), seed)
        branch, x = np.divmod(np.arange(2 * size), size)
        seeds = np.full(2 * size, seed, dtype=np.uint64)
        images, partners = etcf._claws(seeds, np.full(2 * size, claw_free), w, branch, x)
        for b, point, y, partner in zip(branch.tolist(), x.tolist(), images.tolist(),
                                        partners.tolist()):
            assert evaluate(key, b, point) == y == etcf_oracle.evaluate(key, b, point)
            assert check_preimage(key, point << 1 | b, y)
            assert not check_preimage(key, point << 1 | b, y ^ 1)
            if claw_free:
                assert claw_partner(key, b, point) == partner
                assert partner == etcf_oracle.claw_partner(key, b, point)
        c = np.arange(4 * size)
        hits, preimages = etcf._preimages(np.full(4 * size, seed, dtype=np.uint64),
                                          np.full(4 * size, claw_free), w, c)
        for point, hit, pair in zip(c.tolist(), hits.tolist(), preimages.tolist()):
            if not any(hit):
                for scalar in (invert, etcf_oracle.invert):
                    with pytest.raises(NoPreimageError):
                        scalar(key, point)
            elif claw_free:
                assert invert(key, point) == tuple(pair) == etcf_oracle.invert(key, point)
            else:
                b = hit.index(True)
                assert invert(key, point) == (b, pair[b]) == etcf_oracle.invert(key, point)


class TestBatchedIdealKeygen:
    KINDS = [KeyKind.INJECTIVE, KeyKind.CLAW_FREE, KeyKind.CLAW_FREE, KeyKind.INJECTIVE,
             KeyKind.CLAW_FREE]

    @pytest.mark.parametrize("keys_per_draw", [None, 1])
    @pytest.mark.parametrize("w", [2, 5, 10])
    def test_draws_follow_the_documented_order(self, w, keys_per_draw):
        # Each key's maps are the documented permutations of its seed's words, whether
        # its batch holds all the keys or only it.
        seeds = [w, 2**64 - 1, 0, 2**63, 12345]
        step = keys_per_draw or len(seeds)
        keys = [
            key for lo in range(0, len(seeds), step)
            for key in keygen_ideal(
                self.KINDS[lo:lo + step], w, np.array(seeds[lo:lo + step], dtype=np.uint64)
            )
        ]
        for key, kind, seed in zip(keys, self.KINDS, seeds):
            assert key.kind is kind and key.domain_bits == w and key.seed == seed
            assert np.array_equal(key.tables, documented_tables(kind, w, seed))

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_keygen_is_the_one_key_case(self, kind):
        seeds = np.array([7, 63, 2**64 - 1], dtype=np.uint64)
        batch = keygen_ideal([kind, KeyKind.CLAW_FREE, KeyKind.INJECTIVE], 4, seeds)
        key, trapdoor = keygen(kind, ideal(4), 7)
        assert trapdoor is key
        assert np.array_equal(key.tables, batch[0].tables)
        # A Generator stands for the key seed it draws.
        drawn = np.random.default_rng(63).integers(2**64, dtype=np.uint64)
        key, _ = keygen(kind, ideal(4), np.random.default_rng(63))
        assert np.array_equal(key.tables, keygen(kind, ideal(4), drawn)[0].tables)

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_tables_are_computed_once_and_read_only(self, kind):
        key, _ = keygen(kind, ideal(3), 5)
        assert key.tables is key.tables
        with pytest.raises(ValueError):
            key.tables[0, 0] = 0

    def test_claw_free_matchings_and_images_are_uniform(self):
        seeds = np.arange(4800, dtype=np.uint64)  # neighbouring seeds, the hardest case
        keys = keygen_ideal([KeyKind.CLAW_FREE] * len(seeds), 2, seeds)
        matchings = Counter()
        first_two = Counter()
        points = np.zeros((4, 16))
        for key in keys:
            f0, f1 = key.tables
            matchings[tuple(int(np.flatnonzero(f1 == y)[0]) for y in f0)] += 1
            first_two[(int(f0[0]), int(f0[1]))] += 1
            points[np.arange(4), f0] += 1
        assert set(matchings) == set(itertools.permutations(range(4)))
        assert_multinomial(list(matchings.values()), [1 / 24] * 24, "matchings")
        for x in range(4):
            assert_multinomial(points[x], [1 / 16] * 16, f"f_0({x})")
        pairs_of_points = list(itertools.permutations(range(16), 2))
        assert_multinomial([first_two[p] for p in pairs_of_points],
                           [1 / len(pairs_of_points)] * len(pairs_of_points), "f_0(0), f_0(1)")

    def test_injective_images_are_disjoint_and_uniform(self):
        seeds = np.arange(4800, dtype=np.uint64)
        keys = keygen_ideal([KeyKind.INJECTIVE] * len(seeds), 2, seeds)
        points = np.zeros((2, 4, 16))  # branch, x, codomain point
        for key in keys:
            f0, f1 = key.tables
            assert not set(f0.tolist()) & set(f1.tolist())
            points[0, np.arange(4), f0] += 1
            points[1, np.arange(4), f1] += 1
        for b, x in itertools.product(range(2), range(4)):
            assert_multinomial(points[b, x], [1 / 16] * 16, f"f_{b}({x})")


TOY_SIZES = [(3, 6, 17), (1, 2, 2), (2, 4, 3), (1, 3, 7), (1, 2, 2**31 - 1), (31, 63, 2)]


def toy(n: int, m: int, q: int) -> EtcfParams:
    return EtcfParams(family="toy-lattice", n=n, m=m, q=q)


def _assert_reference_keys(keys, kinds, params, seeds):
    # A claw-free key's s is its shift's first n coordinates: equal shifts are equal s.
    assert len(keys) == len(kinds) == len(seeds)
    for key, kind, seed in zip(keys, kinds, seeds):
        reference = reference_keygen_toy(kind, params, seed)
        assert (key.kind, key.n, key.m, key.q) == (kind, params.n, params.m, params.q)
        assert np.array_equal(key.matrix, reference.matrix), seed
        assert np.array_equal(key.shift, reference.shift), seed


class TestBatchedToyKeygen:
    @pytest.mark.parametrize("n, m, q", TOY_SIZES)
    def test_keys_are_the_reference_keys(self, n, m, q):
        # Mixed kinds in random order, over a few hundred seeds and the extremes.
        rng = np.random.default_rng(q)
        seeds = [0, 2**64 - 1, *rng.integers(2**64, size=300, dtype=np.uint64).tolist()]
        kinds = [KeyKind.CLAW_FREE if h else KeyKind.INJECTIVE
                 for h in rng.integers(2, size=len(seeds))]
        keys = keygen_toy(kinds, toy(n, m, q), np.array(seeds, dtype=np.uint64))
        _assert_reference_keys(keys, kinds, toy(n, m, q), seeds)

    @pytest.mark.parametrize("n, m, q", [(3, 6, 17), (1, 2, 2)])
    def test_one_key_per_step_draws_the_same_keys(self, monkeypatch, n, m, q):
        monkeypatch.setattr(etcf, "_CHUNK_WORDS", 1)
        seeds = [0, 2**64 - 1, *range(1, 60)]
        kinds = [list(KeyKind)[seed % 2] for seed in seeds]
        keys = keygen_toy(kinds, toy(n, m, q), np.array(seeds, dtype=np.uint64))
        _assert_reference_keys(keys, kinds, toy(n, m, q), seeds)

    def test_injective_redraws_take_the_next_values(self):
        # At q = 2 every word is a value: u is first words 2 and 3, in the column
        # space of A = [1; r] (r word 1) when u_2 = r u_1, and then redrawn.
        seeds = np.arange(1000, dtype=np.uint64)
        words = key_words(seeds, 1, 3) & np.uint64(1)
        assert np.count_nonzero(words[:, 2] == words[:, 0] * words[:, 1]) == 481
        kinds = [KeyKind.INJECTIVE] * len(seeds)
        keys = keygen_toy(kinds, toy(1, 2, 2), seeds)
        _assert_reference_keys(keys, kinds, toy(1, 2, 2), seeds.tolist())

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_keygen_is_the_one_key_case(self, kind):
        params = toy(1, 2, 2)
        for seed in (0, 5, 2**64 - 1):
            [batch] = keygen_toy([kind], params, np.array([seed], dtype=np.uint64))
            key, trapdoor = keygen(kind, params, seed)
            assert trapdoor is key
            _assert_reference_keys([batch, key], [kind, kind], params, [seed, seed])
        # A Generator stands for the key seed it draws.
        drawn = np.random.default_rng(63).integers(2**64, dtype=np.uint64)
        key, _ = keygen(kind, params, np.random.default_rng(63))
        _assert_reference_keys([key], [kind], params, [int(drawn)])


@pytest.mark.parametrize("n, m, q", TOY_SIZES)
def test_vector_codes_are_the_loop_codes(n, m, q):
    # encode_vector and decode_vector, one row of the array codes, are the
    # per-coordinate loops (etcf_oracle) at every width, up to 63-bit strings: on
    # vectors mod q, and on strings with coordinates of q or more, too wide or negative.
    rng = np.random.default_rng(m)
    width = m * (q - 1).bit_length()
    for vec in rng.integers(q, size=(100, m)):
        assert encode_vector(vec, q) == etcf_oracle.encode_vector(vec, q)
        assert type(encode_vector(vec, q)) is int
    with pytest.raises(ValueError, match="more than 63 bits"):  # no int64 holds it
        encode_vector(np.full(64 // (q - 1).bit_length() + 1, q - 1), q)
    # Every string up to 12 bits wide, else a sample.
    strings = range(1 << width) if width <= 12 else rng.integers(
        1 << width, size=200, dtype=np.uint64).tolist()
    for value in [*strings, 0, (1 << width) - 1, 1 << width, -1]:
        decoded, expected = decode_vector(value, m, q), etcf_oracle.decode_vector(value, m, q)
        assert (decoded is None) == (expected is None)
        assert expected is None or decoded.tolist() == expected.tolist()


class TestToyLattice:
    def test_shift_identity_on_random_inputs(self):
        # f1(x - s) = f0(x): the construction's claw identity.
        rng = np.random.default_rng(10)
        key, _ = keygen(KeyKind.CLAW_FREE, TOY, rng)
        secret = key.shift[:3]
        for _ in range(100):
            vec = rng.integers(0, 17, size=3)
            shifted = (vec - secret) % 17
            assert evaluate(key, 1, encode_vector(shifted, 17)) == evaluate(
                key, 0, encode_vector(vec, 17)
            )

    def test_invert_round_trips_on_random_inputs(self):
        rng = np.random.default_rng(11)
        key, trap = keygen(KeyKind.CLAW_FREE, TOY, rng)
        for _ in range(1000):
            vec = rng.integers(0, 17, size=3)
            x = encode_vector(vec, 17)
            y = evaluate(key, 0, x)
            x0, x1 = invert(trap, y)
            assert x0 == x
            assert evaluate(key, 1, x1) == y

    def test_injective_round_trips_and_disjointness(self):
        rng = np.random.default_rng(12)
        key, trap = keygen(KeyKind.INJECTIVE, TOY, rng)
        for _ in range(300):
            vec = rng.integers(0, 17, size=3)
            x = encode_vector(vec, 17)
            b = int(rng.integers(2))
            assert invert(trap, evaluate(key, b, x)) == (b, x)

    def test_invert_rejects_point_outside_column_space(self):
        # m > n, so random codomain points usually miss the column space.
        rng = np.random.default_rng(13)
        _, trap = keygen(KeyKind.CLAW_FREE, TOY, rng)
        rejected = 0
        for _ in range(100):
            y = encode_vector(rng.integers(0, 17, size=6), 17)
            try:
                invert(trap, y)
            except NoPreimageError:
                rejected += 1
        assert rejected > 90  # hit probability is q^(n-m) = 17^-3

    def test_claw_encoding_consistency(self):
        # enc(x0) xor enc(x1) equals enc(x1 + s) xor enc(x1) pointwise.
        rng = np.random.default_rng(14)
        key, _ = keygen(KeyKind.CLAW_FREE, TOY, rng)
        for _ in range(50):
            vec = rng.integers(0, 17, size=3)
            x0 = encode_vector(vec, 17)
            x1 = claw_partner(key, 0, x0)
            rebuilt = encode_vector(
                (decode_vector(x1, 3, 17) + key.shift[:3]) % 17, 17
            )
            assert rebuilt == x0
            assert x0 ^ x1 == rebuilt ^ x1

    def test_entries_and_secret_are_uniform_mod_q(self):
        # A = [I; R] in systematic form: the entries of R are the drawn ones.
        blocks = np.empty((2000, 3 * 3), dtype=np.int64)
        secrets = np.empty((2000, 3), dtype=np.int64)
        for seed in range(len(blocks)):
            key, _ = keygen(KeyKind.CLAW_FREE, TOY, seed)
            assert np.array_equal(key.matrix[:3], np.eye(3, dtype=np.int64))
            blocks[seed], secrets[seed] = key.matrix[3:].ravel(), key.shift[:3]
        for name, draws in (("R", blocks), ("s", secrets)):
            for position in range(draws.shape[1]):
                counts = np.bincount(draws[:, position], minlength=17)
                assert_multinomial(counts, [1 / 17] * 17, f"{name} entry {position}")

    def test_injective_shift_never_lies_in_the_column_space(self):
        # q = 2, n = 1, m = 2: half of all shifts lie in the column space and are redrawn.
        small = EtcfParams(family="toy-lattice", n=1, m=2, q=2)
        for seed in range(300):
            key, _ = keygen(KeyKind.INJECTIVE, small, seed)
            assert etcf_oracle._solve(key, key.shift) is None
            assert len(image(key)) == 4  # two disjoint one-to-one branches

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_q_of_31_bits(self, kind):
        big = EtcfParams(family="toy-lattice", n=1, m=2, q=2**31 - 1)
        key, trap = keygen(kind, big, 2**64 - 1)
        assert key.matrix.max() < big.q and key.shift.max() < big.q
        x = encode_vector(np.array([123456789]), big.q)
        for b in (0, 1):
            inverted = invert(trap, evaluate(key, b, x))
            assert inverted[b] == x if kind is KeyKind.CLAW_FREE else inverted == (b, x)

    def test_domain_rejects_bad_encoding(self):
        rng = np.random.default_rng(15)
        key, _ = keygen(KeyKind.CLAW_FREE, TOY, rng)
        bad = encode_vector(np.array([18, 0, 0]), 17)  # coordinate >= q
        assert not key.in_domain(bad)
        with pytest.raises(ValueError):
            evaluate(key, 0, bad)


class TestExhaustiveToyLattice:
    """Every codomain point of small keys, against the maps' definitions."""

    @pytest.mark.parametrize("kind", list(KeyKind))
    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 4)])
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_every_codomain_point(self, q, n, m, kind):
        params = EtcfParams(family="toy-lattice", n=n, m=m, q=q)
        domain = [encode_vector(vec, q) for vec in itertools.product(range(q), repeat=n)]
        codomain = encode_vectors(np.array(list(itertools.product(range(q), repeat=m))), q)
        for seed in (0, 1, 2**64 - 1):
            key, trapdoor = keygen(kind, params, seed)
            preimages = {}  # codomain point -> its (b, x), branch 0 first
            for b, x in itertools.product((0, 1), domain):
                preimages.setdefault(evaluate(key, b, x), []).append((b, x))
            points = image(key)
            assert points == set(preimages)
            if kind is KeyKind.CLAW_FREE:
                assert len(points) == q**n
                for y, pairs in preimages.items():
                    (_, x0), (_, x1) = pairs
                    assert [b for b, _ in pairs] == [0, 1]
                    assert invert(trapdoor, y) == (x0, x1)
                    assert claw_partner(key, 0, x0) == x1 and claw_partner(key, 1, x1) == x0
            else:
                assert len(points) == 2 * q**n
                for y, pairs in preimages.items():
                    assert pairs == [invert(trapdoor, y)]
            # Every codomain point, through the map that invert runs, in one call on the
            # key's row: a preimage under exactly the branches the definitions give.
            everywhere = np.zeros(len(codomain), dtype=np.intp)
            hits, found = etcf.stack_keys([trapdoor]).preimages(everywhere, codomain)
            for y, hit, pair in zip(codomain.tolist(), hits.tolist(), found.tolist()):
                assert preimages.get(y, []) == [(b, pair[b]) for b in (0, 1) if hit[b]]
            for y in codomain.tolist():
                if y not in points:
                    with pytest.raises(NoPreimageError, match="has no preimage"):
                        invert(trapdoor, y)


class TestCheckPreimage:
    def test_valid_branch_zero(self):
        key, _ = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(16))
        c = evaluate(key, 0, 5)
        assert check_preimage(key, (5 << 1) | 0, c)

    def test_claw_partner_also_passes(self):
        key, trap = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(17))
        c = evaluate(key, 0, 5)
        _, x1 = invert(trap, c)
        assert check_preimage(key, (x1 << 1) | 1, c)
        for x in range(16):
            if x != x1:
                assert not check_preimage(key, (x << 1) | 1, c)

    def test_wrong_commitment_fails(self):
        key, _ = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(18))
        c = evaluate(key, 0, 5)
        assert not check_preimage(key, (6 << 1) | 0, c)

    def test_malformed_z_raises(self):
        key, _ = keygen(KeyKind.CLAW_FREE, ideal(4), np.random.default_rng(19))
        with pytest.raises(ValueError):
            check_preimage(key, 1 << 5, 0)
        with pytest.raises(ValueError):
            check_preimage(key, -1, 0)

    def test_out_of_domain_remainder_fails_cleanly(self):
        rng = np.random.default_rng(20)
        key, _ = keygen(KeyKind.CLAW_FREE, TOY, rng)
        bad_x = encode_vector(np.array([18, 0, 0]), 17)
        assert not check_preimage(key, (bad_x << 1) | 0, 0)


@pytest.mark.parametrize("params", [ideal(2), ideal(5), toy(2, 4, 5), toy(1, 2, 2)],
                         ids=["ideal-2", "ideal-5", "toy-2-4-5", "toy-1-2-2"])
def test_batch_maps_are_the_scalar_maps(params):
    # 200 keys of mixed kinds, at points sample_domain draws as (100, 2) as a device
    # does: the raw draws the devices docstring names, from an equal Generator.
    rng = np.random.default_rng(35)
    keys = etcf.draw_keys(rng.integers(2, size=200) == 1, params, rng.bytes(8 * 200))
    branch = rng.integers(2, size=200)
    x = sample_domain(params, np.random.default_rng(36), (100, 2))
    raw = np.random.default_rng(36)
    if params.family == "ideal":
        expected = raw.integers(1 << params.domain_bits, size=(100, 2)).tolist()
    else:
        vectors = raw.integers(params.q, size=(100, 2, params.n))
        expected = [[encode_vector(v, params.q) for v in row] for row in vectors]
    assert x.tolist() == expected
    x = x.ravel()
    images, partners = keys.claws(branch, x)
    assert {key.kind for key in keys} == set(KeyKind)
    for key, b, point, c, partner in zip(keys, branch.tolist(), x.tolist(), images.tolist(),
                                         partners.tolist()):
        assert c == etcf_oracle.evaluate(key, b, point)
        if key.kind is KeyKind.CLAW_FREE:
            assert partner == etcf_oracle.claw_partner(key, b, point)
    # check_preimages and preimages, at keys read in any order: each key's honest z and
    # c; the same with x, then c, raised by q in its first coordinate (by 1 for an ideal
    # key), where it fits, which is their value mod q; then z and c drawn over their
    # whole widths.  So they reach points outside the image, remainders outside the
    # domain and coordinates of q or more.
    domain_bits, codomain_bits = etcf.key_widths(params)
    step = params.q if params.family == "toy-lattice" else 1
    every, honest = np.arange(200), x << 1 | branch
    raise_x, raise_c = x + step < 1 << domain_bits, images + step < 1 << codomain_bits
    rows = np.concatenate([every, every[raise_x], every[raise_c], rng.integers(200, size=600)])
    z = np.concatenate([honest, honest[raise_x] + (step << 1), honest[raise_c],
                        rng.integers(2 << domain_bits, size=600)])
    c = np.concatenate([images, images[raise_x], images[raise_c] + step,
                        rng.integers(1 << codomain_bits, size=600)])
    checks = keys.check_preimages(rows, z, c)
    hits, preimages = keys.preimages(rows, c)
    assert checks[:200].all() and hits[:200].any(axis=1).all()
    reached = Counter()
    for row, z_i, c_i, ok, hit, pair in zip(rows.tolist(), z.tolist(), c.tolist(),
                                             checks.tolist(), hits.tolist(), preimages.tolist()):
        key = keys[row]
        assert ok == etcf_oracle.check_preimage(key, z_i, c_i)
        if not any(hit):
            reached["outside the image"] += 1
            with pytest.raises(NoPreimageError):
                etcf_oracle.invert(key, c_i)
        elif key.kind is KeyKind.CLAW_FREE:
            assert hit == [True, True] and tuple(pair) == etcf_oracle.invert(key, c_i)
        else:
            b = hit.index(True)
            assert hit.count(True) == 1 and (b, pair[b]) == etcf_oracle.invert(key, c_i)
        if params.family == "toy-lattice":
            reached["remainder outside the domain"] += etcf_oracle.decode_vector(
                z_i >> 1, key.n, key.q) is None
            reached["coordinate of q or more"] += etcf_oracle.decode_vector(
                c_i, key.m, key.q) is None
    assert reached["outside the image"]
    if params.family == "toy-lattice" and params.q & (params.q - 1):  # q not a power of 2
        assert reached["remainder outside the domain"] and reached["coordinate of q or more"]


@pytest.mark.parametrize("kind", [KeyKind.CLAW_FREE, KeyKind.INJECTIVE])
@pytest.mark.parametrize("params", [ideal(4), TOY], ids=["ideal", "toy"])
def test_numpy_integer_arguments_read_as_ints(kind, params):
    # A bit string is a Python or numpy integer: each call returns the same for both.
    key, trapdoor = keygen(kind, params, np.random.default_rng(21))
    for y in sorted(image(key))[:8]:
        inverted = invert(trapdoor, y)
        assert invert(trapdoor, np.int64(y)) == inverted
        pairs = [(0, inverted[0]), (1, inverted[1])] if kind is KeyKind.CLAW_FREE else [inverted]
        for b, x in pairs:
            assert evaluate(key, np.int64(b), np.int64(x)) == evaluate(key, b, x) == y
            z = b | x << 1
            for c in (y, y ^ 1):
                assert check_preimage(key, np.int64(z), np.int64(c)) is check_preimage(key, z, c)


@pytest.mark.parametrize("integer", [int, np.int64], ids=["int", "int64"])
@pytest.mark.parametrize("kind", [KeyKind.CLAW_FREE, KeyKind.INJECTIVE])
@pytest.mark.parametrize("params", [ideal(4), TOY], ids=["ideal", "toy"])
def test_one_key_calls_return_python_values(params, kind, integer):
    # The one-key calls run the batch maps on numpy arrays, and return no numpy scalar:
    # evaluate and claw_partner an int, invert a tuple of ints, check_preimage a bool.
    key, _ = keygen(kind, params, 22)
    for y in sorted(image(key))[:8]:
        inverted = invert(key, integer(y))
        assert type(inverted) is tuple and [type(v) for v in inverted] == [int, int]
        pairs = [(0, inverted[0]), (1, inverted[1])] if kind is KeyKind.CLAW_FREE else [inverted]
        for b, x in pairs:
            assert type(evaluate(key, integer(b), integer(x))) is int
            if kind is KeyKind.CLAW_FREE:
                assert type(claw_partner(key, integer(b), integer(x))) is int
            for c in (y, y ^ 1):
                assert type(check_preimage(key, integer(b | x << 1), integer(c))) is bool


def test_demo_02_prints_the_pinned_output():
    # The trapdoor-families demo shows the one-key calls, which run the batch maps.
    demo = Path(__file__).parents[1] / "demos" / "02_trapdoor_function_families.py"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "3c0849ad28314517fad40d3a4a2743f744f0f98ba1725aaaa02860a492ab79b6"


def _imports(path: Path):
    """Each import statement of a module, at any depth of its statements, with the
    modules it names (``from m import a`` names m, relative ones with their dots)."""
    statements = ast.parse(path.read_text()).body
    while statements:
        node = statements.pop()
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node, ["." * node.level + (node.module or "")]
        for field in ("body", "orelse", "finalbody", "handlers"):
            statements.extend(getattr(node, field, ()))


def test_the_scalar_maps_share_no_code_with_the_batch_maps():
    # etcf_oracle takes only plain data from cdiqkd.etcf, and src never imports the tests.
    plain = {"IdealKeyPair", "ToyLatticeKeyPair", "KeyKind", "EtcfParams", "NoPreimageError",
             "fits"}
    engine = [node for node, modules in _imports(Path(etcf_oracle.__file__))
              if any(module.split(".")[0] == "cdiqkd" for module in modules)]
    assert engine
    for node in engine:
        assert isinstance(node, ast.ImportFrom) and node.module == "cdiqkd.etcf"
        assert {alias.name for alias in node.names} <= plain
    for path in Path(etcf.__file__).parent.glob("*.py"):
        for _, modules in _imports(path):
            assert not any(module.split(".")[0] == "tests" or module.startswith("..")
                           for module in modules), path


@given(w=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_ideal_structure_property(w, seed):
    """Claw-free pairs are exactly 2-to-1; injective pairs are disjoint 1-to-1."""
    rng = np.random.default_rng(seed)
    cf_key, cf_trap = keygen(KeyKind.CLAW_FREE, ideal(w), rng)
    counts = Counter(
        evaluate(cf_key, b, x) for b in (0, 1) for x in range(1 << w)
    )
    assert all(count == 2 for count in counts.values())
    for x in range(1 << w):
        y = evaluate(cf_key, 0, x)
        x0, x1 = invert(cf_trap, y)
        assert x0 == x and evaluate(cf_key, 1, x1) == y

    inj_key, inj_trap = keygen(KeyKind.INJECTIVE, ideal(w), rng)
    image0 = {evaluate(inj_key, 0, x) for x in range(1 << w)}
    image1 = {evaluate(inj_key, 1, x) for x in range(1 << w)}
    assert len(image0) == len(image1) == 1 << w
    assert not image0 & image1
