"""ETCF family tests: exhaustive structure, inversion, claw identities."""

import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd.etcf import (
    EtcfParams,
    IdealKeyPair,
    KeyKind,
    NoPreimageError,
    check_preimage,
    claw_partner,
    decode_vector,
    encode_vector,
    evaluate,
    image,
    invert,
    keygen,
    keygen_ideal,
    trapdoor_from_dict,
    trapdoor_to_dict,
    _left_inverse,
    _solve,
)
from cdiqkd import etcf
from cdiqkd.devices import make_device
from cdiqkd.protocol import ProtocolParams, run_session

from .helpers import assert_frequency, assert_multinomial


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


def _tables_one_permutation_at_a_time(kinds, size, rng):
    """The documented draw order of ``keygen_ideal``, one ``rng.permutation`` call at a time."""
    claw_free = [i for i, kind in enumerate(kinds) if kind is KeyKind.CLAW_FREE]
    injective = [i for i, kind in enumerate(kinds) if kind is KeyKind.INJECTIVE]
    tables = {}
    matchings = [rng.permutation(size) for _ in claw_free]
    for i, matching in zip(claw_free, matchings):
        image = rng.permutation(4 * size)[:size]
        tables[i] = np.empty((2, size), dtype=np.int64)
        tables[i][0] = image
        tables[i][1, matching] = image
    low_branches = rng.integers(2, size=len(injective))
    for i, low_branch in zip(injective, low_branches):
        tables[i] = np.stack([
            rng.permutation(2 * size)[:size] + (0 if b == low_branch else 2 * size)
            for b in (0, 1)
        ])
    return [tables[i] for i in range(len(kinds))]


class TestBatchedIdealKeygen:
    KINDS = [KeyKind.INJECTIVE, KeyKind.CLAW_FREE, KeyKind.CLAW_FREE, KeyKind.INJECTIVE,
             KeyKind.CLAW_FREE]

    @pytest.mark.parametrize("shuffle_entries", [None, 1])
    @pytest.mark.parametrize("w", [2, 5, 10])
    def test_draws_follow_the_documented_order(self, monkeypatch, w, shuffle_entries):
        # One row per shuffle call draws the same keys as the default chunks.
        if shuffle_entries is not None:
            monkeypatch.setattr(etcf, "_SHUFFLE_ENTRIES", shuffle_entries)
        trapdoors = keygen_ideal(self.KINDS, w, np.random.default_rng(w))
        expected = _tables_one_permutation_at_a_time(self.KINDS, 1 << w, np.random.default_rng(w))
        for trapdoor, kind, tables in zip(trapdoors, self.KINDS, expected):
            key = trapdoor.key
            assert key.kind is kind and key.domain_bits == w and trapdoor.secret is None
            assert np.array_equal(key.tables, tables)

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_keygen_is_the_one_key_case(self, kind):
        key, trapdoor = keygen(kind, ideal(4), np.random.default_rng(63))
        batch_key = keygen_ideal([kind], 4, np.random.default_rng(63))[0].key
        assert trapdoor.key is key
        assert np.array_equal(key.tables, batch_key.tables)

    def test_claw_free_matchings_and_images_are_uniform(self):
        trapdoors = keygen_ideal([KeyKind.CLAW_FREE] * 4800, 2, np.random.default_rng(64))
        matchings = Counter()
        first_two = Counter()
        points = np.zeros((4, 16))
        for trapdoor in trapdoors:
            f0, f1 = trapdoor.key.tables
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

    def test_injective_low_branch_and_images_are_uniform(self):
        trapdoors = keygen_ideal([KeyKind.INJECTIVE] * 4800, 2, np.random.default_rng(65))
        low_zero = 0
        halves = np.zeros((2, 4, 8))  # (low, high) half, x, point within the half
        for key in (trapdoor.key for trapdoor in trapdoors):
            low = 0 if key.tables[0].max() < 8 else 1
            low_zero += low == 0
            halves[0, np.arange(4), key.tables[low]] += 1
            halves[1, np.arange(4), key.tables[1 - low] - 8] += 1
        assert_frequency(low_zero, len(trapdoors), 0.5, "low branch 0")
        for half, x in itertools.product(range(2), range(4)):
            assert_multinomial(halves[half, x], [1 / 8] * 8, f"half {half}, x {x}")


class TestToyLattice:
    def test_shift_identity_on_random_inputs(self):
        # f1(x - s) = f0(x): the construction's claw identity.
        rng = np.random.default_rng(10)
        key, trap = keygen(KeyKind.CLAW_FREE, TOY, rng)
        secret = trap.secret
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
        key, trap = keygen(KeyKind.CLAW_FREE, TOY, rng)
        for _ in range(50):
            vec = rng.integers(0, 17, size=3)
            x0 = encode_vector(vec, 17)
            x1 = claw_partner(key, 0, x0)
            rebuilt = encode_vector(
                (decode_vector(x1, 3, 17) + trap.secret) % 17, 17
            )
            assert rebuilt == x0
            assert x0 ^ x1 == rebuilt ^ x1

    def test_domain_rejects_bad_encoding(self):
        rng = np.random.default_rng(15)
        key, _ = keygen(KeyKind.CLAW_FREE, TOY, rng)
        bad = encode_vector(np.array([18, 0, 0]), 17)  # coordinate >= q
        assert not key.in_domain(bad)
        with pytest.raises(ValueError):
            evaluate(key, 0, bad)


class TestRowReduction:
    """The left inverse from one mod-q elimination, against exhaustive search
    over all q**n vectors."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 7]))
    def test_solve_and_rank_match_brute_force(self, seed, q):
        rng = np.random.default_rng(seed)
        m, n = 4, 2
        a = rng.integers(0, q, size=(m, n))
        if rng.random() < 0.3:
            a[:, 1] = (a[:, 0] * int(rng.integers(q))) % q  # rank-deficient
        b = rng.integers(0, q, size=m)
        if rng.random() < 0.5:
            b = (a @ rng.integers(0, q, size=n)) % q  # consistent right-hand side
        vectors = [np.array([i % q, i // q]) for i in range(q**n)]
        solutions = [x for x in vectors if not np.any((a @ x - b) % q)]
        kernel = [x for x in vectors if not np.any((a @ x) % q)]
        left_inverse = _left_inverse(a, q)
        assert (left_inverse is not None) == (len(kernel) == 1)
        if left_inverse is None:
            return
        assert left_inverse.shape == (n, m)
        assert np.array_equal(left_inverse @ a % q, np.eye(n, dtype=np.int64))
        solved = _solve(a, left_inverse, b, q)  # L b, if A (L b) = b
        if solutions:
            assert np.array_equal(solved, solutions[0])  # unique: the kernel is trivial
        else:
            assert solved is None

    def test_one_elimination_per_toy_key(self, monkeypatch):
        calls = []
        row_reduce = etcf._row_reduce
        monkeypatch.setattr(etcf, "_row_reduce", lambda *args: calls.append(1) or row_reduce(*args))
        rng = np.random.default_rng(24)
        for kind in KeyKind:
            key, trap = keygen(kind, TOY, rng)
            for _ in range(20):
                x = encode_vector(rng.integers(0, 17, size=3), 17)
                invert(trap, evaluate(key, 1, x))
                if kind is KeyKind.CLAW_FREE:
                    claw_partner(key, 0, x)
            trapdoor_from_dict(trapdoor_to_dict(trap), TOY)
        # One for each key drawn, one for each key loaded: these draws need no rank retry.
        assert len(calls) == 4


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


class TestSerialization:
    @pytest.mark.parametrize("kind", [KeyKind.CLAW_FREE, KeyKind.INJECTIVE])
    @pytest.mark.parametrize("params", [ideal(4), TOY], ids=["ideal", "toy"])
    def test_round_trip(self, kind, params):
        rng = np.random.default_rng(21)
        key, trap = keygen(kind, params, rng)
        data = trapdoor_to_dict(trap)
        # The reader gives the family and its sizes; only a claw-free toy-lattice
        # trapdoor holds more than its key.
        arrays = {"tables"} if params is not TOY else {"matrix", "shift"}
        secret = {"secret"} if params is TOY and kind is KeyKind.CLAW_FREE else set()
        assert set(data) == {"kind"} | arrays | secret
        trap2 = trapdoor_from_dict(data, params)
        key2 = trap2.key
        sample_inputs = range(16) if isinstance(key, IdealKeyPair) else [
            encode_vector(rng.integers(0, 17, size=3), 17) for _ in range(16)
        ]
        for x in sample_inputs:
            for b in (0, 1):
                y = evaluate(key, b, x)
                assert evaluate(key2, b, x) == y
                assert invert(trap2, y) == invert(trap, y)

    def test_toy_secret_must_solve_its_key(self):
        rng = np.random.default_rng(23)
        _, trap = keygen(KeyKind.CLAW_FREE, TOY, rng)
        _, other_trap = keygen(KeyKind.CLAW_FREE, TOY, rng)
        _, injective = keygen(KeyKind.INJECTIVE, TOY, rng)
        data = trapdoor_to_dict(trap)
        assert np.array_equal(trapdoor_from_dict(data, TOY).secret, trap.secret)
        secret = data.pop("secret")
        cases = [
            {**data, "secret": trapdoor_to_dict(other_trap)["secret"]},
            data,
            {**data, "secret": secret[:-8]},
            {**trapdoor_to_dict(injective), "secret": secret},
        ]
        for case in cases:
            with pytest.raises((LookupError, ValueError)):
                trapdoor_from_dict(case, TOY)

    @pytest.mark.parametrize("params", [ideal(4), TOY], ids=["ideal", "toy"])
    def test_only_what_the_writer_writes_is_read(self, params):
        _, trap = keygen(KeyKind.CLAW_FREE, params, np.random.default_rng(25))
        data = trapdoor_to_dict(trap)
        name = "tables" if params is not TOY else "matrix"
        assert data[name] != data[name].upper()  # a hex letter to upper-case
        cases = [
            {**data, "note": 1},
            {**data, "family": params.family},
            {**data, name: data[name].upper()},  # bytes.fromhex reads the same bytes
            {**data, name: data[name][:8] + " " + data[name][8:]},  # and skips the space
        ]
        for case in cases:
            with pytest.raises(ValueError):
                trapdoor_from_dict(case, params)


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
