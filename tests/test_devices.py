"""Device strategy tests.

The honest device's classical sampling shortcuts are validated here
against full statevector simulations of the states they stand in for.
"""

import itertools

import numpy as np
import pytest

from cdiqkd.bits import dot, parity
from cdiqkd.devices import (
    NO_QUESTION,
    ClassicalDeterministicDevice,
    ClassicalRandomDevice,
    HonestDevice,
    NoiseSpec,
    NoisyHonestDevice,
    _alice_half,
    _bob_half,
    _outcome_table,
    honest_answer,
    honest_challenge_b,
    honest_commit,
    make_device,
)
from cdiqkd.etcf import EtcfParams, KeyKind, keygen, stack_keys
from cdiqkd.quantum import (
    MeasurementBasis,
    StateVector,
    fidelity_up_to_phase,
    ket,
    measure,
    plus_minus,
)

# Replies are checked against the scalar law, which shares no code with the batch maps
# that the devices commit through.
from .etcf_oracle import check_preimage, claw_partner, evaluate, image, invert
from .helpers import assert_frequency, assert_multinomial

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD


def claw_free_key(w=4, seed=0):
    return keygen(KeyKind.CLAW_FREE, EtcfParams(family="ideal", domain_bits=w), np.random.default_rng(seed))


def injective_key(w=4, seed=0):
    return keygen(KeyKind.INJECTIVE, EtcfParams(family="ideal", domain_bits=w), np.random.default_rng(seed))


FAMILIES = {
    "ideal": EtcfParams(family="ideal", domain_bits=4),
    "toy-lattice": EtcfParams(family="toy-lattice", n=1, m=2, q=5),
}


def family_key(family, kind, seed=0):
    key, _ = keygen(kind, FAMILIES[family], np.random.default_rng(seed))
    return key


class TestHonestCommit:
    def test_claw_free_state_holds_both_members(self):
        key, _ = claw_free_key()
        rng = np.random.default_rng(1)
        for _ in range(50):
            c, state = honest_commit(key, rng)
            x0, x1 = state.claw
            assert evaluate(key, 0, x0) == c
            assert evaluate(key, 1, x1) == c

    def test_injective_state_holds_unique_preimage(self):
        key, _ = injective_key()
        rng = np.random.default_rng(2)
        for _ in range(50):
            c, state = honest_commit(key, rng)
            assert state.claw is None
            assert evaluate(key, state.branch.item(), state.point.item()) == c

    def test_commitments_uniform_over_image(self):
        key, _ = claw_free_key()
        points = sorted(image(key))
        index = {y: i for i, y in enumerate(points)}
        rng = np.random.default_rng(3)
        counts = np.zeros(len(points))
        for _ in range(10_000):
            c, _ = honest_commit(key, rng)
            counts[index[c]] += 1
        assert_multinomial(counts, [1 / len(points)] * len(points), "commitment distribution")


class TestHonestChallengeA:
    """Challenge-a replies of the block device, one key in every round, both families."""

    def test_injective_response_is_deterministic(self):
        for family in FAMILIES:
            key = family_key(family, KeyKind.INJECTIVE, seed=4)
            for c, z in zip(*play_one_key(key, 100, False, seed=4)[1:]):
                b_hat, x_hat = invert(key, c)
                assert z == (b_hat | (x_hat << 1))

    def test_claw_free_response_always_passes_check(self):
        for family in FAMILIES:
            key = family_key(family, KeyKind.CLAW_FREE, seed=5)
            for c, z in zip(*play_one_key(key, 150, False, seed=5)[1:]):
                assert check_preimage(key, z, c)

    def test_branch_bit_is_uniform(self):
        for family in FAMILIES:
            key = family_key(family, KeyKind.CLAW_FREE, seed=6)
            _, _, z = play_one_key(key, 5000, False, seed=6)
            assert_frequency(sum(v & 1 for v in z), len(z), 0.5, f"{family} challenge-a branch bit")


class TestHonestChallengeB:
    def test_phase_zero_gives_plus(self):
        key, _ = claw_free_key()
        rng = np.random.default_rng(8)
        seen = 0
        while seen < 20:
            _, state = honest_commit(key, rng)
            x0, x1 = state.claw
            d, qubit = honest_challenge_b(state, rng)
            expected = plus_minus(dot(d, x0 ^ x1))
            assert fidelity_up_to_phase(qubit, expected) == pytest.approx(1.0, abs=1e-12)
            seen += 1

    def test_injective_qubit_ignores_d(self):
        key, _ = injective_key()
        rng = np.random.default_rng(9)
        for _ in range(50):
            _, state = honest_commit(key, rng)
            b_hat = state.branch.item()
            _, qubit = honest_challenge_b(state, rng)
            assert fidelity_up_to_phase(qubit, ket((b_hat,))) == pytest.approx(1.0, abs=1e-12)

    def test_d_uniform_over_all_strings(self):
        key, _ = claw_free_key(w=3)
        rng = np.random.default_rng(10)
        counts = np.zeros(8)
        for _ in range(10_000):
            _, state = honest_commit(key, rng)
            d, _ = honest_challenge_b(state, rng)
            counts[d] += 1
        assert_multinomial(counts, [1 / 8] * 8, "challenge-b string")

    def test_sampling_rule_matches_statevector_oracle(self):
        """Hadamard-measure the domain register of the real superposition.

        Builds |0,x0> + |1,x1> on 1 + w qubits (w = 3), measures the domain
        wires in the Hadamard basis to obtain d, and checks that the retained
        first qubit is exactly |0> + (-1)^(d.(x0 xor x1)) |1>, for every run,
        with d uniform.
        """
        w = 3
        key, _ = claw_free_key(w=w, seed=11)
        rng = np.random.default_rng(11)
        d_counts = np.zeros(1 << w)
        for _ in range(2000):
            _, internal = honest_commit(key, rng)
            x0, x1 = internal.claw
            amps = np.zeros(1 << (w + 1), dtype=complex)
            for branch, x in ((0, x0), (1, x1)):
                index = branch << w
                for j in range(w):
                    index |= ((x >> j) & 1) << (w - 1 - j)
                amps[index] = 1 / np.sqrt(2)
            state = StateVector(amps)
            d = 0
            for j in range(w):
                bit, state = measure(state, 1 + j, HAD, rng)
                d |= bit << j
            d_counts[d] += 1
            retained = state.amplitudes.reshape(2, -1)
            retained = retained[:, np.abs(retained).sum(axis=0).argmax()]
            qubit = StateVector(retained / np.linalg.norm(retained))
            expected = plus_minus(dot(d, x0 ^ x1))
            assert fidelity_up_to_phase(qubit, expected) == pytest.approx(1.0, abs=1e-10)
        assert_multinomial(d_counts, [1 / (1 << w)] * (1 << w), "oracle d distribution")

    def test_injective_oracle(self):
        w = 3
        key, _ = injective_key(w=w, seed=12)
        rng = np.random.default_rng(12)
        for _ in range(200):
            _, internal = honest_commit(key, rng)
            b_hat, x_hat = internal.branch.item(), internal.point.item()
            bits = [b_hat] + [(x_hat >> j) & 1 for j in range(w)]
            state = ket(tuple(bits))
            d = 0
            for j in range(w):
                bit, state = measure(state, 1 + j, HAD, rng)
                d |= bit << j
            retained = state.amplitudes.reshape(2, -1)
            column = np.abs(retained).sum(axis=0).argmax()
            qubit = StateVector(retained[:, column] / np.linalg.norm(retained[:, column]))
            assert fidelity_up_to_phase(qubit, ket((b_hat,))) == pytest.approx(1.0, abs=1e-10)


class TestHonestAnswer:
    def test_bell_round_computational_parity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s_a, s_b = int(rng.integers(2)), int(rng.integers(2))
            a, b, _, _ = honest_answer(plus_minus(s_a), plus_minus(s_b), COMP, COMP, rng)
            assert a ^ b == s_b

    def test_bell_round_hadamard_parity(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            s_a, s_b = int(rng.integers(2)), int(rng.integers(2))
            a, b, _, _ = honest_answer(plus_minus(s_a), plus_minus(s_b), HAD, HAD, rng)
            assert a ^ b == s_a

    def test_product_round_computational_answer_tracks_herald(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            b_hat = int(rng.integers(2))
            other = plus_minus(int(rng.integers(2)))
            a, _, h_a, _ = honest_answer(ket((b_hat,)), other, COMP, HAD, rng)
            assert a == b_hat ^ h_a


# Retained-qubit codes: 0 = |0>, 1 = |1>, 2 = |+>, 3 = |->.
def code_qubit(code):
    return ket((code,)) if code < 2 else plus_minus(code - 2)


class _Draw(float):
    """A uniform draw that logs the Born probability p0 a measurement compares it with."""

    def __lt__(self, p0):
        self.log.append(p0)
        return float(self) < p0


class _PathRng:
    """Generator stand-in: draw k is 1/4 or 3/4 as bit k of the path is 0 or 1."""

    def __init__(self, path):
        self.path, self.log = path, []

    def random(self):
        bit, self.path = self.path & 1, self.path >> 1
        draw = _Draw(0.75 if bit else 0.25)
        draw.log = self.log
        return draw


BASES = (COMP, HAD)


class TestBornTrees:
    """The flattened outcome tables against the statevector circuits they replace.

    Every Born probability a circuit meets must be 0, 1/2 or 1, so that the
    quarter and three-quarter draws of a coin path stand for every draw
    that takes the same branches: then the table's 16 equally likely paths
    give each answer with the circuit's probability.
    """

    def check(self, code_a, x, code_b, y, circuit):
        table = _outcome_table()
        for path in range(16):
            rng = _PathRng(path)
            assert tuple(table[code_a, x, code_b, y, path].tolist()) == circuit(rng)
            assert len(rng.log) <= 4
            for p0 in rng.log:
                assert min(abs(p0 - p) for p in (0.0, 0.5, 1.0)) < 1e-12

    @pytest.mark.parametrize("x, y", itertools.product((COMP, HAD), repeat=2))
    def test_both_sides_match_teleported_cz(self, x, y):
        for code_a, code_b in itertools.product(range(4), repeat=2):
            def circuit(rng):
                a, b, h_a, h_b = honest_answer(code_qubit(code_a), code_qubit(code_b), x, y, rng)
                return a, h_a, b, h_b

            self.check(code_a, BASES.index(x), code_b, BASES.index(y), circuit)

    @pytest.mark.parametrize("question", (COMP, HAD))
    def test_one_side_matches_its_half_circuit(self, question):
        # A side without a question has code 4 and question index 0, and answers 0.
        q = BASES.index(question)
        for code in range(4):
            self.check(code, q, 4, 0, lambda rng: (*_alice_half(code_qubit(code), question, rng), 0, 0))
            self.check(4, 0, code, q, lambda rng: (0, 0, *_bob_half(code_qubit(code), question, rng)))


@pytest.mark.parametrize("width", [16, 62])
def test_parity_equals_dot(width):
    rng = np.random.default_rng(width)
    a, b = (rng.integers(1 << width, size=2000, dtype=np.int64) for _ in range(2))
    assert parity(a & b).tolist() == [dot(u, v) for u, v in zip(a.tolist(), b.tolist())]


def play(device, keys_a, keys_b, ct_b, questions, seed):
    """One block of rounds: the replies to on_keys, on_challenges and on_questions.

    ``ct_b`` holds each round's two challenge-b flags, ``questions`` its two
    question indices (NO_QUESTION for a side with challenge a).
    """
    ct_b, questions = np.array(ct_b, dtype=bool), np.array(questions, dtype=np.int8)
    device.reset(np.random.default_rng(seed))
    return (
        device.on_keys(keys_a, keys_b),
        device.on_challenges(ct_b[:, 0], ct_b[:, 1]),
        device.on_questions(questions[:, 0], questions[:, 1]),
    )


def as_lists(replies):
    return [[np.asarray(field).tolist() for field in reply] for reply in replies]


def play_one_key(key, rounds, challenge_b, seed):
    """A block in which both sides hold ``key`` and get the same challenge: the device,
    then its commitments and responses as lists, round by round and Alice first."""
    question = 0 if challenge_b else NO_QUESTION
    device, keys = HonestDevice(), [key] * rounds
    replies = play(device, keys, keys, [(challenge_b,) * 2] * rounds, [(question,) * 2] * rounds, seed)
    return (device, *(np.stack(pair, axis=1).ravel().tolist() for pair in replies[:2]))


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestBlockLaw:
    """The block device's commitments and challenge-b codes against the key's own
    image, claw partners and inversion."""

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_commitments_uniform_over_image(self, family, kind):
        key = family_key(family, kind, seed=50)
        _, c, _ = play_one_key(key, 4000, False, seed=50)
        points = sorted(image(key))
        counts = np.bincount([points.index(v) for v in c], minlength=len(points))
        assert_multinomial(counts, [1 / len(points)] * len(points), f"{family} {kind} commitments")

    def test_partners_are_claw_partners(self, family):
        key = family_key(family, KeyKind.CLAW_FREE, seed=51)
        device, _, _ = play_one_key(key, 200, False, seed=51)
        state = device._state
        columns = (state.branch, state.point, state.partner)
        for b, x, partner in zip(*(column.ravel().tolist() for column in columns)):
            assert partner == claw_partner(key, b, x)

    @pytest.mark.parametrize("kind", list(KeyKind))
    def test_challenge_b_codes(self, family, kind):
        key = family_key(family, kind, seed=52)
        device, c, d = play_one_key(key, 300, True, seed=52)
        for commitment, string, code in zip(c, d, device._code.ravel().tolist()):
            if kind is KeyKind.CLAW_FREE:
                x0, x1 = invert(key, commitment)
                assert code == 2 + dot(string, x0 ^ x1)
            else:
                assert code == invert(key, commitment)[0]


class TestNoisyHonest:
    def test_zero_noise_equals_honest_on_shared_seed(self):
        key_a, _ = claw_free_key(seed=20)
        key_b, _ = injective_key(seed=21)
        rounds = 16
        for seed in range(10):
            outputs = [
                as_lists(play(device, [key_a] * rounds, [key_b] * rounds,
                              [(True, True)] * rounds, [(0, 1)] * rounds, seed))
                for device in (HonestDevice(), NoisyHonestDevice(NoiseSpec(0.0, 0.0)))
            ]
            assert outputs[0] == outputs[1]

    def test_flip_rates(self):
        key_a, _ = claw_free_key(seed=22)
        key_b, _ = claw_free_key(seed=23)
        n = 4000
        results = [
            play(device, [key_a] * n, [key_b] * n, [(True, True)] * n, [(0, 0)] * n, seed=0)[2]
            for device in (HonestDevice(), NoisyHonestDevice(NoiseSpec(0.25, 0.0)))
        ]
        flips = int(np.sum(results[0][0] != results[1][0]))
        assert_frequency(flips, n, 0.25, "a-bit flip rate")
        assert np.array_equal(results[0][2], results[1][2])  # b untouched at p_flip_b = 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.5, 0.0)


class TestScriptedDevices:
    def test_deterministic_table(self):
        device = ClassicalDeterministicDevice({"c_a": 3, "z_a": 9, "d_b": 5, "b": 1, "h_b": 0})
        key, _ = claw_free_key()
        replies = play(device, [key], [key], [(False, True)], [(NO_QUESTION, 0)], seed=0)
        assert replies == (([3], [0]), ([9], [5]), ([None], [None], [1], [0]))

    def test_random_device_widths(self):
        key_a, _ = claw_free_key()
        key_b, _ = injective_key()
        n = 200
        (c_a, c_b), (z_a, d_b), _ = play(
            ClassicalRandomDevice(), [key_a] * n, [key_b] * n, [(False, True)] * n,
            [(NO_QUESTION, 0)] * n, seed=1,
        )
        assert np.all((0 <= c_a) & (c_a < 1 << key_a.codomain_bits))
        assert np.all((0 <= c_b) & (c_b < 1 << key_b.codomain_bits))
        assert np.all((0 <= z_a) & (z_a < 1 << (1 + key_a.domain_bits)))
        assert np.all((0 <= d_b) & (d_b < 1 << key_b.domain_bits))

    def test_random_preimage_pass_rate_matches_enumeration(self):
        """Empirical check-pass rate of uniform (z, c) vs exhaustive counting, each pair
        checked as the verifier checks a block (``DrawnKeys.check_preimages``)."""
        key, _ = claw_free_key(w=4, seed=30)
        keys = stack_keys([key])
        z_space = 1 << (1 + key.domain_bits)
        c_space = 1 << key.codomain_bits
        z, c = np.divmod(np.arange(z_space * c_space), c_space)
        valid = np.count_nonzero(keys.check_preimages(np.zeros(len(z), dtype=np.intp), z, c))
        expected = valid / (z_space * c_space)
        rng = np.random.default_rng(30)
        n = 20_000
        z, c = np.array([(rng.integers(z_space), rng.integers(c_space)) for _ in range(n)]).T
        passes = np.count_nonzero(keys.check_preimages(np.zeros(n, dtype=np.intp), z, c))
        assert_frequency(passes, n, expected, "uniform z/c pass rate")


class TestMixedChallenges:
    # The answers of a side without a question are the table's 0s, which the
    # verifiers ignore.
    def test_only_alice_answers(self):
        key_a, _ = claw_free_key(seed=40)
        key_b, _ = injective_key(seed=41)
        _, _, (a, h_a, b, h_b) = play(
            HonestDevice(), [key_a], [key_b], [(True, False)], [(0, NO_QUESTION)], seed=4
        )
        assert a[0] in (0, 1) and h_a[0] in (0, 1)
        assert b[0] == h_b[0] == 0

    def test_only_bob_answers(self):
        key_a, _ = claw_free_key(seed=42)
        key_b, _ = claw_free_key(seed=43)
        _, _, (a, h_a, b, h_b) = play(
            HonestDevice(), [key_a], [key_b], [(False, True)], [(NO_QUESTION, 1)], seed=5
        )
        assert a[0] == h_a[0] == 0
        assert b[0] in (0, 1) and h_b[0] in (0, 1)


class TestMakeDevice:
    def test_known_names(self):
        assert isinstance(make_device("honest"), HonestDevice)
        assert isinstance(make_device("classical-random"), ClassicalRandomDevice)
        noisy = make_device("noisy:0.1:0.2")
        assert noisy.noise == NoiseSpec(0.1, 0.2)

    def test_table_from_file(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"a": 1}')
        device = make_device(f"classical-table:{path}")
        assert device.table == {"a": 1}

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            make_device("quantum-cheater")
        with pytest.raises(ValueError):
            make_device("noisy:0.1")


def test_devices_never_invert():
    # Each key is its own trapdoor, so no type marks what a device must not hold:
    # devices get keys, and only the verifiers invert them.
    import ast
    import inspect

    from cdiqkd import devices

    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(devices))):
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "invert" not in names
    assert not hasattr(devices, "invert")
