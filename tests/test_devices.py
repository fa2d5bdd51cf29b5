"""Device strategy tests.

The honest device's classical sampling shortcuts are validated here
against full statevector simulations of the states they stand in for.
"""

import itertools

import numpy as np
import pytest

from cdiqkd.bits import dot
from cdiqkd.devices import (
    ChallengeType,
    ClassicalDeterministicDevice,
    ClassicalRandomDevice,
    HonestDevice,
    NoiseSpec,
    NoisyHonestDevice,
    _alice_half,
    _bob_half,
    draw_answers,
    honest_answer,
    honest_challenge_a,
    honest_challenge_b,
    honest_commit,
    make_device,
)
from cdiqkd.etcf import EtcfParams, KeyKind, check_preimage, evaluate, image, keygen
from cdiqkd.quantum import (
    MeasurementBasis,
    StateVector,
    fidelity_up_to_phase,
    ket,
    measure,
    plus_minus,
)

from .helpers import assert_frequency, assert_multinomial

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD


def claw_free_key(w=4, seed=0):
    return keygen(KeyKind.CLAW_FREE, EtcfParams(family="ideal", domain_bits=w), np.random.default_rng(seed))


def injective_key(w=4, seed=0):
    return keygen(KeyKind.INJECTIVE, EtcfParams(family="ideal", domain_bits=w), np.random.default_rng(seed))


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
            b_hat, x_hat = state.point
            assert evaluate(key, b_hat, x_hat) == c

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
    def test_injective_response_is_deterministic(self):
        key, _ = injective_key()
        rng = np.random.default_rng(4)
        c, state = honest_commit(key, rng)
        b_hat, x_hat = state.point
        z = honest_challenge_a(state, rng)
        assert z == (b_hat | (x_hat << 1))

    def test_claw_free_response_always_passes_check(self):
        key, _ = claw_free_key()
        rng = np.random.default_rng(5)
        for _ in range(300):
            c, state = honest_commit(key, rng)
            z = honest_challenge_a(state, rng)
            assert check_preimage(key, z, c)

    def test_branch_bit_is_uniform(self):
        key, _ = claw_free_key()
        rng = np.random.default_rng(6)
        ones = 0
        n = 10_000
        for _ in range(n):
            _, state = honest_commit(key, rng)
            ones += honest_challenge_a(state, rng) & 1
        assert_frequency(ones, n, 0.5, "challenge-a branch bit")

    def test_challenge_consumed_once(self):
        key, _ = claw_free_key()
        rng = np.random.default_rng(7)
        _, state = honest_commit(key, rng)
        honest_challenge_a(state, rng)
        with pytest.raises(RuntimeError):
            honest_challenge_a(state, rng)
        with pytest.raises(RuntimeError):
            honest_challenge_b(state, rng)


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
            b_hat = state.point[0]
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
            b_hat, x_hat = internal.point
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


class TestBornTrees:
    """The cached answer trees against the statevector circuits they replace."""

    def check(self, code_a, x, code_b, y, circuit):
        for seed in range(50):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert draw_answers(code_a, x, code_b, y, rng) == circuit(oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("x, y", itertools.product((COMP, HAD), repeat=2))
    def test_both_sides_match_teleported_cz(self, x, y):
        for code_a, code_b in itertools.product(range(4), repeat=2):
            def circuit(rng):
                a, b, h_a, h_b = honest_answer(code_qubit(code_a), code_qubit(code_b), x, y, rng)
                return a, h_a, b, h_b

            self.check(code_a, x, code_b, y, circuit)

    @pytest.mark.parametrize("question", (COMP, HAD))
    def test_one_side_matches_its_half_circuit(self, question):
        for code in range(4):
            self.check(
                code, question, None, None,
                lambda rng: (*_alice_half(code_qubit(code), question, rng), None, None),
            )
            self.check(
                None, None, code, question,
                lambda rng: (None, None, *_bob_half(code_qubit(code), question, rng)),
            )


class TestNoisyHonest:
    def test_zero_noise_equals_honest_on_shared_seed(self):
        key_a, _ = claw_free_key(seed=20)
        key_b, _ = injective_key(seed=21)
        for seed in range(10):
            outputs = []
            for device in (HonestDevice(), NoisyHonestDevice(NoiseSpec(0.0, 0.0))):
                device.reset(np.random.default_rng(seed))
                c = device.on_keys(key_a, key_b)
                r = device.on_challenges(ChallengeType.B, ChallengeType.B)
                q = device.on_questions(COMP, HAD)
                outputs.append((c, r, q))
            assert outputs[0] == outputs[1]

    def test_flip_rates(self):
        key_a, _ = claw_free_key(seed=22)
        key_b, _ = claw_free_key(seed=23)
        honest = HonestDevice()
        noisy = NoisyHonestDevice(NoiseSpec(0.25, 0.0))
        flips = 0
        n = 4000
        for seed in range(n):
            results = []
            for device in (honest, noisy):
                device.reset(np.random.default_rng(seed))
                device.on_keys(key_a, key_b)
                device.on_challenges(ChallengeType.B, ChallengeType.B)
                results.append(device.on_questions(COMP, COMP))
            if results[0][0] != results[1][0]:
                flips += 1
            assert results[0][2] == results[1][2]  # b untouched at p_flip_b = 0
        assert_frequency(flips, n, 0.25, "a-bit flip rate")

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            NoiseSpec(1.5, 0.0)


class TestScriptedDevices:
    def test_deterministic_table(self):
        device = ClassicalDeterministicDevice({"c_a": 3, "z_a": 9, "d_b": 5, "b": 1, "h_b": 0})
        device.reset(np.random.default_rng(0))
        key, _ = claw_free_key()
        assert device.on_keys(key, key) == (3, 0)
        assert device.on_challenges(ChallengeType.A, ChallengeType.B) == (9, 5)
        assert device.on_questions(None, COMP) == (None, None, 1, 0)

    def test_random_device_widths(self):
        key_a, _ = claw_free_key()
        key_b, _ = injective_key()
        device = ClassicalRandomDevice()
        device.reset(np.random.default_rng(1))
        for _ in range(200):
            c_a, c_b = device.on_keys(key_a, key_b)
            assert 0 <= c_a < 1 << key_a.codomain_bits
            assert 0 <= c_b < 1 << key_b.codomain_bits
            z_a, d_b = device.on_challenges(ChallengeType.A, ChallengeType.B)
            assert 0 <= z_a < 1 << (1 + key_a.domain_bits)
            assert 0 <= d_b < 1 << key_b.domain_bits

    def test_random_preimage_pass_rate_matches_enumeration(self):
        """Empirical check-pass rate of uniform (z, c) vs exhaustive counting."""
        key, _ = claw_free_key(w=4, seed=30)
        z_space = 1 << (1 + key.domain_bits)
        c_space = 1 << key.codomain_bits
        valid = sum(
            check_preimage(key, z, c) for z in range(z_space) for c in range(c_space)
        )
        expected = valid / (z_space * c_space)
        rng = np.random.default_rng(30)
        passes = 0
        n = 20_000
        for _ in range(n):
            z = int(rng.integers(z_space))
            c = int(rng.integers(c_space))
            passes += check_preimage(key, z, c)
        assert_frequency(passes, n, expected, "uniform z/c pass rate")


class TestMixedChallenges:
    def test_only_alice_answers(self):
        key_a, _ = claw_free_key(seed=40)
        key_b, _ = injective_key(seed=41)
        device = HonestDevice()
        device.reset(np.random.default_rng(4))
        device.on_keys(key_a, key_b)
        device.on_challenges(ChallengeType.B, ChallengeType.A)
        a, h_a, b, h_b = device.on_questions(COMP, None)
        assert a in (0, 1) and h_a in (0, 1)
        assert b is None and h_b is None

    def test_only_bob_answers(self):
        key_a, _ = claw_free_key(seed=42)
        key_b, _ = claw_free_key(seed=43)
        device = HonestDevice()
        device.reset(np.random.default_rng(5))
        device.on_keys(key_a, key_b)
        device.on_challenges(ChallengeType.A, ChallengeType.B)
        a, h_a, b, h_b = device.on_questions(None, HAD)
        assert a is None and h_a is None
        assert b in (0, 1) and h_b in (0, 1)


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
