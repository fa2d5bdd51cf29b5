"""Statevector engine tests: gates, measurement, Bell states, teleportation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd import devices, protocol
from cdiqkd.quantum import (
    BellLabel,
    MeasurementBasis,
    StateVector,
    apply_gate,
    fidelity_up_to_phase,
    ket,
    make_bell,
    measure,
    measurement_probabilities,
    pauli_correction,
    plus_minus,
    teleport_cz,
    tensor,
)

from .helpers import (
    CZ_MATRIX,
    HADAMARD,
    I2,
    assert_multinomial,
    kron_all,
    overlap2,
    pauli_power,
    random_state,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_rejects_zero_and_five_qubits(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0]))
        with pytest.raises(ValueError):
            StateVector(np.eye(32)[0])

    def test_accepts_norm_within_tolerance(self):
        amps = np.array([1.0 + 5e-10, 0.0])
        assert StateVector(amps).qubit_count == 1

    @pytest.mark.parametrize("build", [
        lambda: ket((2,)), lambda: ket((3, 0)), lambda: ket((0, -1)), lambda: plus_minus(2),
    ], ids=["ket-2", "ket-30", "ket-0-minus-1", "plus-minus-2"])
    def test_basis_bits_other_than_0_and_1_are_rejected(self, build):
        # As for a Bell label: a bit is not taken mod 2 into some other state.
        with pytest.raises(ValueError, match="must be 0/1"):
            build()

    def test_basis_bits_place_the_one_amplitude(self):
        assert np.array_equal(ket((True, 0, 1)).amplitudes, np.eye(8)[0b101])


class TestMakeBell:
    def test_bell_00(self):
        state = make_bell(BellLabel(0, 0))
        np.testing.assert_allclose(state.amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15)

    def test_bell_10_phase_on_first_qubit(self):
        state = make_bell(BellLabel(1, 0))
        np.testing.assert_allclose(state.amplitudes, [SQRT_HALF, 0, 0, -SQRT_HALF], atol=1e-15)

    def test_bell_01_flip_on_first_qubit(self):
        state = make_bell(BellLabel(0, 1))
        np.testing.assert_allclose(state.amplitudes, [0, SQRT_HALF, SQRT_HALF, 0], atol=1e-15)

    def test_all_four_against_matrix_oracle(self):
        base = np.array([SQRT_HALF, 0, 0, SQRT_HALF])
        for s_a in (0, 1):
            for s_b in (0, 1):
                sigma = pauli_power(0, s_a) @ pauli_power(s_b, 0)  # Z^s_a X^s_b
                expected = kron_all(sigma, I2) @ base
                got = make_bell(BellLabel(s_a, s_b)).amplitudes
                assert overlap2(expected, got) == pytest.approx(1.0, abs=1e-14)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            BellLabel(2, 0)


class TestApplyGate:
    def test_h_on_zero_gives_plus(self):
        state = apply_gate(ket((0,)), "H", 0)
        np.testing.assert_allclose(state.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_cz_flips_sign_of_11(self):
        state = apply_gate(ket((1, 1)), "CZ", 0, 1)
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, -1], atol=1e-15)

    def test_x_leaves_plus_invariant(self):
        plus = plus_minus(0)
        state = apply_gate(plus, "X", 0)
        assert fidelity_up_to_phase(state, plus) == pytest.approx(1.0, abs=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_gate(ket((0,)), "H", 1)
        with pytest.raises(IndexError):
            apply_gate(ket((0, 0)), "CZ", 0, 2)

    def test_cz_needs_distinct_wires(self):
        with pytest.raises(ValueError):
            apply_gate(ket((0, 0)), "CZ", 1, 1)

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            apply_gate(ket((0,)), "Y", 0)

    def test_matches_matrix_oracle_on_random_states(self):
        rng = np.random.default_rng(11)
        single = {"H": HADAMARD, "X": pauli_power(1, 0), "Z": pauli_power(0, 1)}
        for k in (1, 2, 3, 4):
            amps = random_state(rng, 1 << k)
            for name, matrix in single.items():
                for wire in range(k):
                    ops = [I2] * k
                    ops[wire] = matrix
                    expected = kron_all(*ops) @ amps
                    got = apply_gate(StateVector(amps), name, wire).amplitudes
                    np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_cz_matches_matrix_oracle(self):
        rng = np.random.default_rng(12)
        amps = random_state(rng, 16)
        # CZ on wires 1,3 of four qubits, built by permuting a diagonal.
        diag = np.ones(16)
        for idx in range(16):
            if (idx >> 2) & 1 and idx & 1:
                diag[idx] = -1
        expected = diag * amps
        got = apply_gate(StateVector(amps), "CZ", 1, 3).amplitudes
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_gates_preserve_norm(self, data, k, seed):
        rng = np.random.default_rng(seed)
        state = StateVector(random_state(rng, 1 << k))
        for _ in range(data.draw(st.integers(1, 6))):
            gate = data.draw(st.sampled_from(["H", "X", "Z", "CZ"]))
            wire = data.draw(st.integers(0, k - 1))
            if gate == "CZ":
                if k == 1:
                    continue
                wire2 = data.draw(st.integers(0, k - 1).filter(lambda w: w != wire))
                state = apply_gate(state, gate, wire, wire2)
            else:
                state = apply_gate(state, gate, wire)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


class TestMeasure:
    def test_plus_in_hadamard_basis_is_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            outcome, post = measure(plus_minus(0), 0, HAD, rng)
            assert outcome == 0
            assert fidelity_up_to_phase(post, plus_minus(0)) == pytest.approx(1.0, abs=1e-12)

    def test_minus_in_hadamard_basis(self):
        rng = np.random.default_rng(0)
        outcome, _ = measure(plus_minus(1), 0, HAD, rng)
        assert outcome == 1

    def test_zero_in_computational_basis(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            outcome, _ = measure(ket((0,)), 0, COMP, rng)
            assert outcome == 0

    def test_bell_correlations(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            first, post = measure(make_bell(BellLabel(0, 0)), 0, COMP, rng)
            second, _ = measure(post, 1, COMP, rng)
            assert first == second

    def test_born_statistics_on_plus(self):
        rng = np.random.default_rng(21)
        counts = [0, 0]
        for _ in range(10_000):
            outcome, _ = measure(plus_minus(0), 0, COMP, rng)
            counts[outcome] += 1
        assert_multinomial(counts, [0.5, 0.5], "computational measurement of |+>")

    def test_post_state_is_projected(self):
        rng = np.random.default_rng(3)
        state = apply_gate(ket((0, 0)), "H", 0)
        outcome, post = measure(state, 0, COMP, rng)
        expected = ket((outcome, 0))
        assert fidelity_up_to_phase(post, expected) == pytest.approx(1.0, abs=1e-12)

    def test_rare_outcome_of_an_off_norm_state_is_a_valid_state(self):
        # The constructor accepts a norm 4e-10 off 1; renormalizing the kept
        # half by 1 - p0 instead of its own mass would leave it 4e-7 off.
        class LateDraw:
            def random(self):
                return 0.99999

        amps = np.array([math.sqrt(1 - 1e-3), math.sqrt(1e-3)]) * (1 + 4e-10)
        outcome, post = measure(StateVector(amps), 0, COMP, LateDraw())
        assert outcome == 1
        assert StateVector(post.amplitudes).qubit_count == 1


class TestWhatTheEngineBuilds:
    """Every cell of the two tables the package builds with the engine, and the
    one Bell label no other test reads with its global phase."""

    @pytest.mark.parametrize(
        "build, shape, dtype, digest",
        [
            (
                devices._outcome_table,
                (5, 2, 5, 2, 16, 4),
                np.int64,
                "7a0c3036f05092de8905d2bee47f42985bd336844c36d9c0983b3d3ec7a82e82",
            ),
            (
                protocol._support_table,
                (4, 4, 2, 2, 2, 2, 2, 2),
                np.bool_,
                "f23a5f13af2ab8b4622f3259a17b4e0d95a1bd0a7b78e11b17001f735a03ea3f",
            ),
        ],
    )
    def test_tables_are_pinned(self, build, shape, dtype, digest):
        table = build()
        assert table.shape == shape and table.dtype == dtype
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest

    def test_bell_11_phase(self):
        amps = make_bell(BellLabel(1, 1)).amplitudes
        np.testing.assert_array_equal(amps, [0, SQRT_HALF, -SQRT_HALF, 0])


class TestMeasurementProbabilities:
    def test_bell_in_computational_pair(self):
        probs = measurement_probabilities(make_bell(BellLabel(0, 0)), (COMP, COMP))
        np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_bell_in_hadamard_pair(self):
        probs = measurement_probabilities(make_bell(BellLabel(1, 0)), (HAD, HAD))
        np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_requires_one_basis_per_qubit(self):
        with pytest.raises(ValueError):
            measurement_probabilities(make_bell(BellLabel(0, 0)), (COMP,))


def teleport_formula(amps: np.ndarray, h_a: int, h_b: int) -> np.ndarray:
    """Direct-matrix oracle: (X^hA Z^hB (x) X^hB Z^hA) CZ |amps>."""
    correction = kron_all(pauli_power(h_a, h_b), pauli_power(h_b, h_a))
    return correction @ (CZ_MATRIX @ amps)


class TestTeleportCz:
    def test_identity_on_00_when_heralds_are_zero(self):
        rng = np.random.default_rng(5)
        seen = 0
        while seen < 30:
            out = teleport_cz(ket((0, 0)), rng)
            if (out.h_a, out.h_b) == (0, 0):
                seen += 1
                assert fidelity_up_to_phase(out.post_state, ket((0, 0))) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_matches_formula_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            amps = random_state(rng, 4)
            out = teleport_cz(StateVector(amps), rng)
            expected = teleport_formula(amps, out.h_a, out.h_b)
            assert overlap2(expected, out.post_state.amplitudes) >= 1.0 - 1e-10

    def test_herald_probabilities_are_quarter_by_brute_force(self):
        # Brute-force amplitude oracle: project the pre-measurement state of
        # the literal circuit on each herald pair and check norms of 1/4.
        plus2 = kron_all(
            np.array([SQRT_HALF, SQRT_HALF]), np.array([SQRT_HALF, SQRT_HALF])
        )
        epr = np.array([SQRT_HALF, 0, 0, SQRT_HALF])
        full = np.einsum("ab,cd->acdb", plus2.reshape(2, 2), epr.reshape(2, 2)).ravel()
        h_on_2 = kron_all(I2, I2, HADAMARD, I2)
        # CNOT(control=1, target=0) = (H on 0) CZ(0,1) (H on 0)
        h0 = kron_all(HADAMARD, I2, I2, I2)
        cz01 = np.diag(
            [(-1.0) ** (((i >> 3) & 1) * ((i >> 2) & 1)) for i in range(16)]
        ).astype(complex)
        cnot_1_0 = h0 @ cz01 @ h0
        h3 = kron_all(I2, I2, I2, HADAMARD)
        cz23 = np.diag(
            [(-1.0) ** (((i >> 1) & 1) * (i & 1)) for i in range(16)]
        ).astype(complex)
        cnot_2_3 = h3 @ cz23 @ h3
        pre = cnot_2_3 @ (cnot_1_0 @ (h_on_2 @ full))
        tensor4 = pre.reshape(2, 2, 2, 2)
        for h_a in (0, 1):
            for h_b in (0, 1):
                branch = tensor4[h_a, :, :, h_b]
                assert np.sum(np.abs(branch) ** 2) == pytest.approx(0.25, abs=1e-12)

    def test_herald_distribution_uniform(self):
        rng = np.random.default_rng(23)
        plus_plus = tensor(plus_minus(0), plus_minus(0))
        counts = np.zeros(4)
        for _ in range(10_000):
            out = teleport_cz(plus_plus, rng)
            counts[(out.h_a << 1) | out.h_b] += 1
        assert_multinomial(counts, [0.25] * 4, "teleportation heralds")

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            teleport_cz(ket((0,)), np.random.default_rng(0))


class TestFidelity:
    def test_identical(self):
        assert fidelity_up_to_phase(ket((0,)), ket((0,))) == 1.0

    def test_global_phase_ignored(self):
        flipped = StateVector(-ket((0,)).amplitudes)
        assert fidelity_up_to_phase(ket((0,)), flipped) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert fidelity_up_to_phase(ket((0,)), ket((1,))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_up_to_phase(ket((0,)), ket((0, 0)))


class TestProtocolIdentities:
    """Algebraic facts the round checks rely on."""

    def test_bell_states_invariant_under_doubled_correction(self):
        # Same X^h_a Z^h_b factor on both qubits, all 16 combinations exact.
        for s_a in (0, 1):
            for s_b in (0, 1):
                bell = make_bell(BellLabel(s_a, s_b))
                for h_a in (0, 1):
                    for h_b in (0, 1):
                        corrected = pauli_correction(bell, 0, h_a, h_b)
                        corrected = pauli_correction(corrected, 1, h_a, h_b)
                        fid = fidelity_up_to_phase(corrected, bell)
                        assert abs(fid - 1.0) <= 1e-12

    def test_hadamard_commutes_past_correction_up_to_phase(self):
        # (1 (x) H)(X^a Z^b (x) X^b Z^a) == (X^a Z^b (x) X^a Z^b)(1 (x) H) up to phase
        for h_a in (0, 1):
            for h_b in (0, 1):
                left = kron_all(I2, HADAMARD) @ kron_all(
                    pauli_power(h_a, h_b), pauli_power(h_b, h_a)
                )
                right = kron_all(pauli_power(h_a, h_b), pauli_power(h_a, h_b)) @ kron_all(
                    I2, HADAMARD
                )
                ratios = left[np.abs(right) > 1e-12] / right[np.abs(right) > 1e-12]
                phase = ratios[0]
                assert abs(abs(phase) - 1.0) < 1e-12
                np.testing.assert_allclose(left, phase * right, atol=1e-12)
