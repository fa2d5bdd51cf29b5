"""Protocol engine tests: classification, checks, sessions, key extraction."""

import dataclasses
import inspect
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd import devices, protocol, quantum
from cdiqkd.bits import dot
from cdiqkd.devices import (
    ChallengeType,
    ClassicalDeterministicDevice,
    ClassicalRandomDevice,
    HonestDevice,
    NoiseSpec,
    NoisyHonestDevice,
)
from cdiqkd.etcf import (
    EtcfParams,
    KeyKind,
    evaluate,
    image,
    invert,
    keygen,
)
from cdiqkd.harness import bell_test_qber
from cdiqkd.protocol import (
    SUPPORT_TOLERANCE,
    ProtocolParams,
    RoundRecord,
    RoundType,
    SideRecord,
    TestTag,
    WinFlag,
    abort_decision,
    classify_round,
    bell_label_bit,
    honest_support,
    run_session,
    win_condition,
)
from cdiqkd.quantum import (
    MeasurementBasis,
    apply_gate,
    ket,
    measurement_probabilities,
    pauli_correction,
    plus_minus,
    tensor,
)

from .helpers import assert_frequency, documented_tables, reference_keygen_toy
from .oracle import _both_computational, _generation_bits

COMP = MeasurementBasis.COMPUTATIONAL
HAD = MeasurementBasis.HADAMARD
A, B = ChallengeType.A, ChallengeType.B


def _key_bytes(key) -> bytes:
    """A key's kind and what it is drawn as: an ideal key's seed, a toy key's arrays."""
    arrays = [np.uint64(key.seed)] if hasattr(key, "seed") else [key.matrix, key.shift]
    return key.kind.value.encode() + b"".join(a.tobytes() for a in arrays)


def _signature(record) -> tuple:
    """Everything a round record holds, in comparable form."""
    sides = tuple(
        (
            side.theta, side.ct, side.c, side.z, side.d, side.question, side.answer, side.h,
            side.violation, _key_bytes(side.key),
        )
        for side in (record.alice, record.bob)
    )
    return record.index, record.round_type, record.test_tag, record.win, record.seed, sides


def params(rounds=256, epsilon=0.05, w=4, **knobs) -> ProtocolParams:
    return ProtocolParams(
        rounds=rounds,
        epsilon=epsilon,
        etcf=EtcfParams(family="ideal", domain_bits=w),
        **knobs,
    )


class TestClassifyRound:
    def test_bell(self):
        assert classify_round(B, B, HAD, HAD) is RoundType.BELL

    def test_mismatched_challenges_are_sifted(self):
        assert classify_round(A, B, HAD, HAD) is RoundType.SIFTED
        assert classify_round(B, A, COMP, COMP) is RoundType.SIFTED

    def test_everything_else_is_product(self):
        assert classify_round(B, B, HAD, COMP) is RoundType.PRODUCT
        assert classify_round(B, B, COMP, HAD) is RoundType.PRODUCT
        assert classify_round(B, B, COMP, COMP) is RoundType.PRODUCT
        assert classify_round(A, A, HAD, HAD) is RoundType.PRODUCT

    def test_exhaustive_table(self):
        for ct_a in (A, B):
            for ct_b in (A, B):
                for theta_a in (COMP, HAD):
                    for theta_b in (COMP, HAD):
                        got = classify_round(ct_a, ct_b, theta_a, theta_b)
                        if ct_a is not ct_b:
                            assert got is RoundType.SIFTED
                        elif ct_a is B and theta_a is HAD and theta_b is HAD:
                            assert got is RoundType.BELL
                        else:
                            assert got is RoundType.PRODUCT


class TestComputeS:
    def test_zero_string_gives_zero(self):
        for claw in [(0b0101, 0b0011), (0, 1), (7, 7)]:
            assert bell_label_bit(0, *claw) == 0

    def test_arithmetic_examples(self):
        # strings written first-bit-first: d="11", x0="01", x1="10" -> 0
        assert bell_label_bit(0b11, 0b10, 0b01) == 0
        # d="10", x0="01", x1="10" -> 1
        assert bell_label_bit(0b01, 0b10, 0b01) == 1

    @given(
        d=st.integers(0, 255), x0=st.integers(0, 255), x1=st.integers(0, 255)
    )
    @settings(max_examples=200)
    def test_properties(self, d, x0, x1):
        assert bell_label_bit(d, x0, x1) == bell_label_bit(d, x1, x0)
        assert bell_label_bit(d, x0, x0) == 0
        assert bell_label_bit(d, x0, x1) == dot(d, x0) ^ dot(d, x1)


def drive_round(device, round_params, seed):
    """The record of a one-round session under round_params' knobs."""
    one_round = dataclasses.replace(round_params, rounds=1)
    return run_session(device, one_round, seed).records[0]


class TestRunRound:
    def test_honest_round_passes(self):
        for seed in range(50):
            record = drive_round(HonestDevice(), params(), seed)
            if record.round_type is not RoundType.SIFTED:
                assert win_condition(record) is WinFlag.PASS

    def test_wrong_width_z_fails(self):
        table = {"z_a": 1 << 10, "z_b": 1 << 10}  # too wide for w=4
        forced = params(p_ct_b=0.0)  # both challenges a
        record = drive_round(ClassicalDeterministicDevice(table), forced, 3)
        assert record.alice.violation
        assert win_condition(record) is WinFlag.FAIL

    @pytest.mark.parametrize(
        "message, p_ct_b",
        [("c_a", 0.0), ("z_a", 0.0), ("c_a", 1.0), ("d_a", 1.0), ("a", 1.0), ("h_a", 1.0)],
    )
    def test_boolean_message_is_a_violation(self, message, p_ct_b):
        # A bool is never a bit string, whichever message it stands for; the
        # table's other messages are 0, a valid string of every width.
        device = ClassicalDeterministicDevice({message: True})
        record = drive_round(device, params(p_ct_b=p_ct_b), 3)
        assert record.alice.violation and not record.bob.violation
        assert win_condition(record) is WinFlag.FAIL

    def test_numpy_integer_messages_are_read_as_ints(self):
        device = ClassicalDeterministicDevice(
            {name: np.int64(0) for name in ("c_a", "z_a", "c_b", "z_b")}
        )
        record = drive_round(device, params(p_ct_b=0.0), 3)  # both challenges a
        assert not record.alice.violation and not record.bob.violation
        assert type(record.alice.c) is type(record.bob.z) is int

    @pytest.mark.parametrize("value", [2**70, -1, True], ids=["2**70", "-1", "True"])
    @pytest.mark.parametrize(
        "message, p_ct_b", [("c_a", 0.5), ("z_a", 0.0), ("d_a", 1.0), ("a", 1.0)]
    )
    def test_table_entry_outside_its_width_is_a_violation(self, message, p_ct_b, value):
        # A table device replies with Python lists, which the block path reads value
        # by value: an entry no int64 holds, or a negative one, is a violation in
        # every round that reads it, never an OverflowError.
        device = ClassicalDeterministicDevice({message: value})
        key = keygen(KeyKind.CLAW_FREE, EtcfParams(), np.random.default_rng(0))[0]
        device.reset(np.random.default_rng(0))
        assert type(device.on_keys([key], [key])[0]) is list
        session = run_session(device, params(rounds=64, p_ct_b=p_ct_b), 3)
        assert session.tested_count > 0
        for record in session.records:
            assert record.alice.violation and not record.bob.violation
            assert record.win is (WinFlag.FAIL if record.test_tag is TestTag.TEST
                                  and record.round_type is not RoundType.SIFTED else WinFlag.NA)

    def test_sifted_fraction_near_half(self):
        session = run_session(HonestDevice(), params(rounds=10_000), seed=17)
        sifted = session.rounds - session.sifted_count
        assert_frequency(sifted, session.rounds, 0.5, "sifted fraction")

    def test_sifted_rounds_are_not_scored(self):
        session = run_session(HonestDevice(), params(rounds=200), seed=18)
        for record in session.records:
            if record.round_type is RoundType.SIFTED:
                assert record.win is WinFlag.NA
                with pytest.raises(ValueError):
                    win_condition(record)


class TestHonestSupport:
    def bell_record(self, seed):
        forced = params(p_theta_hadamard=1.0, p_ct_b=1.0)
        return drive_round(HonestDevice(), forced, seed)

    def test_bell_computational_support_is_parity_class(self):
        found = 0
        for seed in range(200):
            record = self.bell_record(seed)
            if record.alice.question is COMP and record.bob.question is COMP:
                x0, x1 = invert(record.bob.key, record.bob.c)
                s_b = bell_label_bit(record.bob.d, x0, x1)
                support = honest_support(record)
                assert support == {(0, s_b), (1, 1 ^ s_b)}
                found += 1
        assert found > 10

    def test_product_computational_answer_is_pinned(self):
        # Alice injective (computational basis state), question computational.
        forced = params(p_theta_hadamard=0.0, p_ct_b=1.0, p_question_hadamard=0.0)
        for seed in range(30):
            record = drive_round(HonestDevice(), forced, seed)
            b_hat, _ = invert(record.alice.key, record.alice.c)
            support = honest_support(record)
            admissible_a = {a for a, _ in support}
            assert admissible_a == {b_hat ^ record.alice.h}

    def test_product_hadamard_on_basis_state_admits_both(self):
        forced = params(p_theta_hadamard=0.0, p_ct_b=1.0, p_question_hadamard=1.0)
        record = drive_round(HonestDevice(), forced, 5)
        support = honest_support(record)
        assert {a for a, _ in support} == {0, 1}

    def test_invalid_commitment_gives_empty_support(self):
        # Both questions Hadamard: the Bell check reads Alice's phase bit.
        forced = params(p_theta_hadamard=1.0, p_ct_b=1.0, p_question_hadamard=1.0)
        record = drive_round(HonestDevice(), forced, 6)
        points = image(record.alice.key)
        gap = next(y for y in range(1 << record.alice.key.codomain_bits) if y not in points)
        record.alice.c = gap
        assert honest_support(record) == set()
        assert win_condition(record) is WinFlag.FAIL

    def test_support_requires_both_challenge_b(self):
        record = drive_round(HonestDevice(), params(p_ct_b=0.0), 7)
        with pytest.raises(ValueError):
            honest_support(record)

    def test_support_agrees_with_bell_parity_bullets(self):
        # Cross-validation of the two check paths on Bell rounds.
        forced = params(p_theta_hadamard=1.0, p_ct_b=1.0)
        for seed in range(150):
            record = drive_round(HonestDevice(), forced, seed)
            support = honest_support(record)
            x, y = record.alice.question, record.bob.question
            if x is not y:
                assert support == {(0, 0), (0, 1), (1, 0), (1, 1)}
                continue
            side = record.bob if x is COMP else record.alice
            x0, x1 = invert(side.key, side.c)
            parity = bell_label_bit(side.d, x0, x1)
            assert support == {(a, b) for a in (0, 1) for b in (0, 1) if a ^ b == parity}

    def test_cached_support_matches_statevector_body(self):
        etcf = EtcfParams(family="ideal", domain_bits=4)
        rng = np.random.default_rng(50)
        pairs = {kind: keygen(kind, etcf, rng) for kind in KeyKind}

        def side(code, h, question):
            # Inverts to the retained qubit of code: 0 = |0>, 1 = |1>, 2 = |+>, 3 = |->.
            key, _ = pairs[KeyKind.INJECTIVE if code < 2 else KeyKind.CLAW_FREE]
            c = evaluate(key, code & 1 if code < 2 else 0, 0)
            d = 0
            if code == 3:
                x0, x1 = invert(key, c)
                d = (x0 ^ x1) & -(x0 ^ x1)
            return SideRecord(
                theta=HAD if code >= 2 else COMP, key=key, c=c, ct=B, d=d,
                question=question, answer=0, h=h,
            )

        def statevector_support(record):
            # The per-round computation honest_support replaced with its cache.
            qubits = []
            for part in (record.alice, record.bob):
                if part.key.kind is KeyKind.CLAW_FREE:
                    x0, x1 = invert(part.key, part.c)
                    qubits.append(plus_minus(bell_label_bit(part.d, x0, x1)))
                else:
                    qubits.append(ket((invert(part.key, part.c)[0],)))
            state = apply_gate(apply_gate(tensor(*qubits), "CZ", 0, 1), "H", 1)
            for wire in (0, 1):
                state = pauli_correction(state, wire, record.alice.h, record.bob.h)
            probs = measurement_probabilities(state, (record.alice.question, record.bob.question))
            return {(a, b) for a in (0, 1) for b in (0, 1) if probs[2 * a + b] > SUPPORT_TOLERANCE}

        inputs = list(itertools.product(range(4), range(4), (0, 1), (0, 1), (COMP, HAD), (COMP, HAD)))
        assert len(inputs) == 256
        for code_a, code_b, h_a, h_b, x, y in inputs:
            record = RoundRecord(
                index=0, alice=side(code_a, h_a, x), bob=side(code_b, h_b, y),
                round_type=RoundType.PRODUCT,
            )
            support = honest_support(record)
            assert isinstance(support, frozenset)
            assert support == statevector_support(record)


def test_warm_honest_session_never_enters_the_statevector_engine(monkeypatch):
    # The engine builds the answer trees and support sets; once they are warm,
    # a round is table reads only.
    session_params = params(rounds=1024)
    run_session(HonestDevice(), session_params, 31)
    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    spied = set()
    for module in (devices, protocol):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == quantum.__name__:
                monkeypatch.setattr(module, name, spy(name, value))
                spied.add(name)
    assert {"teleport_cz", "measure", "apply_gate", "measurement_probabilities"} <= spied
    session = run_session(HonestDevice(), session_params, 31)
    assert session.tested_count > 0
    assert calls == []


def test_session_retains_little_beyond_its_key_tables():
    # A round keeps its two keys, each its seed alone, even after the verifier has
    # inverted it: a round's record takes under 2 kB, where one w = 8 key's tables
    # would take 4 kB.
    session_params = params(rounds=512, w=8)
    run_session(HonestDevice(), params(rounds=64, w=8), 1)  # warm the answer and support caches
    tracemalloc.start()
    try:
        session = run_session(HonestDevice(), session_params, 2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    table_bytes = 2 * 2**8 * 8
    assert session.tested_count > 0
    assert retained < 512 * table_bytes / 2


@pytest.mark.parametrize(
    "etcf",
    [EtcfParams(family="ideal", domain_bits=3), EtcfParams(family="toy-lattice", n=2, m=4, q=5)],
    ids=["ideal", "toy"],
)
def test_each_key_is_drawn_from_its_half_of_the_round_seed(etcf):
    # The batched block keygen draws the key the one-key references draw from the
    # same seed alone.
    session = run_session(HonestDevice(), ProtocolParams(40, 0.05, etcf), seed=4)
    for record in session.records:
        assert len(record.seed) == 16
        for side, half in ((record.alice, record.seed[:8]), (record.bob, record.seed[8:])):
            kind, seed = side.key.kind, int.from_bytes(half, "little")
            assert kind is (KeyKind.CLAW_FREE if side.theta is HAD else KeyKind.INJECTIVE)
            if etcf.family == "ideal":
                tables = documented_tables(kind, etcf.domain_bits, seed)
                assert np.array_equal(side.key.tables, tables)
            else:
                reference = reference_keygen_toy(kind, etcf, seed)
                assert _key_bytes(reference) == _key_bytes(side.key)


def test_block_keygen_temporaries_stay_within_a_few_rows():
    # The widest domain, claw-free keys only: a key is its seed, and checking and
    # inverting it permutes its points with no table, where a shuffle of one key's
    # 4 * 2**16 codomain points took a row of 2 MB.
    session_params = params(rounds=16, w=16, p_theta_hadamard=1.0)
    run_session(ClassicalRandomDevice(), session_params, 2)  # build the support table first
    tracemalloc.start()
    try:
        session = run_session(ClassicalRandomDevice(), session_params, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_bytes = 4 * 2**16 * 8  # one shuffled row of int64 codomain points
    assert len(session.records) == 16 and kept < row_bytes // 64
    assert peak - kept < row_bytes // 16


def test_widest_domain_session_is_as_small_and_fast_as_the_default():
    # Bounded memory at the top of the legal range: an ideal key is its seed and its
    # maps are computed, never tabulated, so 1,024 honest rounds at w = 16 peak far
    # under 60 MB (one block's tables took 537 MB) and take at most twice the time a
    # round of w = 4 takes, each the best of three sessions in this process.
    def best_seconds(w: int) -> float:
        seconds = []
        for seed in range(3):
            start = time.perf_counter()
            run_session(HonestDevice(), params(rounds=1024, w=w), seed)
            seconds.append(time.perf_counter() - start)
        return min(seconds)

    run_session(HonestDevice(), params(rounds=64), 1)  # build the outcome tables first
    tracemalloc.start()
    try:
        session = run_session(HonestDevice(), params(rounds=1024, w=16), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert session.tested_count > 0 and session.failed_count == 0
    assert peak < 60e6
    assert best_seconds(16) <= 2 * best_seconds(4)


def test_honest_block_device_temporaries_stay_within_a_few_rows():
    # The widest domain, claw-free keys only, with the honest device: it reads the
    # entries of the key tables it needs, where one stack of a block's tables would
    # take 32 rows of the 4 * 2**16 int64 points a keygen shuffles.
    run_session(HonestDevice(), params(rounds=64), 1)  # build the outcome tables first
    session_params = params(rounds=16, w=16, p_theta_hadamard=1.0)
    tracemalloc.start()
    try:
        session = run_session(HonestDevice(), session_params, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_bytes = 4 * 2**16 * 8
    assert session.tested_count > 0 and session.failed_count == 0
    assert peak - kept < 3 * row_bytes


def test_toy_block_keygen_temporaries_stay_within_a_few_keys():
    # The widest toy keys, n = 31, m = 63 at q = 2, for a whole block of both kinds:
    # an injective key reads (63 - 31) * 31 + 63 = 1,055 words, a claw-free one 1,023.
    # A keygen step holds at most etcf._CHUNK_WORDS words, three or four keys', in
    # each of a few arrays, where one draw of all 512 keys' words at once takes 512.
    lattice = EtcfParams(family="toy-lattice", n=31, m=63, q=2)
    tracemalloc.start()
    try:
        session = run_session(ClassicalRandomDevice(), ProtocolParams(256, 0.05, lattice), 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    key_bytes = sum(
        side.key.matrix.nbytes + side.key.shift.nbytes
        for record in session.records for side in (record.alice, record.bob)
    )
    word_bytes = ((63 - 31) * 31 + 63) * 8  # one injective key's values
    assert kept >= key_bytes > 512 * word_bytes
    assert peak - kept < 16 * word_bytes


class TestWinCondition:
    def test_bell_mismatched_questions_always_pass(self):
        forced = params(p_theta_hadamard=1.0, p_ct_b=1.0)
        found = 0
        for seed in range(100):
            record = drive_round(ClassicalRandomDevice(), forced, seed)
            if record.alice.question is not record.bob.question and not (
                record.alice.violation or record.bob.violation
            ):
                assert win_condition(record) is WinFlag.PASS
                found += 1
        assert found > 10

    def test_bell_wrong_parity_fails(self):
        forced = params(p_theta_hadamard=1.0, p_ct_b=1.0)
        for seed in range(60):
            record = drive_round(HonestDevice(), forced, seed)
            if record.alice.question is record.bob.question:
                assert win_condition(record) is WinFlag.PASS
                record.alice.answer ^= 1
                assert win_condition(record) is WinFlag.FAIL

    def test_both_challenge_a_checks_both_sides(self):
        forced = params(p_ct_b=0.0)
        record = drive_round(HonestDevice(), forced, 9)
        assert win_condition(record) is WinFlag.PASS
        record.bob.z ^= 0b10
        assert win_condition(record) is WinFlag.FAIL


def _recount(records, epsilon) -> dict:
    """A session's counts and raw keys, recomputed from its records alone."""
    sifted = [r for r in records if r.round_type is not RoundType.SIFTED]
    scored = [r for r in sifted if r.test_tag is TestTag.TEST]
    assert all(r.win is not WinFlag.NA for r in scored)
    failed = sum(r.win is WinFlag.FAIL for r in scored)
    fail_fraction = failed / len(scored) if scored else 0.0
    aborted = fail_fraction > epsilon
    bell = [r for r in sifted if r.round_type is RoundType.BELL]
    qber = [r for r in bell if r.test_tag is TestTag.TEST and _both_computational(r)]
    generation = [r for r in bell if r.test_tag is TestTag.GENERATE]
    pairs = [pair for r in ([] if aborted else generation) if (pair := _generation_bits(r))]
    key_a, key_b = [a for a, _ in pairs], [b for _, b in pairs]
    return {
        "sifted_count": len(sifted),
        "tested_count": len(scored),
        "failed_count": failed,
        "bell_count": len(bell),
        "product_count": len(sifted) - len(bell),
        "generate_count": len(generation),
        "matched_count": len(key_a),
        "dropped_count": 0 if aborted else len(generation) - len(key_a),
        "qber_tested": len(qber),
        "qber_failed": sum(r.win is WinFlag.FAIL for r in qber),
        "fail_fraction": fail_fraction,
        "aborted": aborted,
        "raw_key_a": key_a,
        "raw_key_b": key_b,
    }


class TestRunSession:
    def test_abort_decision_aborts_only_above_epsilon(self):
        assert abort_decision(0, 0, 0.0) == (0.0, False)  # no test round, no abort
        assert abort_decision(20, 1, 0.05) == (0.05, False)
        assert abort_decision(20, 2, 0.05) == (0.1, True)

    def test_honest_session_statistics(self):
        session = run_session(HonestDevice(), params(rounds=8192, epsilon=0.01), seed=1)
        assert not session.aborted
        assert session.fail_fraction == 0.0
        assert session.failed_count == 0
        assert np.array_equal(session.raw_key_a, session.raw_key_b)
        expected = 8192 / 128
        assert abs(len(session.raw_key_a) - expected) <= 5 * np.sqrt(
            8192 * (1 / 128) * (127 / 128)
        )

    def test_raw_keys_agree_across_seeds(self):
        for seed in range(5):
            session = run_session(HonestDevice(), params(rounds=1024, epsilon=0.01), seed=seed)
            assert np.array_equal(session.raw_key_a, session.raw_key_b)

    def test_determinism(self):
        first = run_session(HonestDevice(), params(rounds=512), seed=123)
        second = run_session(HonestDevice(), params(rounds=512), seed=123)
        assert first.fail_fraction == second.fail_fraction
        assert np.array_equal(first.raw_key_a, second.raw_key_a)
        for r1, r2 in zip(first.records, second.records):
            assert r1.round_type == r2.round_type
            assert r1.test_tag == r2.test_tag
            assert r1.win == r2.win
            assert r1.alice.c == r2.alice.c

    def test_reused_seed_sequence_gives_the_same_session(self):
        seq = np.random.SeedSequence(2024)
        first = run_session(HonestDevice(), params(rounds=256), seq)
        second = run_session(HonestDevice(), params(rounds=256), seq)
        fresh = run_session(HonestDevice(), params(rounds=256), np.random.SeedSequence(2024))
        assert seq.n_children_spawned == 0
        for other in (second, fresh):
            assert [_signature(r) for r in first.records] == [_signature(r) for r in other.records]
            assert np.array_equal(first.raw_key_a, other.raw_key_a)
            assert np.array_equal(first.raw_key_b, other.raw_key_b)

    def test_generate_fraction_among_sifted(self):
        session = run_session(HonestDevice(), params(rounds=8192), seed=2)
        assert_frequency(
            session.generate_count, session.sifted_count, 1 / 16, "generate fraction"
        )

    def test_matched_basis_fraction_within_generate(self):
        session = run_session(HonestDevice(), params(rounds=16_384), seed=3)
        assert_frequency(
            session.matched_count, session.generate_count, 0.25, "matched questions"
        )

    def test_generate_rounds_not_scored(self):
        session = run_session(HonestDevice(), params(rounds=2000), seed=4)
        for record in session.records:
            if record.test_tag is TestTag.GENERATE:
                assert record.win is WinFlag.NA

    def test_classical_random_aborts(self):
        session = run_session(ClassicalRandomDevice(), params(rounds=512, epsilon=0.05), seed=5)
        assert session.aborted
        assert len(session.raw_key_a) == 0

    def test_abort_monotone_in_epsilon(self):
        # Same seed, lower threshold: abort can only appear, never vanish.
        fractions = []
        previous_aborted = None
        for epsilon in (0.5, 0.1, 0.05, 0.02, 0.005, 0.0):
            session = run_session(
                NoisyHonestDevice(NoiseSpec(0.1, 0.05)),
                params(rounds=1024, epsilon=epsilon),
                seed=6,
            )
            fractions.append(session.fail_fraction)
            if previous_aborted is not None and previous_aborted:
                assert session.aborted
            previous_aborted = session.aborted
        assert len(set(fractions)) == 1  # epsilon never affects the transcript

    def test_abort_strictly_exceeds(self):
        # fail fraction exactly equal to epsilon must not abort
        device = ClassicalDeterministicDevice({"z_a": 0, "z_b": 0})
        session = run_session(device, params(rounds=64, epsilon=1.0, p_ct_b=0.0), seed=7)
        assert session.fail_fraction <= 1.0
        assert not session.aborted

    def test_noisy_bell_fail_frequency_formula(self):
        # All-Bell sessions via the probability knobs; fails concentrate on
        # matched questions with rate pa(1-pb) + pb(1-pa).
        p_a, p_b = 0.1, 0.0
        session = run_session(
            NoisyHonestDevice(NoiseSpec(p_a, p_b)),
            params(
                rounds=6000,
                epsilon=1.0,
                p_theta_hadamard=1.0,
                p_ct_b=1.0,
                p_generate_given_bell=0.0,
            ),
            seed=8,
        )
        matched = [
            r
            for r in session.records
            if r.alice.question is r.bob.question
        ]
        failed = sum(r.win is WinFlag.FAIL for r in matched)
        expected = p_a * (1 - p_b) + p_b * (1 - p_a)
        assert_frequency(failed, len(matched), expected, "bell parity flips")
        mismatched = [
            r for r in session.records if r.alice.question is not r.bob.question
        ]
        assert all(r.win is WinFlag.PASS for r in mismatched)

    @pytest.mark.parametrize("family", ["ideal", "toy-lattice"])
    def test_tally_equals_a_recount_of_the_records(self, family):
        # The session decides each round once and counts as it goes; every
        # count, the QBER cells and the raw keys must equal a recount of its
        # records by the definitions they have always had.
        table = {"c_a": 5, "c_b": 9, "z_a": 3, "d_a": 1, "d_b": 2, "b": 1, "h_b": 1}
        etcf = EtcfParams(family=family, domain_bits=4)
        rounds = 700 if family == "ideal" else 300
        runs = itertools.product(
            [HonestDevice, lambda: NoisyHonestDevice(NoiseSpec(0.1, 0.05)),
             ClassicalRandomDevice, lambda: ClassicalDeterministicDevice(table)],
            [{}, {"p_theta_hadamard": 0.8, "p_ct_b": 0.8}],
            [0.1, 1.0],
        )
        keys_seen = 0
        for seed, (make, knobs, epsilon) in enumerate(runs):
            session_params = ProtocolParams(rounds=rounds, epsilon=epsilon, etcf=etcf, **knobs)
            session = run_session(make(), session_params, seed)
            expected = _recount(session.records, epsilon)
            counted = {name: getattr(session, name) for name in expected}
            counted["raw_key_a"] = session.raw_key_a.tolist()
            counted["raw_key_b"] = session.raw_key_b.tolist()
            assert counted == expected
            tested, failed = expected["qber_tested"], expected["qber_failed"]
            assert bell_test_qber(session) == (failed / tested if tested else 0.0)
            keys_seen += len(session.raw_key_a)
        assert keys_seen > 0

    def test_toy_lattice_honest_session(self):
        toy = ProtocolParams(
            rounds=384,
            epsilon=0.01,
            etcf=EtcfParams(family="toy-lattice", n=2, m=4, q=5),
        )
        session = run_session(HonestDevice(), toy, seed=9)
        assert not session.aborted
        assert session.failed_count == 0
        assert np.array_equal(session.raw_key_a, session.raw_key_b)
