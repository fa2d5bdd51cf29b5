"""Protocol engine: round execution, classification, checks, and sessions.

Alice and Bob act as verifier state machines around a pluggable device
strategy.  A session runs n independent rounds (challenge types sampled
independently per side) and decides each round once, as its block yields
it: it counts the round's type, drops a sifted (mismatched-challenge)
round, scores a test round and counts its verdict (in the Bell-test QBER
cells too when both questions are computational), and computes a
generation round's key-bit pair, kept as two bits.  Estimation then reads
only that tally, aborting when the test failure fraction exceeds epsilon
(the bits are dropped); otherwise the raw key is the pairs of the
generation rounds whose questions are both computational.

Once a block is decided, its records go to the session's block consumer:
``run_session`` collects them in ``SessionResult.records`` unless the
caller passes ``on_block``, which ``harness.run_experiment`` does to write
each block's transcript and store lines.  Such a session holds one block
of records and keys at a time, so its memory does not grow with the
number of rounds beyond the raw-key bits.

Determinism contract: identical (seed, params) produce an identical
session, bit for bit.  Rounds run in blocks of ``streams.STREAM_BLOCK``
(stream layout v6), and each block draws from three streams keyed by the
session's seed, the stream and the block index:

- public coins: one uniform per round for each of ``COIN_COLUMNS``, drawn
  for every round whether or not the round reads it, each compared with
  its ``ProtocolParams`` probability;
- private coins: each round's seed of ``streams.SEED_BYTES`` bytes, whose
  halves are Alice's and Bob's key seeds; ``etcf.draw_keys`` draws each
  key from its own seed alone, and each key is its own trapdoor, so the
  trapdoor store need hold only a test round's seed;
- the device's stream, handed to ``device.reset`` once per block; the
  device then answers each of its messages for the whole block at once.

So the verifiers' draws never depend on the device's answers, and a
block's draws depend on nothing outside it: the complete blocks of a
session are those of any longer session with the same seed.  A
``SeedSequence`` passed as the seed is read, never advanced, so passing
the same object twice gives the same session.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .bits import dot, fits
from .devices import NO_QUESTION, QUESTION_BASES, ChallengeType, DeviceStrategy
from .etcf import (
    EtcfKeyPair,
    EtcfParams,
    KeyKind,
    NoPreimageError,
    check_preimage,
    draw_keys,
    invert,
    keygen,  # not called here: named so that bench/spans.py can wrap it
)
from .quantum import (
    MeasurementBasis,
    apply_gate,
    ket,
    measurement_probabilities,
    pauli_correction,
    plus_minus,
    tensor,
)
from .streams import SEED_BYTES, block_streams

SUPPORT_TOLERANCE = 1e-9
# The public coins of a round, in the column order a block draws them.
COIN_COLUMNS = ("theta_a", "theta_b", "ct_a", "ct_b", "x", "y", "tag")


class RoundType(Enum):
    BELL = "bell"
    PRODUCT = "product"
    SIFTED = "sifted"


class TestTag(Enum):
    __test__ = False  # keep pytest from collecting the enum

    TEST = "test"
    GENERATE = "generate"


class WinFlag(Enum):
    PASS = "pass"
    FAIL = "fail"
    NA = "na"


@dataclass
class ProtocolParams:
    """Session parameters; the probability knobs default to fair coins."""

    rounds: int
    epsilon: float
    etcf: EtcfParams = field(default_factory=EtcfParams)
    p_theta_hadamard: float = 0.5
    p_ct_b: float = 0.5
    p_generate_given_bell: float = 0.5
    p_question_hadamard: float = 0.5

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        for name in ("p_theta_hadamard", "p_ct_b", "p_generate_given_bell", "p_question_hadamard"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.etcf.validate()


@dataclass
class SideRecord:
    """One party's stored data for one round; its key is also its trapdoor."""

    theta: MeasurementBasis
    key: EtcfKeyPair
    c: int
    ct: ChallengeType
    z: int | None = None
    d: int | None = None
    question: MeasurementBasis | None = None
    answer: int | None = None
    h: int | None = None
    violation: bool = False  # malformed device message (wrong width/shape)


@dataclass
class RoundRecord:
    index: int
    alice: SideRecord
    bob: SideRecord
    round_type: RoundType
    test_tag: TestTag = TestTag.TEST
    win: WinFlag = WinFlag.NA
    seed: bytes = b""  # the 16-byte seed of both sides' keys, Alice's 8 bytes first


@dataclass
class SessionResult:
    params: ProtocolParams  # the parameters the session ran with
    records: list[RoundRecord]  # empty when the blocks went to an ``on_block`` consumer
    aborted: bool
    fail_fraction: float
    raw_key_a: np.ndarray
    raw_key_b: np.ndarray
    sifted_count: int
    tested_count: int
    failed_count: int
    bell_count: int
    product_count: int
    generate_count: int
    matched_count: int
    dropped_count: int
    qber_tested: int  # Bell test rounds with both questions computational
    qber_failed: int

    @property
    def rounds(self) -> int:
        return self.params.rounds


def classify_round(
    ct_a: ChallengeType,
    ct_b: ChallengeType,
    theta_a: MeasurementBasis,
    theta_b: MeasurementBasis,
) -> RoundType:
    """Round type from the published challenge types and state bases."""
    if ct_a is not ct_b:
        return RoundType.SIFTED
    if (
        ct_a is ChallengeType.B
        and theta_a is MeasurementBasis.HADAMARD
        and theta_b is MeasurementBasis.HADAMARD
    ):
        return RoundType.BELL
    return RoundType.PRODUCT


def choose_test_tag(round_type: RoundType, coin: float, p_generate: float = 0.5) -> TestTag:
    """Generation when a Bell round's uniform ``coin`` falls below ``p_generate``; else test."""
    if round_type is RoundType.BELL and coin < p_generate:
        return TestTag.GENERATE
    return TestTag.TEST


def bell_label_bit(d: int, x0: int, x1: int) -> int:
    """The phase bit d . (x0 xor x1) over GF(2)."""
    return dot(d, x0 ^ x1)


_BASES = QUESTION_BASES  # (computational, Hadamard): indexed by a Hadamard bit
# A side's key kind, indexed by whether its state basis is Hadamard.
KEY_KINDS = (KeyKind.INJECTIVE, KeyKind.CLAW_FREE)
_CHALLENGES = (ChallengeType.A, ChallengeType.B)


def _run_block(device: DeviceStrategy, params: ProtocolParams, block):
    """The rounds of one stream block: coins and keys as arrays, the device's messages one
    call each for the whole block, then each round's record from its per-round values."""
    coins = block.public.random((block.stop - block.start, len(COIN_COLUMNS)))
    hadamard = coins[:, 0:2] < params.p_theta_hadamard
    challenge_b = coins[:, 2:4] < params.p_ct_b
    question_h = coins[:, 4:6] < params.p_question_hadamard
    kinds = [KEY_KINDS[h] for h in hadamard.ravel().tolist()]
    keys = draw_keys(kinds, params.etcf, block.seeds)

    device.reset(block.device)
    commitments = device.on_keys(keys[0::2], keys[1::2])
    responses = device.on_challenges(challenge_b[:, 0], challenge_b[:, 1])
    questions = np.where(challenge_b, question_h.astype(np.int8), np.int8(NO_QUESTION))
    answers = device.on_questions(questions[:, 0], questions[:, 1])
    # Per-round Python values, so that ingest_side reads Python ints.
    c_a, c_b, resp_a, resp_b, a, h_a, b, h_b = (
        reply.tolist() if isinstance(reply, np.ndarray) else reply
        for reply in (*commitments, *responses, *answers)
    )

    rows = zip(hadamard.tolist(), challenge_b.tolist(), question_h.tolist(), coins[:, 6].tolist())
    for i, ((had_a, had_b), (b_a, b_b), (qh_a, qh_b), tag_coin) in enumerate(rows):
        key_a, key_b = keys[2 * i], keys[2 * i + 1]
        theta_a, theta_b = _BASES[had_a], _BASES[had_b]
        ct_a, ct_b = _CHALLENGES[b_a], _CHALLENGES[b_b]
        x = _BASES[qh_a] if b_a else None
        y = _BASES[qh_b] if b_b else None
        round_type = classify_round(ct_a, ct_b, theta_a, theta_b)
        yield RoundRecord(
            index=block.start + i,
            alice=ingest_side(theta_a, key_a, c_a[i], ct_a, resp_a[i], x, a[i], h_a[i]),
            bob=ingest_side(theta_b, key_b, c_b[i], ct_b, resp_b[i], y, b[i], h_b[i]),
            round_type=round_type,
            test_tag=choose_test_tag(round_type, tag_coin, params.p_generate_given_bell),
            seed=block.seeds[SEED_BYTES * i:SEED_BYTES * (i + 1)],
        )


def ingest_side(theta, key, c, ct, response, question, answer, h) -> SideRecord:
    """One side's record of the device's messages.

    Each message is read by ``bits.fits``: one that is missing, of the wrong
    width or not an integer (a ``bool`` is never a bit string) is noted on
    the side as a violation and later scored as a failure; it never raises.
    Replay reads a round line's side through this too.
    """
    side = SideRecord(theta, key, 0, ct, question=question)
    if fits(c, key.codomain_bits):
        side.c = int(c)
    else:
        side.violation = True
    if ct is ChallengeType.A:
        if fits(response, 1 + key.domain_bits):
            side.z = int(response)
        else:
            side.violation = True
    else:
        if fits(response, key.domain_bits):
            side.d = int(response)
        else:
            side.violation = True
        if fits(answer, 1) and fits(h, 1):
            side.answer = int(answer)
            side.h = int(h)
        else:
            side.violation = True
    return side


def _phase_bit(side: SideRecord) -> int | None:
    """The phase bit d . (x0 xor x1) of a claw-free side; None when c has no preimage."""
    try:
        x0, x1 = invert(side.key, side.c)
    except NoPreimageError:
        return None
    return bell_label_bit(side.d, x0, x1)


def _reconstruct_retained_qubit(side: SideRecord) -> int | None:
    """Code of the one-qubit state an honest device would hold after challenge b.

    The codes are the device's: 0 = |0>, 1 = |1>, 2 = |+>, 3 = |->.  None
    when the commitment is outside the image (nothing honest exists).
    """
    if side.key.kind is KeyKind.CLAW_FREE:
        bit = _phase_bit(side)
        return None if bit is None else 2 + bit
    try:
        return invert(side.key, side.c)[0]
    except NoPreimageError:
        return None


def honest_support(record: RoundRecord) -> frozenset[tuple[int, int]]:
    """Answer pairs an honest device could have produced with the reported h bits.

    Reconstructs the two retained-qubit codes from the trapdoor inversions
    and reads the support of (codes, h bits, questions) from a cache of at
    most 256 sets, each computed once by ``_support_of``.  Deterministic
    honest components reduce this to equality; uniform components admit
    both values.
    """
    alice, bob = record.alice, record.bob
    if alice.ct is not ChallengeType.B or bob.ct is not ChallengeType.B:
        raise ValueError("honest_support applies to rounds where both challenges are b")
    if alice.violation or bob.violation:
        return frozenset()
    code_a = _reconstruct_retained_qubit(alice)
    code_b = _reconstruct_retained_qubit(bob)
    if code_a is None or code_b is None:
        return frozenset()
    return _support_of(code_a, code_b, alice.h, bob.h, alice.question, bob.question)


@lru_cache(maxsize=256)
def _support_of(code_a, code_b, h_a, h_b, x, y) -> frozenset[tuple[int, int]]:
    """Statevector support of the honest answers for one combination of inputs.

    Builds the pre-measurement state (CZ, Hadamard on the second qubit,
    then the X^hA Z^hB correction on both qubits) and keeps the outcomes
    whose Born probability under the question bases exceeds the support
    tolerance.
    """
    qubits = [ket((code,)) if code < 2 else plus_minus(code - 2) for code in (code_a, code_b)]
    state = tensor(*qubits)
    state = apply_gate(state, "CZ", 0, 1)
    state = apply_gate(state, "H", 1)
    for wire in (0, 1):
        state = pauli_correction(state, wire, x_power=h_a, z_power=h_b)
    probs = measurement_probabilities(state, (x, y))
    return frozenset(
        (a, b)
        for a in (0, 1)
        for b in (0, 1)
        if probs[(a << 1) | b] > SUPPORT_TOLERANCE
    )


def win_condition(record: RoundRecord) -> WinFlag:
    """Evaluate the round checks, inverting with the sides' keys; never raises on device data.

    A violation fails the round, and a challenge-a side passes only with a
    preimage of its commitment.  A Bell round reads at most one commitment:
    when the questions differ it passes without reading either, and when
    they are equal it checks the answer parity against one side's phase
    bit only, Bob's when both questions are computational and Alice's when
    both are Hadamard, so the other side's commitment is never inverted.
    A product round with both challenges b inverts both commitments
    (``honest_support``).
    """
    if record.round_type is RoundType.SIFTED:
        raise ValueError("sifted rounds are discarded, not scored")
    alice, bob = record.alice, record.bob
    if alice.violation or bob.violation:
        return WinFlag.FAIL
    for side in (alice, bob):
        if side.ct is ChallengeType.A and not check_preimage(side.key, side.z, side.c):
            return WinFlag.FAIL
    if alice.ct is not ChallengeType.B:
        return WinFlag.PASS
    if record.round_type is RoundType.BELL:
        return _bell_check(record)
    return WinFlag.PASS if (alice.answer, bob.answer) in honest_support(record) else WinFlag.FAIL


def _bell_check(record: RoundRecord) -> WinFlag:
    alice, bob = record.alice, record.bob
    if alice.question is bob.question:
        side = bob if alice.question is MeasurementBasis.COMPUTATIONAL else alice
        expected = _phase_bit(side)
        if expected is None or (alice.answer ^ bob.answer) != expected:
            return WinFlag.FAIL
    return WinFlag.PASS


def run_session(
    device: DeviceStrategy,
    params: ProtocolParams,
    seed,
    on_block: Callable[[list[RoundRecord]], None] | None = None,
) -> SessionResult:
    """Run the full pipeline: rounds, sifting, estimation, key extraction.

    Each round is decided once, as its block yields it; everything after
    the block loop reads the tally and the generation rounds' key bits.
    Each block's decided records then go to ``on_block(records)`` if given,
    and are collected in the result's ``records`` if not.
    """
    params.validate()
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    records: list[RoundRecord] = []
    consume = records.extend if on_block is None else on_block
    key_a, key_b = bytearray(), bytearray()  # the matched generation rounds' bits
    tally: Counter = Counter()  # round types, test verdicts, ("qber", verdict) cells, tags
    for block in block_streams(master, params.rounds):
        decided: list[RoundRecord] = []
        for record in _run_block(device, params, block):
            decided.append(record)
            tally[record.round_type] += 1
            if record.round_type is RoundType.SIFTED:
                continue
            if record.test_tag is TestTag.GENERATE:
                tally[TestTag.GENERATE] += 1
                pair = _generation_bits(record)  # pure: draws nothing, so safe to take now
                if pair is not None:
                    key_a.append(pair[0])
                    key_b.append(pair[1])
                continue
            record.win = win_condition(record)
            tally[record.win] += 1
            if record.round_type is RoundType.BELL and _both_computational(record):
                tally["qber", record.win] += 1
        consume(decided)

    failed = tally[WinFlag.FAIL]
    tested = tally[WinFlag.PASS] + failed
    fail_fraction, aborted = abort_decision(tested, failed, params.epsilon)
    if aborted:
        key_a.clear()
        key_b.clear()
    generated = tally[TestTag.GENERATE]
    return SessionResult(
        params=params,
        records=records,
        aborted=aborted,
        fail_fraction=fail_fraction,
        raw_key_a=np.array(key_a, dtype=np.uint8),
        raw_key_b=np.array(key_b, dtype=np.uint8),
        sifted_count=tally[RoundType.BELL] + tally[RoundType.PRODUCT],
        tested_count=tested,
        failed_count=failed,
        bell_count=tally[RoundType.BELL],
        product_count=tally[RoundType.PRODUCT],
        generate_count=generated,
        matched_count=len(key_a),
        dropped_count=0 if aborted else generated - len(key_a),
        qber_tested=tally["qber", WinFlag.PASS] + tally["qber", WinFlag.FAIL],
        qber_failed=tally["qber", WinFlag.FAIL],
    )


def abort_decision(tested: int, failed: int, epsilon: float) -> tuple[float, bool]:
    """The test rounds' failure fraction (0 with none), and whether it exceeds epsilon: the
    abort rule of the session and of the replay audit."""
    fail_fraction = failed / tested if tested else 0.0
    return fail_fraction, fail_fraction > epsilon


def _generation_bits(record: RoundRecord) -> tuple[int, int] | None:
    """Alice's and Bob's key bits for a generation round; None for dropped positions.

    Positions are dropped when the question bases differ from the matched
    computational pair or the device data needed to compute the flip bit is
    unusable (only a cheating device can cause the latter).
    """
    alice, bob = record.alice, record.bob
    if alice.violation or bob.violation or not _both_computational(record):
        return None
    s_b = _phase_bit(bob)
    if s_b is None:
        return None
    return alice.answer, bob.answer ^ s_b


def _both_computational(record: RoundRecord) -> bool:
    return record.alice.question is record.bob.question is MeasurementBasis.COMPUTATIONAL
