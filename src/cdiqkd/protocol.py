"""Protocol engine: round execution, classification, checks, and sessions.

Alice and Bob act as verifier state machines around a pluggable device
strategy.  A session runs n independent rounds (challenge types sampled
independently per side) a stream block at a time (``streams.STREAM_BLOCK``
rounds).  A block's coins, keys and device replies are arrays (``Block``),
and one kernel, ``verdicts``, decides all its rounds at once: it drops the
sifted (mismatched-challenge) rounds and scores each test round, and gives
a failed one its reason, the first check it fails (``REASONS``: a
malformed message, a challenge-a preimage, a commitment with no preimage,
the Bell parity, or a product round's honest support).
The session counts round types, verdicts, reasons and the Bell-test QBER
cells with array counts, and takes each generation round's key-bit pair
from the same arrays.  Estimation then reads only that tally, aborting
when the test failure fraction exceeds epsilon (the bits are dropped);
otherwise the raw key is the pairs of the generation rounds whose
questions are both computational.

The kernel range-checks each reply array as an array (``bits.fits_each``),
inverts a block's keys many at once (``etcf.DrawnKeys``) and reads the
product-round check from one table of ``_support_of``, built at first use.
``win_condition`` and ``honest_support`` run it on one ``RoundRecord``'s round.

Records are built only on request.  Once a block is decided it goes to
the session's block consumer: ``run_session`` builds its records and
collects them in ``SessionResult.records`` unless the caller passes
``on_block``, as ``harness.run_experiment`` does, which writes a block's
lines from its arrays.  Such a session holds one block at a time, so its
memory does not grow with the number of rounds beyond the raw-key bits.

Determinism contract: identical (seed, params) produce an identical
session, bit for bit.  Rounds run in blocks of ``streams.STREAM_BLOCK``
(``streams.STREAM_LAYOUT``), and each block draws from three streams keyed by the
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

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, lru_cache

import numpy as np

from .bits import dot, fits_each, parity
from .devices import NO_QUESTION, QUESTION_BASES, ChallengeType, DeviceStrategy, _retained_qubit
from .etcf import (
    DrawnKeys,
    EtcfKeyPair,
    EtcfParams,
    draw_keys,
    key_widths,
    stack_keys,
)
from .etcf import check_preimage, invert, keygen  # not called here: bench/spans.py wraps them
from .quantum import (
    MeasurementBasis,
    apply_gate,
    measurement_probabilities,
    pauli_correction,
    tensor,
)
from .quantum import ket, plus_minus  # not called here: bench/spans.py wraps them
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
    fail_reasons: dict[str, int] = field(default_factory=dict)  # failed test rounds by REASONS

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


def bell_label_bit(d: int, x0: int, x1: int) -> int:
    """The phase bit d . (x0 xor x1) over GF(2)."""
    return dot(d, x0 ^ x1)


_BASES = QUESTION_BASES  # (computational, Hadamard): indexed by a Hadamard bit
_CHALLENGES = (ChallengeType.A, ChallengeType.B)
_TAGS = (TestTag.TEST, TestTag.GENERATE)  # indexed by a generation bit

# Why a test round failed: the first check of ``verdicts`` it fails.
REASONS = ("violation", "preimage", "no_preimage", "bell_parity", "support")
# A round's flag in a decided block, an index of FLAGS.
FLAGS = (WinFlag.NA, WinFlag.PASS, WinFlag.FAIL)
_NA, _PASS, _FAIL = range(3)
_NO_CODE = -1  # a retained-qubit code not computed, or with no honest state


class Block:
    """A stream block's rounds as arrays: a row per round and, in the (n, 2) arrays, a
    column per side, Alice's first.

    ``_play_block`` fills the coins, keys and device replies; ``run_session`` then
    sets ``flags`` and ``reasons`` from ``verdicts``.  Records are built only on
    request (``records``).
    """

    flags: np.ndarray  # (n,): an index of FLAGS
    reasons: np.ndarray  # (n,): an index of REASONS for a failed test round, else -1

    def __init__(self, start: int, seeds: bytes, hadamard, challenge_b, question_h,
                 generate_coin, keys: DrawnKeys, replies: tuple, messages=None) -> None:
        self.start = start
        self.seeds = seeds  # SEED_BYTES a round
        self.hadamard = hadamard  # (n, 2): the state basis is Hadamard (the key is claw-free)
        self.challenge_b = challenge_b  # (n, 2)
        self.question_h = question_h  # (n, 2): the question is Hadamard, read where challenge b
        self.keys = keys  # 2n keys, round by round, Alice's first
        self.replies = replies  # as the device sent them: c_a, c_b, resp_a, resp_b, a, h_a, b, h_b
        self.bell = challenge_b[:, 0] & challenge_b[:, 1] & hadamard[:, 0] & hadamard[:, 1]
        self.generate = self.bell & generate_coin  # the tag rule: only a Bell round, on its coin
        self.tested = (challenge_b[:, 0] == challenge_b[:, 1]) & ~self.generate
        if messages is not None:  # read already: a replayed line's, or a record's fields
            self.messages = messages

    @cached_property
    def messages(self) -> tuple[np.ndarray, ...]:
        """(c, response, answer, h, violation), each (n, 2): each message as an integer, as
        a record keeps it, and whether a side sent a malformed or missing message.  A message
        that is not a bit string of its width is 0 if it is the commitment and -1 if not
        (a record's None); the answer and h are -1 unless both are bits."""
        domain_bits, codomain_bits = key_widths(self.keys.params)
        c_a, c_b, resp_a, resp_b, a, h_a, b, h_b = self.replies
        pairs = []
        for alice, bob, width in (
            (c_a, c_b, codomain_bits), (resp_a, resp_b, 1 + domain_bits), (a, b, 1), (h_a, h_b, 1),
        ):
            (ok_a, ints_a), (ok_b, ints_b) = fits_each(alice, width), fits_each(bob, width)
            pairs.append((np.stack([ok_a, ok_b], axis=1), np.stack([ints_a, ints_b], axis=1)))
        (c_ok, c), (resp_ok, resp), (a_ok, answer), (h_ok, h) = pairs
        challenge_b, answered = self.challenge_b, a_ok & h_ok
        resp_ok &= ~challenge_b | (resp >> domain_bits == 0)  # d is domain_bits wide
        violation = ~c_ok | ~resp_ok | (challenge_b & ~answered)
        answer, h = (np.where(answered, bits, -1).astype(np.int8) for bits in (answer, h))
        return c, np.where(resp_ok, resp, -1), answer, h, violation

    @cached_property
    def codes(self) -> np.ndarray:
        """(n, 2) retained-qubit codes (``_retained_codes``) of the sides a
        check or a key bit reads, -1 where there is none or it is not read: both sides
        of a product round with both challenges b, and of a Bell round with equal
        questions the one side the Bell check reads, when neither side is in
        violation."""
        c, resp, _, _, violation = self.messages
        challenge_b = self.challenge_b
        both_b = challenge_b[:, 0] & challenge_b[:, 1] & ~violation[:, 0] & ~violation[:, 1]
        read = np.zeros_like(violation)
        read[both_b & ~self.bell] = True
        equal = both_b & self.bell & (self.question_h[:, 0] == self.question_h[:, 1])
        read[equal, 0] = self.question_h[equal, 0]  # Alice's when both are Hadamard
        read[equal, 1] = ~self.question_h[equal, 1]  # Bob's when both are computational
        sides = np.flatnonzero(read)  # side 2 i + s of round i, as the keys are ordered
        codes = np.full(violation.size, _NO_CODE, dtype=np.int8)
        if sides.size:  # a one-round block often reads none
            codes[sides] = self._retained_codes(sides, c.ravel()[sides], resp.ravel()[sides])
        return codes.reshape(violation.shape)

    def _retained_codes(self, sides: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The codes (the device's: 0 = |0>, 1 = |1>, 2 = |+>, 3 = |->) of the qubits an honest
        device holds after challenge b at ``sides``, from c and d; -1 where c has no preimage."""
        inside = c >> key_widths(self.keys.params)[1] == 0  # a wider c has none
        hits, x = self.keys.preimages(sides, np.where(inside, c, 0).astype(np.int64, copy=False))
        hits &= inside[:, None]
        claw_free = self.hadamard.ravel()[sides]
        phase = parity(d & (x[:, 0] ^ x[:, 1]))
        return np.where(
            claw_free,
            np.where(hits[:, 0] & hits[:, 1], 2 + phase, _NO_CODE),
            np.where(hits[:, 0], 0, np.where(hits[:, 1], 1, _NO_CODE)),
        )

    def generation_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """(kept, pairs): the generation rounds whose key bits are kept, and each
        round's (n, 2) key-bit pair, Alice's answer and Bob's flip-corrected one."""
        _, _, answer, _, violation = self.messages
        phase_b = self.codes[:, 1] - 2
        kept = (
            self.generate & ~(self.question_h[:, 0] | self.question_h[:, 1])
            & ~(violation[:, 0] | violation[:, 1]) & (phase_b >= 0)
        )
        return kept, np.stack([answer[:, 0], answer[:, 1] ^ phase_b], axis=1)

    def records(self) -> list[RoundRecord]:
        """Each round's record, its sides read from ``messages`` (-1 as None; only a
        challenge-b side has an answer and an h) and its win from ``flags``."""
        arrays = (self.hadamard, self.challenge_b, self.question_h, *self.messages)
        rows = zip(self.keys, *([None if v < 0 else v for v in a.ravel().tolist()] for a in arrays))
        sides = []
        for key, had, b, qh, c, resp, answer, h, violation in rows:
            z_to_h = (None, resp, _BASES[qh], answer, h) if b else (resp, None, None, None, None)
            sides.append(SideRecord(_BASES[had], key, c, _CHALLENGES[b], *z_to_h, violation))
        records = []
        for i, (generate, flag) in enumerate(zip(self.generate.tolist(), self.flags.tolist())):
            alice, bob = sides[2 * i:2 * i + 2]
            records.append(RoundRecord(
                index=self.start + i,
                alice=alice, bob=bob,
                round_type=classify_round(alice.ct, bob.ct, alice.theta, bob.theta),
                test_tag=_TAGS[generate],
                win=FLAGS[flag],
                seed=self.seeds[SEED_BYTES * i:SEED_BYTES * (i + 1)],
            ))
        return records


def _play_block(device: DeviceStrategy, params: ProtocolParams, stream) -> Block:
    """The rounds of a stream block: coins and keys as arrays, and the device's
    messages, one call each for the whole block."""
    coins = stream.public.random((stream.stop - stream.start, len(COIN_COLUMNS)))
    hadamard = coins[:, 0:2] < params.p_theta_hadamard
    challenge_b = coins[:, 2:4] < params.p_ct_b
    question_h = coins[:, 4:6] < params.p_question_hadamard
    keys = draw_keys(hadamard.ravel(), params.etcf, stream.seeds)  # Hadamard: claw-free

    device.reset(stream.device)
    commitments = device.on_keys(keys[0::2], keys[1::2])
    responses = device.on_challenges(challenge_b[:, 0], challenge_b[:, 1])
    questions = np.where(challenge_b, question_h.astype(np.int8), np.int8(NO_QUESTION))
    answers = device.on_questions(questions[:, 0], questions[:, 1])
    return Block(
        stream.start, stream.seeds, hadamard, challenge_b, question_h,
        coins[:, 6] < params.p_generate_given_bell, keys, (*commitments, *responses, *answers),
    )


@cache
def _support_table() -> np.ndarray:
    """``_support_of`` as one boolean table, indexed [code_a, code_b, h_a, h_b, x, y, a, b]
    with questions as indices of ``QUESTION_BASES``; built on first use."""
    table = np.zeros((4, 4, 2, 2, 2, 2, 2, 2), dtype=bool)
    for code_a, code_b, h_a, h_b, x, y in itertools.product(range(4), range(4), *[range(2)] * 4):
        for a, b in _support_of(code_a, code_b, h_a, h_b, _BASES[x], _BASES[y]):
            table[code_a, code_b, h_a, h_b, x, y, a, b] = True
    table.flags.writeable = False
    return table


def verdicts(block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Each round's flag (an index of ``FLAGS``) and, for a failed test round, the reason
    (an index of ``REASONS``, else -1): the checks below, on every test round of the block at
    once, from its arrays.

    A violation fails the round, and a challenge-a side passes only with a
    preimage of its commitment.  A Bell round reads at most one commitment:
    when the questions differ it passes without reading either, and when
    they are equal it checks the answer parity against one side's phase
    bit only, Bob's when both questions are computational and Alice's when
    both are Hadamard, so the other side's commitment is never inverted.
    A product round with both challenges b inverts both commitments, and
    its answers must be in ``honest_support``.  A commitment a check inverts
    that has no preimage fails as ``no_preimage``.
    """
    c, resp, answer, h, violation = block.messages
    challenge_b, question_h, codes = block.challenge_b, block.question_h, block.codes
    violated = violation[:, 0] | violation[:, 1]
    both_a = ~(challenge_b[:, 0] | challenge_b[:, 1] | violated)
    preimage = np.zeros_like(both_a)
    sides = np.flatnonzero(np.repeat(both_a, 2))
    if sides.size:
        ok = block.keys.check_preimages(sides, resp.ravel()[sides], c.ravel()[sides])
        preimage[both_a] = ~(ok[0::2] & ok[1::2])
    product_b = challenge_b[:, 0] & challenge_b[:, 1] & ~block.bell
    equal = block.bell & (question_h[:, 0] == question_h[:, 1])
    bell_code = codes[np.arange(len(codes)), question_h[:, 0].astype(np.intp) ^ 1]
    answers_in_support = _support_table()[
        codes[:, 0], codes[:, 1], h[:, 0], h[:, 1], question_h[:, 0].astype(np.intp),
        question_h[:, 1].astype(np.intp), answer[:, 0], answer[:, 1],
    ]
    failed = np.select(
        [
            violated,
            preimage,
            (equal & (bell_code == _NO_CODE)) | (product_b & np.any(codes == _NO_CODE, axis=1)),
            equal & ((answer[:, 0] ^ answer[:, 1]) != bell_code - 2),
            product_b & ~answers_in_support,
        ],
        range(len(REASONS)),
        -1,
    )
    tested = block.tested
    reasons = np.where(tested, failed, -1).astype(np.int8)
    flags = np.where(tested, np.where(reasons >= 0, _FAIL, _PASS), _NA).astype(np.int8)
    return flags, reasons


def honest_support(record: RoundRecord) -> frozenset[tuple[int, int]]:
    """Answer pairs an honest device could have produced with the reported h bits.

    Reconstructs the two retained-qubit codes from the trapdoor inversions
    and reads the support of (codes, h bits, questions) from
    ``_support_table()``, the verdict kernel's table of every
    ``_support_of`` set, built once at first use.  Deterministic
    honest components reduce this to equality; uniform components admit
    both values.
    """
    alice, bob = record.alice, record.bob
    if alice.ct is not ChallengeType.B or bob.ct is not ChallengeType.B:
        raise ValueError("honest_support applies to rounds where both challenges are b")
    if alice.violation or bob.violation:
        return frozenset()
    block = _one_round(record)
    codes = block._retained_codes(np.arange(2), *(m[0] for m in block.messages[:2])).tolist()
    if _NO_CODE in codes:
        return frozenset()
    support = _support_table()[(*codes, alice.h, bob.h, *block.question_h[0].astype(np.intp))]
    return frozenset(map(tuple, np.argwhere(support).tolist()))


@lru_cache(maxsize=256)
def _support_of(code_a, code_b, h_a, h_b, x, y) -> frozenset[tuple[int, int]]:
    """Statevector support of the honest answers for one combination of inputs.

    Builds the pre-measurement state (CZ, Hadamard on the second qubit,
    then the X^hA Z^hB correction on both qubits) and keeps the outcomes
    whose Born probability under the question bases exceeds the support
    tolerance.
    """
    state = tensor(_retained_qubit(code_a), _retained_qubit(code_b))
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

    ``verdicts``' flag of the round as a one-round block, scored whatever its tag.
    """
    if record.round_type is RoundType.SIFTED:
        raise ValueError("sifted rounds are discarded, not scored")
    return FLAGS[verdicts(_one_round(record))[0][0]]


def _one_round(record: RoundRecord) -> Block:
    """``record`` as an untagged one-round block of its sides' fields (None as -1)."""
    sides = record.alice, record.bob
    bits = [[s.theta is _BASES[1], s.ct is ChallengeType.B, s.question is _BASES[1]] for s in sides]
    fields = [[s.c, s.d if s.ct is ChallengeType.B else s.z, s.answer, s.h] for s in sides]
    messages = np.array([[-1 if v is None else v for v in f] for f in fields]).T[:, None]
    violation = np.array([[s.violation for s in sides]])
    return Block(record.index, record.seed, *np.array(bits).T[:, None], np.zeros(1, bool),
                 stack_keys([s.key for s in sides]), (), (*messages, violation))


def run_session(
    device: DeviceStrategy,
    params: ProtocolParams,
    seed,
    on_block: Callable[[Block], None] | None = None,
) -> SessionResult:
    """Run the full pipeline: rounds, sifting, estimation, key extraction.

    Each stream block's rounds are decided at once by ``verdicts`` and counted
    from its arrays, with the generation rounds' key bits; everything after the
    block loop reads that tally and those bits.  Each decided block then
    goes to ``on_block(block)`` if given, and is dropped before the next is
    played; if not, its records are built and collected in the result's
    ``records``.
    """
    params.validate()
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    records: list[RoundRecord] = []
    consume = (lambda block: records.extend(block.records())) if on_block is None else on_block
    key_a, key_b = bytearray(), bytearray()  # the matched generation rounds' bits
    tally = np.zeros(len(_TALLY), dtype=np.int64)
    reasons = np.zeros(len(REASONS), dtype=np.int64)
    for stream in block_streams(master, params.rounds):
        block = _play_block(device, params, stream)
        block.flags, block.reasons = verdicts(block)
        challenge_b, bell, failed = block.challenge_b, block.bell, block.flags == _FAIL
        qber = bell & block.tested & ~(block.question_h[:, 0] | block.question_h[:, 1])
        tally += np.count_nonzero([
            challenge_b[:, 0] == challenge_b[:, 1], bell, block.generate, block.tested, failed,
            qber, qber & failed,
        ], axis=1)
        reasons += np.bincount(block.reasons[failed], minlength=len(REASONS))
        kept, pairs = block.generation_bits()
        key_a += pairs[kept, 0].astype(np.uint8).tobytes()
        key_b += pairs[kept, 1].astype(np.uint8).tobytes()
        consume(block)
        del block  # so that the next block's keys are drawn with this one's dropped

    counts = dict(zip(_TALLY, tally.tolist()))
    tested, failed = counts["tested"], counts["failed"]
    fail_fraction, aborted = abort_decision(tested, failed, params.epsilon)
    if aborted:
        key_a.clear()
        key_b.clear()
    return SessionResult(
        params=params,
        records=records,
        aborted=aborted,
        fail_fraction=fail_fraction,
        raw_key_a=np.array(key_a, dtype=np.uint8),
        raw_key_b=np.array(key_b, dtype=np.uint8),
        sifted_count=counts["sifted"],
        tested_count=tested,
        failed_count=failed,
        bell_count=counts["bell"],
        product_count=counts["sifted"] - counts["bell"],
        generate_count=counts["generate"],
        matched_count=len(key_a),
        dropped_count=0 if aborted else counts["generate"] - len(key_a),
        qber_tested=counts["qber_tested"],
        qber_failed=counts["qber_failed"],
        fail_reasons=dict(zip(REASONS, reasons.tolist())),
    )


# The session's counts, in the order run_session counts them a block at a time.
_TALLY = ("sifted", "bell", "generate", "tested", "failed", "qber_tested", "qber_failed")


def abort_decision(tested: int, failed: int, epsilon: float) -> tuple[float, bool]:
    """The test rounds' failure fraction (0 with none), and whether it exceeds epsilon: the
    abort rule of the session and of the replay audit."""
    fail_fraction = failed / tested if tested else 0.0
    return fail_fraction, fail_fraction > epsilon
