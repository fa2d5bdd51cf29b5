"""Protocol engine: round execution, classification, checks, and sessions.

Alice and Bob act as verifier state machines around a pluggable device
strategy.  A session runs n independent rounds (challenge types sampled
independently per side) a batch of stream blocks at a time, each draw
split by block (``streams.batches``): as many blocks as ``BATCH_BYTES`` of
keys hold, and at least one.  A batch's coins, keys and device replies are
arrays (``Block``), and one kernel, ``verdicts``, decides all its rounds at
once: it drops the sifted (mismatched-challenge) rounds and scores each
test round, and gives a failed one its reason, the first check it fails
(``REASONS``: a malformed message, a challenge-a preimage, a commitment
with no preimage, the Bell parity, or a product round's honest support).
The session counts round types, verdicts, reasons and the Bell-test QBER
cells with array counts, and takes each generation round's key-bit pair
from the same arrays.  Estimation then reads only that tally, aborting
when the test failure fraction exceeds epsilon (the bits are dropped);
otherwise the raw key is the pairs of the generation rounds whose
questions are both computational.

The kernel range-checks each reply array as an array (``bits.fits_each``),
inverts a batch's keys many at once (``etcf.DrawnKeys``) and reads the
product-round check from one table of ``_support_of``, built at first use.
``_verdict`` (and ``win_condition``, its flag) states the same checks for
one ``RoundRecord``: the oracle the kernel is tested against.

Records are built only on request.  Once a batch is decided it goes to
the session's block consumer: ``run_session`` builds its records and
collects them in ``SessionResult.records`` unless the caller passes
``on_block``, as ``harness.run_experiment`` does, which writes a batch's
lines from its arrays.  Such a session holds one batch at a time, so its
memory does not grow with the number of rounds beyond the raw-key bits.

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
- the device's stream, handed to ``device.reset`` once per batch, with
  each block's generator behind one ``streams.BatchGenerator``; the device
  then answers each of its messages for the whole batch at once, each draw
  split by block.

So the verifiers' draws never depend on the device's answers, and a
block's draws depend on nothing outside it, not even on the batch it is
played in: the complete blocks of a session are those of any longer
session with the same seed.  A
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

from .bits import dot, fits, fits_each, parity
from .devices import NO_QUESTION, QUESTION_BASES, ChallengeType, DeviceStrategy
from .etcf import (
    DrawnKeys,
    EtcfKeyPair,
    EtcfParams,
    KeyKind,
    NoPreimageError,
    check_preimage,
    draw_keys,
    invert,
    key_bytes,
    key_widths,
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
from .streams import SEED_BYTES, STREAM_BLOCK, batches, block_streams

SUPPORT_TOLERANCE = 1e-9
# Bytes of key arrays a session plays at once: a batch holds as many stream blocks as
# fit their keys in it, and at least one.  It moves no draw, only how many blocks each
# call of the device and of the kernel takes.
BATCH_BYTES = 1 << 19
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
# A side's key kind, indexed by whether its state basis is Hadamard.
KEY_KINDS = (KeyKind.INJECTIVE, KeyKind.CLAW_FREE)
_CHALLENGES = (ChallengeType.A, ChallengeType.B)
_TAGS = (TestTag.TEST, TestTag.GENERATE)  # indexed by a generation bit

# Why a test round failed: the first check of ``_verdict`` it fails.
REASONS = ("violation", "preimage", "no_preimage", "bell_parity", "support")
# A round's flag in a decided batch, an index of FLAGS.
FLAGS = (WinFlag.NA, WinFlag.PASS, WinFlag.FAIL)
_NA, _PASS, _FAIL = range(3)
_NO_CODE = -1  # a retained-qubit code not computed, or with no honest state


class Block:
    """A batch of stream blocks' rounds as arrays (each draw split by block, see
    ``streams.batches``): a row per round and, in the (n, 2) arrays, a column per
    side, Alice's first.

    ``_play_block`` fills the coins, keys and device replies; ``run_session`` then
    sets ``flags`` and ``reasons`` from ``verdicts``.  Records are built only on
    request (``records``).
    """

    flags: np.ndarray  # (n,): an index of FLAGS
    reasons: np.ndarray  # (n,): an index of REASONS for a failed test round, else -1

    def __init__(self, start: int, seeds: bytes, hadamard, challenge_b, question_h,
                 generate_coin, keys: DrawnKeys, replies: tuple) -> None:
        self.start = start
        self.seeds = seeds  # SEED_BYTES a round
        self.hadamard = hadamard  # (n, 2): the state basis is Hadamard (the key is claw-free)
        self.challenge_b = challenge_b  # (n, 2)
        self.question_h = question_h  # (n, 2): the question is Hadamard, read where challenge b
        self.keys = keys  # 2n keys, round by round, Alice's first
        self.replies = replies  # as the device sent them: c_a, c_b, resp_a, resp_b, a, h_a, b, h_b
        self.bell = challenge_b.all(axis=1) & hadamard.all(axis=1)
        self.generate = self.bell & generate_coin  # the tag rule: only a Bell round, on its coin
        self.tested = (challenge_b[:, 0] == challenge_b[:, 1]) & ~self.generate

    @cached_property
    def messages(self) -> tuple[np.ndarray, ...]:
        """(c, response, answer, h, violation), each (n, 2): each message as an integer, as
        ``ingest_side`` keeps it, and each side's violation, as it notes it.  A message
        that is not a bit string of its width is 0 if it is the commitment and -1 if not
        (``ingest_side``'s None); the answer and h are -1 unless both are bits."""
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
        """(n, 2) retained-qubit codes (``_reconstruct_retained_qubit``) of the sides a
        check or a key bit reads, -1 where there is none or it is not read: both sides
        of a product round with both challenges b, and of a Bell round with equal
        questions the one side ``_bell_check`` reads, when neither side is in
        violation."""
        c, resp, _, _, violation = self.messages
        both_b = self.challenge_b.all(axis=1) & ~violation.any(axis=1)
        read = np.zeros_like(violation)
        read[both_b & ~self.bell] = True
        equal = both_b & self.bell & (self.question_h[:, 0] == self.question_h[:, 1])
        read[equal, 0] = self.question_h[equal, 0]  # Alice's when both are Hadamard
        read[equal, 1] = ~self.question_h[equal, 1]  # Bob's when both are computational
        sides = np.flatnonzero(read)  # side 2 i + s of round i, as the keys are ordered
        hits, x = self.keys.preimages(sides, c.ravel()[sides])
        claw_free = self.hadamard.ravel()[sides]
        phase = parity(resp.ravel()[sides] & (x[:, 0] ^ x[:, 1]))
        codes = np.full(violation.size, _NO_CODE, dtype=np.int8)
        codes[sides] = np.where(
            claw_free,
            np.where(hits.all(axis=1), 2 + phase, _NO_CODE),
            np.where(hits[:, 0], 0, np.where(hits[:, 1], 1, _NO_CODE)),
        )
        return codes.reshape(violation.shape)

    def generation_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """(kept, pairs): the generation rounds ``_generation_bits`` keeps, and each
        round's (n, 2) key-bit pair, Alice's answer and Bob's flip-corrected one."""
        _, _, answer, _, violation = self.messages
        phase_b = self.codes[:, 1] - 2
        kept = (
            self.generate & ~self.question_h.any(axis=1) & ~violation.any(axis=1)
            & (phase_b >= 0)
        )
        return kept, np.stack([answer[:, 0], answer[:, 1] ^ phase_b], axis=1)

    def records(self) -> list[RoundRecord]:
        """Each round's record, its sides read by ``ingest_side`` from the replies as
        sent (a reply array's entries as Python ints) and its win from ``flags``."""
        c_a, c_b, resp_a, resp_b, a, h_a, b, h_b = (
            reply.tolist() if isinstance(reply, np.ndarray) else reply for reply in self.replies
        )
        keys = self.keys
        rows = zip(
            self.hadamard.tolist(), self.challenge_b.tolist(), self.question_h.tolist(),
            self.generate.tolist(), self.flags.tolist(),
        )
        records = []
        for i, ((had_a, had_b), (b_a, b_b), (qh_a, qh_b), generate, flag) in enumerate(rows):
            theta_a, theta_b = _BASES[had_a], _BASES[had_b]
            ct_a, ct_b = _CHALLENGES[b_a], _CHALLENGES[b_b]
            x = _BASES[qh_a] if b_a else None
            y = _BASES[qh_b] if b_b else None
            records.append(RoundRecord(
                index=self.start + i,
                alice=ingest_side(theta_a, keys[2 * i], c_a[i], ct_a, resp_a[i], x, a[i], h_a[i]),
                bob=ingest_side(theta_b, keys[2 * i + 1], c_b[i], ct_b, resp_b[i], y, b[i], h_b[i]),
                round_type=classify_round(ct_a, ct_b, theta_a, theta_b),
                test_tag=_TAGS[generate],
                win=FLAGS[flag],
                seed=self.seeds[SEED_BYTES * i:SEED_BYTES * (i + 1)],
            ))
        return records


def _play_block(device: DeviceStrategy, params: ProtocolParams, stream) -> Block:
    """The rounds of a batch of stream blocks: coins and keys as arrays, and the
    device's messages, one call each for the whole batch."""
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
    (an index of ``REASONS``, else -1): ``_verdict`` of every test round of the batch at
    once, from its arrays.
    """
    c, resp, answer, h, violation = block.messages
    challenge_b, question_h, codes = block.challenge_b, block.question_h, block.codes
    violated = violation.any(axis=1)
    both_a = ~challenge_b.any(axis=1) & ~violated
    preimage = np.zeros_like(both_a)
    sides = np.flatnonzero(np.repeat(both_a, 2))
    if sides.size:
        ok = block.keys.check_preimages(sides, resp.ravel()[sides], c.ravel()[sides])
        preimage[both_a] = ~ok.reshape(-1, 2).all(axis=1)
    product_b = challenge_b.all(axis=1) & ~block.bell
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


def ingest_side(theta, key, c, ct, response, question, answer, h) -> SideRecord:
    """One side's record of the device's messages.

    Each message is read by ``bits.fits``: one that is missing, of the wrong
    width or not an integer (a ``bool`` is never a bit string) is noted on
    the side as a violation and later scored as a failure; it never raises.
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

    The scalar oracle of ``verdicts``: the flag of ``_verdict``.
    """
    return _verdict(record)[0]


def _verdict(record: RoundRecord) -> tuple[WinFlag, str | None]:
    """The round's flag and, if it fails, the first check it fails, one of ``REASONS``.

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
    if record.round_type is RoundType.SIFTED:
        raise ValueError("sifted rounds are discarded, not scored")
    alice, bob = record.alice, record.bob
    if alice.violation or bob.violation:
        return WinFlag.FAIL, "violation"
    for side in (alice, bob):
        if side.ct is ChallengeType.A and not check_preimage(side.key, side.z, side.c):
            return WinFlag.FAIL, "preimage"
    if alice.ct is not ChallengeType.B:
        return WinFlag.PASS, None
    if record.round_type is RoundType.BELL:
        return _bell_check(record)
    if _reconstruct_retained_qubit(alice) is None or _reconstruct_retained_qubit(bob) is None:
        return WinFlag.FAIL, "no_preimage"
    if (alice.answer, bob.answer) not in honest_support(record):
        return WinFlag.FAIL, "support"
    return WinFlag.PASS, None


def _bell_check(record: RoundRecord) -> tuple[WinFlag, str | None]:
    alice, bob = record.alice, record.bob
    if alice.question is bob.question:
        side = bob if alice.question is MeasurementBasis.COMPUTATIONAL else alice
        expected = _phase_bit(side)
        if expected is None:
            return WinFlag.FAIL, "no_preimage"
        if (alice.answer ^ bob.answer) != expected:
            return WinFlag.FAIL, "bell_parity"
    return WinFlag.PASS, None


def run_session(
    device: DeviceStrategy,
    params: ProtocolParams,
    seed,
    on_block: Callable[[Block], None] | None = None,
) -> SessionResult:
    """Run the full pipeline: rounds, sifting, estimation, key extraction.

    Each batch's rounds are decided at once by ``verdicts`` and counted from
    its arrays, with the generation rounds' key bits; everything after the
    batch loop reads that tally and those bits.  Each decided batch then
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
    size = max(1, BATCH_BYTES // (2 * STREAM_BLOCK * key_bytes(params.etcf)))
    for stream in batches(block_streams(master, params.rounds), size):
        block = _play_block(device, params, stream)
        block.flags, block.reasons = verdicts(block)
        challenge_b, bell, failed = block.challenge_b, block.bell, block.flags == _FAIL
        qber = bell & block.tested & ~block.question_h.any(axis=1)
        tally += np.count_nonzero([
            challenge_b[:, 0] == challenge_b[:, 1], bell, block.generate, block.tested, failed,
            qber, qber & failed,
        ], axis=1)
        reasons += np.bincount(block.reasons[failed], minlength=len(REASONS))
        kept, pairs = block.generation_bits()
        key_a += pairs[kept, 0].astype(np.uint8).tobytes()
        key_b += pairs[kept, 1].astype(np.uint8).tobytes()
        consume(block)
        del block  # so that the next batch's keys are drawn with this one's dropped

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


# The session's counts, in the order run_session counts them a batch at a time.
_TALLY = ("sifted", "bell", "generate", "tested", "failed", "qber_tested", "qber_failed")


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
