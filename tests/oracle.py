"""The scalar verifier: the round checks stated one record at a time, as the oracle
the verdict kernel (``cdiqkd.protocol.verdicts``) is tested against.

``records`` reads a decided block's replies as sent, one side at a time, through
``ingest_side``; ``_verdict`` scores one record, inverting its commitments one key
at a time by the scalar ETCF maps (``etcf_oracle``), and ``_generation_bits`` takes
one generation round's key-bit pair.  The only code it shares with the kernel is the
statevector support ``_support_of``, which the kernel reads as a table: message
reading, inversion, the checks and the key-bit rule are each stated here apart from
the kernel's arrays.
"""

from __future__ import annotations

import numpy as np

from cdiqkd.bits import fits
from cdiqkd.devices import ChallengeType
from cdiqkd.etcf import KeyKind, NoPreimageError
from cdiqkd.protocol import (
    _BASES,
    _CHALLENGES,
    _TAGS,
    FLAGS,
    RoundRecord,
    RoundType,
    SideRecord,
    WinFlag,
    _support_of,
    bell_label_bit,
    classify_round,
)
from cdiqkd.quantum import MeasurementBasis
from cdiqkd.streams import SEED_BYTES

from .etcf_oracle import check_preimage, invert


def records(block) -> list[RoundRecord]:
    """Each round's record of a decided ``block``, its sides read by ``ingest_side``
    from the replies as sent (a reply array's entries as Python ints) and its win from
    ``block.flags``."""
    c_a, c_b, resp_a, resp_b, a, h_a, b, h_b = (
        reply.tolist() if isinstance(reply, np.ndarray) else reply for reply in block.replies
    )
    keys = block.keys
    rows = zip(
        block.hadamard.tolist(), block.challenge_b.tolist(), block.question_h.tolist(),
        block.generate.tolist(), block.flags.tolist(),
    )
    records = []
    for i, ((had_a, had_b), (b_a, b_b), (qh_a, qh_b), generate, flag) in enumerate(rows):
        theta_a, theta_b = _BASES[had_a], _BASES[had_b]
        ct_a, ct_b = _CHALLENGES[b_a], _CHALLENGES[b_b]
        x = _BASES[qh_a] if b_a else None
        y = _BASES[qh_b] if b_b else None
        records.append(RoundRecord(
            index=block.start + i,
            alice=ingest_side(theta_a, keys[2 * i], c_a[i], ct_a, resp_a[i], x, a[i], h_a[i]),
            bob=ingest_side(theta_b, keys[2 * i + 1], c_b[i], ct_b, resp_b[i], y, b[i], h_b[i]),
            round_type=classify_round(ct_a, ct_b, theta_a, theta_b),
            test_tag=_TAGS[generate],
            win=FLAGS[flag],
            seed=block.seeds[SEED_BYTES * i:SEED_BYTES * (i + 1)],
        ))
    return records


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
