"""Per-reason fail rates of whole sessions against exact expectations.

Each device's rate of each failure reason, per round, is built exactly (as
``Fraction``) by enumerating the scalar oracle (``protocol._verdict``, whose
flag is ``win_condition``) over the messages the device can send, at the
ideal family's w = 2, weighted by the public-coin probabilities and the
device's law:

- classical-random: each field uniform over its width;
- honest and noisy: the commitment uniform over its key's image, the
  responses as ``devices._respond`` gives them (z either claw member with a
  fresh coin, or the injective preimage; d uniform) and the answers from
  ``devices._outcome_table``'s 16 equally likely paths, then the noisy
  device's independent flips of a and b;
- classical-table: its fixed entries, each a malformed message, so that its
  rates do not depend on the keys a session draws.

A field the verdict does not read, given the fields before it, is held at
one value with the weight of all its values instead of enumerated
(``_unread``, as ``_verdict`` documents which checks read what, and as it
stops at the first check a round fails); ``test_unread_fields_move_no_verdict``
checks that rule on the oracle.  Whole sessions over many seeds must then
fail for each reason at the expected rate, within a 5-sigma band, and the
honest device never.
"""

import functools
import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cdiqkd import devices
from cdiqkd.bits import dot
from cdiqkd.devices import QUESTION_BASES, ChallengeType, make_device
from cdiqkd.etcf import (
    EtcfParams, KeyKind, NoPreimageError, image, invert, keygen,
)
from cdiqkd.protocol import (
    REASONS,
    ProtocolParams,
    RoundRecord,
    classify_round,
    run_session,
)
from cdiqkd.quantum import MeasurementBasis

from . import oracle as protocol  # the scalar checks, and the key calls they make
from .helpers import assert_frequency
from .oracle import _verdict, ingest_side

W = 2
ETCF = EtcfParams(family="ideal", domain_bits=W)
HALF = Fraction(1, 2)
COMP, HAD = MeasurementBasis.COMPUTATIONAL, MeasurementBasis.HADAMARD
A, B = ChallengeType.A, ChallengeType.B
NOISE = (Fraction(1, 8), Fraction(1, 16))  # the noisy device's flips of a and of b
DEVICES = {
    "classical-random": "classical-random",
    "honest": "honest",
    "noisy": f"noisy:{float(NOISE[0])}:{float(NOISE[1])}",
    # A commitment wider than the 4-bit codomain: every test round in violation.
    "table-wide-c": "classical-table:wide-c",
    # z too wide for challenge a and an answer of 2 for challenge b: Alice is in
    # violation on every test round.
    "table-bad-z-and-answer": "classical-table:bad-z-and-answer",
}
TABLES = {"wide-c": {"c_b": 1 << (W + 2)}, "bad-z-and-answer": {"z_a": 1 << (W + 1), "a": 2}}


def _cells():
    """(weight, theta_a, theta_b, ct_a, ct_b, x, y) of each test-round cell of the public
    coins at their default fair probabilities: equal challenges, and a Bell round only
    when its tag coin says test."""
    for theta_a, theta_b, ct in itertools.product((COMP, HAD), (COMP, HAD), (A, B)):
        questions = itertools.product(QUESTION_BASES, repeat=2) if ct is B else [(None, None)]
        for x, y in questions:
            weight = HALF ** 4 * (HALF ** 2 if ct is B else 1)
            if classify_round(ct, ct, theta_a, theta_b) is protocol.RoundType.BELL:
                weight *= HALF  # the tag coin: half of all Bell rounds generate key
            yield weight, theta_a, theta_b, ct, ct, x, y


def _unread(cell, keys=None, known=None) -> set:
    """The fields of a test round's record in ``cell`` that its verdict does not read,
    given the fields ``known`` (a dict by name) and the sides' ``keys``: a side's answer
    and h after challenge a (no question was asked), an injective side's d, in a Bell
    round the h bits and, with different questions, everything, and with equal ones the
    other side's commitment and d; once Alice's z is no preimage of her commitment in a
    round of challenges a, Bob's fields; in a Bell round whose read commitment has no
    preimage, its d and the answers; and in a product round of challenges b with a
    commitment with no preimage, all but the commitments."""
    _, theta_a, theta_b, ct_a, ct_b, x, y = cell
    known = known or {}
    unread = set()
    for s, ct, theta in (("a", ct_a, theta_a), ("b", ct_b, theta_b)):
        if ct is A:
            unread |= {f"ans_{s}", f"h_{s}"}
        elif theta is COMP:
            unread.add(f"resp_{s}")

    def missing(s: str) -> bool:  # side s's commitment is known and has no preimage
        side = "ab".index(s)
        return keys is not None and f"c_{s}" in known and (
            known[f"c_{s}"] not in _image(keys[(theta_a, theta_b)[side], side])
        )

    if ct_a is A:
        if keys is not None and {"c_a", "resp_a"} <= set(known) and not protocol.check_preimage(
            keys[theta_a, 0], known["resp_a"], known["c_a"]
        ):
            unread |= {"c_b", "resp_b"}
    elif classify_round(ct_a, ct_b, theta_a, theta_b) is protocol.RoundType.BELL:
        unread |= {"h_a", "h_b"}
        if x is not y:
            return unread | {"c_a", "c_b", "resp_a", "resp_b", "ans_a", "ans_b"}
        read, other = ("b", "a") if x is COMP else ("a", "b")  # Bob's when computational
        unread |= {f"c_{other}", f"resp_{other}"}
        if missing(read):
            unread |= {f"resp_{read}", "ans_a", "ans_b"}
    elif missing("a") or missing("b"):
        unread |= {"resp_a", "resp_b", "ans_a", "h_a", "ans_b", "h_b"}
    return unread


@functools.cache
def _image(key) -> set[int]:
    return image(key)


FIELDS = ("c_a", "c_b", "resp_a", "resp_b", "ans_a", "h_a", "ans_b", "h_b")


def _reason(cell, keys, messages) -> str | None:
    """The reason ``_verdict`` fails the round, or None if it passes."""
    _, theta_a, theta_b, ct_a, ct_b, x, y = cell
    c_a, c_b, resp_a, resp_b, ans_a, h_a, ans_b, h_b = messages
    alice = ingest_side(theta_a, keys[theta_a, 0], c_a, ct_a, resp_a, x, ans_a, h_a)
    bob = ingest_side(theta_b, keys[theta_b, 1], c_b, ct_b, resp_b, y, ans_b, h_b)
    record = RoundRecord(0, alice, bob, classify_round(ct_a, ct_b, theta_a, theta_b))
    return _verdict(record)[1]


ORDER = ("c_a", "resp_a", "c_b", "resp_b", "ans_a", "h_a", "ans_b", "h_b")


def _random_law(cell, keys):
    """(denominator, the (weight, messages) pairs) of the classical-random device, uniform
    over each field's width, taken in ``ORDER``, each field unread given the fields
    before it held at 0 with the weight of all its values."""
    _, _, _, ct_a, ct_b, _, _ = cell
    sizes = {"c_a": 1 << W + 2, "c_b": 1 << W + 2, "resp_a": 1 << W + (ct_a is A),
             "resp_b": 1 << W + (ct_b is A), "ans_a": 2, "h_a": 2, "ans_b": 2, "h_b": 2}

    def pairs(known, weight):
        if len(known) == len(ORDER):
            yield weight, tuple(known[name] for name in FIELDS)
            return
        name = ORDER[len(known)]
        if name in _unread(cell, keys, known):
            yield from pairs({**known, name: 0}, weight * sizes[name])
            return
        for value in range(sizes[name]):
            yield from pairs({**known, name: value}, weight)

    return int(np.prod(list(sizes.values()))), pairs({}, 1)


def _honest_side(key, claw_free: bool, ct):
    """(weight out of 16, c, response, code) of the honest law on one side: c uniform
    over the image, then z (either claw member on a fresh coin, or the injective
    preimage) or d (uniform, read only on a claw-free side), and the retained-qubit
    code."""
    points = sorted(image(key))
    weight = 16 // len(points)  # 4 points of a claw-free image, 8 of an injective one
    for c in points:
        if claw_free:
            x0, x1 = invert(key, c)
            if ct is A:
                yield from ((weight // 2, c, coin | x << 1, devices._UNASKED)
                            for coin, x in ((0, x0), (1, x1)))
            else:
                yield from ((weight >> W, c, d, 2 + dot(d, x0 ^ x1)) for d in range(1 << W))
        else:
            branch, x = invert(key, c)
            yield weight, c, (branch | x << 1) if ct is A else 0, (
                devices._UNASKED if ct is A else branch
            )


def _honest_law(flips):
    """The honest law as ``_random_law`` gives the random one, then each answer flipped
    with the probabilities ``flips``, each a Fraction out of 16."""
    table = devices._outcome_table()
    flip_weights = [[int(16 * (1 - p)), int(16 * p)] for p in flips]

    def law(cell, keys):
        _, theta_a, theta_b, ct_a, ct_b, x, y = cell
        if ct_a is B and "ans_a" in _unread(cell):  # a Bell round that reads nothing
            return 1, [(1, (0,) * 8)]
        x_i, y_i = (0 if q is None else QUESTION_BASES.index(q) for q in (x, y))
        sides = list(itertools.product(
            _honest_side(keys[theta_a, 0], theta_a is HAD, ct_a),
            _honest_side(keys[theta_b, 1], theta_b is HAD, ct_b),
        ))
        if ct_a is A:
            return 16 * 16, [(w_a * w_b, (c_a, c_b, r_a, r_b, 0, 0, 0, 0))
                             for (w_a, c_a, r_a, _), (w_b, c_b, r_b, _) in sides]
        weights = Counter()  # equal messages on several paths, merged
        for (w_a, c_a, r_a, code_a), (w_b, c_b, r_b, code_b) in sides:
            for path in range(16):
                ans_a, h_a, ans_b, h_b = table[code_a, x_i, code_b, y_i, path].tolist()
                for f_a, f_b in itertools.product((0, 1), repeat=2):
                    weight = w_a * w_b * flip_weights[0][f_a] * flip_weights[1][f_b]
                    if weight:
                        weights[c_a, c_b, r_a, r_b, ans_a ^ f_a, h_a, ans_b ^ f_b, h_b] += weight
        return 16 ** 5, [(weight, messages) for messages, weight in weights.items()]

    return law


def _table_law(table):
    """The classical-table device's one message per field, as ``_random_law`` gives."""

    def law(cell, keys):
        ct_a, ct_b = cell[3], cell[4]
        get = lambda name: table.get(name, 0)  # noqa: E731
        resp = [get(("z_", "d_")[ct is B] + s) for s, ct in (("a", ct_a), ("b", ct_b))]
        return 1, [(1, (get("c_a"), get("c_b"), *resp, get("a"), get("h_a"), get("b"),
                        get("h_b")))]

    return law


LAWS = {
    "classical-random": _random_law,
    "honest": _honest_law((0, 0)),
    "noisy": _honest_law(NOISE),
    "table-wide-c": _table_law(TABLES["wide-c"]),
    "table-bad-z-and-answer": _table_law(TABLES["bad-z-and-answer"]),
}


def _keys(seed: int) -> dict:
    """A key of each kind for each side, indexed [state basis, side]."""
    return {
        (theta, side): keygen(kind, ETCF, seed + 2 * side + (kind is KeyKind.CLAW_FREE))[0]
        for theta, kind in ((COMP, KeyKind.INJECTIVE), (HAD, KeyKind.CLAW_FREE))
        for side in (0, 1)
    }


def _memoized(function):
    """``function(key, *args)``, each result (or NoPreimageError) computed once."""
    results = {}

    def memo(key, *args):
        slot = (id(key), *args)
        if slot not in results:
            try:
                results[slot] = function(key, *args), None
            except NoPreimageError as exc:
                results[slot] = None, exc
        value, error = results[slot]
        if error is not None:
            raise error
        return value

    return memo


def expected_rates(law, keys) -> dict[str, Fraction]:
    """Each reason's probability per round: over the cells, the law's messages, each
    weight an integer out of the cell's denominator."""
    rates = dict.fromkeys(REASONS, Fraction(0))
    with pytest.MonkeyPatch.context() as patch:  # the keys' scalar calls are pure
        for name in ("check_preimage", "invert"):
            patch.setattr(protocol, name, _memoized(getattr(protocol, name)))
        for cell in _cells():
            denominator, pairs = law(cell, keys)
            totals = dict.fromkeys(REASONS, 0)
            for weight, messages in pairs:
                reason = _reason(cell, keys, messages)
                if reason is not None:
                    totals[reason] += weight
            for reason, total in totals.items():
                rates[reason] += cell[0] * Fraction(total, denominator)
    return rates


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("tables")
    for name, table in TABLES.items():
        (folder / name).write_text(json.dumps(table))
    return folder


@pytest.fixture(scope="module")
def expectations():
    """Each device's rates, for one set of keys: a session draws other keys, so the rates
    must not depend on them, and the sessions below test that too."""
    return {name: expected_rates(law, _keys(11)) for name, law in LAWS.items()}


def test_expectations_are_exact_and_honest_is_zero(expectations):
    assert expectations["honest"] == dict.fromkeys(REASONS, 0)
    random = expectations["classical-random"]
    # Both challenges a (1/4 of rounds): a side passes with the one commitment of 16
    # its z maps to.
    assert random["preimage"] == Fraction(1, 4) * (1 - Fraction(1, 16) ** 2)
    assert random["violation"] == 0
    tested = Fraction(1, 2) - Fraction(1, 32)  # equal challenges, less the generation rounds
    for table in ("table-wide-c", "table-bad-z-and-answer"):
        assert expectations[table] == {**dict.fromkeys(REASONS, 0), "violation": tested}
    noisy = expectations["noisy"]
    assert noisy["violation"] == noisy["preimage"] == noisy["no_preimage"] == 0
    assert noisy["bell_parity"] > 0 and noisy["support"] > 0


def test_unread_fields_move_no_verdict():
    # The rule _unread states, checked on the oracle: resampling the fields it names
    # leaves the reason as it is, for random messages in every cell.
    rng = np.random.default_rng(5)
    keys = _keys(11)
    for cell in _cells():
        widths = [W + 2, W + 2, W + (cell[3] is A), W + (cell[4] is A), 1, 1, 1, 1]
        for _ in range(100):
            messages = [int(rng.integers(1 << width)) for width in widths]
            held = list(messages)
            for name in _unread(cell, keys, dict(zip(FIELDS, messages))):
                held[FIELDS.index(name)] = 0
            assert _reason(cell, keys, messages) == _reason(cell, keys, held), cell


SESSIONS, ROUNDS = 8, 2048


@pytest.mark.parametrize("name", list(DEVICES))
def test_sessions_fail_each_reason_at_its_expected_rate(name, expectations, table_files):
    spec = DEVICES[name].replace("classical-table:", f"classical-table:{table_files}/")
    counts = dict.fromkeys(REASONS, 0)
    for seed in range(SESSIONS):
        session = run_session(make_device(spec), ProtocolParams(ROUNDS, 1.0, ETCF), 900 + seed)
        for reason, count in session.fail_reasons.items():
            counts[reason] += count
    for reason in REASONS:
        rate = expectations[name][reason]
        if rate == 0:
            assert counts[reason] == 0, (name, reason, counts)
        else:
            assert_frequency(counts[reason], SESSIONS * ROUNDS, float(rate), f"{name} {reason}")
