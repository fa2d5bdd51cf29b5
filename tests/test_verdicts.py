"""The verdict kernel against the scalar oracle, abort reasons, and records on request."""

import dataclasses
import functools
import itertools
import json
import operator

import numpy as np
import pytest

from cdiqkd import harness, protocol
from cdiqkd.config import ExperimentConfig
from cdiqkd.devices import (
    QUESTION_BASES,
    TABLE_KEYS,
    ChallengeType,
    ClassicalDeterministicDevice,
    ClassicalRandomDevice,
    HonestDevice,
    make_device,
)
from cdiqkd.etcf import EtcfParams, KeyKind, draw_keys, image, keygen
from cdiqkd.harness import run_experiment
from cdiqkd.protocol import (
    FLAGS,
    REASONS,
    ProtocolParams,
    RoundType,
    TestTag,
    WinFlag,
    honest_support,
    run_session,
    win_condition,
)

from . import oracle

FAMILIES = {
    "ideal": EtcfParams(family="ideal", domain_bits=4),
    "toy-lattice": EtcfParams(family="toy-lattice", n=2, m=4, q=5),
}
# Entries no message may hold: wider than any width, negative, and a bool.
BAD_ENTRIES = {"2**70": 2**70, "-1": -1, "True": True}


def _blocks(device, params, seed):
    """The decided blocks of a session, as ``on_block`` receives them."""
    blocks = []
    run_session(device, params, seed, on_block=blocks.append)
    return blocks


# A record's fields but its sides, and a side's but its key.
_ROUND_FIELDS, _SIDE_FIELDS = (
    operator.attrgetter(*(f.name for f in dataclasses.fields(cls) if f.name not in apart))
    for cls, apart in ((protocol.RoundRecord, ("alice", "bob")), (protocol.SideRecord, ("key",)))
)


def _compared(records) -> tuple[list, list]:
    """Every field of each record and of its sides, and each field's type; a key as its
    kind and what it is drawn as: an ideal key's seed, a toy key's arrays."""
    rows = [
        (*_ROUND_FIELDS(r), *_SIDE_FIELDS(r.alice), *_SIDE_FIELDS(r.bob), *(
            (type(key), key.kind, key.seed if hasattr(key, "seed") else key.matrix.tobytes()
             + key.shift.tobytes())
            for key in (r.alice.key, r.bob.key)
        ))
        for r in records
    ]
    return rows, [tuple(map(type, row)) for row in rows]


def _assert_kernel_is_the_oracle(blocks) -> int:
    """The oracle reads each block's replies into records (``oracle.records``), and
    ``Block.records`` gives the same records.  Each test round's kernel (flag, reason)
    is ``_verdict`` of its record, and each generation round's key-bit pair is
    ``_generation_bits``; returns the rounds checked."""
    checked = 0
    for block in blocks:
        kept, pairs = block.generation_bits()
        records = oracle.records(block)
        assert _compared(block.records()) == _compared(records)
        for i, record in enumerate(records):
            flag, reason = block.flags[i], block.reasons[i]
            if record.round_type is RoundType.SIFTED:
                assert FLAGS[flag] is WinFlag.NA and reason == -1
                continue
            if record.test_tag is TestTag.GENERATE:
                assert FLAGS[flag] is WinFlag.NA and reason == -1
                expected = oracle._generation_bits(record)
                assert (tuple(pairs[i].tolist()) if kept[i] else None) == expected, record.index
                continue
            kernel = FLAGS[flag], REASONS[reason] if reason >= 0 else None
            assert kernel == oracle._verdict(record), record.index
            checked += 1
    return checked


KNOBS = [{}, {"p_theta_hadamard": 0.8, "p_ct_b": 0.8}]
# The reasons each device can cause at all, whatever its draws: an honest device none,
# a noisy one only by flipping answers, and a classical-random one every reason but a
# violation, as its messages always fit their widths.
CAUSABLE = {
    "honest": set(),
    "noisy:0.05:0.05": {"bell_parity", "support"},
    "classical-random": set(REASONS) - {"violation"},
}


@functools.cache
def _reasons_given(family: str, spec: str) -> frozenset:
    """The reasons four 600-round sessions of ``spec`` under ``family`` give, each
    session's blocks decided by the kernel as the oracle decides them."""
    reasons = set()
    for seed, knobs in enumerate(KNOBS * 2):
        params = ProtocolParams(rounds=600, epsilon=1.0, etcf=FAMILIES[family], **knobs)
        blocks = _blocks(make_device(spec), params, seed)
        spans = [(block.start, block.start + len(block.tested)) for block in blocks]
        assert [start for start, _ in spans] == [0, *(stop for _, stop in spans[:-1])]
        assert spans[-1][1] == 600
        assert _assert_kernel_is_the_oracle(blocks) > 0
        reasons.update(REASONS[r] for block in blocks for r in block.reasons.tolist() if r >= 0)
    return frozenset(reasons)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spec", CAUSABLE)
def test_kernel_equals_the_oracle(family, spec):
    assert _reasons_given(family, spec) <= CAUSABLE[spec]


@pytest.mark.parametrize("spec", CAUSABLE)
def test_the_sessions_give_every_reason_the_device_can_cause(spec):
    # Over both families, so that the comparison with the oracle meets every reason.
    # A toy-lattice commitment drawn at random is almost never in the image, so it
    # mostly fails before its answers are read.
    assert set().union(*(_reasons_given(family, spec) for family in FAMILIES)) == CAUSABLE[spec]


def _widths(etcf: EtcfParams) -> dict[str, int]:
    """The width of each message a table device sends, under keys of ``etcf``."""
    key, _ = keygen(KeyKind.CLAW_FREE, etcf, 0)
    widths = {"c": key.codomain_bits, "z": 1 + key.domain_bits, "d": key.domain_bits}
    return {name: widths.get(name[0], 1) for name in TABLE_KEYS}


def _tables(etcf: EtcfParams):
    """Device tables: every bad entry for every message, the widest entry each message
    takes and the narrowest it does not, and a few valid entries."""
    yield {"c_a": 5, "c_b": 9, "z_a": 3, "d_a": 1, "d_b": 2, "b": 1, "h_b": 1}
    yield {}
    for name, value in itertools.product(TABLE_KEYS, BAD_ENTRIES.values()):
        yield {name: value}
    for name, width in _widths(etcf).items():
        yield {name: (1 << width) - 1}
        yield {name: 1 << width}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_equals_the_oracle_on_table_devices(family):
    violations = 0
    for seed, table in enumerate(_tables(FAMILIES[family])):
        params = ProtocolParams(rounds=300, epsilon=1.0, etcf=FAMILIES[family], **KNOBS[seed % 2])
        blocks = _blocks(ClassicalDeterministicDevice(table), params, seed)
        assert _assert_kernel_is_the_oracle(blocks) > 0
        violations += sum(
            r == REASONS.index("violation") for block in blocks for r in block.reasons.tolist()
        )
    assert violations > 0


class _ArrayReply(ClassicalRandomDevice):
    """The classical-random device with one message replaced by an array of ``values``."""

    def __init__(self, message: int, values: np.ndarray) -> None:
        self.message, self.values = message, values

    def on_keys(self, keys_a, keys_b):
        return self._replaced(super().on_keys(keys_a, keys_b), 0)

    def on_challenges(self, ct_a, ct_b):
        return self._replaced(super().on_challenges(ct_a, ct_b), 2)

    def on_questions(self, x, y):
        return self._replaced(super().on_questions(x, y), 4)

    def _replaced(self, reply, first: int):
        reply = list(reply)
        if first <= self.message < first + len(reply):
            reply[self.message - first] = np.resize(self.values, len(reply[0]))
        return tuple(reply)


# Reply arrays a device may send, in each integer dtype and some other ones: each
# entry the kernel reads is checked as ``bits.fits`` checks it.
POWERS = [1 << k for k in range(13)]  # each width the families here take, and one more
REPLY_ARRAYS = {
    "int64": np.array([-1, 0, 2**62, -(2**63), *POWERS], dtype=np.int64),
    "uint64": np.array([2**63, 2**64 - 1, 0, *POWERS], dtype=np.uint64),
    "int8": np.array([-1, 0, 1, 127, -128], dtype=np.int8),
    "uint8": np.array([0, 1, 2, 255], dtype=np.uint8),
    "bool": np.array([True, False]),
    "float": np.array([0.0, 1.0, 2.5]),
    "object": np.array([0, 1, 2**70, None], dtype=object),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("dtype", sorted(REPLY_ARRAYS))
def test_kernel_equals_the_oracle_on_reply_arrays(family, dtype):
    for message in range(8):  # c_a, c_b, resp_a, resp_b, a, h_a, b, h_b
        params = ProtocolParams(rounds=300, epsilon=1.0, etcf=FAMILIES[family], p_ct_b=0.8)
        device = _ArrayReply(message, REPLY_ARRAYS[dtype])
        assert _assert_kernel_is_the_oracle(_blocks(device, params, message)) > 0


def _outside_image(key) -> int:
    """A commitment of the key's codomain width that has no preimage."""
    if hasattr(key, "tables"):
        return min(set(range(1 << key.codomain_bits)) - image(key))
    return (1 << (key.q - 1).bit_length()) - 1  # its first coordinate is not below q


class _Tampered(HonestDevice):
    """The honest device with one message changed, so that one check fails."""

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def on_keys(self, keys_a, keys_b):
        c_a, c_b = super().on_keys(keys_a, keys_b)
        if self.reason == "violation":
            c_a = c_a.tolist()
            c_a[0] = 2**70
        if self.reason == "no_preimage":  # Bob's commitment: read in every round that fails
            c_b = np.array([_outside_image(key) for key in keys_b])
        return c_a, c_b

    def on_challenges(self, ct_a, ct_b):
        resp_a, resp_b = super().on_challenges(ct_a, ct_b)
        if self.reason == "preimage":  # another x under the same branch bit
            resp_a = np.where(ct_a, resp_a, resp_a ^ 0b10)
        return resp_a, resp_b

    def on_questions(self, x, y):
        a, h_a, b, h_b = super().on_questions(x, y)
        if self.reason in ("bell_parity", "support"):
            a = a ^ 1
        return a, h_a, b, h_b


# Knobs under which each tampered message fails its own check and no other.
REASON_KNOBS = {
    "violation": {"p_ct_b": 0.0},  # the first round: a challenge-a product round
    "preimage": {"p_ct_b": 0.0},  # every round: both challenges a
    "no_preimage": {"p_ct_b": 1.0, "p_question_hadamard": 0.0},  # Bob's phase or qubit read
    "bell_parity": {"p_theta_hadamard": 1.0, "p_ct_b": 1.0},  # Bell rounds only
    "support": {"p_theta_hadamard": 0.0, "p_ct_b": 1.0, "p_question_hadamard": 0.0},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("reason", REASONS)
def test_each_failed_check_counts_its_reason(family, reason):
    params = ProtocolParams(rounds=512, epsilon=0.05, etcf=FAMILIES[family], **REASON_KNOBS[reason])
    session = run_session(_Tampered(reason), params, 11)
    assert session.failed_count > 0
    assert session.fail_reasons == {
        name: session.failed_count if name == reason else 0 for name in REASONS
    }
    assert sum(r.win is WinFlag.FAIL for r in session.records) == session.failed_count


def _edited(record):
    """``record``, then copies of it with one field of one side edited: its c moved
    outside its key's image or made wider than the codomain, its answer flipped, or its
    z xor 2."""
    yield record
    for name in ("alice", "bob"):
        side = getattr(record, name)
        edits = [{"c": _outside_image(side.key)}, {"c": 1 << side.key.codomain_bits}]
        if side.answer is not None:
            edits.append({"answer": side.answer ^ 1})
        if side.z is not None:
            edits.append({"z": side.z ^ 2})
        for edit in edits:
            yield dataclasses.replace(record, **{name: dataclasses.replace(side, **edit)})


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_record_checks_equal_the_oracle_on_edited_records(family):
    # win_condition and honest_support run the kernel on a one-round block of the
    # record's fields: on every device's records, and on edits no device message makes,
    # they must agree with the scalar oracle.  The sessions are those of
    # test_kernel_equals_the_oracle and test_kernel_equals_the_oracle_on_table_devices,
    # each device under the same knobs, cut to a few rounds: each record is edited six
    # to eight times, and each one-record call runs the whole kernel.
    etcf = FAMILIES[family]
    sessions = [
        (make_device(spec), knobs, 8)
        for spec in ("honest", "noisy:0.05:0.05", "classical-random") for knobs in KNOBS
    ]
    sessions += [
        (ClassicalDeterministicDevice(table), KNOBS[seed % 2], 2)
        for seed, table in enumerate(_tables(etcf))
    ]
    reasons = set()
    for seed, (device, knobs, rounds) in enumerate(sessions):
        params = ProtocolParams(rounds=rounds, epsilon=1.0, etcf=etcf, **knobs)
        for record in run_session(device, params, seed).records:
            if record.round_type is RoundType.SIFTED:
                with pytest.raises(ValueError):
                    win_condition(record)
                continue
            for edited in _edited(record):
                flag, reason = oracle._verdict(edited)
                assert win_condition(edited) is flag, (seed, edited)
                reasons.add(reason)
                if edited.alice.ct is edited.bob.ct is ChallengeType.B:
                    assert honest_support(edited) == oracle.honest_support(edited), edited
    assert reasons == {None, *REASONS}


def _counts(session) -> dict:
    fields = {f.name: getattr(session, f.name) for f in dataclasses.fields(session)}
    fields.pop("params"), fields.pop("records")
    fields["raw_key_a"] = fields["raw_key_a"].tolist()
    fields["raw_key_b"] = fields["raw_key_b"].tolist()
    return fields


# The benchmark's no-file session workloads: ideal-cheater-abort and lattice-noisy.
NO_FILE_RUNS = {
    "ideal-cheater-abort": {"etcf": "ideal", "device": "classical-random", "rounds": 8192},
    "lattice-noisy": {"etcf": "toy-lattice", "device": "noisy:0.01:0.0", "rounds": 2048},
}


@pytest.mark.parametrize("name", sorted(NO_FILE_RUNS))
def test_a_run_without_files_builds_no_record(monkeypatch, name):
    config = ExperimentConfig(seed=5, epsilon=0.05, recon="hamming74", **NO_FILE_RUNS[name])
    expected = _counts(run_experiment(config).session)

    def refused(*args, **kwargs):
        raise AssertionError("a record was built with no consumer for it")

    monkeypatch.setattr(protocol, "RoundRecord", refused)
    monkeypatch.setattr(protocol, "SideRecord", refused)
    assert _counts(run_experiment(config).session) == expected
    assert sum(expected["fail_reasons"].values()) == expected["failed_count"]


def _record_of(line: dict, seed: bytes, etcf: EtcfParams) -> protocol.RoundRecord:
    """A test round line's record, rebuilt as the scalar path reads one: each side by
    ``oracle.ingest_side`` under the key its store seed draws, marked ``viol_<s>`` if
    written so."""
    hadamard = [line[f"theta_{s}"] == "H" for s in "ab"]
    keys = draw_keys(np.array(hadamard), etcf, seed)
    sides = []
    for s, question, key, h in zip("ab", "xy", keys, hadamard):
        challenge = ChallengeType(line[f"ct_{s}"])
        response = line.get(f"d_{s}" if challenge is ChallengeType.B else f"z_{s}")
        side = oracle.ingest_side(
            QUESTION_BASES[h], key, int(line[f"c_{s}"], 16), challenge,
            None if response is None else int(response, 16),
            QUESTION_BASES[line[question] == "H"] if question in line else None,
            line.get(s), line.get(f"h_{s}"),
        )
        side.violation |= line.get(f"viol_{s}", False)
        sides.append(side)
    round_type = protocol.classify_round(sides[0].ct, sides[1].ct, sides[0].theta, sides[1].theta)
    return protocol.RoundRecord(line["i"], *sides, round_type, TestTag.TEST)


# Table devices sending bit strings of every width, and the malformed messages of
# test_malformed_device_messages_replay_to_a_match, too wide or not a bit.
REPLAY_TABLES = [
    {"c_a": 5, "c_b": 9, "z_a": 3, "d_a": 1, "d_b": 2, "b": 1, "h_b": 1},
    {"c_a": 2**40, "z_b": 2**40, "d_a": 2**40, "h_b": 2},
]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_replay_kernel_equals_the_oracle(tmp_path, monkeypatch, family):
    # Replay scores each block's test rounds with the verdict kernel, on the values it
    # reads from the lines: each (flag, reason) is _verdict of the line's record.
    etcf = FAMILIES[family]
    devices = ["honest", "noisy:0.05:0.05", "classical-random"]
    for k, table in enumerate(REPLAY_TABLES):
        (tmp_path / f"table{k}.json").write_text(json.dumps(table))
        devices.append(f"classical-table:{tmp_path / f'table{k}.json'}")
    scored = []

    def kernel(block):
        flags, reasons = protocol.verdicts(block)
        scored.extend(zip(flags.tolist(), reasons.tolist()))
        return flags, reasons

    monkeypatch.setattr(harness, "verdicts", kernel)
    seen = set()
    for seed, device in enumerate(devices):
        transcript = tmp_path / f"t{seed}.jsonl"
        run_experiment(ExperimentConfig.from_dict({
            "rounds": 600, "device": device, "seed": seed, "epsilon": 0.5, "recon": "none",
            "etcf": etcf.family, "domain_bits": etcf.domain_bits, "lattice_n": etcf.n,
            "lattice_m": etcf.m, "lattice_q": etcf.q, "transcript": str(transcript),
        }))
        scored.clear()
        report = harness.replay_verify(str(transcript), f"{transcript}.keys")
        assert report.match
        lines = [json.loads(line) for line in transcript.read_text().splitlines()[1:-1]]
        tests = [line for line in lines if line["tag"] == "test" and line["rt"] != "sifted"]
        store = transcript.with_name(f"{transcript.name}.keys").read_text().splitlines()[1:]
        seeds = [bytes.fromhex(json.loads(line)["seed"]) for line in store]
        assert len(scored) == len(tests) == len(seeds) == report.rounds_checked > 0
        for line, seed, (flag, reason) in zip(tests, seeds, scored):
            kernel_verdict = FLAGS[flag], REASONS[reason] if reason >= 0 else None
            expected = oracle._verdict(_record_of(line, seed, etcf))
            assert kernel_verdict == expected, (device, line["i"])
            seen.add(kernel_verdict[1])
    assert seen == {None, *REASONS}
