"""Config, experiment runner, transcript/replay, and CLI tests."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdiqkd import harness, protocol
from cdiqkd.cli import main
from cdiqkd.config import FIELD_TYPES, ConfigError, ExperimentConfig, read_config_file
from cdiqkd.devices import make_device
from cdiqkd.etcf import EtcfParams
from cdiqkd.harness import (
    EXIT_ABORTED,
    EXIT_KEY_PRODUCED,
    EXIT_USAGE,
    REPLAY_CHUNK,
    ReplayError,
    replay_verify,
    run_experiment,
)
from cdiqkd.keyrate import sig12
from cdiqkd.postprocess import final_length
from cdiqkd.protocol import RoundType, TestTag, run_session
from cdiqkd.streams import STREAM_BLOCK

ALLOWED_GENERATE_FIELDS = {
    "record", "i", "theta_a", "theta_b", "ct_a", "ct_b", "rt", "tag", "win", "x", "y",
}


def config(tmp_path=None, **overrides) -> ExperimentConfig:
    data = {"rounds": 1024, "epsilon": 0.05, "device": "honest", "seed": 7, "recon": "none"}
    data.update(overrides)
    if tmp_path is not None:
        data.setdefault("transcript", str(tmp_path / "transcript.jsonl"))
        data.setdefault("summary", str(tmp_path / "summary.json"))
    return ExperimentConfig.from_dict(data)


class TestConfig:
    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown config key: warp_factor"):
            ExperimentConfig.from_dict({"warp_factor": 9})

    def test_validation_messages(self):
        with pytest.raises(ConfigError, match="rounds"):
            ExperimentConfig.from_dict({"rounds": 0})
        with pytest.raises(ConfigError, match="epsilon"):
            ExperimentConfig.from_dict({"epsilon": 1.5})
        with pytest.raises(ConfigError, match="device"):
            ExperimentConfig.from_dict({"device": "evil"})
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"seed": -1})
        with pytest.raises(ConfigError, match="q must be prime"):
            ExperimentConfig.from_dict({"etcf": "toy-lattice", "lattice_q": 12})
        with pytest.raises(ConfigError, match="at most 63"):
            ExperimentConfig.from_dict({"etcf": "toy-lattice", "lattice_q": 1031})
        with pytest.raises(ConfigError) as caught:
            ExperimentConfig.from_dict({"recon": "cascade"})
        assert str(caught.value) == "recon must be 'hamming74' or 'none', got 'cascade'"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": 64, "device": "classical-random"}))
        loaded = ExperimentConfig.from_dict(read_config_file(str(path)))
        assert loaded.rounds == 64
        assert loaded.device == "classical-random"

    def test_bad_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_config_file(str(path))


class TestRunExperiment:
    def test_honest_produces_verified_key(self, tmp_path):
        outcome = run_experiment(config(tmp_path, rounds=4096, seed=11))
        assert outcome.exit_code == EXIT_KEY_PRODUCED
        assert outcome.summary["verified"]
        assert np.array_equal(outcome.final_key_a, outcome.final_key_b)
        raw = outcome.summary["raw_key_length"]
        assert outcome.summary["final_key_length"] == final_length(raw, 0.0, 64, 2.0**-32)

    def test_classical_random_aborts_with_exit_2(self):
        outcome = run_experiment(config(rounds=256, device="classical-random", seed=3))
        assert outcome.session.records == []  # a run keeps no records, with files or without
        assert outcome.exit_code == EXIT_ABORTED
        assert outcome.summary["aborted"]
        assert outcome.summary["final_key_length"] == 0
        assert len(outcome.final_key_a) == 0

    def test_noisy_device_with_hamming(self):
        outcome = run_experiment(
            config(rounds=8192, device="noisy:0.01:0.0", recon="hamming74", seed=5)
        )
        assert not outcome.summary["aborted"]
        assert outcome.summary["qber_estimate"] <= 0.2

    def test_toy_lattice_experiment(self, tmp_path):
        outcome = run_experiment(
            config(
                tmp_path,
                rounds=512,
                etcf="toy-lattice",
                lattice_n=2,
                lattice_m=4,
                lattice_q=5,
                seed=9,
            )
        )
        assert outcome.exit_code == EXIT_KEY_PRODUCED
        report = replay_verify(
            str(tmp_path / "transcript.jsonl"), str(tmp_path / "transcript.jsonl.keys")
        )
        assert report.match

    def test_summary_floats_have_12_significant_digits(self, tmp_path):
        run_experiment(config(tmp_path, rounds=512, seed=13))
        text = (tmp_path / "summary.json").read_text()
        summary = json.loads(text)

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            elif isinstance(node, float):
                assert float(f"{node:.12g}") == node

        walk(summary)

    def test_byte_identical_reruns(self, tmp_path):
        paths = []
        for name in ("one", "two"):
            directory = tmp_path / name
            directory.mkdir()
            cfg = config(directory, rounds=512, seed=21)
            run_experiment(cfg)
            paths.append(directory)
        t1 = (paths[0] / "transcript.jsonl").read_bytes()
        t2 = (paths[1] / "transcript.jsonl").read_bytes()
        assert t1 == t2
        k1 = (paths[0] / "transcript.jsonl.keys").read_bytes()
        k2 = (paths[1] / "transcript.jsonl.keys").read_bytes()
        assert k1 == k2

    def test_memory_does_not_grow_with_rounds(self, tmp_path):
        # Each block's lines are written once it is decided, and its records,
        # keys and trapdoors dropped: only the raw-key bits grow with the rounds.
        run_experiment(config(tmp_path, rounds=STREAM_BLOCK, seed=35))  # warm the caches
        peaks = {}
        for rounds in (4 * STREAM_BLOCK, 8 * STREAM_BLOCK):
            tracemalloc.start()
            try:
                run_experiment(config(tmp_path, rounds=rounds, seed=35))
                peaks[rounds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8 * STREAM_BLOCK] - peaks[4 * STREAM_BLOCK] < 1024 * 1024

    def test_one_block_of_the_largest_lattice_keys_is_bounded(self, tmp_path):
        # At n 31, m 63, q 2, the largest toy-lattice keys a run takes, a stream block's
        # 4,096 keys are 66.1 MB of int64 rows (A and its shift).  A run of one block
        # with files peaked at 71.0 MB traced; the bound is that and 10%.
        lattice = {"etcf": "toy-lattice", "lattice_n": 31, "lattice_m": 63, "lattice_q": 2}
        run_experiment(config(tmp_path, rounds=64, **lattice))  # warm the caches
        tracemalloc.start()
        try:
            outcome = run_experiment(config(tmp_path, rounds=STREAM_BLOCK, **lattice))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.session.failed_count == 0
        assert peak < 78 * 10**6


def _counts(session) -> tuple:
    return (
        session.rounds, session.sifted_count, session.tested_count, session.failed_count,
        session.bell_count, session.product_count, session.generate_count,
        session.matched_count, session.dropped_count, session.qber_tested, session.qber_failed,
    )


class TestTranscriptPrivacy:
    def test_generate_round_data_never_leaves_the_engine(self, tmp_path):
        cfg = config(tmp_path, rounds=2048, seed=17)
        outcome = run_experiment(cfg)
        transcript_text = (tmp_path / "transcript.jsonl").read_text()
        store_text = (tmp_path / "transcript.jsonl.keys").read_text()
        summary_text = (tmp_path / "summary.json").read_text()
        everything = transcript_text + store_text + summary_text

        # run_experiment keeps no records; by the determinism contract the
        # session its first spawned seed runs is the one it wrote.
        assert outcome.session.records == []
        session_seed = np.random.SeedSequence(cfg.seed).spawn(2)[0]
        session = run_session(make_device(cfg.device), cfg.protocol_params(), session_seed)
        assert _counts(session) == _counts(outcome.session)
        generate_records = [
            r
            for r in session.records
            if r.test_tag is TestTag.GENERATE and r.round_type is RoundType.BELL
        ]
        assert generate_records
        # The store holds the seed of each test round and of no other round.
        tested = [
            r for r in session.records
            if r.round_type is not RoundType.SIFTED and r.test_tag is TestTag.TEST
        ]
        entries = [json.loads(line) for line in store_text.splitlines()[1:]]
        assert [entry["i"] for entry in entries] == [r.index for r in tested]
        assert [entry["seed"] for entry in entries] == [r.seed.hex() for r in tested]
        for record in generate_records:
            # the seed of a generation round's keys appears nowhere
            assert len(record.seed) == 16 and record.seed.hex() not in everything

        for line in transcript_text.splitlines():
            entry = json.loads(line)
            if entry.get("record") == "round" and entry.get("tag") == "generate":
                assert set(entry) <= ALLOWED_GENERATE_FIELDS

    def test_key_material_absent_from_outputs(self, tmp_path):
        cfg = config(tmp_path, rounds=16384, seed=19, eps_sec=0.25)
        outcome = run_experiment(cfg)
        assert len(outcome.final_key_a) > 0
        everything = (
            (tmp_path / "transcript.jsonl").read_text()
            + (tmp_path / "transcript.jsonl.keys").read_text()
            + (tmp_path / "summary.json").read_text()
        )
        raw_hex = np.packbits(outcome.session.raw_key_a).tobytes().hex()
        final_hex = np.packbits(outcome.final_key_a).tobytes().hex()
        assert raw_hex not in everything
        assert final_hex not in everything
        assert "".join(map(str, outcome.session.raw_key_a)) not in everything


class TestReplay:
    def run_and_paths(self, tmp_path, **overrides):
        cfg = config(tmp_path, **overrides)
        run_experiment(cfg)
        return str(tmp_path / "transcript.jsonl"), str(tmp_path / "transcript.jsonl.keys")

    def test_untouched_transcript_matches(self, tmp_path):
        transcript, store = self.run_and_paths(tmp_path, rounds=1024, seed=23)
        report = replay_verify(transcript, store)
        assert report.match
        assert report.rounds_checked > 0

    def test_flipped_bell_answer_is_localized(self, tmp_path):
        transcript, store = self.run_and_paths(tmp_path, rounds=1024, seed=25)
        lines = open(transcript).read().splitlines()
        target = None
        for n, line in enumerate(lines):
            entry = json.loads(line)
            if (
                entry.get("record") == "round"
                and entry.get("rt") == "bell"
                and entry.get("tag") == "test"
                and entry.get("x") == entry.get("y")
                and "a" in entry
            ):
                entry["a"] ^= 1
                lines[n] = json.dumps(entry)
                target = entry["i"]
                break
        assert target is not None
        tampered = transcript + ".tampered"
        with open(tampered, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        report = replay_verify(tampered, store)
        assert not report.match
        assert any(f"round {target} " in m for m in report.mismatches)

    def test_corrupt_line_names_line_number(self, tmp_path):
        transcript, store = self.run_and_paths(tmp_path, rounds=256, seed=27)
        lines = open(transcript).read().splitlines()
        lines[3] = lines[3][:-5] + "#####"
        bad = transcript + ".bad"
        with open(bad, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        report = replay_verify(bad, store)
        assert not report.match
        assert any(m.startswith("line 4:") for m in report.mismatches)

    @pytest.mark.parametrize("damaged", ["transcript", "store"])
    def test_non_utf8_last_line(self, tmp_path, capsys, damaged):
        # The bytes ff fe appended as a last line: a corrupt transcript line is a
        # named mismatch (exit 2), a corrupt store line a ReplayError (exit 1).
        transcript, store = self.run_and_paths(tmp_path, rounds=64, seed=1)
        path = Path(transcript if damaged == "transcript" else store)
        number = path.read_bytes().count(b"\n") + 1
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        if damaged == "transcript":
            message = f"line {number}: corrupt record"
            assert replay_verify(transcript, store).mismatches == [message]
            assert main(["--replay", transcript]) == 2
            assert message in capsys.readouterr().out
        else:
            message = f"trapdoor store corrupt at line {number}"
            with pytest.raises(ReplayError, match=message):
                replay_verify(transcript, store)
            assert main(["--replay", transcript]) == 1
            assert message in capsys.readouterr().err

    def test_truncation_raises_naming_last_line(self, tmp_path):
        transcript, store = self.run_and_paths(tmp_path, rounds=256, seed=29)
        lines = open(transcript).read().splitlines()
        cut = transcript + ".cut"
        with open(cut, "w") as fh:
            fh.write("\n".join(lines[:100]) + "\n")
        with pytest.raises(ReplayError, match="line 100"):
            replay_verify(cut, store)

    def test_replay_memory_does_not_grow_with_rounds(self, tmp_path):
        # Replay holds at most a block of test round lines and their keys at a time.
        peaks = {}
        for rounds in (2048, 4096):
            directory = tmp_path / str(rounds)
            directory.mkdir()
            paths = self.run_and_paths(directory, rounds=rounds, seed=33)
            replay_verify(*paths)  # warm the answer and support caches
            tracemalloc.start()
            try:
                assert replay_verify(*paths).match
                peaks[rounds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] - peaks[2048] < 256 * 1024

    def test_replay_memory_is_bounded_by_one_replay_chunk(self, tmp_path):
        # Replay reads and scores one chunk of lines at a time and holds nothing of it
        # once the next is read, so its peak at ten chunks of rounds is its peak at five.
        peaks = {}
        for chunks in (5, 10):
            directory = tmp_path / str(chunks)
            directory.mkdir()
            paths = self.run_and_paths(directory, rounds=chunks * REPLAY_CHUNK, seed=35)
            replay_verify(*paths)  # warm the answer and support caches
            tracemalloc.start()
            try:
                assert replay_verify(*paths).match
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10] - peaks[5] <= 256 * 1024

    def test_malformed_device_messages_replay_to_a_match(self, tmp_path):
        # The writer marks a side whose device sent a malformed message and drops
        # each response it got wrong; replay reads the side as the writer wrote it.
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"c_a": 2**40, "z_b": 2**40, "d_a": 2**40, "h_b": 2}))
        transcript, store = self.run_and_paths(
            tmp_path, rounds=256, seed=3, device=f"classical-table:{table}"
        )
        rounds = [json.loads(line) for line in open(transcript)][1:-1]
        tested = [e for e in rounds if e["tag"] == "test" and e["rt"] != "sifted"]
        assert all(e["viol_a"] is e["viol_b"] is True for e in tested)
        assert any("c_a" in e and "d_a" not in e and "a" in e for e in tested)
        assert any("c_b" in e and "d_b" in e and "b" not in e for e in tested)
        assert any("z_a" in e and "z_b" not in e for e in tested)
        report = replay_verify(transcript, store)
        assert report.match and report.rounds_checked == len(tested)

    @pytest.mark.parametrize("files", ["audit_files", "lattice_audit_files"])
    def test_family_is_read_and_validated_once(self, tmp_path, monkeypatch, request, files):
        transcript, store = request.getfixturevalue(files)
        stated = json.loads(transcript[0])["etcf"]
        for line in store[1:]:
            # An entry is one round's seed; the family and its sizes are in the transcript header.
            assert json.loads(line).keys() == {"record", "i", "seed"}
        calls = []
        validate = EtcfParams.validate
        monkeypatch.setattr(EtcfParams, "validate", lambda p: calls.append(p) or validate(p))
        assert replay_verify(*_write(tmp_path, transcript, store)).match
        assert calls == [EtcfParams(**stated)]

    def test_epsilon_is_stated_exactly(self, tmp_path):
        # 6 of 120 test rounds fail, a fraction of exactly 0.05, which aborts above this
        # epsilon only: the header must state it with every digit for replay to agree.
        transcript, store = self.run_and_paths(
            tmp_path, rounds=256, device="noisy:0.04:0.04", seed=2496, epsilon=0.0499999999999999
        )
        lines = Path(transcript).read_text().splitlines()
        assert json.loads(lines[0])["epsilon"] == 0.0499999999999999
        footer = json.loads(lines[-1])
        assert (footer["tested"], footer["failed"], footer["aborted"]) == (120, 6, True)
        assert replay_verify(transcript, store).match

    def test_tampered_abort_flag_detected(self, tmp_path):
        transcript, store = self.run_and_paths(tmp_path, rounds=512, seed=31)
        lines = open(transcript).read().splitlines()
        footer = json.loads(lines[-1])
        footer["aborted"] = True
        lines[-1] = json.dumps(footer)
        bad = transcript + ".abort"
        with open(bad, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        report = replay_verify(bad, store)
        assert not report.match
        assert any("abort decision" in m for m in report.mismatches)


@pytest.fixture(scope="module")
def audit_files(tmp_path_factory):
    """Transcript and trapdoor store lines of one honest 256-round run."""
    tmp_path = tmp_path_factory.mktemp("audit")
    run_experiment(config(tmp_path, rounds=256, seed=5))
    return (
        (tmp_path / "transcript.jsonl").read_text().splitlines(),
        (tmp_path / "transcript.jsonl.keys").read_text().splitlines(),
    )


@pytest.fixture(scope="module")
def lattice_audit_files(tmp_path_factory):
    """Transcript and trapdoor store lines of one honest 64-round toy-lattice run."""
    return _fuzz_files(tmp_path_factory, seed=3, etcf="toy-lattice")[0]


def _mutated(lines, pick, mutate, last=False):
    """Copy of lines with mutate applied to the first (or last) entry that pick accepts."""
    lines = list(lines)
    order = range(len(lines) - 1, -1, -1) if last else range(len(lines))
    number = next(n for n in order if pick(json.loads(lines[n])))
    entry = json.loads(lines[number])
    lines[number] = json.dumps(mutate(entry) or entry)
    return lines, number + 1


def _without(name):
    return lambda entry: entry.pop(name) and None


def _is_header(entry):
    return entry["record"] == "header"


def _is_footer(entry):
    return entry["record"] == "footer"


def _is_challenge_a_test(entry):
    return entry["record"] == "round" and entry["tag"] == "test" and "z_a" in entry


def _is_bell_test(entry):
    # Both questions Hadamard: the verdict needs Alice's phase string d_a.
    return (
        entry["record"] == "round" and entry["rt"] == "bell" and entry["tag"] == "test"
        and entry["x"] == entry["y"] == "H"
    )


def _is_bell_cc_test(entry):
    # Both questions computational: the verdict needs Bob's phase string d_b only.
    return (
        entry["record"] == "round" and entry["rt"] == "bell" and entry["tag"] == "test"
        and entry["x"] == entry["y"] == "C"
    )


def _is_lettered_challenge_a_test(entry):
    # A commitment with a hex letter in it, so that upper-casing changes it.
    return _is_challenge_a_test(entry) and not entry["c_a"].isdigit()


def _is_keys(entry):
    return entry["record"] == "keys"


def _is_generate(entry):
    return entry["record"] == "round" and entry["tag"] == "generate"


def _is_sifted(entry):
    return entry["record"] == "round" and entry["rt"] == "sifted"


def _is_lettered_keys(entry):
    # A seed with a hex letter in it, so that upper-casing changes it.
    return _is_keys(entry) and not entry["seed"].isdigit()


# Each case corrupts one line; the replay must name it, never raise.
CORRUPT_ROUNDS = {
    "missing-index": (_is_challenge_a_test, _without("i")),
    "infinite-index": (_is_challenge_a_test, lambda e: e.update(i=float("inf"))),
    "missing-commitment": (_is_challenge_a_test, _without("c_a")),
    "bad-hex-commitment": (_is_challenge_a_test, lambda e: e.update(c_a="zz")),
    "over-wide-preimage": (_is_challenge_a_test, lambda e: e.update(z_a="ff" * 8)),
    "numeric-preimage": (_is_challenge_a_test, lambda e: e.update(z_a=7)),
    "unknown-basis": (_is_challenge_a_test, lambda e: e.update(theta_a="Q")),
    "null-herald": (_is_bell_test, lambda e: e.update(h_a=None)),
    "missing-phase-string": (_is_bell_test, _without("d_a")),
    "unread-phase-string-hh": (_is_bell_test, _without("d_b")),
    "unread-phase-string-cc": (_is_bell_cc_test, _without("d_a")),
    "missing-question": (_is_bell_test, _without("y")),
    "non-bit-herald": (_is_bell_test, lambda e: e.update(h_a=2)),
    "float-answer": (_is_bell_test, lambda e: e.update(a=float(e["a"]))),
    "boolean-answer": (_is_bell_test, lambda e: e.update(a=bool(e["a"]))),
    "boolean-herald": (_is_bell_test, lambda e: e.update(h_b=bool(e["h_b"]))),
    "string-index": (_is_challenge_a_test, lambda e: e.update(i=str(e["i"]))),
    "not-an-object": (_is_bell_test, lambda e: [e["i"]]),
    # A hex field must read exactly as the writer wrote it: lowercase, zero-padded
    # to its width, with no prefix and no bits beyond the width.
    "phase-string-bit-40": (
        _is_bell_test, lambda e: e.update(d_a=format(int(e["d_a"], 16) | 1 << 40, "x"))
    ),
    "zero-padded-commitment": (_is_challenge_a_test, lambda e: e.update(c_a="00" + e["c_a"])),
    "0x-commitment": (_is_challenge_a_test, lambda e: e.update(c_a="0x" + e["c_a"])),
    "upper-case-commitment": (
        _is_lettered_challenge_a_test, lambda e: e.update(c_a=e["c_a"].upper())
    ),
    "space-before-preimage": (_is_challenge_a_test, lambda e: e.update(z_a=" " + e["z_a"])),
    # A line holds exactly the fields the writer writes for its round, and only
    # the values it writes for them.
    "extra-field-on-test-round": (_is_challenge_a_test, lambda e: e.update(note=1)),
    "challenge-b-side-with-preimage": (_is_bell_test, lambda e: e.update(z_a=e["d_a"])),
    "false-violation": (_is_challenge_a_test, lambda e: e.update(viol_a=False)),
    "integer-violation": (_is_challenge_a_test, lambda e: e.update(viol_a=1)),
    "integer-violation-on-a-dropped-preimage": (
        _is_challenge_a_test, lambda e: e.pop("z_a") and e.update(viol_a=1)
    ),
    "generation-round-with-responses": (_is_generate, lambda e: e.update(c_a="00", d_a="0")),
    "generation-round-without-question": (_is_generate, _without("x")),
    "generation-round-with-unknown-question": (_is_generate, lambda e: e.update(x="Q")),
    "generation-round-that-failed": (_is_generate, lambda e: e.update(win="fail")),
    "sifted-round-that-passed": (_is_sifted, lambda e: e.update(win="pass")),
    # Replay reads no side field of a sifted line, yet a line holding one is not the
    # writer's.
    "sifted-round-with-commitment": (_is_sifted, lambda e: e.update(c_a="0")),
}

def _etcf(family="toy-lattice", **sizes):
    """A header mutation stating ``family`` with ``sizes``; a toy lattice is 3, 6, 17 by default."""
    if family == "toy-lattice":
        sizes = {"n": 3, "m": 6, "q": 17, **sizes}
    return lambda e: e.update(etcf={"family": family, **sizes})


CORRUPT_HEADERS = {
    "missing-epsilon": _without("epsilon"),
    "epsilon-not-a-number": lambda e: e.update(epsilon="x"),
    "missing-rounds": _without("rounds"),
    "float-rounds": lambda e: e.update(rounds=float(e["rounds"])),
    "not-an-object": lambda e: ["header"],
    # The family and its sizes, stated once here: EtcfParams must take them as
    # JSON integers, and the header must state them as the writer does.
    "missing-etcf": _without("etcf"),
    "etcf-not-an-object": lambda e: e.update(etcf="garbage"),
    "unknown-family": _etcf("lwe"),
    "infinite-domain-bits": _etcf("ideal", domain_bits=float("inf")),
    "huge-domain-bits": _etcf("ideal", domain_bits=2**62),
    "zero-domain-bits": _etcf("ideal", domain_bits=0),
    "string-domain-bits": _etcf("ideal", domain_bits="4"),
    "float-domain-bits": _etcf("ideal", domain_bits=4.0),
    "ideal-with-lattice-sizes": _etcf("ideal", domain_bits=4, n=3),
    "negative-q": _etcf(q=-17),
    "zero-q": _etcf(q=0),
    "unit-q": _etcf(q=1),
    "composite-q": _etcf(q=4),
    "prime-q-beyond-int32": _etcf(n=1, m=2, q=2**61 - 1),
    "negative-n": _etcf(n=-3),
    # The header is exactly what the writer writes for the values read from it.
    "string-epsilon": lambda e: e.update(epsilon="0.05"),
    "boolean-epsilon": lambda e: e.update(epsilon=True),
    "nan-epsilon": lambda e: e.update(epsilon=float("nan")),
    "epsilon-above-one": lambda e: e.update(epsilon=2.0),
    "other-version": lambda e: e.update(version=99),
    # Layout v3 drew toy-lattice keys from the same seeds in another form.
    "version-3": lambda e: e.update(version=3),
    "missing-device": _without("device"),
    "numeric-device": lambda e: e.update(device=3),
    "extra-field-in-header": lambda e: e.update(note=1),
}
# A valid family that is not the run's: the store's seeds redraw keys of that
# family, whose widths the round lines' values do not have.
FOREIGN_FAMILY_HEADERS = {
    "toy-lattice-over-ideal-run": _etcf(),
    "wider-ideal-over-ideal-run": _etcf("ideal", domain_bits=9),
}

CORRUPT_STORE_ENTRIES = {
    # An entry's key material is its seed: 32 lowercase hex digits, as the
    # writer writes 16 bytes.
    "missing-key": _without("seed"),
    "missing-index": _without("i"),
    "short-seed": lambda e: e.update(seed=e["seed"][:-1]),
    "long-seed": lambda e: e.update(seed=e["seed"] + "0"),
    "15-byte-seed": lambda e: e.update(seed=e["seed"][:-2]),
    "bad-hex-seed": lambda e: e.update(seed="zz" * 16),
    # Hex that bytes.fromhex reads as the same bytes: only the writer's spelling passes.
    "upper-case-seed": (_is_lettered_keys, lambda e: e.update(seed=e["seed"].upper())),
    "space-in-seed": lambda e: e.update(seed=e["seed"][:8] + " " + e["seed"][8:]),
    "seed-not-a-string": lambda e: e.update(seed=int(e["seed"], 16)),
    # The entry holds just its index and seed.  Format-2 and format-3 entries
    # stated a width or a key's kind; the store takes neither, whatever its value.
    "extra-field": lambda e: e.update(note=1),
    "infinite-domain-bits": lambda e: e.update(domain_bits=float("inf")),
    "huge-domain-bits": lambda e: e.update(domain_bits=2**62),
    "zero-domain-bits": lambda e: e.update(domain_bits=0),
    "unknown-kind": lambda e: e.update(kind="lossy"),
    "not-an-object": lambda e: "keys",
    "second-header": lambda e: {"record": "keys-header", "version": 4, "format": 4},
}

# First store lines other than the format-4 header; None drops the line.
CORRUPT_STORE_HEADERS = {
    "missing-header": None,
    "header-without-format": {"record": "keys-header", "version": 2},  # as before format 2
    "format-1": {"record": "keys-header", "version": 2, "format": 1},
    "format-2": {"record": "keys-header", "version": 2, "format": 2},
    "format-3": {"record": "keys-header", "version": 2, "format": 3},
    "other-version": {"record": "keys-header", "version": 6, "format": 4},
    "version-3": {"record": "keys-header", "version": 3, "format": 4},
}

STORE_CASES = sorted([*CORRUPT_STORE_ENTRIES, *CORRUPT_STORE_HEADERS])


def _corrupt_store(store, name, last=False):
    """store spoilt by case ``name``, and the ReplayError message replay must raise."""
    if name in CORRUPT_STORE_HEADERS:
        header = CORRUPT_STORE_HEADERS[name]
        lines = store[1:] if header is None else [json.dumps(header), *store[1:]]
        return lines, "trapdoor store has no format-4 header"
    case = CORRUPT_STORE_ENTRIES[name]
    pick, mutate = case if isinstance(case, tuple) else (_is_keys, case)
    lines, number = _mutated(store, pick, mutate, last)
    return lines, f"trapdoor store corrupt at line {number}"


# Toy-lattice entries that restate a size, as a format-2 key did: the store
# takes none, whatever its value.
CORRUPT_LATTICE_STORE_ENTRIES = {
    "negative-q": (_is_keys, lambda e: e.update(q=-17)),
    "zero-q": (_is_keys, lambda e: e.update(q=0)),
    "unit-q": (_is_keys, lambda e: e.update(q=1)),
    "composite-q": (_is_keys, lambda e: e.update(q=4)),
    "prime-q-beyond-int32": (_is_keys, lambda e: e.update(q=2**61 - 1)),
    "negative-n": (_is_keys, lambda e: e.update(n=-3)),
}


@pytest.fixture(scope="module")
def aborted_files(tmp_path_factory):
    """Transcript and trapdoor store lines of one classical-random 256-round run, which aborts."""
    return _fuzz_files(tmp_path_factory, rounds=256, seed=3, device="classical-random")[0]


# Footers of an aborted run that only the writer's spelling tells apart from its
# own, and the one mismatch each must give (formatted with the true footer).
CORRUPT_ABORTED_FOOTERS = {
    "string-abort-flag": (
        lambda e: e.update(aborted="false"), "footer: abort decision should be True"
    ),
    "integer-abort-flag": (lambda e: e.update(aborted=1), "footer: abort decision should be True"),
    "float-tested-count": (
        lambda e: e.update(tested=float(e["tested"])), "footer: tested count should be {tested}"
    ),
    "extra-field-in-footer": (
        lambda e: e.update(note=1),
        'footer: should be {{"record": "footer", "tested": {tested}, "failed": {failed}, '
        '"fail_fraction": {fail_fraction}, "aborted": true}}',
    ),
}


# A footer that is not the last line, or not the only one: each edit of the
# 256-round audit transcript gives its lines and the mismatches replay reports.
MISPLACED_FOOTERS = {
    "footer-before-the-last-round": lambda t: (
        [*t[:-2], t[-1], t[-2]],
        [f"line {len(t)}: record after the footer", "footer: rounds 255..255 are missing"],
    ),
    "footer-twice": lambda t: ([*t, t[-1]], [f"line {len(t) + 1}: record after the footer"]),
    "round-after-the-footer": lambda t: (
        [*t, t[1]], [f"line {len(t) + 1}: record after the footer"]
    ),
}


def _entry_for_a_sifted_round(transcript, store):
    """store with a copy of its first entry for the first sifted round, in round order."""
    sifted = next(e["i"] for e in map(json.loads, transcript[1:-1]) if e["rt"] == "sifted")
    place = 1 + sum(json.loads(line)["i"] < sifted for line in store[1:])
    entry = json.dumps({**json.loads(store[1]), "i": sifted})
    return [*store[:place], entry, *store[place:]], place + 1


# Readable store entries that no test round takes: each edit of the audit store
# gives its lines and the line of the one entry replay must name.
MISPLACED_STORE_ENTRIES = {
    "entry-for-a-sifted-round": _entry_for_a_sifted_round,
    "first-entry-twice": lambda t, s: ([s[0], s[1], *s[1:]], 3),
    "stale-first-entry-after-the-second": lambda t, s: ([*s[:3], s[1], *s[3:]], 4),
    "entry-after-the-last-test-round": lambda t, s: ([*s, s[-1]], len(s) + 1),
}


def _write(directory, transcript, store):
    paths = (directory / "t.jsonl", directory / "t.jsonl.keys")
    for path, lines in zip(paths, (transcript, store)):
        path.write_text("\n".join(lines) + "\n")
    return tuple(map(str, paths))


def _footer_fixed(lines):
    """lines with the footer's counts recomputed from the test rounds they hold."""
    rounds = [json.loads(line) for line in lines[1:-1]]
    scored = [e for e in rounds if e["tag"] == "test" and e["rt"] != "sifted"]
    failed = sum(e["win"] == "fail" for e in scored)
    footer = json.loads(lines[-1])
    footer.update(tested=len(scored), failed=failed, fail_fraction=failed / len(scored))
    return [*lines[:-1], json.dumps(footer)]


class TestMalformedReplay:
    def write(self, tmp_path, transcript, store):
        return _write(tmp_path, transcript, store)

    @pytest.mark.parametrize("name", sorted(CORRUPT_ROUNDS))
    def test_corrupt_round_line_is_a_named_mismatch(self, tmp_path, audit_files, name):
        transcript, store = audit_files
        lines, number = _mutated(transcript, *CORRUPT_ROUNDS[name])
        report = replay_verify(*self.write(tmp_path, lines, store))
        assert not report.match
        assert f"line {number}: corrupt record" in report.mismatches

    def test_duplicated_passing_round_is_a_mismatch(self, tmp_path, audit_files):
        transcript, store = audit_files
        number = next(n for n, line in enumerate(transcript) if _is_bell_test(json.loads(line)))
        lines = _footer_fixed([*transcript[:number + 1], *transcript[number:]])
        report = replay_verify(*self.write(tmp_path, lines, store))
        index = json.loads(transcript[number])["i"]
        assert report.mismatches == [f"line {number + 2}: round index {index} should be {index + 1}"]

    def test_deleted_test_rounds_are_a_mismatch(self, tmp_path, audit_files):
        transcript, store = audit_files
        scored = [
            n for n, line in enumerate(transcript)
            if json.loads(line).get("tag") == "test" and json.loads(line)["rt"] != "sifted"
        ]
        doomed = set(scored[10:60])
        lines = _footer_fixed([line for n, line in enumerate(transcript) if n not in doomed])
        report = replay_verify(*self.write(tmp_path, lines, store))
        assert not report.match
        assert all("round index" in m for m in report.mismatches)

    def test_deleted_final_rounds_are_a_footer_mismatch(self, tmp_path, audit_files):
        transcript, store = audit_files
        lines = _footer_fixed([*transcript[:-3], transcript[-1]])
        report = replay_verify(*self.write(tmp_path, lines, store))
        assert report.mismatches == ["footer: rounds 254..255 are missing"]

    def test_product_round_tagged_for_generation_is_a_mismatch(self, tmp_path, audit_files):
        transcript, store = audit_files
        lines, number = _mutated(
            transcript,
            lambda e: e["record"] == "round" and e["rt"] == "product",
            lambda e: e.update(tag="generate"),
        )
        report = replay_verify(*self.write(tmp_path, _footer_fixed(lines), store))
        assert any(m.startswith(f"line {number}: ") and "tag" in m for m in report.mismatches)

    def test_corrupt_footer_count_is_a_mismatch(self, tmp_path, audit_files):
        transcript, store = audit_files
        lines, _ = _mutated(
            transcript, lambda e: e["record"] == "footer", lambda e: e.update(tested="x")
        )
        report = replay_verify(*self.write(tmp_path, lines, store))
        tested = json.loads(transcript[-1])["tested"]
        assert report.mismatches == [f"footer: tested count should be {tested}"]

    @pytest.mark.parametrize("name", sorted(CORRUPT_ABORTED_FOOTERS))
    def test_corrupt_footer_of_an_aborted_run_is_a_mismatch(self, tmp_path, aborted_files, name):
        transcript, store = aborted_files
        footer = json.loads(transcript[-1])
        assert footer["aborted"] is True
        mutate, message = CORRUPT_ABORTED_FOOTERS[name]
        lines, _ = _mutated(transcript, _is_footer, mutate)
        report = replay_verify(*self.write(tmp_path, lines, store))
        assert report.mismatches == [message.format(**footer)]

    @pytest.mark.parametrize("name", sorted(CORRUPT_HEADERS))
    def test_corrupt_header_raises_replay_error(self, tmp_path, audit_files, name):
        transcript, store = audit_files
        lines, _ = _mutated(transcript, _is_header, CORRUPT_HEADERS[name])
        with pytest.raises(ReplayError, match="header"):
            replay_verify(*self.write(tmp_path, lines, store))

    def test_epsilon_no_run_takes_raises_replay_error(self, tmp_path, aborted_files, capsys):
        # A session takes epsilon = 1, a run does not: such a header, with the abort
        # flag its footer would then state, is not one the writer can write.
        transcript, store = aborted_files
        lines, _ = _mutated(transcript, _is_header, lambda e: e.update(epsilon=1.0))
        lines, _ = _mutated(lines, _is_footer, lambda e: e.update(aborted=False))
        paths = self.write(tmp_path, lines, store)
        with pytest.raises(ReplayError, match="transcript has no valid header line"):
            replay_verify(*paths)
        assert main(["--replay", paths[0], "--trapdoors", paths[1]]) == EXIT_USAGE
        assert "replay error: transcript has no valid header line" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(FOREIGN_FAMILY_HEADERS))
    def test_header_of_another_family_is_a_mismatch(self, tmp_path, audit_files, name):
        transcript, store = audit_files
        lines, _ = _mutated(transcript, _is_header, FOREIGN_FAMILY_HEADERS[name])
        report = replay_verify(*self.write(tmp_path, lines, store))
        tested = [n for n, e in enumerate(map(json.loads, lines), 1)
                  if e.get("tag") == "test" and e.get("rt") not in (None, "sifted")]
        assert [f"line {n}: corrupt record" for n in tested] == report.mismatches[:len(tested)]

    @pytest.mark.parametrize("pick", [_is_challenge_a_test, _is_bell_test, _is_bell_cc_test])
    def test_changed_seed_is_a_mismatch_naming_the_round_line(self, tmp_path, audit_files, pick):
        # A round's seed redraws both its keys: under another seed's keys, the
        # commitments the verdict reads have no preimage the device gave, or none.
        transcript, store = audit_files
        number = next(n for n, line in enumerate(transcript, 1) if pick(json.loads(line)))
        round_line = json.loads(transcript[number - 1])
        assert round_line["win"] == "pass"
        index = round_line["i"]
        flip = 1 << 127 | 1 << 63  # a bit of Alice's key seed and one of Bob's
        lines, _ = _mutated(
            store, lambda e: _is_keys(e) and e["i"] == index,
            lambda e: e.update(seed=format(int(e["seed"], 16) ^ flip, "032x")),
        )
        report = replay_verify(*self.write(tmp_path, transcript, lines))
        fail_fraction = sig12(1 / json.loads(transcript[-1])["tested"])
        assert report.mismatches == [
            f"line {number}: round {index} verdict should be fail",
            "footer: failed count should be 1",
            f"footer: fail fraction should be {fail_fraction}",
        ]

    @pytest.mark.parametrize("name", STORE_CASES)
    def test_corrupt_store_entry_raises_replay_error(self, tmp_path, audit_files, name):
        transcript, store = audit_files
        for last in (False, True):
            lines, message = _corrupt_store(store, name, last)
            with pytest.raises(ReplayError, match=message):
                replay_verify(*self.write(tmp_path, transcript, lines))

    def test_store_is_read_past_the_last_test_round(self, tmp_path, audit_files):
        transcript, store = audit_files
        lines = [*store, json.dumps("keys")]
        with pytest.raises(ReplayError, match=f"trapdoor store corrupt at line {len(lines)}"):
            replay_verify(*self.write(tmp_path, transcript, lines))

    def test_store_entries_out_of_round_order_are_a_mismatch(self, tmp_path, audit_files):
        transcript, store = audit_files
        lines = [store[0], store[2], store[1], *store[3:]]
        report = replay_verify(*self.write(tmp_path, transcript, lines))
        index = json.loads(store[1])["i"]  # the first entry, now out of place
        # Round i is on line i + 2: the header is line 1.
        message = f"line {index + 2}: round {index} has no key material in the store"
        assert message in report.mismatches

    @pytest.mark.parametrize("name", sorted(MISPLACED_STORE_ENTRIES))
    def test_store_entry_no_test_round_takes_is_a_mismatch(self, tmp_path, audit_files, name):
        transcript, store = audit_files
        lines, number = MISPLACED_STORE_ENTRIES[name](transcript, store)
        index = json.loads(lines[number - 1])["i"]
        report = replay_verify(*self.write(tmp_path, transcript, lines))
        assert report.mismatches == [f"store line {number}: entry for round {index} is out of place"]

    def test_mixed_mismatches_keep_line_order(self, tmp_path, audit_files):
        # Store, format and verdict mismatches of one chunk of lines come out in line
        # order, each at the line that shows it, and the footer's after them.
        transcript, store = audit_files
        first, third = (json.loads(store[n])["i"] for n in (1, 3))
        store = [store[0], store[2], store[1], *store[3:]]
        flip = 1 << 127 | 1 << 63  # a bit of Alice's key seed and one of Bob's
        store, entry = _mutated(
            store, lambda e: _is_keys(e) and e["i"] > third,
            lambda e: e.update(seed=format(int(e["seed"], 16) ^ flip, "032x")),
        )
        flipped = json.loads(store[entry - 1])["i"]
        transcript, number = _mutated(
            transcript, lambda e: _is_generate(e) and e["i"] > flipped, _without("x")
        )
        tested = json.loads(transcript[-1])["tested"] - 1  # the first test round has no seed
        report = replay_verify(*self.write(tmp_path, transcript, store))
        assert report.mismatches == [
            f"line {first + 2}: round {first} has no key material in the store",
            f"store line 3: entry for round {first} is out of place",
            f"line {flipped + 2}: round {flipped} verdict should be fail",
            f"line {number}: corrupt record",
            f"footer: tested count should be {tested}",
            "footer: failed count should be 1",
            f"footer: fail fraction should be {sig12(1 / tested)}",
        ]

    def test_mismatches_across_replay_chunks_keep_line_order(self, tmp_path):
        # 6,000 rounds span five whole replay chunks of lines and a short one.  Seeds
        # changed in chunks 0, 1, 2 and the last, and a line the writer would not write
        # in chunk 3, are named in line order, and the footer's mismatches follow.
        run_experiment(config(tmp_path, rounds=6000, seed=41))
        transcript = (tmp_path / "transcript.jsonl").read_text().splitlines()
        store = (tmp_path / "transcript.jsonl.keys").read_text().splitlines()
        entries = {json.loads(line)["i"]: n for n, line in enumerate(store[1:], 1)}
        flip = 1 << 127 | 1 << 63  # a bit of Alice's key seed and one of Bob's
        expected = []
        for chunk in (0, 1, 2, 3, 6000 // REPLAY_CHUNK):
            # transcript[i + 1] is round i, on line i + 2: the header is line 1.
            lines = range(chunk * REPLAY_CHUNK + 1, min((chunk + 1) * REPLAY_CHUNK, 6000) + 1)
            if chunk == 3:
                number = next(n for n in lines if _is_generate(json.loads(transcript[n])))
                entry = json.loads(transcript[number])
                del entry["x"]
                transcript[number] = json.dumps(entry)
                expected.append(f"line {number + 1}: corrupt record")
                continue
            number = next(n for n in lines if _is_challenge_a_test(json.loads(transcript[n])))
            index = json.loads(transcript[number])["i"]
            entry = json.loads(store[entries[index]])
            entry["seed"] = format(int(entry["seed"], 16) ^ flip, "032x")
            store[entries[index]] = json.dumps(entry)
            expected.append(f"line {number + 1}: round {index} verdict should be fail")
        tested = json.loads(transcript[-1])["tested"]
        report = replay_verify(*self.write(tmp_path, transcript, store))
        assert report.mismatches == [
            *expected, "footer: failed count should be 4",
            f"footer: fail fraction should be {sig12(4 / tested)}",
        ]

    def test_store_cursor_is_handed_on_across_clean_blocks(self, tmp_path):
        # Each tamper follows replay chunks whose lines and store entries are the
        # writer's: two entries of chunk 1 swapped, the line of chunk 2's first test
        # round deleted, and an entry added for chunk 3's first generation round.  A
        # last entry is added for the first round of a later chunk of lines B when
        # neither that round nor the last of chunk A before it is a test round, and the
        # last of the chunk before A is: the cursor holds it, untaken, from A into B.
        # Seed 42's first such B is chunk 12, so the run is 16 chunks long.
        run_experiment(config(tmp_path, rounds=16 * REPLAY_CHUNK, seed=42))
        transcript = (tmp_path / "transcript.jsonl").read_text().splitlines()
        store = (tmp_path / "transcript.jsonl.keys").read_text().splitlines()
        rounds = [json.loads(line) for line in transcript[1:-1]]  # round i is on line i + 2
        entries = {json.loads(line)["i"]: n for n, line in enumerate(store[1:], 1)}

        def first(start, pick):
            return next(i for i in range(start, len(rounds)) if pick(i, rounds[i]))

        def add_entry(index):  # before the next test round's entry, with its seed
            at = entries[first(index, lambda i, e: i in entries)]
            line = json.dumps({"record": "keys", "i": index, "seed": json.loads(store[at])["seed"]})
            store.insert(at, line)
            return line

        swapped = first(REPLAY_CHUNK, lambda i, e: i in entries)
        later = first(swapped + 1, lambda i, e: i in entries)
        one, other = entries[swapped], entries[later]
        store[one], store[other] = store[other], store[one]
        deleted = first(2 * REPLAY_CHUNK, lambda i, e: i in entries)
        del transcript[deleted + 1]
        # With a line deleted, a later chunk of lines begins at a round 1 past a multiple
        # of the chunk.
        edge = first(4 * REPLAY_CHUNK, lambda i, e: i % REPLAY_CHUNK == 1 and i not in entries
                     and i - 1 not in entries and i - 1 - REPLAY_CHUNK in entries)
        # The later entry first, so that ``entries`` still places the lines before it.
        added = [add_entry(edge), add_entry(first(3 * REPLAY_CHUNK, lambda i, e: _is_generate(e)))]
        generated = json.loads(added[1])["i"]
        tested = json.loads(transcript[-1])["tested"] - 2  # two test rounds lost their lines
        report = replay_verify(*self.write(tmp_path, transcript, store))
        assert report.mismatches == [
            f"line {swapped + 2}: round {swapped} has no key material in the store",
            f"store line {other + 1}: entry for round {swapped} is out of place",
            f"line {deleted + 2}: round index {deleted + 1} should be {deleted}",
            f"store line {store.index(added[1]) + 1}: entry for round {generated} is out of place",
            f"store line {store.index(added[0]) + 1}: entry for round {edge} is out of place",
            f"footer: tested count should be {tested}",
        ]

    @pytest.mark.parametrize("name", sorted(MISPLACED_FOOTERS))
    def test_footer_is_the_last_line(self, tmp_path, audit_files, name):
        transcript, store = audit_files
        lines, messages = MISPLACED_FOOTERS[name](transcript)
        assert replay_verify(*self.write(tmp_path, lines, store)).mismatches == messages

    @pytest.mark.parametrize("name", sorted(CORRUPT_LATTICE_STORE_ENTRIES))
    def test_corrupt_lattice_key_exits_one(self, tmp_path, lattice_audit_files, capsys, name):
        transcript, store = lattice_audit_files
        store, number = _mutated(store, *CORRUPT_LATTICE_STORE_ENTRIES[name])
        transcript_path, store_path = self.write(tmp_path, transcript, store)
        with pytest.raises(ReplayError, match=f"trapdoor store corrupt at line {number}"):
            replay_verify(transcript_path, store_path)
        assert main(["--replay", transcript_path, "--trapdoors", store_path]) == 1
        assert f"trapdoor store corrupt at line {number}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, name, expected",
        [("round", name, 2) for name in sorted(CORRUPT_ROUNDS)]
        + [("header", name, 1) for name in sorted(CORRUPT_HEADERS)]
        + [("header", name, 2) for name in sorted(FOREIGN_FAMILY_HEADERS)]
        + [("store", name, 1) for name in STORE_CASES]
        + [("last-store", name, 1) for name in sorted(CORRUPT_STORE_ENTRIES)],
    )
    def test_cli_exit_code(self, tmp_path, audit_files, capsys, kind, name, expected):
        transcript, store = audit_files
        if kind == "round":
            transcript, _ = _mutated(transcript, *CORRUPT_ROUNDS[name])
        elif kind == "header":
            mutate = CORRUPT_HEADERS.get(name) or FOREIGN_FAMILY_HEADERS[name]
            transcript, _ = _mutated(transcript, _is_header, mutate)
        else:
            store, _ = _corrupt_store(store, name, kind == "last-store")
        transcript_path, store_path = self.write(tmp_path, transcript, store)
        assert main(["--replay", transcript_path, "--trapdoors", store_path]) == expected
        out = capsys.readouterr()
        assert ("corrupt record" in out.out) if expected == 2 else ("replay error" in out.err)


def _fuzz_files(tmp_path_factory, **overrides):
    """A valid transcript and store (64 rounds by default), and a directory for mutated copies."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    run_experiment(config(tmp_path, **{"rounds": 64, **overrides}))
    lines = tuple(
        tuple((tmp_path / name).read_text().splitlines())
        for name in ("transcript.jsonl", "transcript.jsonl.keys")
    )
    return lines, tmp_path_factory.mktemp("mutated")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return _fuzz_files(tmp_path_factory, seed=8)


@pytest.fixture(scope="module")
def lattice_fuzz_files(tmp_path_factory):
    return _fuzz_files(
        tmp_path_factory, seed=8, etcf="toy-lattice", device="noisy:0.05:0.05", epsilon=0.5
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(-300, 300) | st.sampled_from([2**62, -(2**63), 2**64, 10**30])
    | st.sampled_from(["", "0", "ff", "zz", "C", "H", "a", "b", "test", "generate", "bell"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)


def _mutate_one_field_and_replay(originals, directory, data):
    """Delete or replace one field of one line; replay must give a verdict or ReplayError."""
    transcript, store = originals
    files = [list(transcript), list(store)]
    lines = files[data.draw(st.integers(0, 1), label="file")]
    number = data.draw(st.integers(0, len(lines) - 1), label="line")
    entry = json.loads(lines[number])
    # The field is a top-level value or one nested a level down (a key's tables).
    paths = [(name,) for name in entry] + [
        (name, inner) for name, value in entry.items() if isinstance(value, dict)
        for inner in value
    ]
    path = data.draw(st.sampled_from(paths), label="field")
    parent = entry if len(path) == 1 else entry[path[0]]
    if data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    lines[number] = json.dumps(entry)
    try:
        report = replay_verify(*_write(directory, *files))
    except ReplayError:
        return
    assert report.verdict in ("match", "mismatch")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_field_mutation_never_crashes_replay(fuzz_files, data):
    _mutate_one_field_and_replay(*fuzz_files, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_field_mutation_never_crashes_toy_lattice_replay(lattice_fuzz_files, data):
    _mutate_one_field_and_replay(*lattice_fuzz_files, data)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "cdiqkd.cli", *args], capture_output=True, text=True
        )

    def test_honest_run_exit_zero(self, tmp_path):
        result = self.run_cli(
            "--rounds", "2048", "--epsilon", "0.05", "--device", "honest",
            "--seed", "3", "--recon", "none",
            "--summary", str(tmp_path / "summary.json"),
        )
        assert result.returncode == 0, result.stderr
        assert "final key bits" in result.stdout

    def test_abort_exit_two(self):
        result = self.run_cli(
            "--rounds", "256", "--epsilon", "0.05", "--device", "classical-random",
            "--seed", "1",
        )
        assert result.returncode == 2
        assert "ABORTED" in result.stdout

    def test_abort_reasons_go_to_one_stderr_line(self, capsys):
        argv = ["--rounds", "512", "--device", "classical-random", "--seed", "1"]
        assert main(argv) == EXIT_ABORTED
        out, err = capsys.readouterr()
        run = {"rounds": 512, "device": "classical-random", "seed": 1}
        outcome = run_experiment(ExperimentConfig.from_dict(run))
        reasons = outcome.session.fail_reasons
        assert sum(reasons.values()) == outcome.session.failed_count > 0
        assert err == "abort reasons: " + " ".join(f"{k}={v}" for k, v in reasons.items()) + "\n"
        assert "reasons" not in out and len(out.splitlines()) == 2
        assert main(["--rounds", "512", "--seed", "1"]) == EXIT_KEY_PRODUCED  # no abort, no line
        assert capsys.readouterr().err == ""

    def test_malformed_config_names_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": 64, "wormhole": True}))
        result = self.run_cli("--config", str(path))
        assert result.returncode == 1
        assert "wormhole" in result.stderr

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": 64, "device": "classical-random", "epsilon": 0.9}))
        summary = tmp_path / "summary.json"
        result = self.run_cli(
            "--config", str(path), "--device", "honest", "--recon", "none",
            "--seed", "2", "--summary", str(summary),
        )
        assert result.returncode == 0
        data = json.loads(summary.read_text())
        assert data["config"]["device"] == "honest"
        assert data["config"]["rounds"] == 64

    def test_flags_complete_a_config_file_before_validation(self, tmp_path):
        # The file alone names a store without a transcript; the flag supplies one.
        path = tmp_path / "config.json"
        store = tmp_path / "k.jsonl"
        path.write_text(json.dumps({"rounds": 64, "trapdoors": str(store)}))
        transcript = tmp_path / "t.jsonl"
        result = self.run_cli("--config", str(path), "--transcript", str(transcript))
        assert result.returncode == 0, result.stderr
        assert store.exists() and not Path(f"{transcript}.keys").exists()
        replay = self.run_cli("--replay", str(transcript), "--trapdoors", str(store))
        assert replay.returncode == 0 and "match" in replay.stdout

    def test_flag_replaces_an_invalid_config_value(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": 64, "device": "classical-table:missing.json"}))
        result = self.run_cli("--config", str(path), "--device", "honest")
        assert result.returncode == 0, result.stderr
        # A value of the wrong type is a config error whatever the flags say.
        path.write_text(json.dumps({"rounds": "64", "device": "honest"}))
        result = self.run_cli("--config", str(path), "--rounds", "64")
        assert result.returncode == 1 and result.stderr.startswith("config error:")

    def test_replay_mode(self, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        run = self.run_cli(
            "--rounds", "512", "--device", "honest", "--seed", "5", "--recon", "none",
            "--transcript", str(transcript),
        )
        assert run.returncode == 0
        replay = self.run_cli("--replay", str(transcript))
        assert replay.returncode == 0
        assert "match" in replay.stdout

    def test_replay_missing_file(self):
        result = self.run_cli("--replay", "/nonexistent/transcript.jsonl")
        assert result.returncode == 1


def _parses(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


class TestMalformedInputExitsOne:
    @pytest.mark.parametrize(
        "data",
        [
            {"rounds": "10"},
            {"rounds": 8.5},
            {"rounds": True},
            {"epsilon": "x"},
            {"epsilon": False},
            {"domain_bits": "4"},
            {"seed": 1.5},
            {"seed": None},
            {"device": 3},
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"rounds": 64, "device": "hon\xffest"}')
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "argv",
        [["--bogus"], ["--rounds", "abc"], ["--seed", "1.5"], ["--replay"]],
        ids=["unknown-flag", "rounds-not-int", "seed-not-int", "replay-without-path"],
    )
    def test_usage_error(self, capsys, argv):
        # argparse alone would exit 2, the code of an aborted run.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: cdiqkd") and "\ncdiqkd: error: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--epsilon", "0.9", "--rounds", "5", "--config", "/nonexistent.json"],
         ["--epsilon", "0.1"], ["--config", "run.json"], ["--seed", "1", "--trapdoors", "s"]],
        ids=["three-run-flags", "epsilon", "config", "seed-beside-trapdoors"],
    )
    def test_replay_takes_no_run_flag(self, tmp_path, capsys, audit_files, flags):
        # Replay reads everything it checks from its files, so a run flag would be ignored.
        transcript, _ = _write(tmp_path, *audit_files)
        assert main(["--replay", transcript, *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: cdiqkd")
        assert err.count("\ncdiqkd: error: ") == 1 and "--replay takes no run flag" in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_numeric_flag_without_a_value_of_its_type(self, data):
        # Every int and float flag, given a text its type rejects or no value at all;
        # str flags are left out, as any text is a str and may name an output file.
        numeric = [name for name, kind in FIELD_TYPES.items() if kind is not str]
        name = data.draw(st.sampled_from(numeric))
        kind = FIELD_TYPES[name]
        rejected = st.text(st.characters(codec="utf-8")).filter(lambda text: not _parses(kind, text))
        value = data.draw(st.none() | rejected)
        argv = [f"--{name.replace('_', '-')}", *([] if value is None else [value])]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 1
        assert err.getvalue().startswith("usage: cdiqkd") and "\ncdiqkd: error: " in err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == 0 and capsys.readouterr().out.startswith("usage: cdiqkd")

    def test_int_for_float_and_null_path_are_accepted(self):
        config = ExperimentConfig.from_dict({"epsilon": 0, "bound_constant": 2, "summary": None})
        assert config.epsilon == 0 and isinstance(config.epsilon, int)
        assert config.to_dict()["bound_constant"] == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--epsilon", "1"), ("--bound-exponent", "2"), ("--bound-constant", "-1"),
         ("--negl-term", "-0.5"), ("--bound-constant", "nan"), ("--bound-constant", "inf"),
         ("--negl-term", "nan"), ("--negl-term", "inf")],
    )
    def test_rate_bound_input_out_of_range(self, capsys, flag, value):
        assert main(["--rounds", "16", flag, value]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "nan", "-0.5", "inf"])
    def test_epsilon_out_of_range_names_its_range(self, capsys, value):
        # The session takes [0, 1] and the rate bound (0, 1); a run takes [0, 1).
        assert main(["--rounds", "16", "--epsilon", value]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: epsilon must be in [0, 1), got {float(value)}\n"

    def test_toy_lattice_codomain_wider_than_an_int64_draw(self, capsys):
        # 6 coordinates of 11 bits: the device's int64 draws cannot hold a commitment.
        argv = ["--rounds", "64", "--etcf", "toy-lattice", "--lattice-q", "1031",
                "--device", "classical-random"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "at most 63" in err

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]", '{"a": 1.5}', '{"a": true}', '{"c_q": 1}'],
        ids=["missing", "not-json", "list", "float-value", "bool-value", "unknown-key"],
    )
    def test_malformed_device_table(self, tmp_path, capsys, content):
        path = tmp_path / "table.json"
        if content is not None:
            path.write_text(content)
        assert main(["--rounds", "16", "--device", f"classical-table:{path}"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--transcript", "{tmp}/t.jsonl", "--summary", "{tmp}/./t.jsonl"],
         ["--transcript", "{tmp}/t.jsonl", "--trapdoors", "{tmp}/t.jsonl"],
         ["--transcript", "{tmp}/t.jsonl", "--summary", "{tmp}/t.jsonl.keys"]],
        ids=["summary-is-transcript", "trapdoors-is-transcript", "summary-is-store"],
    )
    def test_output_paths_naming_one_file(self, tmp_path, capsys, flags):
        # Two outputs written to one file would interleave; the run refuses before writing.
        assert main(["--rounds", "64", *(f.format(tmp=tmp_path) for f in flags)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    def test_trapdoors_without_a_transcript(self, tmp_path, capsys):
        # The store is written only beside a transcript: alone, the run would write nothing.
        assert main(["--rounds", "64", "--trapdoors", str(tmp_path / "k.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [["--transcript", "{missing}/t.jsonl"],
         ["--transcript", "{tmp}/t.jsonl", "--trapdoors", "{missing}/t.keys"],
         ["--summary", "{missing}/s.json"]],
        ids=["transcript", "trapdoors", "summary"],
    )
    def test_unwritable_output_path(self, tmp_path, capsys, monkeypatch, flags):
        # Each output file is opened before the first round, so no session runs.
        def no_session(*args):
            raise AssertionError("the session ran before its output files were opened")

        monkeypatch.setattr(harness, "run_session", no_session)
        paths = [f.format(missing=tmp_path / "missing", tmp=tmp_path) for f in flags]
        assert main(["--rounds", "64", *paths]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1


# SHA-256 of (transcript, trapdoor store, summary) under stream layout v9,
# with the store in format 4.
# A change here changes the outputs of every seeded run.  Layout v9 moved the
# injective ideal keys only: every store and every toy-lattice transcript is
# v8's but for its header line, and every summary but the classical-random
# run's, whose verdicts read the keys' values, is v8's; a store holds test
# rounds' indices and seeds alone, so the runs that share their first 4,096
# rounds' public coins share one store.
STREAM_LAYOUT_V9 = {
    "ideal-honest": (
        {"rounds": 512, "etcf": "ideal", "device": "honest"},
        (
            "e09a8cb7ac44f0dfc4348db5a218ce24754b5f6ae2bcee571cc07ce6f0668f9f",
            "51447e39261b0745cd4cecd96422b7ef5849cd416e5991261fc46f28ca26a430",
            "2e0cee901f8558faa3b6aa2a75a55428dd0d84813dac73a5d7fd295aafb43992",
        ),
    ),
    "lattice-noisy": (
        {"rounds": 256, "etcf": "toy-lattice", "device": "noisy:0.01:0.0"},
        (
            "2abe65fa601e6635ecde352ff5afc3f3ca7f4aabe8777ee5888a4ac029d95a1a",
            "3295a09c470b254fa242288095ec21dbbaff7354ff745ebfbf44ccfd7aaa3262",
            "5a06b47b6c494927990dea2869c03ed175fdbfae30c67a090a150e599e8d2dc1",
        ),
    ),
    # Two stream blocks of 2,048 rounds and a ragged tail.
    "ideal-random-multiblock": (
        {"rounds": 2 * 2048 + 7, "etcf": "ideal", "device": "classical-random"},
        (
            "44b59cbc7d52f2181ef016121bf3e1bf63b3aa31eb90a2ebca73cd4c1932dc86",
            "91c5fcaa112caf42bad6d29bf83c6a79d1dca198472f15916cb9c20cb1fd6633",
            "260f45fbbfef73530dbd4bf0349ebbd9e6bbd88e5fef89d94de1d6cc48316a29",
        ),
    ),
    # Two stream blocks and a ragged tail.
    "lattice-noisy-multiblock": (
        {"rounds": 2 * 2048 + 3, "etcf": "toy-lattice", "device": "noisy:0.01:0.0"},
        (
            "47da138cd98fb9c1351594f80aa877c0894bee639a403cb7ed0a588ea9f018ca",
            "ebe3b873661722da9ef583020bd3a86393952b9dd968ed28b2f29aaee00078c5",
            "0bc6569ea1f2cba0394da462b3700a8c85a39d106457734597e0fe35277336eb",
        ),
    ),
    # At q = 2 about half of all injective keys redraw u, which the default sizes
    # almost never do; a word mod 2 is its low bit, so these keys are v5's.
    "lattice-q2-multiblock": (
        {"rounds": 2 * 2048 + 3, "etcf": "toy-lattice", "lattice_n": 1, "lattice_m": 2,
         "lattice_q": 2, "device": "noisy:0.01:0.0"},
        (
            "d2cf5b8bb55a1238a97d9d3ee33d8209916e90329da729c2f5e4e217feee97eb",
            "ebe3b873661722da9ef583020bd3a86393952b9dd968ed28b2f29aaee00078c5",
            "301c207ca7cc0b2af5267984f2abc96dd131a856756db5f601f34e8b78136b35",
        ),
    ),
    # A session shorter than one block, with test and generation rounds.
    "ideal-honest-short": (
        {"rounds": 9, "etcf": "ideal", "device": "honest"},
        (
            "e32361a8540da61f27f4bcdbe4ff171b4d3419ae976e331fadb30c444faaf4bb",
            "21e8421bb2c329c37dd2359d66d3f7943ed26d13dfb433c749cf9a8135e5f806",
            "b1e03097caf5df1f50c63973bf732299aae4c3fd8d73bf6b01f48e81abf6fdf2",
        ),
    ),
    # Two whole blocks of wider keys.
    "ideal-noisy-two-blocks-w8": (
        {"rounds": 2 * 2048, "etcf": "ideal", "domain_bits": 8, "device": "noisy:0.02:0.01"},
        (
            "ce30fc33c43d69e0360b397ee0e88f72646247c31027cef158834102a2b6fd8d",
            "ebe3b873661722da9ef583020bd3a86393952b9dd968ed28b2f29aaee00078c5",
            "dbd7eed74a477fdc053b6869de38d7ccc28c416e8baa0f67232f7860d79449d5",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_LAYOUT_V9))
def test_stream_layout_v9_is_pinned(tmp_path, monkeypatch, name):
    data, expected = STREAM_LAYOUT_V9[name]
    # Relative paths keep the summary, which echoes them, free of tmp_path.
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig.from_dict(
        {**data, "seed": 2020, "epsilon": 0.05, "transcript": "t.jsonl", "summary": "s.json"}
    ))
    headers = [
        json.loads((tmp_path / path).read_text().splitlines()[0])
        for path in ("t.jsonl", "t.jsonl.keys")
    ]
    assert [header["version"] for header in headers] == [9, 9]
    assert headers[1]["format"] == 4
    digests = tuple(
        hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        for path in ("t.jsonl", "t.jsonl.keys", "s.json")
    )
    assert digests == expected


@pytest.mark.parametrize("name", sorted(STREAM_LAYOUT_V9))
def test_a_run_with_files_builds_no_record(tmp_path, monkeypatch, name):
    # The block writer writes every line from the decided block's arrays: a run with
    # files builds no record and reads no device message again, yet writes the pins.
    def refused(*args, **kwargs):
        raise AssertionError("a record was built to write the files")

    monkeypatch.setattr(protocol.Block, "records", refused)
    monkeypatch.setattr(protocol, "SideRecord", refused)
    data, expected = STREAM_LAYOUT_V9[name]
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig.from_dict(
        {**data, "seed": 2020, "epsilon": 0.05, "transcript": "t.jsonl", "summary": "s.json"}
    ))
    digests = tuple(
        hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        for path in ("t.jsonl", "t.jsonl.keys", "s.json")
    )
    assert digests == expected


class TestBlockDecoding:
    """Replay decodes a chunk of lines at once and falls back to one line at a time."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("blocks")
        run_experiment(config(tmp_path, rounds=600, seed=41))
        transcript, store = tmp_path / "transcript.jsonl", tmp_path / "transcript.jsonl.keys"
        return transcript.read_bytes().splitlines(keepends=True), store.read_bytes()

    def replay(self, tmp_path, lines, store):
        (tmp_path / "t.jsonl").write_bytes(b"".join(lines))
        (tmp_path / "t.jsonl.keys").write_bytes(store)
        return replay_verify(str(tmp_path / "t.jsonl"), str(tmp_path / "t.jsonl.keys"))

    def test_damaged_lines_spoil_only_themselves(self, tmp_path, files):
        # Line 1 is the header, so lines 2..602 (600 rounds and the footer) are one chunk.
        lines, store = files
        sifted = [n for n in range(350, 420) if b'"rt": "sifted"' in lines[n - 1]]
        first, second = sifted[0], sifted[1]
        lines = list(lines)
        lines[first - 1] = lines[first - 1][:20] + b"\xff\xfe" + lines[first - 1][20:]
        lines[second - 1] = lines[second - 1].replace(b"}", b"#")
        report = self.replay(tmp_path, lines, store)
        assert report.mismatches == [
            f"line {first}: corrupt record", f"line {second}: corrupt record"
        ]

    def test_lines_that_are_json_only_together_are_each_corrupt(self, tmp_path, files):
        # Split across two lines, an array makes them one JSON text when a block is
        # decoded at once, but neither is JSON alone: both are corrupt, as each line is
        # decoded alone unless every line of its block is the writer's text.
        lines, store = files
        sifted = [b'"rt": "sifted"' in line for line in lines]
        first = next(n for n in range(350, 420) if sifted[n - 1] and sifted[n])
        lines = list(lines)
        lines[first - 1] = lines[first - 1].rstrip()[:-1] + b', "note": [1\n'
        lines[first] = b"2]}, " + lines[first]
        report = self.replay(tmp_path, lines, store)
        assert report.mismatches == [
            f"line {first}: corrupt record", f"line {first + 1}: corrupt record"
        ]

    @pytest.mark.parametrize("respell", [
        lambda entry: json.dumps(dict(reversed(entry.items()))),
        lambda entry: json.dumps(entry, separators=(",", ":")),
        lambda entry: " " + json.dumps(entry).replace(": ", ":  ") + " ",
    ], ids=["reordered-keys", "no-spaces", "more-spaces"])
    def test_a_respelt_line_still_matches(self, tmp_path, files, respell):
        # The text of a line need not be the writer's, only its JSON object: a block
        # holding such a line is decoded line by line, and the line kept.
        lines, store = files
        test_round = b'"tag": "test", "win": "pass", "c_a"'
        number = next(n for n in range(380, 420) if test_round in lines[n - 1])
        lines = list(lines)
        lines[number - 1] = respell(json.loads(lines[number - 1])).encode() + b"\n"
        assert self.replay(tmp_path, lines, store).match

    @pytest.mark.parametrize("etcf", ["ideal", "toy-lattice"])
    @pytest.mark.parametrize("device", ["honest", "noisy:0.05:0.05"])
    def test_the_writers_own_files_replay_in_bulk(self, tmp_path, monkeypatch, etcf, device):
        # Each chunk of the writer's lines, the short last one with the footer too, is
        # checked at once: no line goes to the per-line explainer, the only caller of the
        # store cursor's reach with a round index (replay reaches past the last entry).
        reach, reached = harness._StoreCursor.reach, []

        def spy(cursor, index, skipped_from):
            reached.append(index)
            return reach(cursor, index, skipped_from)

        monkeypatch.setattr(harness._StoreCursor, "reach", spy)
        rounds = 2 * REPLAY_CHUNK + 5
        run_experiment(config(tmp_path, rounds=rounds, seed=43, etcf=etcf, device=device))
        transcript = str(tmp_path / "transcript.jsonl")
        report = replay_verify(transcript, transcript + ".keys")
        assert report.match and report.rounds_checked > 0
        assert reached == [float("inf")]


def test_replay_reports_its_failures_by_reason(tmp_path, capsys):
    # A classical-random device fails test rounds for several reasons: replay counts the
    # failures it recomputes by reason, as the session did, and the CLI prints them on
    # one stderr line, leaving its stdout line as it was.
    outcome = run_experiment(config(tmp_path, rounds=512, device="classical-random", seed=1))
    transcript = str(tmp_path / "transcript.jsonl")
    report = replay_verify(transcript, transcript + ".keys")
    reasons = outcome.session.fail_reasons
    assert report.match and report.fail_reasons == reasons
    assert sum(reasons.values()) == outcome.session.failed_count
    assert sum(count > 0 for count in reasons.values()) > 1
    assert main(["--replay", transcript]) == EXIT_KEY_PRODUCED
    out, err = capsys.readouterr()
    assert out == f"replay verdict: match ({report.rounds_checked} test rounds checked)\n"
    assert err == "replay reasons: " + " ".join(f"{k}={v}" for k, v in reasons.items()) + "\n"
    run_experiment(config(tmp_path, rounds=512, seed=1))  # honest: no failure, no line
    assert main(["--replay", transcript]) == EXIT_KEY_PRODUCED
    assert capsys.readouterr().err == ""


def _run_fresh(code):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_runtime_import_path_leaves_scipy_out():
    # SciPy is a test-only dependency; importing it would add to every run's start-up.
    assert _run_fresh(
        "import cdiqkd.cli, cdiqkd.harness, sys; print('scipy' in sys.modules)"
    ) == "False"


def test_numpy_random_loads_with_the_first_session_not_on_import():
    # cdiqkd.streams needs numpy.random; callers that run no session (post-processing
    # alone) should not pay for it at start-up, where numpy itself does not load it.
    assert _run_fresh(
        "import sys, numpy; eager = 'numpy.random' in sys.modules; "
        "import cdiqkd.cli, cdiqkd.harness, cdiqkd.postprocess; "
        "print(eager or 'numpy.random' not in sys.modules)"
    ) == "True"
