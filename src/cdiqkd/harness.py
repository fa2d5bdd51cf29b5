"""Experiment runner, transcript/summary emission, and the replay audit.

The authenticated public channel is modeled as an append-only line log:
one JSON record per round, bracketed by a header, which states the ETCF
family and its sizes once, and a footer.  Test rounds carry both
parties' published data (commitments, responses, questions, answers,
herald bits); the verifiers' trapdoor for each side of those rounds goes,
in round order, to a separate trapdoor-store file (format 3: one object
per side, no family or size), so the replay audit recomputes every check
in one forward pass over both files.  Replay takes only what the writer
writes.  Generation rounds publish only state bases, challenge types,
tags, and question bases - their commitments, responses, and key
material are discarded and never reach any output file.

Determinism: a fixed config (including seed) produces byte-identical
output files.  All numeric fields in summaries are emitted in decimal
with 12 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bits import from_hex, to_hex
from .config import ExperimentConfig
from .devices import ChallengeType, make_device
from .etcf import EtcfParams, trapdoor_from_dict, trapdoor_to_dict
from .keyrate import KeyRateReport, session_rate_report, sig12
from .postprocess import PaSpec, final_length, privacy_amplify, reconcile
from .protocol import (
    RoundRecord,
    RoundType,
    SessionResult,
    SideRecord,
    TestTag,
    WinFlag,
    classify_round,
    run_session,
    win_condition,
)
from .quantum import MeasurementBasis

EXIT_KEY_PRODUCED = 0
EXIT_USAGE = 1
EXIT_ABORTED = 2

_BASIS_CODE = {MeasurementBasis.COMPUTATIONAL: "C", MeasurementBasis.HADAMARD: "H"}
_BASIS_FROM = {"C": MeasurementBasis.COMPUTATIONAL, "H": MeasurementBasis.HADAMARD}
_CHALLENGE_FROM = {ct.value: ct for ct in ChallengeType}
_MALFORMED = (LookupError, OverflowError, TypeError, ValueError)


# The trapdoor store's format number, written in its header and required by replay.
STORE_FORMAT = 3

# The fields a test round line publishes for each side, by its challenge type,
# in the order the writer writes them; a side whose device sent a malformed
# message adds ``viol_<s>`` and lacks each response the device got wrong.
# Every round line holds the common fields; a generation round adds its bases.
_PUBLISHED = {
    ("a", ChallengeType.A): ("c_a", "z_a"),
    ("a", ChallengeType.B): ("c_a", "d_a", "x", "a", "h_a"),
    ("b", ChallengeType.A): ("c_b", "z_b"),
    ("b", ChallengeType.B): ("c_b", "d_b", "y", "b", "h_b"),
}
_COMMON_FIELDS = frozenset(
    ("record", "i", "theta_a", "theta_b", "ct_a", "ct_b", "rt", "tag", "win")
)
_GENERATE_FIELDS = _COMMON_FIELDS | {"x", "y"}
_KEYS_FIELDS = frozenset(("record", "i", "a", "b"))


def store_path(transcript: str, trapdoors: str | None) -> str:
    """The trapdoor store path: ``trapdoors`` if given, else ``transcript`` + ".keys"."""
    return trapdoors or transcript + ".keys"


class ReplayError(ValueError):
    """Transcript cannot be audited (truncated or structurally unusable)."""


def _round_floats(node):
    """Apply the 12-significant-digit summary convention recursively."""
    if isinstance(node, float):
        return sig12(node)
    if isinstance(node, dict):
        return {key: _round_floats(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_round_floats(value) for value in node]
    return node


def _bits_hex(bits: np.ndarray) -> str:
    if len(bits) == 0:
        return ""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


# ---------------------------------------------------------------------------
# Transcript emission
# ---------------------------------------------------------------------------


def _side_fields(side: SideRecord, suffix: str) -> dict:
    names = _PUBLISHED[suffix, side.ct]
    fields: dict = {names[0]: to_hex(side.c, side.key.codomain_bits)}
    if side.ct is ChallengeType.A:
        if side.z is not None:
            fields[names[1]] = to_hex(side.z, 1 + side.key.domain_bits)
    else:
        _, d_name, question_name, answer_name, h_name = names
        if side.d is not None:
            fields[d_name] = to_hex(side.d, side.key.domain_bits)
        fields[question_name] = _BASIS_CODE[side.question]
        if side.answer is not None:
            fields[answer_name] = side.answer
            fields[h_name] = side.h
    if side.violation:
        fields[f"viol_{suffix}"] = True
    return fields


def _round_line(record: RoundRecord) -> dict:
    line = {
        "record": "round",
        "i": record.index,
        "theta_a": _BASIS_CODE[record.alice.theta],
        "theta_b": _BASIS_CODE[record.bob.theta],
        "ct_a": record.alice.ct.value,
        "ct_b": record.bob.ct.value,
        "rt": record.round_type.value,
        "tag": record.test_tag.value,
        "win": record.win.value,
    }
    if record.round_type is RoundType.SIFTED:
        return line
    if record.test_tag is TestTag.TEST:
        line.update(_side_fields(record.alice, "a"))
        line.update(_side_fields(record.bob, "b"))
    else:
        # Generation round: question bases are published for key matching,
        # everything else stays private and is discarded.
        line["x"] = _BASIS_CODE[record.alice.question]
        line["y"] = _BASIS_CODE[record.bob.question]
    return line


def _keys_line(record: RoundRecord) -> dict:
    return {
        "record": "keys",
        "i": record.index,
        "a": trapdoor_to_dict(record.alice.trapdoor),
        "b": trapdoor_to_dict(record.bob.trapdoor),
    }


def write_transcript(path: str, config: ExperimentConfig, session: SessionResult) -> None:
    header = {
        "record": "header",
        "version": 2,
        "rounds": session.rounds,
        "epsilon": sig12(config.epsilon),
        "etcf": _etcf_header(config.etcf_params()),
        "device": config.device,
    }
    footer = {
        "record": "footer",
        "tested": session.tested_count,
        "failed": session.failed_count,
        "fail_fraction": sig12(session.fail_fraction),
        "aborted": session.aborted,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in session.records:
            fh.write(json.dumps(_round_line(record)) + "\n")
        fh.write(json.dumps(footer) + "\n")


def write_trapdoor_store(path: str, session: SessionResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"record": "keys-header", "version": 2, "format": STORE_FORMAT}
        fh.write(json.dumps(header) + "\n")
        for record in session.records:
            if record.round_type is RoundType.SIFTED or record.test_tag is not TestTag.TEST:
                continue
            fh.write(json.dumps(_keys_line(record)) + "\n")


def _etcf_header(params: EtcfParams) -> dict:
    if params.family == "ideal":
        return {"family": "ideal", "domain_bits": params.domain_bits}
    return {"family": "toy-lattice", "n": params.n, "m": params.m, "q": params.q}


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


@dataclass
class ExperimentOutcome:
    exit_code: int
    session: SessionResult
    report: KeyRateReport
    summary: dict
    final_key_a: np.ndarray
    final_key_b: np.ndarray


def bell_test_qber(session: SessionResult) -> float:
    """Failure frequency among matched-computational Bell test rounds.

    This is the parameter-estimation proxy for the raw-key error rate: a
    Bell test round with both questions computational fails exactly when
    Alice's bit differs from Bob's flip-corrected bit.
    """
    return session.qber_failed / session.qber_tested if session.qber_tested else 0.0


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run a full seeded experiment and write any requested output files."""
    config.validate()
    device = make_device(config.device)
    master = np.random.SeedSequence(config.seed)
    session_seq, post_seq = master.spawn(2)
    session = run_session(device, config.protocol_params(), session_seq)
    post_rng = np.random.Generator(np.random.PCG64(post_seq))

    qber = bell_test_qber(session)
    raw_a, raw_b = session.raw_key_a, session.raw_key_b
    empty = np.zeros(0, dtype=np.uint8)
    recon_dict = None
    pa_dict = None
    final_a = final_b = empty
    verified = False
    leak = 0
    n_final = 0
    if not session.aborted:
        recon = reconcile(raw_a, raw_b, config.recon, post_rng)
        verified = recon.verified
        leak = recon.leak_bits
        qber_for_length = min(qber, 0.4999999)
        n_final = final_length(len(raw_a), qber_for_length, leak, config.eps_sec)
        pa_seed = post_rng.integers(0, 2, size=max(len(raw_a) + n_final - 1, 0), dtype=np.uint8)
        spec = PaSpec(seed=pa_seed, input_len=len(raw_a), output_len=n_final)
        if verified:
            final_a = privacy_amplify(raw_a, spec)
            final_b = privacy_amplify(recon.corrected_key_b, spec)
        recon_dict = {
            "scheme": config.recon,
            "verified": verified,
            "leak_bits": leak,
            "syndromes_hex": _bits_hex(recon.syndromes.ravel()),
            "hash_seed_hex": _bits_hex(recon.hash_seed),
            "hash_a_hex": _bits_hex(recon.hash_a),
            "hash_b_hex": _bits_hex(recon.hash_b),
        }
        pa_dict = {
            "seed_hex": _bits_hex(pa_seed),
            "input_len": int(len(raw_a)),
            "output_len": int(n_final) if verified else 0,
        }
    if not verified:
        n_final = 0
        final_a = final_b = empty

    report = session_rate_report(
        session,
        config.keyrate_params(),
        final_key_length=n_final,
        leak_bits=leak,
        qber_estimate=qber,
    )
    exit_code = EXIT_KEY_PRODUCED if (not session.aborted and verified) else EXIT_ABORTED
    summary = _round_floats({
        "config": config.to_dict(),
        "seed": config.seed,
        "exit_code": exit_code,
        "aborted": session.aborted,
        "verified": verified,
        "fail_fraction": session.fail_fraction,
        "qber_estimate": qber,
        "counts": {
            "rounds": session.rounds,
            "sifted": session.sifted_count,
            "tested": session.tested_count,
            "failed": session.failed_count,
            "bell": session.bell_count,
            "product": session.product_count,
            "generate": session.generate_count,
            "matched": session.matched_count,
            "dropped": session.dropped_count,
        },
        "raw_key_length": int(len(raw_a)),
        "final_key_length": int(n_final),
        "reconciliation": recon_dict,
        "privacy_amplification": pa_dict,
        "key_rate_report": report.to_dict(),
    })

    if config.transcript:
        write_transcript(config.transcript, config, session)
        write_trapdoor_store(store_path(config.transcript, config.trapdoors), session)
    if config.summary:
        with open(config.summary, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")

    return ExperimentOutcome(
        exit_code=exit_code,
        session=session,
        report=report,
        summary=summary,
        final_key_a=final_a,
        final_key_b=final_b,
    )


# ---------------------------------------------------------------------------
# Replay audit
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    verdict: str  # "match" or "mismatch"
    rounds_checked: int
    mismatches: list[str]

    @property
    def match(self) -> bool:
        return self.verdict == "match"


def _exact_int(value) -> int:
    """value itself if it is a JSON integer; a bool, float or string raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _bit(value) -> int:
    if _exact_int(value) not in (0, 1):
        raise ValueError(f"{value!r} is not a bit")
    return value


def _side_from_line(line: dict, suffix: str, trapdoor) -> tuple[SideRecord, int]:
    """One side of a test round line, and the number of the line's fields it holds.

    Raises on a malformed field and on a missing one: only a side marked
    ``viol_<s>: true`` may lack a response (``z``, ``d``, or the answer with
    its herald bit), as the writer drops each one the device got wrong.
    """
    key = trapdoor.key
    ct = _CHALLENGE_FROM[line[f"ct_{suffix}"]]
    names = _PUBLISHED[suffix, ct]
    violation = f"viol_{suffix}" in line
    if violation and line[f"viol_{suffix}"] is not True:
        raise ValueError(f"viol_{suffix} is written only as true")
    side = SideRecord(
        theta=_BASIS_FROM[line[f"theta_{suffix}"]],
        trapdoor=trapdoor,
        c=from_hex(line[names[0]], key.codomain_bits),
        ct=ct,
        violation=violation,
    )
    if ct is ChallengeType.A:
        if names[1] in line or not violation:
            side.z = from_hex(line[names[1]], 1 + key.domain_bits)
    else:
        _, d_name, question_name, answer_name, h_name = names
        side.question = _BASIS_FROM[line[question_name]]
        if d_name in line or not violation:
            side.d = from_hex(line[d_name], key.domain_bits)
        if answer_name in line or h_name in line or not violation:
            side.answer, side.h = _bit(line[answer_name]), _bit(line[h_name])
    return side, violation + sum(name in line for name in names)


def _is_unscored_line(line: dict, generate: bool) -> bool:
    """True iff a sifted or generation round line holds just what the writer writes."""
    if line.get("win") != "na":
        return False
    if not generate:
        return line.keys() == _COMMON_FIELDS
    bases = _BASIS_CODE.values()  # read with ==, so an unhashable value is no basis
    return line.keys() == _GENERATE_FIELDS and line["x"] in bases and line["y"] in bases


def _records(path: str):
    """(line number, JSON object or None if the line is not one) of each non-blank line.

    Lines are decoded one by one, so bytes that are not UTF-8 make only
    their own line unreadable.
    """
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8").strip()
                if not text:
                    continue
                entry = json.loads(text)
            except ValueError:  # UnicodeDecodeError or JSONDecodeError
                entry = None
            yield number, entry if isinstance(entry, dict) else None


def _store_entries(path: str, params: EtcfParams):
    """(round index, (trapdoor_a, trapdoor_b)) of each store entry, in file order.

    The first record must be the format-3 header and every later one a
    ``keys`` entry holding just what the writer writes for two trapdoors of
    the family ``params``; raises ReplayError otherwise.
    """
    records = _records(path)
    _, header = next(records, (0, None))
    if not header or header.get("record") != "keys-header" or header.get("format") != STORE_FORMAT:
        raise ReplayError(f"trapdoor store has no format-{STORE_FORMAT} header")
    for number, entry in records:
        try:
            if entry["record"] != "keys" or entry.keys() != _KEYS_FIELDS:
                raise ValueError("not a keys record")
            trapdoor_a = trapdoor_from_dict(entry["a"], params)
            trapdoor_b = trapdoor_from_dict(entry["b"], params)
            index = _exact_int(entry["i"])
        except _MALFORMED as exc:
            raise ReplayError(f"trapdoor store corrupt at line {number}") from exc
        yield index, (trapdoor_a, trapdoor_b)


def replay_verify(transcript_path: str, trapdoor_store_path: str) -> ReplayReport:
    """Recompute every round verdict and the abort decision from the files alone.

    Both files are read once, in round order.  Corrupt round lines yield a
    mismatch naming the line, and so does a round index that is not the next
    of ``0..rounds-1`` (a duplicate, a gap or one out of range), or a test
    round whose store entry is missing or out of order; rounds missing at the
    end are a footer mismatch.  A missing footer (a truncated transcript)
    raises ReplayError naming the last good line; so do an unusable header,
    a store without its format-3 header and a corrupt trapdoor-store entry.
    The ETCF family and its sizes are read once, from the transcript header.
    """
    lines = _records(transcript_path)
    _, header = next(lines, (0, None))
    if header is None or header.get("record") != "header":
        raise ReplayError("transcript has no valid header line")
    try:
        epsilon = float(header["epsilon"])
    except _MALFORMED as exc:
        raise ReplayError("transcript header has no valid epsilon") from exc
    try:
        rounds = _exact_int(header.get("rounds"))
    except TypeError as exc:
        raise ReplayError("transcript header has no valid round count") from exc
    try:  # the one statement of the family: valid, and written as the writer writes it
        params = EtcfParams(**header["etcf"])
        if any(type(getattr(params, size)) is not int for size in ("domain_bits", "n", "m", "q")):
            raise TypeError("ETCF sizes must be integers")
        params.validate()
        if _etcf_header(params) != header["etcf"]:
            raise ValueError("the family is not stated as the writer states it")
    except _MALFORMED as exc:
        raise ReplayError("transcript header has no valid etcf") from exc

    store = _store_entries(trapdoor_store_path, params)
    held_index, held = float("-inf"), None  # the store entry last read
    mismatches: list[str] = []
    tested = failed = 0
    footer = None
    last_good = 1
    next_index = 0  # a corrupt round line is taken to hold the index due there
    for number, entry in lines:
        if entry is None:
            mismatches.append(f"line {number}: corrupt record")
            next_index += 1
            continue
        kind = entry.get("record")
        if kind not in ("round", "footer"):
            mismatches.append(f"line {number}: unexpected record type {kind!r}")
            continue
        last_good = number
        if kind == "footer":
            footer = entry
            continue
        try:
            index = _exact_int(entry["i"])
            recomputed_rt = classify_round(
                _CHALLENGE_FROM[entry["ct_a"]],
                _CHALLENGE_FROM[entry["ct_b"]],
                _BASIS_FROM[entry["theta_a"]],
                _BASIS_FROM[entry["theta_b"]],
            )
        except _MALFORMED:
            mismatches.append(f"line {number}: corrupt record")
            next_index += 1
            continue
        if not 0 <= index < rounds:
            mismatches.append(f"line {number}: round index {index} is outside 0..{rounds - 1}")
        elif index != next_index:
            mismatches.append(f"line {number}: round index {index} should be {next_index}")
        next_index = index + 1
        if recomputed_rt.value != entry.get("rt"):
            mismatches.append(f"line {number}: round {index} type should be {recomputed_rt.value}")
            continue
        tag = entry.get("tag")
        if tag != "test" and (tag != "generate" or recomputed_rt is not RoundType.BELL):
            # Only Bell rounds are ever drawn for key generation.
            mismatches.append(f"line {number}: round {index} tag should be test")
            continue
        if recomputed_rt is RoundType.SIFTED or tag != "test":
            if not _is_unscored_line(entry, tag == "generate"):
                mismatches.append(f"line {number}: corrupt record")
            continue
        while held_index < index:
            held_index, held = next(store, (float("inf"), None))
        if held_index != index:
            mismatches.append(f"line {number}: round {index} has no key material in the store")
            continue
        trapdoor_a, trapdoor_b = held
        try:
            alice, fields_a = _side_from_line(entry, "a", trapdoor_a)
            bob, fields_b = _side_from_line(entry, "b", trapdoor_b)
            if "win" not in entry or len(entry) != len(_COMMON_FIELDS) + fields_a + fields_b:
                raise ValueError("the line holds a field its round does not publish")
            verdict = win_condition(RoundRecord(
                index=index, alice=alice, bob=bob, round_type=recomputed_rt, test_tag=TestTag.TEST
            ))
        except _MALFORMED:
            mismatches.append(f"line {number}: corrupt record")
            continue
        tested += 1
        if verdict is WinFlag.FAIL:
            failed += 1
        if verdict.value != entry.get("win"):
            mismatches.append(
                f"line {number}: round {index} verdict should be {verdict.value}"
            )

    if footer is None:
        raise ReplayError(f"transcript truncated: no footer after line {last_good}")
    for _ in store:  # the entries after the last test round must decode too
        pass
    if next_index < rounds:
        mismatches.append(f"footer: rounds {next_index}..{rounds - 1} are missing")
    fail_fraction = failed / tested if tested else 0.0
    recomputed_abort = fail_fraction > epsilon
    if tested != footer.get("tested"):
        mismatches.append(f"footer: tested count should be {tested}")
    if failed != footer.get("failed"):
        mismatches.append(f"footer: failed count should be {failed}")
    reported = footer.get("fail_fraction")
    if not isinstance(reported, (int, float)) or abs(fail_fraction - reported) > 1e-9:
        mismatches.append(f"footer: fail fraction should be {sig12(fail_fraction)}")
    if recomputed_abort != bool(footer.get("aborted")):
        mismatches.append(f"footer: abort decision should be {recomputed_abort}")

    return ReplayReport(
        verdict="match" if not mismatches else "mismatch",
        rounds_checked=tested,
        mismatches=mismatches,
    )
