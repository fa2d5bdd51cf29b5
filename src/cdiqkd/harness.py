"""Experiment runner, transcript/summary emission, and the replay audit.

The authenticated public channel is modeled as an append-only line log:
one JSON record per round, bracketed by a header, which states the ETCF
family and its sizes once, and a footer.  Test rounds carry both
parties' published data (commitments, responses, questions, answers,
herald bits); the seed of the verifiers' keys for each of those rounds
goes, in round order, to a separate trapdoor-store file (format 4: 32 hex
digits a test round, from which replay redraws both sides' keys), so
the replay audit recomputes every check in one forward pass over both
files.  Generation rounds publish only
state bases, challenge types, tags, and question bases - their
commitments, responses, and key material are discarded and never reach
any output file.  The runner appends each block of rounds to both files
as soon as the block is decided, so it never holds a whole session's
records.

The writer's functions are the one statement of both formats: replay
reads each line into the values it was written from and keeps it only if
the writer's own function writes those values back as that line.

Determinism: a fixed config (including seed) produces byte-identical
output files.  All numeric fields in summaries are emitted in decimal
with 12 significant digits.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import TextIO

import numpy as np

from .bits import exact_int, to_hex
from .config import ExperimentConfig, epsilon_in_range, store_path
from .devices import ChallengeType, make_device
from .etcf import EtcfKeyPair, EtcfParams, draw_keys
from .keyrate import KeyRateReport, session_rate_report, sig12
from .postprocess import PaSpec, final_length, privacy_amplify, reconcile
from .protocol import (
    Block,
    ProtocolParams,
    RoundRecord,
    RoundType,
    SessionResult,
    SideRecord,
    KEY_KINDS,
    TestTag,
    WinFlag,
    abort_decision,
    classify_round,
    ingest_side,
    run_session,
    win_condition,
)
from .quantum import MeasurementBasis
from .streams import SEED_BYTES, STREAM_BLOCK, STREAM_LAYOUT

EXIT_KEY_PRODUCED = 0
EXIT_USAGE = 1
EXIT_ABORTED = 2

# Each line written or replayed reads Enum members by ``is`` or ``_value_``:
# hashing a member or reading ``.value`` is a Python-level call.
_HADAMARD = MeasurementBasis.HADAMARD
_CHALLENGE_B = ChallengeType.B
_SIFTED = RoundType.SIFTED
_TEST, _GENERATE = TestTag.TEST, TestTag.GENERATE
_NA = WinFlag.NA
_BASIS_CODE = ("C", "H")  # indexed by basis is _HADAMARD
_BASIS_FROM = {"C": MeasurementBasis.COMPUTATIONAL, "H": _HADAMARD}
_CHALLENGE_FROM = {ct.value: ct for ct in ChallengeType}
_WIN_FROM = {win.value: win for win in WinFlag}
_MALFORMED = (LookupError, OverflowError, TypeError, ValueError)


# The trapdoor store's format number, written in its header and required by replay.
STORE_FORMAT = 4

# Side <s>'s fields: commitment, preimage (challenge a), phase string, question,
# answer and herald bit (challenge b), and the mark of a malformed message.
_SIDE_FIELDS = {
    s: (f"c_{s}", f"z_{s}", f"d_{s}", question, s, f"h_{s}", f"viol_{s}")
    for s, question in (("a", "x"), ("b", "y"))
}


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


def _add_side_fields(line: dict, side: SideRecord, suffix: str) -> None:
    c_name, z_name, d_name, question_name, answer_name, h_name, viol_name = _SIDE_FIELDS[suffix]
    key = side.key
    line[c_name] = to_hex(side.c, key.codomain_bits)
    if side.ct is not _CHALLENGE_B:
        if side.z is not None:
            line[z_name] = to_hex(side.z, 1 + key.domain_bits)
    else:
        if side.d is not None:
            line[d_name] = to_hex(side.d, key.domain_bits)
        line[question_name] = _BASIS_CODE[side.question is _HADAMARD]
        if side.answer is not None:
            line[answer_name] = side.answer
            line[h_name] = side.h
    if side.violation:
        line[viol_name] = True


def _round_line(record: RoundRecord) -> dict:
    alice, bob = record.alice, record.bob
    line = {
        "record": "round",
        "i": record.index,
        "theta_a": _BASIS_CODE[alice.theta is _HADAMARD],
        "theta_b": _BASIS_CODE[bob.theta is _HADAMARD],
        "ct_a": alice.ct._value_,
        "ct_b": bob.ct._value_,
        "rt": record.round_type._value_,
        "tag": record.test_tag._value_,
        "win": record.win._value_,
    }
    if record.round_type is _SIFTED:
        return line
    if record.test_tag is _TEST:
        _add_side_fields(line, alice, "a")
        _add_side_fields(line, bob, "b")
    else:
        # Generation round: question bases are published for key matching,
        # everything else stays private and is discarded.
        line["x"] = _BASIS_CODE[alice.question is _HADAMARD]
        line["y"] = _BASIS_CODE[bob.question is _HADAMARD]
    return line


def _keys_line(index: int, seed: bytes) -> dict:
    return {"record": "keys", "i": index, "seed": seed.hex()}


def _write_line(fh: TextIO, entry: dict) -> None:
    fh.write(json.dumps(entry) + "\n")


def _transcript_header(params: ProtocolParams, device: str) -> dict:
    return {
        "record": "header",
        "version": STREAM_LAYOUT,
        "rounds": params.rounds,
        "epsilon": float(params.epsilon),
        "etcf": _etcf_header(params.etcf),
        "device": device,
    }


def _transcript_footer(tested: int, failed: int, fail_fraction: float, aborted: bool) -> dict:
    return {
        "record": "footer",
        "tested": tested,
        "failed": failed,
        "fail_fraction": sig12(fail_fraction),
        "aborted": aborted,
    }


_STORE_HEADER = {"record": "keys-header", "version": STREAM_LAYOUT, "format": STORE_FORMAT}


def write_transcript(fh: TextIO, records: list[RoundRecord]) -> None:
    """Append the round lines of one block's decided ``records`` to an open transcript."""
    for record in records:
        _write_line(fh, _round_line(record))


def write_trapdoor_store(fh: TextIO, records: list[RoundRecord]) -> None:
    """Append the ``keys`` lines of the test rounds among ``records`` to an open store."""
    for record in records:
        if record.round_type is not _SIFTED and record.test_tag is _TEST:
            _write_line(fh, _keys_line(record.index, record.seed))


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


def _discard(block: Block) -> None:
    """The block consumer of a run that writes no transcript: it builds no record."""


def _write_block(transcript: TextIO, store: TextIO, block: Block) -> None:
    """The block consumer of a run with files: the block's records, built for their round
    lines, then the test rounds' keys."""
    records = block.records()
    write_transcript(transcript, records)
    write_trapdoor_store(store, records)


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run a full seeded experiment, streaming any requested output files.

    Every output file is opened before any round runs, so an unwritable
    path raises OSError at once.  The transcript and the trapdoor store get
    their headers first and each block's lines once the block is decided,
    so the session holds one block of records at a time, and a run without
    them builds no record at all; the transcript's footer follows the
    session, and the summary the post-processing.  A
    run cut short leaves a transcript without its footer, which replay
    reports as truncated.
    """
    config.validate()
    device = make_device(config.device)
    master = np.random.SeedSequence(config.seed)
    session_seq, post_seq = master.spawn(2)
    with ExitStack() as files:
        summary = (
            files.enter_context(open(config.summary, "w", encoding="utf-8"))
            if config.summary else None
        )
        on_block = _discard  # with no files to write, no block is kept either
        if config.transcript:
            transcript = files.enter_context(open(config.transcript, "w", encoding="utf-8"))
            store = files.enter_context(
                open(store_path(config.transcript, config.trapdoors), "w", encoding="utf-8")
            )
            _write_line(transcript, _transcript_header(config.protocol_params(), config.device))
            _write_line(store, _STORE_HEADER)
            on_block = partial(_write_block, transcript, store)
        session = run_session(device, config.protocol_params(), session_seq, on_block)
        if config.transcript:
            _write_line(transcript, _transcript_footer(
                session.tested_count, session.failed_count, session.fail_fraction, session.aborted
            ))
        outcome = _post_process(config, session, np.random.Generator(np.random.PCG64(post_seq)))
        if summary is not None:
            summary.write(json.dumps(outcome.summary, indent=2) + "\n")
    return outcome


def _post_process(
    config: ExperimentConfig, session: SessionResult, post_rng: np.random.Generator
) -> ExperimentOutcome:
    """Reconciliation, privacy amplification, the rate report and the summary."""
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


def _same(value, written) -> bool:
    """True iff ``value`` is the JSON ``written``: ``==`` alone takes 1, 1.0 and true as one."""
    return json.dumps(value) == json.dumps(written)


def _side_from_line(line: dict, suffix: str, theta, ct, key: EtcfKeyPair | None) -> SideRecord:
    """One side of a round line, its basis and challenge read.  Given a test round's
    key, its commitment and responses go through ``ingest_side``, so one that is
    missing or malformed is a violation, which the writer marks ``viol_<s>: true``.
    """
    c_name, z_name, d_name, question_name, answer_name, h_name, viol_name = _SIDE_FIELDS[suffix]
    question = line.get(question_name)
    question = None if question is None else _BASIS_FROM[question]
    if key is None:
        return SideRecord(theta, None, 0, ct, question=question)
    response = line.get(d_name if ct is _CHALLENGE_B else z_name)
    side = ingest_side(
        theta, key, _hex(line.get(c_name)), ct, _hex(response), question,
        line.get(answer_name), line.get(h_name),
    )
    marked = line.get(viol_name, False)
    if type(marked) is not bool:  # == would take 1 or 1.0 for the true the writer writes
        raise TypeError(f"{viol_name} is written only as true")
    side.violation |= marked
    return side


def _hex(text: str | None) -> int | None:
    return None if text is None else int(text, 16)


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


def _store_entries(path: str):
    """(round index, line number, round seed) of each store entry, in file order.

    The first record must be the header the writer writes and every later
    one the ``keys`` entry ``_keys_line`` writes for an index and a
    16-byte seed; raises ReplayError otherwise.
    """
    records = _records(path)
    _, header = next(records, (0, None))
    if header is None or not _same(header, _STORE_HEADER):
        raise ReplayError(f"trapdoor store has no format-{STORE_FORMAT} header")
    for number, entry in records:
        try:
            index = exact_int(entry["i"], "i")
            seed = bytes.fromhex(entry["seed"])
            # The index is an int and the seed a string, so != compares as _same does.
            if len(seed) != SEED_BYTES or entry != _keys_line(index, seed):
                raise ValueError("the entry is not written as the writer writes its seed")
        except _MALFORMED as exc:
            raise ReplayError(f"trapdoor store corrupt at line {number}") from exc
        yield index, number, seed


class _StoreCursor:
    """The trapdoor store, read in step with the transcript's round lines.

    Each entry must be taken by the test round line of its index.  An entry
    passed over untaken is a mismatch naming its store line, unless its
    round lies in a stretch of rounds the transcript skips, which is a
    mismatch of its own.
    """

    def __init__(self, entries, rounds: int, mismatches: list[str]) -> None:
        self._entries, self._rounds, self._mismatches = entries, rounds, mismatches
        self._index, self._line, self._seed, self._taken = -1, 0, None, True

    def reach(self, index, skipped_from: int) -> None:
        """Read up to the first entry for round ``index`` or later; rounds from
        ``skipped_from`` up to ``index`` are absent from the transcript."""
        while self._index < index:
            if not self._taken and not skipped_from <= self._index < self._rounds:
                self._mismatches.append(
                    f"store line {self._line}: entry for round {self._index} is out of place"
                )
            self._index, self._line, self._seed = next(self._entries, (math.inf, 0, None))
            self._taken = False

    def take(self, index: int) -> bytes | None:
        """The seed of the entry for round ``index``, or None if the store has none here."""
        if self._index != index:
            return None
        self._taken = True
        return self._seed


# The footer's fields as its mismatch messages name them.
_FOOTER_LABELS = {
    "tested": "tested count", "failed": "failed count",
    "fail_fraction": "fail fraction", "aborted": "abort decision",
}


def _settle(queue: list, etcf: EtcfParams, mismatches: list[str]) -> tuple[int, int]:
    """Check the round lines waiting in ``queue``, drawing the test rounds' keys in
    one batch, and move the queue's mismatches, in line order, to ``mismatches``.

    A waiting line is the tuple (line number, entry, index, bases, challenges,
    round type, tag, seed), its seed None unless it is a test round.  Returns
    the number of test rounds checked and of those that failed.
    """
    tests = [item for item in queue if type(item) is tuple and item[-1] is not None]
    kinds = [KEY_KINDS[theta is _HADAMARD] for item in tests for theta in item[3]]
    keys = iter(draw_keys(kinds, etcf, b"".join(item[-1] for item in tests)))
    failed = 0
    for item in queue:
        if type(item) is tuple:
            number, entry, index, thetas, cts, round_type, tag, seed = item
            scored = seed is not None
            sides = (next(keys), next(keys)) if scored else (None, None)
            item = None
            try:
                record = RoundRecord(  # a test round's win is read as written, for the check below
                    index,
                    _side_from_line(entry, "a", thetas[0], cts[0], sides[0]),
                    _side_from_line(entry, "b", thetas[1], cts[1], sides[1]),
                    round_type,
                    _TEST if tag == "test" else _GENERATE,
                    _WIN_FROM[entry["win"]] if scored else _NA,
                )
                # Each value the writer copies keeps its JSON type when read (the
                # index, the bits ingest_side takes and the viol_<s> mark), and every
                # other one is a string, so == compares as _same does.
                if entry != _round_line(record):
                    raise ValueError("the line is not written as the writer writes its round")
                verdict = win_condition(record) if scored else record.win
            except _MALFORMED:
                item = f"line {number}: corrupt record"
            else:
                failed += verdict is WinFlag.FAIL
                if verdict is not record.win:
                    item = f"line {number}: round {index} verdict should be {verdict.value}"
        if item is not None:
            mismatches.append(item)
    queue.clear()
    return len(tests), failed


def replay_verify(transcript_path: str, trapdoor_store_path: str) -> ReplayReport:
    """Recompute every round verdict and the abort decision from the files alone.

    Both files are read once, in round order, and the test rounds' keys are
    drawn for a block of them at once.  A round line the writer would not
    write for the values read from it yields a mismatch naming the line,
    and so does a round index that is not the next of ``0..rounds-1`` (a
    duplicate, a gap or one out of range), a test round whose store entry
    is missing or out of order, a store entry no test round takes, and any
    line after the footer; rounds missing at the end, and any footer but
    the one written from the recomputed counts, are footer mismatches.  A
    missing footer (a truncated transcript) raises ReplayError naming the
    last good line; so do a header the writer would not write, a store
    without its header and a corrupt trapdoor-store entry.  The ETCF family
    and its sizes are read once, from the transcript header.
    """
    lines = _records(transcript_path)
    _, header = next(lines, (0, None))
    try:
        etcf = EtcfParams(**header["etcf"])
        params = ProtocolParams(exact_int(header["rounds"], "rounds"), header["epsilon"], etcf)
        params.validate()
        if not epsilon_in_range(params.epsilon):
            raise ValueError("a run takes no such epsilon")
        device = header["device"]  # only a string: a classical-table: file need not exist here
        if type(device) is not str or not _same(header, _transcript_header(params, device)):
            raise ValueError("the header is not written as the writer writes it")
    except _MALFORMED as exc:
        raise ReplayError("transcript has no valid header line") from exc

    rounds = params.rounds
    mismatches: list[str] = []
    queue: list = []  # mismatches and round lines waiting for _settle, in line order
    store = _StoreCursor(_store_entries(trapdoor_store_path), rounds, queue)
    tested = failed = 0
    footer = None
    last_good = 1
    next_index = 0  # a corrupt round line is taken to hold the index due there
    for number, entry in lines:
        if footer is not None:  # the footer is the last line
            what = "corrupt record" if entry is None else "record after the footer"
            queue.append(f"line {number}: {what}")
            continue
        if entry is None:
            queue.append(f"line {number}: corrupt record")
            next_index += 1
            continue
        kind = entry.get("record")
        if kind not in ("round", "footer"):
            queue.append(f"line {number}: unexpected record type {kind!r}")
            continue
        last_good = number
        if kind == "footer":
            footer = entry
            continue
        try:
            index = exact_int(entry["i"], "i")
            cts = _CHALLENGE_FROM[entry["ct_a"]], _CHALLENGE_FROM[entry["ct_b"]]
            thetas = _BASIS_FROM[entry["theta_a"]], _BASIS_FROM[entry["theta_b"]]
            recomputed_rt = classify_round(*cts, *thetas)
        except _MALFORMED:
            queue.append(f"line {number}: corrupt record")
            next_index += 1
            continue
        store.reach(index, next_index)
        if not 0 <= index < rounds:
            queue.append(f"line {number}: round index {index} is outside 0..{rounds - 1}")
        elif index != next_index:
            queue.append(f"line {number}: round index {index} should be {next_index}")
        next_index = index + 1
        if recomputed_rt._value_ != entry.get("rt"):
            queue.append(f"line {number}: round {index} type should be {recomputed_rt.value}")
            continue
        tag = entry.get("tag")
        if tag != "test" and (tag != "generate" or recomputed_rt is not RoundType.BELL):
            # Only Bell rounds are ever drawn for key generation.
            queue.append(f"line {number}: round {index} tag should be test")
            continue
        seed = None  # only a test round has key material
        if recomputed_rt is not _SIFTED and tag == "test":
            seed = store.take(index)
            if seed is None:
                queue.append(f"line {number}: round {index} has no key material in the store")
                continue
        queue.append((number, entry, index, thetas, cts, recomputed_rt, tag, seed))
        if len(queue) >= STREAM_BLOCK:  # a block's keys at most, as the session holds
            checked, failing = _settle(queue, etcf, mismatches)
            tested, failed = tested + checked, failed + failing

    if footer is None:
        raise ReplayError(f"transcript truncated: no footer after line {last_good}")
    store.reach(math.inf, next_index)  # the entries after the last test round
    checked, failing = _settle(queue, etcf, mismatches)
    tested, failed = tested + checked, failed + failing
    if next_index < rounds:
        mismatches.append(f"footer: rounds {next_index}..{rounds - 1} are missing")
    written = _transcript_footer(tested, failed, *abort_decision(tested, failed, params.epsilon))
    if not _same(footer, written):
        mismatches += [
            f"footer: {label} should be {written[name]}"
            for name, label in _FOOTER_LABELS.items()
            if not _same(footer.get(name), written[name])
        ] or [f"footer: should be {json.dumps(written)}"]

    return ReplayReport(
        verdict="match" if not mismatches else "mismatch",
        rounds_checked=tested,
        mismatches=mismatches,
    )
