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
any output file.  The runner appends each stream block of rounds to both
files as soon as the block is decided, straight from its arrays
(``protocol.Block``).

The block writer (``_round_lines``, ``_KEYS_LINE``) is the one statement of
both formats: replay reads each line into the values it was written from and
keeps it only if the writer writes those values back as that line.  Replay
reads a chunk of lines (``REPLAY_CHUNK``, 1,024) at a time, each only up to a
limit a little past the longest line the writer writes there, so that a longer
line is a corrupt one and is never held.  A chunk is first read as the writer's
own text (``_take_rounds``, by tables and patterns built from the writer's
formats): a sifted or generation line by its text alone, a test line by its
side fields, which ``_round_lines`` writes back to compare.  A line is taken
only if its text is the writer's text for the values read from it, so rejecting
one is always safe: its chunk is then decoded as JSON line by line, so that a
line that is not UTF-8 or not JSON spoils only itself, and checked at every
line.  A chunk the text reader takes, the writer's own lines for the rounds
due, is checked by its lines alone: only its test rounds, which take the
store's entries, and its last round are visited.  A store line is read by its
text too, and decoded as JSON only if it is not the writer's.  Each chunk's
test rounds whose lines pass are scored as soon as the chunk is read, and
nothing is held over to the next chunk.

Determinism: a fixed config (including seed) produces byte-identical
output files.  All numeric fields in summaries are emitted in decimal
with 12 significant digits.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cache, partial
from typing import TextIO

import numpy as np

from .bits import exact_int
from .config import ExperimentConfig, epsilon_in_range, store_path
from .devices import QUESTION_BASES, ChallengeType, make_device
from .etcf import DrawnKeys, EtcfParams, draw_keys, key_widths
from .keyrate import KeyRateReport, session_rate_report, sig12
from .postprocess import PaSpec, final_length, privacy_amplify, reconcile
from .protocol import (
    FLAGS,
    REASONS,
    Block,
    ProtocolParams,
    SessionResult,
    WinFlag,
    abort_decision,
    classify_round,
    run_session,
    verdicts,
    win_condition,  # not called here: named so that bench/spans.py can wrap it
)
from .streams import SEED_BYTES, STREAM_LAYOUT

EXIT_KEY_PRODUCED = 0
EXIT_USAGE = 1
EXIT_ABORTED = 2

_MALFORMED = (LookupError, OverflowError, TypeError, ValueError)

# The trapdoor store's format number, written in its header and required by replay.
STORE_FORMAT = 4
# Lines replay reads and scores at a time, of the transcript and of the store.  A round
# line costs at most about 2-4 kB (its text, its JSON object where it is decoded, and
# the arrays read from it), so a chunk holds a few MB whatever the files hold.
REPLAY_CHUNK = 1024

# A basis, a challenge and a win as a line writes them, each indexed by its code in a
# Block: a Hadamard bit, a challenge-b bit and an index of FLAGS.
_BASES, _CHALLENGES, _WINS = ("C", "H"), ("a", "b"), tuple(flag.value for flag in FLAGS)
_NA, _FAIL = FLAGS.index(WinFlag.NA), FLAGS.index(WinFlag.FAIL)
# The round type of each coin code h_a + 2 h_b + 4 b_a + 8 b_b of the Hadamard bits h
# and challenge-b bits b; and a round line up to its win, a format string taking the
# round's index, for each code: the coin code + 16 generate + 32 flag.
_ROUND_TYPES = tuple(
    classify_round(*(ChallengeType(_CHALLENGES[code >> k & 1]) for k in (2, 3)),
                   *(QUESTION_BASES[code >> k & 1] for k in (0, 1))).value
    for code in range(16)
)
_HEADS = tuple(
    '{"record": "round", "i": %d'
    f', "theta_a": "{_BASES[code & 1]}", "theta_b": "{_BASES[code >> 1 & 1]}"'
    f', "ct_a": "{_CHALLENGES[code >> 2 & 1]}", "ct_b": "{_CHALLENGES[code >> 3 & 1]}"'
    f', "rt": "{_ROUND_TYPES[code & 15]}", "tag": "{("test", "generate")[code >> 4 & 1]}"'
    f', "win": "{_WINS[code >> 5]}"'
    for code in range(32 * len(_WINS))
)
_KEYS_LINE = '{"record": "keys", "i": %d, "seed": "%s"}'
# A round line up to its index.
_ROUND_PREFIX = _HEADS[0].partition("%d")[0]

# Replay reads a line of either file only up to a limit, ``_SLACK`` bytes past the
# longest line the writer writes there (a store line's with an index of 19 digits), and
# takes a longer one as corrupt, unread: so a chunk's memory is bounded whatever the files
# hold.  A transcript's header names its device, a classical-table file's path among
# them, so it has a limit of its own.
_SLACK = 64
_HEADER_LIMIT = 1 << 16
_STORE_LIMIT = len(_KEYS_LINE % (1 << 63, "0" * 2 * SEED_BYTES)) + _SLACK


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


def _side_fields(widths: tuple[int, int], side: int, challenge_b: int, bits: int) -> str:
    """Side ``side``'s fields of a test round line (0 Alice's, 1 Bob's) for keys of
    ``widths`` (``etcf.key_widths``) and the side's ``bits`` (``_round_lines``), a format
    string taking its commitment and response as ints: the response, and the answer with
    h, are written only if they were sent as bit strings of their widths (``Block.messages``)."""
    domain_bits, codomain_bits = widths
    s = "ab"[side]
    text = f', "c_{s}": "%0{(codomain_bits + 3) // 4}x"'
    nibbles = (domain_bits + (not challenge_b) + 3) // 4  # z is 1 + domain_bits wide
    text += f', "{"zd"[challenge_b]}_{s}": "%0{nibbles}x"' if bits & 1 else "%.0s"
    if challenge_b:
        text += f', "{"xy"[side]}": "{_BASES[bits >> 1 & 1]}"'
        if bits >> 2 & 3:  # an answer was sent
            text += f', "{s}": {(bits >> 2 & 3) - 1}, "h_{s}": {(bits >> 4 & 3) - 1}'
    return text + (f', "viol_{s}": true' if bits >> 6 else "")


@cache
def _line_format(widths: tuple[int, int], shape: int) -> str:
    """The line of a round of ``shape`` (``_round_lines``) for keys of ``widths``, a format
    string taking the round's index, c_a, response_a, c_b and response_b as ints."""
    code, sides = shape & 127, (shape >> 7 & 127, shape >> 14)
    tail = "%.0s" * 4  # a sifted round adds nothing to its head
    if code >> 4 & 1:  # a generation round adds its question bases
        tail = ', "x": "%s", "y": "%s"' % tuple(_BASES[side >> 1 & 1] for side in sides) + tail
    elif code >> 2 & 1 == code >> 3 & 1:  # a test round adds each side's fields
        tail = "".join(_side_fields(widths, s, code >> 2 + s & 1, bits)
                       for s, bits in enumerate(sides))
    return _HEADS[code] + tail + "}"


def _round_lines(block: Block, indices) -> list[str]:
    """The line of each round of ``block``, numbered by ``indices``, its win read from
    ``block.flags``: the one statement of a round line, one ``%`` of the format of its
    shape (``_line_format``), its head's code (of ``_HEADS``) and each side's bits, from
    the lowest: responded, question, answer + 1, h + 1, violation."""
    had, challenge_b, question_h = block.hadamard, block.challenge_b, block.question_h
    c, resp, answer, h, violation = block.messages
    fields = (resp >= 0) + 4 * (answer.astype(np.intp) + 1) + 16 * (h + 1) + 64 * violation
    sides = 2 * (question_h & challenge_b) + np.where(block.tested[:, None], fields, 0)
    shapes, inverse = np.unique(
        had[:, 0] + 2 * had[:, 1] + 4 * challenge_b[:, 0] + 8 * challenge_b[:, 1]
        + 16 * block.generate + 32 * block.flags.astype(np.intp)
        + (sides[:, 0] << 7) + (sides[:, 1] << 14), return_inverse=True,
    )
    formats = [_line_format(key_widths(block.keys.params), shape) for shape in shapes.tolist()]
    rows = zip(indices, *np.stack([c[:, 0], resp[:, 0], c[:, 1], resp[:, 1]]).tolist())
    return [formats[k] % row for k, row in zip(inverse.tolist(), rows)]


def _write_line(fh: TextIO, entry: dict) -> None:
    fh.write(json.dumps(entry) + "\n")


def _transcript_header(params: ProtocolParams, device: str) -> dict:
    return {
        "record": "header",
        "version": STREAM_LAYOUT,
        "rounds": params.rounds,
        "epsilon": float(params.epsilon),
        "etcf": params.etcf.to_dict(),
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


def write_transcript(fh: TextIO, block: Block) -> None:
    """Append the round lines of one decided block to an open transcript."""
    lines = _round_lines(block, range(block.start, block.start + len(block.tested)))
    fh.write("".join(f"{line}\n" for line in lines))


def write_trapdoor_store(fh: TextIO, block: Block) -> None:
    """Append the ``keys`` lines of one decided block's test rounds to an open store."""
    seeds, digits = block.seeds.hex(), 2 * SEED_BYTES
    fh.write("".join(
        _KEYS_LINE % (block.start + i, seeds[digits * i:digits * (i + 1)]) + "\n"
        for i in np.flatnonzero(block.tested).tolist()
    ))


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


def _write_block(transcript: TextIO, store: TextIO, block: Block) -> None:
    """The block consumer of a run with files: the block's round lines, then its test
    rounds' keys, each written from the block's arrays."""
    write_transcript(transcript, block)
    write_trapdoor_store(store, block)


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run a full seeded experiment, streaming any requested output files.

    Every output file is opened before any round runs, so an unwritable
    path raises OSError at once.  The transcript and the trapdoor store get
    their headers first and each block's lines once the block is decided,
    so the session holds one block at a time and builds no record; the
    transcript's footer follows the session, and the summary the
    post-processing.  A run cut short leaves a transcript without its
    footer, which replay reports as truncated.
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
        on_block = lambda block: None  # with no files to write, no block is kept either
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
    final_a = final_b = np.zeros(0, dtype=np.uint8)
    recon_dict = pa_dict = None
    verified, leak, n_final = False, 0, 0
    if not session.aborted:
        recon = reconcile(raw_a, raw_b, config.recon, post_rng)
        verified, leak = recon.verified, recon.leak_bits
        n_final = final_length(len(raw_a), min(qber, 0.4999999), leak, config.eps_sec)
        pa_seed = post_rng.integers(0, 2, size=max(len(raw_a) + n_final - 1, 0), dtype=np.uint8)
        if verified:
            spec = PaSpec(seed=pa_seed, input_len=len(raw_a), output_len=n_final)
            final_a = privacy_amplify(raw_a, spec)
            final_b = privacy_amplify(recon.corrected_key_b, spec)
        else:  # no key: the final length is 0 and both final keys stay empty
            n_final = 0
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
            "output_len": int(n_final),
        }

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
    fail_reasons: dict[str, int] = field(default_factory=dict)  # recomputed failures by REASONS

    @property
    def match(self) -> bool:
        return self.verdict == "match"


def _same(value, written, sort_keys: bool = False) -> bool:
    """True iff ``value`` is the JSON ``written``, an object's keys in any order if
    ``sort_keys``: ``==`` alone takes 1, 1.0 and true as one."""
    return json.dumps(value, sort_keys=sort_keys) == json.dumps(written, sort_keys=sort_keys)


def _text(raw: bytes | None) -> str | None:
    """A line's text, stripped; None if it is not UTF-8 or was too long to read (None)."""
    if raw is None:
        return None
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        return None


def _cut(piece: bytes, limit: int) -> bool:
    """True if ``piece``, read by ``readline(limit)``, is the start of a line of ``limit``
    bytes or more, its newline not counted."""
    return len(piece) == limit and piece[-1:] != b"\n"


def _first(fh, limit: int) -> tuple[int, dict | None]:
    """(number, object) of the first non-blank line of ``fh``: the JSON object it holds
    alone, or None if it holds none, is ``limit`` bytes or longer, or there is no line."""
    number = 0
    for number, piece in enumerate(iter(partial(fh.readline, limit), b""), start=1):
        if _cut(piece, limit):
            return number, None
        if (text := _text(piece)) != "":
            return number, _object(text)
    return number, None


def _whole(chunk: list, fh, limit: int):
    """The lines ``chunk``'s pieces make, None for one of ``limit`` bytes or more: each
    piece after its first, read on from ``fh`` past the chunk's end in pieces of
    ``io.DEFAULT_BUFFER_SIZE`` bytes, is dropped."""
    chunk = iter(chunk)
    for piece in chunk:
        if _cut(piece, limit):
            rest = iter(partial(fh.readline, io.DEFAULT_BUFFER_SIZE), b"")
            for piece in itertools.chain(chunk, rest):
                if piece[-1:] == b"\n":
                    break
            piece = None
        yield piece


def _chunks(fh, limit: int, number: int):
    """(numbers, texts) of each chunk of up to REPLAY_CHUNK lines of ``fh`` after line
    ``number``, made as it is taken: the number and ``_text`` of each non-blank line.  A
    line is read in pieces of at most ``limit`` bytes, and one of ``limit`` bytes or more
    reads as None and is not held, so a chunk holds at most REPLAY_CHUNK * limit bytes."""
    pieces = iter(partial(fh.readline, limit), b"")
    while chunk := list(itertools.islice(pieces, REPLAY_CHUNK)):
        if max(map(len, chunk)) == limit:  # a line may be too long
            chunk = list(_whole(chunk, fh, limit))
        try:
            texts = list(map(str.strip, map(bytes.decode, chunk)))
        except (TypeError, UnicodeDecodeError):  # a line too long (None), or not UTF-8
            texts = list(map(_text, chunk))
        numbers = range(number + 1, number + 1 + len(chunk))
        number += len(chunk)
        del chunk
        if "" in texts:  # a blank line is skipped
            kept = [row for row, text in enumerate(texts) if text != ""]
            numbers, texts = [numbers[row] for row in kept], [texts[row] for row in kept]
        if texts:
            yield numbers, texts
        del numbers, texts  # the next chunk is read holding none of this one


def _object(text: str | None) -> dict | None:
    """The JSON object ``text`` holds alone, or None if it holds none."""
    try:
        value = json.loads(text)
    except (TypeError, ValueError):  # no text, or not JSON
        return None
    return value if type(value) is dict else None


@cache
def _keys_pattern() -> re.Pattern:
    """A store line as the writer writes it (``_KEYS_LINE``), its index and seed grouped."""
    return re.compile(re.escape(_KEYS_LINE).replace("%d", "(0|[1-9][0-9]*)").replace(
        "%s", f"([0-9a-f]{{{2 * SEED_BYTES}}})"))


def _read_key(text: str | None) -> tuple[int, bytes] | None:
    """A store line's (index, seed), decoded as JSON: None unless its object is the
    writer's ``keys`` line for an index and a 16-byte seed."""
    value = _object(text)
    try:
        index, seed = exact_int(value["i"], "i"), bytes.fromhex(value["seed"])
        written = _KEYS_LINE % (index, seed.hex())
    except _MALFORMED:
        return None
    same = text == written or _same(value, json.loads(written), True)
    return (index, seed) if same and len(seed) == SEED_BYTES else None


def _store_entries(path: str):
    """(round index, line number, round seed) of each store entry, in file order; raises
    ReplayError unless the store is the header and ``keys`` lines the writer writes.  A
    line that is not the writer's text is decoded as JSON (``_read_key``)."""
    with open(path, "rb") as fh:
        number, header = _first(fh, _STORE_LIMIT)
        if header is None or not _same(header, _STORE_HEADER):
            raise ReplayError(f"trapdoor store has no format-{STORE_FORMAT} header")
        writers = _keys_pattern().fullmatch
        for numbers, texts in _chunks(fh, _STORE_LIMIT, number):
            for number, text in zip(numbers, texts):
                match = text is not None and writers(text)
                entry = (int(match[1]), bytes.fromhex(match[2])) if match else _read_key(text)
                if entry is None:
                    raise ReplayError(f"trapdoor store corrupt at line {number}")
                yield entry[0], number, entry[1]


def _hex_ints(texts) -> np.ndarray:
    """``int(text, 16)`` of each of ``texts``, or -1 where that fails or is no int64."""
    try:
        return np.array([-1 if text is None else int(text, 16) for text in texts], dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return np.array([_hex_ints([t])[0] if len(texts) > 1 else -1 for t in texts], np.int64)


def _replayed_block(etcf: EtcfParams, coins, question_h, generate, replies, marked,
                    wins) -> Block:
    """The Block of rounds read from their lines: ``coins`` (n, 4) the bits of each coin
    code, ``replies`` as ``Block.replies``, a side ``marked`` viol_<s>: true in violation,
    and ``wins`` each test round's flag."""
    block = Block(
        0, b"", coins[:, :2].astype(bool), coins[:, 2:].astype(bool), question_h, generate,
        DrawnKeys(etcf, np.zeros(0, dtype=bool), ()), replies,
    )
    violation = block.messages[-1]
    violation |= marked
    block.flags = np.where(block.tested, wins, _NA).astype(np.int8)
    return block


def _read_rounds(etcf: EtcfParams, values: list) -> tuple[list, Block, list[str]]:
    """A chunk of transcript lines, decoded: (heads, block, written).  Each line's head is
    (index, coin code), None unless it holds an index, bases and challenges; ``block``
    holds the values each line states, its flags the wins read; ``written`` is each line
    as the writer writes them.  A field that does not read is read as one the writer
    writes otherwise, so that only the writer's own line reads back to itself."""
    heads = []
    for value in values:
        try:
            heads.append((exact_int(value["i"], "i"), (
                _BASES.index(value["theta_a"]) + 2 * _BASES.index(value["theta_b"])
                + 4 * _CHALLENGES.index(value["ct_a"]) + 8 * _CHALLENGES.index(value["ct_b"])
            )))
        except _MALFORMED:
            heads.append(None)
    entries = [value if head else {} for value, head in zip(values, heads)]
    coins = np.array([head[1] if head else 0 for head in heads], dtype=np.intp)[:, None]
    coins = coins >> np.arange(4) & 1
    challenge_b = coins[:, 2:].astype(bool)
    # A sifted line holds no side, question, answer, herald, tag or win field, and the
    # writer writes none back: each is read only where the challenges match.
    rows = np.flatnonzero(challenge_b[:, 0] == challenge_b[:, 1])
    matched = [entries[i] for i in rows.tolist()]
    fields = [_hex_ints([entry.get(name) for entry in matched]) for name in ("c_a", "c_b")]
    fields += [  # z_<s> read after challenge a, d_<s> after b
        _hex_ints([entry.get(names[b]) for entry, b in zip(matched, challenge_b[rows, s].tolist())])
        for s, names in enumerate((("z_a", "d_a"), ("z_b", "d_b")))
    ]
    fields += [
        np.array([bit if type(bit) is int and 0 <= bit <= 1 else -1 for bit in bits], np.int64)
        for bits in ([entry.get(name) for entry in matched] for name in ("a", "h_a", "b", "h_b"))
    ]
    replies = tuple(np.full(len(entries), -1, dtype=np.int64) for _ in fields)
    for reply, field in zip(replies, fields):
        reply[rows] = field
    question_h, marked = (np.zeros((len(entries), 2), dtype=bool) for _ in range(2))
    question_h[rows] = np.array(
        [[e.get("x") == "H", e.get("y") == "H"] for e in matched], dtype=bool
    ).reshape(-1, 2)
    marked[rows] = np.array(
        [[e.get("viol_a") is True, e.get("viol_b") is True] for e in matched], dtype=bool
    ).reshape(-1, 2)
    generate = np.zeros(len(entries), dtype=bool)
    generate[rows] = [entry.get("tag") == "generate" for entry in matched]
    wins = np.full(len(entries), _NA, dtype=np.int8)
    wins[rows] = [_WINS.index(w) if w in _WINS else _NA for w in (e.get("win") for e in matched)]
    block = _replayed_block(etcf, coins, question_h, generate, replies, marked, wins)
    return heads, block, _round_lines(block, [head[0] if head else 0 for head in heads])


# Each value a test line's side fields hold, as ``_side_fields`` writes it with every
# field (``_EVERY_FIELD``), and the pattern of the values it stands for; and the bit that
# each of those values is read as, a C, an empty or an absent value as the reader says.
_EVERY_FIELD = 1 + 2 + 4 * 2 + 16 * 2 + 64  # responded, question H, answer 1, h 1, violation
_VALUES = {'"H"': f'"([{"".join(_BASES)}])"', "1": "([01])", "true": "(true)"}
_BITS = {"H": 1, "0": 0, "1": 1, "true": 1}


def _after_index(line: str) -> str:
    """The text of a round line after its index and the comma that ends it."""
    return line[len(_ROUND_PREFIX):].partition(",")[2]


@cache
def _round_texts(widths: tuple[int, int]) -> tuple:
    """(plain, heads, tails, tail_start): what replay needs to take a round line of keys
    of ``widths`` as the writer's own text, built from the writer's formats.  ``plain``
    holds the text after the index (``_after_index``) of every sifted and generation line
    the writer writes, each whole: a sifted line says win na, and a generation line, win
    na with a Bell code, adds only its questions.  ``heads`` maps the text after the index
    of each head the writer writes on a test line, win pass or fail, to its code (of
    ``_HEADS``).  ``tails[b]`` is the pattern of a test line's tail, from ``tail_start``
    on, for challenges both b if ``b`` and both a if not: each side's fields as
    ``_side_fields`` writes them with every field, each optional, then ``}``.  Its groups
    are each side's commitment, response, question, answer, h and violation mark; as
    challenge a writes no question, answer or h, its pattern has empty groups for them."""
    def written(shape):  # the writer's line of a round of ``shape``, after its index
        return _after_index(_line_format(widths, shape) % ((0,) * 5))

    plain, heads = set(), {}
    for code in range(len(_HEADS)):
        coins, generate, flag = code & 15, code >> 4 & 1, code >> 5
        matched = coins >> 2 & 1 == coins >> 3 & 1
        if not matched and not generate and flag == _NA:
            plain.add(written(code))
        elif generate and flag == _NA and _ROUND_TYPES[coins] == "bell":
            questions = [(2 * x) << 7 | (2 * y) << 14 for x in (0, 1) for y in (0, 1)]
            plain.update(written(code | pair) for pair in questions)
        elif matched and not generate and flag != _NA:
            heads[_after_index(_HEADS[code] % 0)] = code
    tails = []
    for challenge_b in (0, 1):
        pattern = ""
        for side in (0, 1):
            groups = []
            for field in _side_fields(widths, side, challenge_b, _EVERY_FIELD).split(', "')[1:]:
                name, value = field.split('": ')
                value = _VALUES.get(value) or re.sub(r"%0(\d+)x", r"([0-9a-f]{\1})", value)
                groups.append(f'(?:, "{re.escape(name)}": {value})?')
            if not challenge_b:  # no question, answer or h
                groups[2:2] = ["()"] * 3
            pattern += "".join(groups)
        tails.append(re.compile(pattern + "}"))
    return plain, heads, tails, _side_fields(widths, 0, 0, 0).partition("%")[0]


def _take_rounds(etcf: EtcfParams, texts: list, first: int, rounds: int) -> tuple | None:
    """A chunk's ``texts`` taken as the writer's own lines for rounds ``first``,
    ``first + 1``, ... below ``rounds``, a footer at most last: (read, rows, block, footer),
    the number of round lines, the rows of its test rounds, their Block (None if none) and
    the footer's object (None if none); None if any line is not that.  A line is taken
    only if it is the writer's text for the values read from it: a sifted or generation
    line and its index by their text, a test line by ``_round_lines`` of its values, so
    that only the footer is decoded as JSON."""
    plain, heads, tails, tail_start = _round_texts(key_widths(etcf))
    indices, rows, codes, fields = [], [], [], []
    for text in texts:
        if text is None or not text.startswith(_ROUND_PREFIX):
            break
        index, _, rest = text[len(_ROUND_PREFIX):].partition(",")
        if rest not in plain:
            start = rest.find(tail_start)
            code = heads.get(rest[:start]) if start > 0 else None
            match = code is not None and tails[code >> 2 & 1].fullmatch(rest, start)
            if not match:
                break
            rows.append(len(indices))
            codes.append(code)
            fields.append(match.groups())
        indices.append(index)
    read = len(indices)
    if read < len(texts) - 1 or first + read > rounds:
        return None
    if indices != list(map(str, range(first, first + read))):
        return None
    footer = _object(texts[-1]) if read < len(texts) else None
    if read < len(texts) and (footer is None or footer.get("record") != "footer"):
        return None
    block = None
    if rows:
        c_a, r_a, x, a, h_a, m_a, c_b, r_b, y, b, h_b, m_b = zip(*fields)

        def bits(values, default):
            return np.fromiter(map(_BITS.get, values, itertools.repeat(default)), np.int64)

        codes = np.array(codes)
        block = _replayed_block(
            etcf, codes[:, None] >> np.arange(4) & 1,
            np.stack([bits(x, 0), bits(y, 0)], axis=1).astype(bool),
            np.zeros(len(rows), dtype=bool),
            (*map(_hex_ints, (c_a, c_b, r_a, r_b)), *(bits(v, -1) for v in (a, h_a, b, h_b))),
            np.stack([bits(m_a, 0), bits(m_b, 0)], axis=1).astype(bool), codes >> 5,
        )
        if _round_lines(block, [first + row for row in rows]) != [texts[row] for row in rows]:
            return None
    return read, rows, block, footer


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


def _settle(etcf: EtcfParams, block: Block, rows, seeds: bytes, mismatches: list, start: int,
            fail_reasons: dict) -> None:
    """Score the test rounds ``rows`` of a chunk's ``block`` whose lines passed, on their
    keys drawn at once from ``seeds``; count each failure in ``fail_reasons`` and settle
    each round's placeholder among ``mismatches[start:]``, its (line number, index), to
    its ``verdict should be`` mismatch, or drop it.  The placeholders are in the rounds'
    order."""
    if not seeds:
        return
    hadamard = block.hadamard[rows]
    kernel = Block(0, b"", hadamard, block.challenge_b[rows], block.question_h[rows],
                   block.generate[rows], draw_keys(hadamard.ravel(), etcf, seeds), (),
                   tuple(message[rows] for message in block.messages))  # marks too
    scored, reasons = verdicts(kernel)
    counts = np.bincount(reasons[scored == _FAIL], minlength=len(REASONS))
    for reason, count in zip(REASONS, counts.tolist()):
        fail_reasons[reason] += count
    wrong = iter(np.where(scored != block.flags[rows], scored, -1).tolist())  # not its line's
    settled = []
    for item in mismatches[start:]:
        if type(item) is str:
            settled.append(item)
        elif (flag := next(wrong)) >= 0:
            settled.append(f"line {item[0]}: round {item[1]} verdict should be {_WINS[flag]}")
    mismatches[start:] = settled


# The footer's fields as its mismatch messages name them.
_FOOTER_LABELS = {
    "tested": "tested count", "failed": "failed count",
    "fail_fraction": "fail fraction", "aborted": "abort decision",
}


def _line_limit(widths: tuple[int, int], rounds: int) -> int:
    """The length in bytes that no line of a transcript of ``rounds`` rounds of keys of
    ``widths`` reaches, its newline not counted: ``_SLACK`` past the longest round line
    the writer writes, a test round's with every side field, which is also longer than
    any footer (about 100 bytes and the digits of its counts)."""
    every = _EVERY_FIELD << 7 | _EVERY_FIELD << 14
    return _SLACK + max(len(_line_format(widths, code | every) % (rounds, 0, 0, 0, 0))
                        for code in range(len(_HEADS)))


def replay_verify(transcript_path: str, trapdoor_store_path: str) -> ReplayReport:
    """Recompute every round verdict and the abort decision from the files alone.

    Both files are read once, in round order, a chunk of ``REPLAY_CHUNK`` lines
    at a time, each line only up to a limit past the longest line the writer
    writes there (a longer round line is a corrupt record).  A chunk is first read
    as the writer's own text (``_take_rounds``): if its lines are the writer's
    lines for the rounds due, below ``rounds`` and before any footer, a footer at
    most last, it can show a mismatch only in the store, and only its test
    rounds, each taking its store entry, and its last round, which reads the
    store up to the chunk's end, are visited.  Any other chunk is decoded as
    JSON line by line and checked by one loop at every line, in order.  A test
    round whose line passes holds its place among the mismatches until its chunk
    is read; then the chunk's keys are drawn at once, ``protocol.verdicts`` scores
    its test rounds, and each place becomes its ``verdict should be`` mismatch or
    is dropped.  So replay holds one chunk of lines at a time.  A round line the
    writer would not write for the values read from it yields a mismatch naming
    the line, and so does a round index that is not the next of
    ``0..rounds-1``, a test round whose store entry is missing or out of order,
    a store entry no test round takes, and any line after the footer; rounds
    missing at the end, and any footer but the one written from the recomputed
    counts, are footer mismatches.  A missing footer (a truncated transcript)
    raises ReplayError naming the last good line; so do a header the writer
    would not write, a store without its header and a corrupt trapdoor-store
    entry.  The ETCF family and its sizes are read once, from the transcript
    header.
    """
    with open(transcript_path, "rb") as fh:
        return _replay(fh, trapdoor_store_path)


def _replay(fh, trapdoor_store_path: str) -> ReplayReport:
    """``replay_verify`` of the transcript open as ``fh``."""
    number, header = _first(fh, _HEADER_LIMIT)
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
    store = _StoreCursor(_store_entries(trapdoor_store_path), rounds, mismatches)
    tested = 0
    fail_reasons = dict.fromkeys(REASONS, 0)
    footer = None
    last_good = 1
    next_index = 0  # a corrupt round line is taken to hold the index due there
    for numbers, texts in _chunks(fh, _line_limit(key_widths(etcf), rounds), number):
        start = len(mismatches)  # the chunk's placeholders are among mismatches[start:]
        rows, seeds = [], bytearray()  # the chunk's test rounds to score, and their seeds
        taken = None if footer is not None else _take_rounds(etcf, texts, next_index, rounds)
        if taken is not None:  # the writer's lines for the rounds due: only the store can differ
            read, tests, block, footer = taken
            for k, row in enumerate(tests):
                index = next_index + row
                store.reach(index, index)
                seed = store.take(index)
                if seed is None:
                    mismatches.append(
                        f"line {numbers[row]}: round {index} has no key material in the store"
                    )
                    continue
                tested += 1
                mismatches.append((numbers[row], index))  # a placeholder for its verdict
                rows.append(k)
                seeds += seed
            next_index += read
            if read and tests[-1:] != [read - 1]:  # the store up to the chunk's last round
                store.reach(next_index - 1, next_index - 1)
            last_good = numbers[-1]
            _settle(etcf, block, rows, seeds, mismatches, start, fail_reasons)
            del numbers, texts, taken, block  # the next chunk is read holding none
            continue
        entries = [_object(text) for text in texts]
        heads, block, written = _read_rounds(etcf, entries)
        for row, (number, text, entry, head) in enumerate(zip(numbers, texts, entries, heads)):
            if footer is not None:  # the footer is the last line
                what = "corrupt record" if entry is None else "record after the footer"
                mismatches.append(f"line {number}: {what}")
                continue
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
            if head is None:  # its index, bases or challenges do not read
                mismatches.append(f"line {number}: corrupt record")
                next_index += 1
                continue
            index, code = head
            store.reach(index, next_index)
            if not 0 <= index < rounds:
                mismatches.append(f"line {number}: round index {index} is outside 0..{rounds - 1}")
            elif index != next_index:
                mismatches.append(f"line {number}: round index {index} should be {next_index}")
            next_index = index + 1
            round_type = _ROUND_TYPES[code]
            if round_type != entry.get("rt"):
                mismatches.append(f"line {number}: round {index} type should be {round_type}")
                continue
            tag = entry.get("tag")
            if tag != "test" and (tag != "generate" or round_type != "bell"):
                # Only Bell rounds are ever drawn for key generation.
                mismatches.append(f"line {number}: round {index} tag should be test")
                continue
            if block.tested[row]:  # only a test round has key material
                seed = store.take(index)
                if seed is None:
                    mismatches.append(
                        f"line {number}: round {index} has no key material in the store"
                    )
                    continue
                tested += 1
            if text != written[row] and not _same(entry, json.loads(written[row]), True):
                mismatches.append(f"line {number}: corrupt record")
            elif block.tested[row]:
                mismatches.append((number, index))  # a placeholder for its verdict's mismatch
                rows.append(row)
                seeds += seed
        _settle(etcf, block, rows, seeds, mismatches, start, fail_reasons)
        del numbers, texts, entries, heads, block, written  # the next chunk is read holding none

    if footer is None:
        raise ReplayError(f"transcript truncated: no footer after line {last_good}")
    store.reach(math.inf, next_index)  # the entries after the last test round
    if next_index < rounds:
        mismatches.append(f"footer: rounds {next_index}..{rounds - 1} are missing")
    failed = sum(fail_reasons.values())
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
        fail_reasons=fail_reasons,
    )
