"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Every input is derived from the workload seed; the program only ever sees
the generated configs and key pairs.  Each check returns a list of problems,
empty when the operation's outputs are correct.  The reason each workload
exists is recorded beside its name in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from cdiqkd import harness, postprocess
from cdiqkd.config import ExperimentConfig

EPS_SEC = 2.0**-32
# Reference copy kept apart from the traced lookup, so checks add no spans.
_final_length = postprocess.final_length


@dataclass(frozen=True)
class SessionSpec:
    etcf: str
    device: str
    rounds: int
    files: bool  # write transcript, trapdoor store and summary, then replay
    check_rounds: int  # session length of the in-run determinism check


# 40960 ideal rounds give about 320 raw bits; hamming74 with eps_sec = 2^-32
# needs about 226 for a non-empty final key, so an empty key is a 5-sigma event.
SESSIONS = {
    "ideal-honest-audit": SessionSpec("ideal", "honest", 40960, True, 1024),
    "lattice-noisy": SessionSpec("toy-lattice", "noisy:0.01:0.0", 2048, False, 256),
    "ideal-cheater-abort": SessionSpec("ideal", "classical-random", 8192, False, 1024),
}
# Raw-key lengths of one distill-bulk pass: about 2.6e5 to 2.1e6 session rounds.
# The dense Toeplitz product of the longest needs about 0.3 GB.
DISTILL_LENGTHS = (2048, 4096, 8192, 16384)
# Op index of the in-run determinism checks, apart from the timed ops' indices.
CHECK_INDEX = 2**32
# Share of 7-bit blocks of Bob's key that carry exactly one flip (about 1% of bits).
BLOCK_FLIP_PROB = 0.07

WORKLOADS = (*SESSIONS, "distill-bulk")


def _child_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


def session_config(workload: str, seed: int, index: int, out_dir: str | None,
                   rounds: int | None = None) -> ExperimentConfig:
    spec = SESSIONS[workload]
    files = {}
    if spec.files and out_dir is not None:
        files = {
            "transcript": os.path.join(out_dir, f"t{index}.jsonl"),
            "summary": os.path.join(out_dir, f"s{index}.json"),
        }
    return ExperimentConfig(
        rounds=rounds or spec.rounds,
        etcf=spec.etcf,
        device=spec.device,
        epsilon=0.05,
        eps_sec=EPS_SEC,
        recon="hamming74",
        seed=_child_seed(seed, WORKLOADS.index(workload), index),
        **files,
    )


@dataclass
class OpResult:
    """Timed outcome of one benchmark operation (a session, or one distillation)."""

    work: int  # rounds, or raw-key bits
    seconds: float  # session time, or distillation time
    problems: list[str] = field(default_factory=list)
    audit_seconds: float = 0.0  # replay time, on ideal-honest-audit
    attempted: int = 1  # operations: a session, a replay or a distillation
    failed: int = 0
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Session workloads
# ---------------------------------------------------------------------------


def run_session_op(workload: str, seed: int, index: int, out_dir: str) -> OpResult:
    config = session_config(workload, seed, index, out_dir)
    peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    outcome = harness.run_experiment(config)
    seconds = time.perf_counter() - start
    peak_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    session = outcome.session
    result = OpResult(work=config.rounds, seconds=seconds,
                      problems=CHECKS[workload](outcome))
    result.failed = int(bool(result.problems))
    if config.transcript:
        store = config.transcript + ".keys"
        start = time.perf_counter()
        report = harness.replay_verify(config.transcript, store)
        result.audit_seconds = time.perf_counter() - start
        replay_problems = check_replay(report, session)
        result.problems += replay_problems
        result.attempted = 2
        result.failed += int(bool(replay_problems))
        result.stats["transcript_bytes"] = os.path.getsize(config.transcript)
        result.stats["store_bytes"] = os.path.getsize(store)
        for path in (config.transcript, store, config.summary):
            os.remove(path)
    recon = outcome.summary["reconciliation"] or {}
    result.stats.update(
        rounds=session.rounds,
        tested=session.tested_count,
        failed=session.failed_count,
        sifted=session.sifted_count,
        raw_bits=int(len(session.raw_key_a)),
        final_bits=int(len(outcome.final_key_a)),
        leak_bits=int(recon.get("leak_bits", 0)),
        peak_growth_bytes=(peak_after - peak_before) * 1024,  # ru_maxrss is in KiB
    )
    return result


def check_honest_audit(outcome) -> list[str]:
    problems = []
    session = outcome.session
    if session.aborted or session.fail_fraction != 0:
        problems.append(f"honest session aborted={session.aborted} "
                        f"fail_fraction={session.fail_fraction}")
    if not np.array_equal(session.raw_key_a, session.raw_key_b):
        problems.append("raw keys differ")
    final_a, final_b = outcome.final_key_a, outcome.final_key_b
    if not np.array_equal(final_a, final_b):
        problems.append("final keys differ")
    if len(final_a) == 0:
        problems.append("final key is empty")
    summary = outcome.summary
    recon = summary["reconciliation"] or {}
    expected = _final_length(
        len(session.raw_key_a),
        min(summary["qber_estimate"], 0.4999999),
        recon.get("leak_bits", 0),
        EPS_SEC,
    )
    if len(final_a) != expected:
        problems.append(f"final key length {len(final_a)} != accounted {expected}")
    if outcome.exit_code != harness.EXIT_KEY_PRODUCED:
        problems.append(f"exit code {outcome.exit_code} != {harness.EXIT_KEY_PRODUCED}")
    return problems


def check_replay(report, session) -> list[str]:
    if report.verdict != "match":
        return [f"replay verdict {report.verdict}: {report.mismatches[:3]}"]
    if report.rounds_checked != session.tested_count:
        return [f"replay checked {report.rounds_checked} rounds, "
                f"session tested {session.tested_count}"]
    return []


def check_lattice_noisy(outcome) -> list[str]:
    problems = []
    if outcome.session.aborted:
        problems.append(f"noisy lattice session aborted at fail_fraction "
                        f"{outcome.session.fail_fraction}")
    if outcome.summary["verified"] and not np.array_equal(outcome.final_key_a,
                                                          outcome.final_key_b):
        problems.append("verified session but final keys differ")
    return problems


def check_cheater_abort(outcome) -> list[str]:
    problems = []
    if not outcome.session.aborted:
        problems.append("cheating device was not caught")
    if outcome.exit_code != harness.EXIT_ABORTED:
        problems.append(f"exit code {outcome.exit_code} != {harness.EXIT_ABORTED}")
    keys = (outcome.session.raw_key_a, outcome.session.raw_key_b,
            outcome.final_key_a, outcome.final_key_b)
    if any(len(key) for key in keys):
        problems.append("aborted session produced key bits")
    return problems


CHECKS = {
    "ideal-honest-audit": check_honest_audit,
    "lattice-noisy": check_lattice_noisy,
    "ideal-cheater-abort": check_cheater_abort,
}


def session_determinism(workload: str, seed: int, out_dir: str) -> list[str]:
    """Run one config and seed twice; summary (and any output files) must match byte for byte."""
    outputs = []
    for _ in range(2):
        config = session_config(workload, seed, CHECK_INDEX, out_dir,
                                SESSIONS[workload].check_rounds)
        config.summary = os.path.join(out_dir, "determinism-summary.json")
        harness.run_experiment(config)
        paths = [config.summary]
        if config.transcript:
            paths += [config.transcript, config.transcript + ".keys"]
        blobs = []
        for path in paths:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
            os.remove(path)
        outputs.append(blobs)
    if outputs[0] != outputs[1]:
        return ["rerun of one config and seed is not byte-identical"]
    return []


# ---------------------------------------------------------------------------
# distill-bulk
# ---------------------------------------------------------------------------


@dataclass
class DistillInput:
    key_a: np.ndarray
    key_b: np.ndarray
    qber: float
    rng_seed: int


def distill_input(seed: int, pass_index: int, slot: int) -> DistillInput:
    """Alice's uniform key and Bob's copy with at most one flip per 7-bit block."""
    rng = np.random.default_rng(
        _child_seed(seed, WORKLOADS.index("distill-bulk"), pass_index, slot))
    n = DISTILL_LENGTHS[slot] + int(rng.integers(0, 64))
    key_a = rng.integers(0, 2, size=n, dtype=np.uint8)
    key_b = key_a.copy()
    blocks = -(-n // 7)
    hit = rng.random(blocks) < BLOCK_FLIP_PROB
    positions = np.flatnonzero(hit) * 7 + rng.integers(0, 7, size=blocks)[hit]
    positions = positions[positions < n]
    key_b[positions] ^= 1
    return DistillInput(key_a, key_b, len(positions) / n, int(rng.integers(2**63)))


@dataclass
class Distilled:
    recon: postprocess.ReconciliationResult
    n_final: int
    final_a: np.ndarray
    final_b: np.ndarray


def distill(inp: DistillInput) -> Distilled:
    """One-way reconciliation, final-length accounting and amplification of both keys.

    The program is called through the module attributes so that the traced
    run's shims see these calls.
    """
    rng = np.random.Generator(np.random.PCG64(inp.rng_seed))
    recon = postprocess.reconcile(inp.key_a, inp.key_b, "hamming74", rng)
    n_final = postprocess.final_length(len(inp.key_a), inp.qber, recon.leak_bits, EPS_SEC)
    pa_seed = rng.integers(0, 2, size=len(inp.key_a) + n_final - 1, dtype=np.uint8)
    spec = postprocess.PaSpec(seed=pa_seed, input_len=len(inp.key_a), output_len=n_final)
    final_a = postprocess.privacy_amplify(inp.key_a, spec)
    final_b = postprocess.privacy_amplify(recon.corrected_key_b, spec)
    return Distilled(recon, n_final, final_a, final_b)


def check_distill(inp: DistillInput, out: Distilled) -> list[str]:
    problems = []
    if not out.recon.verified:
        problems.append("reconciliation did not verify")
    if not np.array_equal(out.recon.corrected_key_b, inp.key_a):
        problems.append("corrected key differs from Alice's key")
    if not np.array_equal(out.final_a, out.final_b):
        problems.append("final keys differ")
    n = len(inp.key_a)
    expected = _final_length(n, inp.qber, 3 * -(-n // 7) + postprocess.VERIFY_HASH_BITS, EPS_SEC)
    if out.n_final != expected or len(out.final_a) != expected or expected == 0:
        problems.append(f"final key length {len(out.final_a)} (n_final {out.n_final}) "
                        f"!= accounted {expected}")
    return problems


def run_distill_op(seed: int, pass_index: int, slot: int) -> OpResult:
    inp = distill_input(seed, pass_index, slot)
    start = time.perf_counter()
    out = distill(inp)
    seconds = time.perf_counter() - start
    problems = check_distill(inp, out)
    return OpResult(
        work=len(inp.key_a),
        seconds=seconds,
        problems=problems,
        failed=int(bool(problems)),
        stats={"raw_bits": len(inp.key_a), "final_bits": len(out.final_a),
               "leak_bits": out.recon.leak_bits},
    )


def distill_determinism(seed: int) -> list[str]:
    inp = distill_input(seed, CHECK_INDEX, 0)
    runs = []
    for _ in range(2):
        out = distill(inp)
        runs.append(json.dumps([
            out.recon.syndromes.tobytes().hex(), out.recon.hash_a.tobytes().hex(),
            out.recon.hash_b.tobytes().hex(), out.final_a.tobytes().hex(),
            out.final_b.tobytes().hex(),
        ]))
    return [] if runs[0] == runs[1] else ["rerun of one distillation is not byte-identical"]
