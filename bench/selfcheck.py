"""Show that the benchmark's correctness checks fire on broken outputs.

Usage, from the repository root:

    python3 bench/selfcheck.py

Each case breaks one output (a tampered transcript line, a flipped key bit,
a rerun that is not deterministic, ...) and requires the matching check to
report a problem; the untouched outputs must pass.  Exits 1 if any check
stays silent or any untouched output fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from cdiqkd import harness  # noqa: E402


def _flip(bits, position=0):
    bits = bits.copy()
    bits[position] ^= 1
    return bits


def _tamper_transcript(path: str) -> None:
    """Turn the first passing test round of a transcript into a failing one."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    for line in lines:
        if line.get("tag") == "test" and line.get("win") == "pass":
            line["win"] = "fail"
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


def main() -> int:
    cases = []  # (description, problems, should_fire)
    with tempfile.TemporaryDirectory() as tmp:
        config = workloads.session_config("ideal-honest-audit", 1, 0, tmp, rounds=1024)
        honest = harness.run_experiment(config)
        store = config.transcript + ".keys"
        cases.append(("untouched transcript replays",
                      workloads.check_replay(harness.replay_verify(config.transcript, store),
                                             honest.session), False))
        _tamper_transcript(config.transcript)
        cases.append(("tampered transcript verdict",
                      workloads.check_replay(harness.replay_verify(config.transcript, store),
                                             honest.session), True))

        session = dataclasses.replace(honest.session, raw_key_b=_flip(honest.session.raw_key_b))
        cases.append(("flipped raw-key bit",
                      workloads.check_honest_audit(dataclasses.replace(honest, session=session)),
                      True))
        cases.append(("honest device passed as a cheater",
                      workloads.check_cheater_abort(honest), True))

        cheater = harness.run_experiment(
            workloads.session_config("ideal-cheater-abort", 1, 0, None, rounds=512))
        cases.append(("untouched cheater session", workloads.check_cheater_abort(cheater), False))
        cases.append(("cheater passed as an honest lattice session",
                      workloads.check_lattice_noisy(cheater), True))

        real_run = harness.run_experiment
        reruns = iter(range(1, 3))

        def drifting_run(cfg):
            return real_run(dataclasses.replace(cfg, seed=cfg.seed + next(reruns)))

        harness.run_experiment = drifting_run
        try:
            cases.append(("rerun with a drifting seed",
                          workloads.session_determinism("ideal-cheater-abort", 1, tmp), True))
        finally:
            harness.run_experiment = real_run
        cases.append(("untouched rerun",
                      workloads.session_determinism("ideal-cheater-abort", 1, tmp), False))

    inp = workloads.distill_input(1, 0, 0)
    out = workloads.distill(inp)
    cases.append(("untouched distillation", workloads.check_distill(inp, out), False))
    flipped = dataclasses.replace(out, final_b=_flip(out.final_b))
    cases.append(("flipped final-key bit", workloads.check_distill(inp, flipped), True))
    two_flips = dataclasses.replace(inp, key_b=_flip(_flip(inp.key_a, 0), 1))
    cases.append(("two flips in one 7-bit block",
                  workloads.check_distill(two_flips, workloads.distill(two_flips)), True))

    wrong = 0
    for description, problems, should_fire in cases:
        ok = bool(problems) == should_fire
        wrong += not ok
        verdict = ("fired" if problems else "silent") + ("" if ok else "  <-- WRONG")
        print(f"{description}: {verdict} {problems[:1]}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
