"""End-to-end experiment files and the replay audit.

An experiment writes three artifacts: a transcript (one line per round,
published data only), a trapdoor store (the verifiers' key material for
test rounds, enough to recompute every check), and a summary document.
The replay auditor recomputes every verdict and the abort decision from
those files alone, so tampering with anything a check reads is caught and
localized.
"""

import json
import tempfile
from pathlib import Path

from cdiqkd.config import ExperimentConfig
from cdiqkd.harness import replay_verify, run_experiment

workdir = Path(tempfile.mkdtemp(prefix="cdiqkd_demo_"))
transcript = workdir / "transcript.jsonl"
summary = workdir / "summary.json"

config = ExperimentConfig.from_dict(
    {
        "rounds": 4096,
        "epsilon": 0.05,
        "device": "noisy:0.02:0.0",
        "recon": "hamming74",
        "seed": 12,
        "transcript": str(transcript),
        "summary": str(summary),
    }
)
outcome = run_experiment(config)
print(f"experiment finished with exit code {outcome.exit_code}")
print(f"files in {workdir}:")
for path in sorted(workdir.iterdir()):
    print(f"  {path.name}: {path.stat().st_size} bytes")
print()

lines = transcript.read_text().splitlines()
print("transcript head:")
for line in lines[:4]:
    print(f"  {line[:110]}..." if len(line) > 110 else f"  {line}")
print(f"  ... {len(lines)} lines total")
print()

report = replay_verify(str(transcript), str(transcript) + ".keys")
print(f"replay verdict on the untouched transcript: {report.verdict}")
print(f"test rounds re-checked: {report.rounds_checked}")
print()

# Flip one published answer bit of a Bell test round with equal questions,
# whose parity check reads both answers, and audit again.
tampered = workdir / "tampered.jsonl"
for index, line in enumerate(lines):
    entry = json.loads(line)
    if (entry.get("rt") == "bell" and entry.get("tag") == "test" and "a" in entry
            and entry["x"] == entry["y"]):
        entry["a"] ^= 1
        lines[index] = json.dumps(entry)
        print(f"flipping Alice's answer in round {entry['i']}")
        break
tampered.write_text("\n".join(lines) + "\n")
report = replay_verify(str(tampered), str(transcript) + ".keys")
print(f"replay verdict after tampering: {report.verdict}")
for message in report.mismatches:
    print(f"  {message}")
