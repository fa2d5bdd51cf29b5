"""Benchmark of the cdiqkd simulator: sessions, cheater aborts, audit and key distillation.

Usage, from the repository root:

    python3 bench/run.py --workload ideal-honest-audit --seed 1 --seconds 20 --trace 0

The workloads, the reason for each, and every metric's unit are listed in
BENCHMARK.json.  A run repeats timed units (one session, or one pass over
the distill-bulk key lengths) until the next would end past ``--seconds``,
checks every output, then runs one in-run determinism check.  The last
stdout line is a JSON object; lines before it give the workload's own rates
as measured (``rounds_per_s``, ``audit_rounds_per_s``, ``distill_bits_per_s``)
and ``failed_frac``, failed operations over those attempted.

With ``--trace 0`` the JSON carries the end-to-end metrics:

- ``work_per_s``: median over the units of work per second: protocol rounds
  through ``run_experiment`` (on ideal-honest-audit through ``run_experiment``
  and the replay of its transcript together), or raw-key bits through
  distillation on distill-bulk, scaled to a reference host speed (see
  hostspeed.py).
- ``setup_s``: median, over this process and SETUP_PROBES fresh interpreters,
  of the time from before ``import cdiqkd`` until the first unit can start,
  scaled the same way.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced units alternate, the JSON carries the
per-layer metrics (see ``layer_metrics``) and the spans go to ``bench/out/``.

Load is one process on one thread; the set-up probes run one after another.
Seeds 1 to 20 were used to tune and prove the benchmark; seed 20261017 is held out
for checking later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS and OpenMP thread, set before numpy loads; the set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("ideal-honest-audit", "lattice-noisy", "ideal-cheater-abort", "distill-bulk")
# Fresh interpreters that repeat the set-up, on top of the measuring process.
SETUP_PROBES = 6
# Untraced units a run makes even past its window: one 41k-round audit unit
# takes 10 to 17 s, and a single unit is too few for a median.
MIN_UNITS = 2


# numpy, cdiqkd and the modules beside this one that load them are imported
# inside functions: setup() has to time their first import.


def setup(workload: str) -> float:
    """Seconds from before ``import cdiqkd`` until the first operation can start."""
    start = time.perf_counter()
    import workloads
    from cdiqkd.devices import make_device

    if workload in workloads.SESSIONS:
        config = workloads.session_config(workload, 0, 0, None)
        config.validate()
        make_device(config.device)
    return time.perf_counter() - start


def scaled_setup(workload: str) -> tuple[float, float]:
    """Set-up time as measured, and scaled to the reference host speed (see hostspeed.py)."""
    seconds = setup(workload)
    import hostspeed

    return seconds, seconds / hostspeed.Gauge("session").slowness_now()


def probe_setup(workload: str) -> tuple[float, float]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, scaled = done.stdout.split()[-2:]
    return float(seconds), float(scaled)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def guarded(fn, *args):
    import workloads

    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc()
        return workloads.OpResult(work=0, seconds=0.0, problems=[f"raised {exc!r}"], failed=1)


def run_unit(workload: str, seed: int, index: int, tmp: str) -> list:
    """One timed unit: a session (and its replay), or a pass over the distill lengths."""
    import workloads

    if workload in workloads.SESSIONS:
        return [guarded(workloads.run_session_op, workload, seed, index, tmp)]
    return [guarded(workloads.run_distill_op, seed, index, slot)
            for slot in range(len(workloads.DISTILL_LENGTHS))]


@dataclass
class Unit:
    ops: list
    slowness: float  # host slowness while the unit ran, from hostspeed.Gauge

    def rate(self, op_seconds=lambda op: op.seconds + op.audit_seconds) -> float:
        """Work per second at the reference host speed; as measured with ``slowness`` 1."""
        seconds = sum(op_seconds(op) for op in self.ops) / self.slowness
        return sum(op.work for op in self.ops) / seconds if seconds > 0 else 0.0


def run_units(workload: str, seed: int, seconds: float, tmp: str, tracer):
    """Run units until the next would end past the window, and at least MIN_UNITS untraced ones.

    The host-speed gauge samples each unit (see hostspeed.py).  In the
    traced run, untraced and traced units alternate so that both see the
    same host conditions.
    """
    import hostspeed

    gauge = hostspeed.Gauge("distill" if workload == "distill-bulk" else "session")

    def timed_unit(index: int) -> Unit:
        return Unit(*gauge.run(run_unit, workload, seed, index, tmp))

    deadline = time.perf_counter() + seconds
    untraced, traced, walls = [], [], []
    while True:
        index = len(untraced) + len(traced)
        start = time.perf_counter()
        if tracer is not None and index % 2 == 1:
            tracer.op_id = index
            restore = tracer.install()
            try:
                traced.append(timed_unit(index))
            finally:
                restore()
        else:
            untraced.append(timed_unit(index))
        walls.append(time.perf_counter() - start)
        have_all = len(untraced) >= MIN_UNITS and (tracer is None or traced)
        if have_all and time.perf_counter() + statistics.median(walls) > deadline:
            return untraced, traced


def determinism(workload: str, seed: int, tmp: str) -> list[str]:
    import workloads

    try:
        if workload in workloads.SESSIONS:
            return workloads.session_determinism(workload, seed, tmp)
        return workloads.distill_determinism(seed)
    except Exception as exc:
        traceback.print_exc()
        return [f"determinism check raised {exc!r}"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def workload_rates(workload: str, units: list) -> dict[str, float]:
    """The workload's own rates as measured, by the names a user of the simulator knows."""
    def median_rate(op_seconds) -> float:
        return statistics.median(Unit(u.ops, 1.0).rate(op_seconds) for u in units)

    if workload == "distill-bulk":
        return {"distill_bits_per_s": median_rate(lambda op: op.seconds)}
    rates = {"rounds_per_s": median_rate(lambda op: op.seconds)}
    if workload == "ideal-honest-audit":
        rates["audit_rounds_per_s"] = median_rate(lambda op: op.audit_seconds)
    return rates


def layer_metrics(tracer, traced: list, untraced: list) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced units, and lines that explain them.

    ``*_us`` figures are microseconds per protocol round, ``*_calls`` and
    ``quantum.calls_per_round`` calls per round, ``*_s`` seconds per
    operation (session or distillation), and counts are per operation;
    ``keyrate.report_us`` is per call.  Layers a workload never enters read 0.
    """
    spans = tracer.totals()
    ops = [op for unit in traced for op in unit.ops]
    n_ops = len(ops) or 1
    rounds = sum(op.stats.get("rounds", 0) for op in ops)

    def per_round(value: float) -> float:
        return value / rounds if rounds else 0.0

    def per_op(key: str) -> float:
        return sum(op.stats.get(key, 0) for op in ops) / n_ops

    def us(ns: float) -> float:
        return per_round(ns / 1e3)

    def s(name: str) -> float:
        return spans.total_ns(name) / 1e9 / n_ops

    first = untraced[0].ops[0]
    quantum_calls, quantum_ns = spans.prefix("quantum.")
    report_calls = spans.calls("keyrate.session_rate_report")
    metrics = {
        "protocol.self_us_per_round": us(spans.self_ns("protocol.run_session")),
        "protocol.run_session_us": us(spans.total_ns("protocol.run_session")),
        "protocol.win_condition_us": us(spans.total_ns("protocol.win_condition")),
        "protocol.win_condition_calls": per_round(spans.calls("protocol.win_condition")),
        "protocol.tested": per_op("tested"),
        "protocol.failed": per_op("failed"),
        "protocol.useful_ratio": per_round(sum(op.stats.get("raw_bits", 0) for op in ops)),
        "protocol.sift_ratio": per_round(sum(op.stats.get("sifted", 0) for op in ops)),
        "protocol.retained_bytes_per_round": (
            first.stats["peak_growth_bytes"] / first.stats["rounds"]
            if first.stats.get("rounds") else 0.0
        ),
        "etcf.keygen_calls": per_round(spans.calls("etcf.keygen")),
        "etcf.keygen_us": us(spans.total_ns("etcf.keygen")),
        "etcf.invert_calls": per_round(spans.calls("etcf.invert")),
        "etcf.invert_us": us(spans.total_ns("etcf.invert")),
        "etcf.check_preimage_us": us(spans.total_ns("etcf.check_preimage")),
        "etcf.claw_partner_us": us(spans.total_ns("etcf.claw_partner")),
        "devices.on_keys_us": us(spans.self_ns("devices.on_keys")),
        "devices.on_challenges_us": us(spans.self_ns("devices.on_challenges")),
        "devices.on_questions_us": us(spans.self_ns("devices.on_questions")),
        "quantum.calls_per_round": per_round(quantum_calls),
        "quantum.us_per_round": us(quantum_ns),
        "postprocess.reconcile_s": s("postprocess.reconcile"),
        "postprocess.privacy_amplify_s": s("postprocess.privacy_amplify"),
        "postprocess.input_bits": per_op("raw_bits"),
        "postprocess.output_bits": per_op("final_bits"),
        "postprocess.leak_bits": per_op("leak_bits"),
        "keyrate.report_us": (spans.total_ns("keyrate.session_rate_report") / 1e3 / report_calls
                              if report_calls else 0.0),
        "harness.write_transcript_s": s("harness.write_transcript"),
        "harness.write_store_s": s("harness.write_trapdoor_store"),
        "harness.transcript_bytes_per_round": per_round(
            sum(op.stats.get("transcript_bytes", 0) for op in ops)),
        "harness.store_bytes_per_round": per_round(
            sum(op.stats.get("store_bytes", 0) for op in ops)),
        "harness.replay_s": s("harness.replay_verify"),
        "harness.qber_s": s("harness.bell_test_qber"),
        "trace.overhead_frac": (statistics.median(u.rate() for u in untraced)
                                / statistics.median(u.rate() for u in traced) - 1.0),
    }
    notes = ["note: stream derivation (SeedSequence.spawn, PCG64) is visible only inside "
             "protocol.self_us_per_round until the program records its own spans"]
    if rounds:
        children = spans.session_children_ns()
        parts = " + ".join(f"{name} {us(ns):.2f}" for name, ns in sorted(children.items()))
        accounted = us(spans.self_ns("protocol.run_session") + sum(children.values()))
        notes.append(f"run_session us/round: self {metrics['protocol.self_us_per_round']:.2f}"
                     f" + {parts} = {accounted:.2f} of {metrics['protocol.run_session_us']:.2f}"
                     " measured")
    return metrics, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def declared_units(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cdiqkd" / "__init__.py").is_file():
        print(f"cdiqkd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(*scaled_setup(args.setup_probe))
        return 0
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload, a seed >= 0 and seconds > 0 are required")

    setups = [scaled_setup(args.workload)]
    import cdiqkd

    if SRC.resolve() not in Path(cdiqkd.__file__).resolve().parents:
        print(f"cdiqkd was imported from {cdiqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        untraced, traced = run_units(args.workload, args.seed, args.seconds, tmp, tracer)
        determinism_problems = determinism(args.workload, args.seed, tmp)

    ops = [op for unit in untraced + traced for op in unit.ops]
    attempted = sum(op.attempted for op in ops) + 1
    failed = sum(op.failed for op in ops) + int(bool(determinism_problems))
    for problem in [p for op in ops for p in op.problems] + determinism_problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced units, {attempted} operations")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print("as measured, before host-speed scaling:")
    for name, value in workload_rates(args.workload, untraced).items():
        print(f"  {name} {value:.6g} 1/s")
    print(f"  setup_s {statistics.median(seconds for seconds, _ in setups):.6g} s")

    if tracer is None:
        section = "end_to_end"
        metrics = {
            "work_per_s": statistics.median(u.rate() for u in untraced),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        section = "per_layer"
        metrics, notes = layer_metrics(tracer, traced, untraced)
        for line in notes:
            print(line)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(str(path))
        print(f"spans written to {path.relative_to(ROOT)}")
    units = declared_units(section)
    if set(units) != set(metrics):
        print(f"metrics {sorted(set(units) ^ set(metrics))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
