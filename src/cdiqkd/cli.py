"""Command line front end.

Run mode executes a seeded experiment and writes transcript/summary files;
replay mode audits an existing transcript against its trapdoor store and
takes no run flag (``--trapdoors`` alone names the store).
Exit codes: 0 = key produced (or replay match), 2 = aborted / unverified /
replay mismatch, 1 = usage, configuration or output-file error.  A run that
aborts also prints its failed test rounds by reason on one stderr line, and
so does a replay whose recomputed test rounds fail.
"""

from __future__ import annotations

import argparse
import sys

from .config import FIELD_TYPES, ConfigError, ExperimentConfig, read_config_file, store_path
from .harness import (
    EXIT_ABORTED, EXIT_KEY_PRODUCED, EXIT_USAGE, ReplayError, replay_verify, run_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it and exits 1, where argparse exits 2
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; a usage error raises argparse.ArgumentError."""
    parser = _Parser(
        prog="cdiqkd",
        description="Seeded simulator for device-independent QKD under computational assumptions",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument(
        "--replay",
        metavar="TRANSCRIPT",
        help="audit a transcript instead of running; takes no other flag but --trapdoors, "
        "the store's path (default: TRANSCRIPT.keys)",
    )
    for name, kind in FIELD_TYPES.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind, dest=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run_flags = [f"--{name.replace('_', '-')}" for name in ("config", *FIELD_TYPES)
                     if name != "trapdoors" and getattr(args, name) is not None]
        if args.replay is not None and run_flags:
            parser.error(f"--replay takes no run flag: {' '.join(run_flags)}")
    except argparse.ArgumentError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.replay is not None:
        try:
            report = replay_verify(args.replay, store_path(args.replay, args.trapdoors))
        except (ReplayError, OSError) as exc:
            print(f"replay error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"replay verdict: {report.verdict} ({report.rounds_checked} test rounds checked)")
        for message in report.mismatches[:20]:
            print(f"  {message}")
        if len(report.mismatches) > 20:
            print(f"  ... and {len(report.mismatches) - 20} more")
        if any(report.fail_reasons.values()):
            reasons = (f"{name}={count}" for name, count in report.fail_reasons.items())
            print("replay reasons:", *reasons, file=sys.stderr)
        return EXIT_KEY_PRODUCED if report.match else EXIT_ABORTED

    try:
        # The flags override the file's values, and the result is validated once.
        data = read_config_file(args.config) if args.config else {}
        for name in FIELD_TYPES:
            value = getattr(args, name)
            if value is not None:
                data[name] = value
        config = ExperimentConfig.from_dict(data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        outcome = run_experiment(config)
    except OSError as exc:  # an output file that cannot be opened or written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    counts = outcome.summary["counts"]
    print(
        f"rounds={counts['rounds']} sifted={counts['sifted']} tested={counts['tested']} "
        f"failed={counts['failed']} fail_fraction={outcome.summary['fail_fraction']}"
    )
    if outcome.session.aborted:
        print(f"ABORTED: failure fraction exceeds epsilon={config.epsilon}")
        reasons = outcome.session.fail_reasons.items()
        print("abort reasons:", *(f"{name}={count}" for name, count in reasons), file=sys.stderr)
    else:
        print(
            f"raw key bits: {outcome.summary['raw_key_length']}  "
            f"final key bits: {outcome.summary['final_key_length']}  "
            f"verified: {outcome.summary['verified']}"
        )
    if config.transcript:
        print(f"transcript: {config.transcript}")
    if config.summary:
        print(f"summary: {config.summary}")
    return outcome.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
