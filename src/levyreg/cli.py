"""Command-line interface.

    levyreg run --config FILE --out DIR [--seed N] [--replicas M]
    levyreg list-scenarios
    levyreg validate --config FILE

Exit codes: 0 success, 1 configuration error (a malformed or unknown flag
included), 2 numeric failures beyond the failure-fraction limit, 3 I/O error.
Runs are single-threaded; the `threads` config key is only recorded in
summary.json.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config, serialize_config, with_overrides
from .scenarios import FAILURE_FRACTION_LIMIT, list_scenarios, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error exiting as a configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levyreg",
        description="Monte Carlo toolkit for drifted Levy-jump dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("--config", required=True, help="configuration file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--replicas", type=int, default=None)

    sub.add_parser("list-scenarios", help="print the scenario catalogue")

    val_p = sub.add_parser("validate", help="parse and echo a configuration")
    val_p.add_argument("--config", required=True, help="configuration file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        sys.stdout.write(list_scenarios())
        return EXIT_OK

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        sys.stdout.write(serialize_config(config))
        return EXIT_OK

    try:
        config = with_overrides(config, seed=args.seed, replicas=args.replicas,
                                out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = run_scenario(config)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ValueError) else EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO

    print(summary.to_json())
    if summary.replicas > 0 and \
            summary.failures > FAILURE_FRACTION_LIMIT * summary.replicas:
        print(f"numeric failures in {summary.failures} of {summary.replicas} "
              "replicas", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
