"""Command line entry point.

    ksp-lab <scenario> --config <path> [--seed N] [--out DIR] [--set KEY=VALUE]
    ksp-lab list

Precedence for every configuration key: command-line flag > config file >
documented default.  The only environment override is KSP_LAB_OUT for the
output directory (it sits between flags and the config file).  Exit code 0
iff every scenario-internal assertion passes; otherwise the first failed
criterion is named on stderr.  A run that raises exits 1 with the
exception's type and message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, SCENARIO_SCHEMAS, read_document, validate_config
from .harness import RUNNERS, run_scenario


def _parse_set(items: list[str]) -> dict:
    overrides = {}
    for item in items:
        if "=" not in item:
            raise ConfigError([f"--set expects KEY=VALUE, got {item!r}"])
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksp-lab", description="Stochastic filtering laboratory scenarios"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="enumerate available scenarios")
    for name in SCENARIO_SCHEMAS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="JSON config file", default=None)
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in RUNNERS:
            print(name)
        return 0

    try:
        file_values = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                _, file_values = read_document(fh.read(), args.command)
        overrides = _parse_set(args.set)
        env_out = os.environ.get("KSP_LAB_OUT")
        if env_out and "output_dir" not in overrides:
            overrides["output_dir"] = env_out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_dir"] = args.out
        cfg = validate_config(args.command, file_values, overrides)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # unreadable file or not UTF-8
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(cfg)
    except Exception as exc:
        print(f"{cfg.scenario} failed with {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for check in report.checks:
        print(check.line())
    if not report.passed:
        first = report.first_failure()
        print(f"FAILED criterion: {first.name} ({first.detail})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
