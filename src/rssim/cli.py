"""Command-line interface: run a single point, a sweep, or the validation suite.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 validation-suite failure.
"""

import argparse
import sys
from dataclasses import replace

from .config import SECTIONS, load_config
from .errors import ConfigError, RssimError
from .runner import (
    MODES, allocate_drop, build_drop, check_modes, check_output_path, render_csv, result_row,
    run_sweep, write_rows,
)
from .scenario import ScenarioConfig
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3

# the config sections each command reads; a key from any other is refused
READS = {
    "run": (ScenarioConfig,),
    "sweep": SECTIONS,
    "validate": (ScenarioConfig,),
}


def _load(args):
    if args.config:
        return load_config(args.config, READS[args.command])
    return ScenarioConfig(), None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssim",
        description="Link-level downlink simulator with a rate-split common stream",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a single scenario point")
    sweep_p = sub.add_parser("sweep", help="run a sweep and write a CSV")
    val_p = sub.add_parser("validate", help="run the closed-form-vs-oracle suite")
    for p in (run_p, sweep_p, val_p):
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
    for p in (run_p, sweep_p):
        p.add_argument("--output", type=str, default=None, help="CSV output path")
        p.add_argument(
            "--mode", choices=[*MODES, "both"], default="both",
            help="which transmission modes to evaluate",
        )
    val_p.add_argument(
        "--trials", type=int, default=100_000,
        help="Monte Carlo realizations for the validation oracles",
    )
    return parser


def _modes(arg: str):
    return MODES if arg == "both" else (arg,)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, sweep = _load(args)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.command == "run":
            modes = _modes(args.mode)
            check_modes(modes)
            if args.output:
                check_output_path(args.output)
            results = allocate_drop(config, modes, build_drop(config, config.seed))
            rows = [result_row(config, mode, config.seed, results[mode]) for mode in modes]
            sys.stdout.write(write_rows(rows, args.output) if args.output else render_csv(rows))
            return EXIT_OK
        if args.command == "sweep":
            if sweep is None:
                raise ConfigError("sweep command needs a config file with sweep keys")
            output = args.output or sweep.output_path
            rows = run_sweep(sweep, config, _modes(args.mode), output_path=output)
            sys.stdout.write(f"wrote {len(rows)} rows to {output}\n")
            unconverged = sum(not row.converged for row in rows)
            sys.stderr.write(
                f"sweep: {len(rows)} rows written, {unconverged} rows not converged\n"
            )
            return EXIT_OK
        if args.command == "validate":
            report = run_validation(config, args.trials)
            sys.stdout.write(report.render() + "\n")
            return EXIT_OK if report.passed else EXIT_VALIDATION
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except RssimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
