"""Command-line driver for the generate/build/run/analyze pipeline.

Exit codes: 0 clean, 1 outliers found, 2 configuration, infrastructure or
any other error. Stages are separate subcommands so an expensive run phase
can be re-analyzed under new thresholds without regeneration.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import analyze_campaign, render_table, write_verdicts
from .campaign import (CampaignError, ToolchainError, _matrix, build_matrix,
                       execute_matrix, generate_tests, load_records)
from .config import ConfigError, LoadedConfig, describe, load_config

EXIT_OK = 0
EXIT_OUTLIERS = 1
EXIT_ERROR = 2

COMMANDS = ("generate", "build", "run", "analyze", "all", "validate-config")

# each override flag, the config field it replaces (as written in the file)
# and its help; load_config types and checks the value like the file's
OVERRIDES = (
    ("--campaign-dir", "campaign_dir", "override the campaign directory"),
    ("--seed", "generator.rng_seed", "override the generator RNG seed"),
    ("--alpha", "analysis.alpha", "comparability threshold override"),
    ("--beta", "analysis.beta", "outlier ratio override"),
    ("--min-time-us", "analysis.min_time_us", "short-run filter override"),
    ("--timeout", "campaign.timeout_seconds", "per-run timeout override, seconds"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdiff",
        description="Differential testing of OpenMP toolchains with random programs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="campaign config file (YAML)")
    for flag, name, help_text in OVERRIDES:
        parser.add_argument(flag, dest=name, help=help_text)
    return parser


def _analyze(loaded: LoadedConfig) -> int:
    campaign = loaded.campaign
    records_path = campaign.records_path()
    if not records_path.exists():
        print(f"error: no record log at {records_path}; run the 'run' stage first",
              file=sys.stderr)
        return EXIT_ERROR
    records = load_records(records_path)
    report = analyze_campaign(records, loaded.analysis)
    print(render_table(report))
    write_verdicts(report, campaign.verdicts_path())
    print(f"\nverdicts written to {campaign.verdicts_path()}")
    return EXIT_OUTLIERS if report.outliers_found else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # exit 1 is reserved for "outliers found"
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_ERROR


def _run(args) -> int:
    overrides = {name: getattr(args, name) for _, name, _ in OVERRIDES
                 if getattr(args, name) is not None}
    try:
        loaded = load_config(args.config, overrides)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_ERROR

    campaign = loaded.campaign
    try:
        if args.command == "validate-config":
            print(describe(loaded))
            return EXIT_OK
        if args.command == "generate":
            written = generate_tests(campaign)
            print(f"generated {len(written)} tests under {campaign.campaign_dir}")
            return EXIT_OK
        if args.command == "build":
            results = build_matrix(campaign).values()
            failed = sum(1 for r in results if not r.ok)
            reused = sum(1 for r in results if r.ok and r.cached)
            print(f"compiled {len(results) - failed - reused}, reused {reused}, "
                  f"failed {failed} of {len(results)} matrix entries")
            return EXIT_OK
        if args.command == "run":
            records = execute_matrix(campaign)
            print(f"record log holds {len(records)} records")
            return EXIT_OK
        if args.command == "analyze":
            return _analyze(loaded)
        # all: full pipeline, with the build keys computed once for both stages
        generate_tests(campaign)
        matrix = list(_matrix(campaign))
        build_matrix(campaign, matrix=matrix)
        execute_matrix(campaign, matrix=matrix)
        return _analyze(loaded)
    except (CampaignError, ToolchainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
