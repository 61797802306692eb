"""Command-line driver for the generate/build/run/analyze pipeline.

Exit codes: 0 clean, 1 outliers found, 2 configuration, infrastructure or
any other error. Stages are separate subcommands so an expensive run phase
can be re-analyzed under new thresholds without regeneration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import analyze_campaign, render_table, write_verdicts
from .campaign import (CampaignError, ToolchainError, build_matrix,
                       execute_matrix, generate_tests, load_records)
from .config import ConfigError, LoadedConfig, describe, load_config

EXIT_OK = 0
EXIT_OUTLIERS = 1
EXIT_ERROR = 2

COMMANDS = ("generate", "build", "run", "analyze", "all", "validate-config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompdiff",
        description="Differential testing of OpenMP toolchains with random programs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="campaign config file (YAML)")
    parser.add_argument("--campaign-dir", help="override the campaign directory")
    parser.add_argument("--seed", type=int, help="override the generator RNG seed")
    parser.add_argument("--alpha", type=float, help="comparability threshold override")
    parser.add_argument("--beta", type=float, help="outlier ratio override")
    parser.add_argument("--min-time-us", type=int, help="short-run filter override")
    parser.add_argument("--timeout", type=float, help="per-run timeout override, seconds")
    return parser


def _apply_overrides(loaded: LoadedConfig, args) -> LoadedConfig:
    campaign = loaded.campaign
    analysis = loaded.analysis
    if args.campaign_dir is not None:
        campaign = replace(campaign, campaign_dir=Path(args.campaign_dir))
    if args.seed is not None:
        campaign = replace(campaign, generator=replace(campaign.generator,
                                                       rng_seed=args.seed))
    if args.timeout is not None:
        campaign = replace(campaign, timeout_seconds=args.timeout)
    updates = {}
    if args.alpha is not None:
        updates["alpha"] = args.alpha
    if args.beta is not None:
        updates["beta"] = args.beta
    if args.min_time_us is not None:
        updates["min_time_us"] = args.min_time_us
    if updates:
        analysis = replace(analysis, **updates)
        analysis.validate()
    campaign.validate()
    return LoadedConfig(campaign=campaign, analysis=analysis)


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
    try:
        loaded = _apply_overrides(load_config(args.config), args)
    except (ConfigError, CampaignError, ToolchainError) as exc:
        for line in str(exc).split("; "):
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
        # all: full pipeline
        generate_tests(campaign)
        build_matrix(campaign)
        execute_matrix(campaign)
        return _analyze(loaded)
    except (CampaignError, ToolchainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
