"""Grammar-driven random OpenMP test generation and differential testing."""

from .analysis import (AnalysisParams, Classification, analyze_campaign,
                       classify_correctness, classify_performance, comparable,
                       midpoint, numeric_agreement)
from .campaign import (CampaignConfig, RunRecord, ToolchainSpec,
                       discover_default_toolchains, execute, run_campaign)
from .emit import emit_source
from .generator import assign_data_sharing, generate_program
from .inputs import FpClass, gen_input_sample, gen_value, serialize_input
from .nodes import GeneratorParams, Program
from .validate import validate_program

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams", "CampaignConfig", "Classification", "FpClass",
    "GeneratorParams", "Program", "RunRecord", "ToolchainSpec",
    "analyze_campaign", "assign_data_sharing", "classify_correctness",
    "classify_performance", "comparable", "discover_default_toolchains",
    "emit_source", "execute", "gen_input_sample",
    "gen_value", "generate_program", "midpoint", "numeric_agreement",
    "run_campaign", "serialize_input", "validate_program",
]
