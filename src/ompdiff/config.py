"""YAML campaign-configuration loading with field-level validation."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .analysis import AnalysisError, AnalysisParams
from .campaign import CampaignConfig, CampaignError, ToolchainError, ToolchainSpec
from .nodes import GeneratorParams, ParamError


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class LoadedConfig:
    campaign: CampaignConfig
    analysis: AnalysisParams


def _coerce(section: str, data: dict, cls, errors: list[str]) -> dict:
    """Typed values of one YAML section. The settable fields of the config
    dataclass `cls` are those whose default is an int, float or bool."""
    spec = {f.name: type(f.default) for f in fields(cls)
            if type(f.default) in (int, float, bool)}
    out = {}
    for key, value in (data or {}).items():
        if key not in spec:
            errors.append(f"{section}.{key}: unknown field")
            continue
        want = spec[key]
        try:
            if want is bool:
                if not isinstance(value, bool):
                    raise TypeError
                out[key] = value
            else:
                out[key] = want(value)
        except (TypeError, ValueError):
            errors.append(f"{section}.{key}: expected {want.__name__}, got {value!r}")
    return out


def _toolchains(raw, errors: list[str]) -> list[ToolchainSpec]:
    if not raw:
        errors.append("toolchains: section is required")
        return []
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            errors.append(f"toolchains[{i}]: expected a mapping")
            continue
        missing = [k for k in ("id", "template") if k not in entry]
        if missing:
            errors.append(f"toolchains[{i}]: missing {', '.join(missing)}")
            continue
        flags = entry.get("flags", [])
        env = entry.get("env", {})
        if not isinstance(flags, list):
            errors.append(f"toolchains[{i}].flags: expected a list")
            continue
        if not isinstance(env, dict):
            errors.append(f"toolchains[{i}].env: expected a mapping")
            continue
        specs.append(ToolchainSpec(id=str(entry["id"]), template=str(entry["template"]),
                                   flags=[str(f) for f in flags],
                                   env={str(k): str(v) for k, v in env.items()}))
    if specs and len(specs) < 2:
        errors.append("toolchains: differential testing needs at least 2 toolchains")
    return specs


def load_config(path) -> LoadedConfig:
    """Parse and validate a campaign config; raises ConfigError listing every
    bad field. Omitted fields take the defaults of GeneratorParams,
    CampaignConfig and AnalysisParams (the analysis thresholds among them)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file {path} does not exist"])
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config must be a mapping of sections"])

    errors: list[str] = []
    known = {"campaign_dir", "toolchains", "generator", "campaign", "analysis"}
    for key in data:
        if key not in known:
            errors.append(f"{key}: unknown section")

    toolchains = _toolchains(data.get("toolchains"), errors)
    gen_kwargs = _coerce("generator", data.get("generator"), GeneratorParams, errors)
    if "num_threads" not in gen_kwargs:
        # deliberately no default: the thread count shapes every parallel
        # region, so the config must state it
        errors.append("generator.num_threads: field is required")
    camp_kwargs = _coerce("campaign", data.get("campaign"), CampaignConfig, errors)
    ana_kwargs = _coerce("analysis", data.get("analysis"), AnalysisParams, errors)

    generator = None
    try:
        generator = GeneratorParams(**gen_kwargs)
        generator.validate()
    except ParamError as exc:
        errors.append(f"generator: {exc}")

    analysis = None
    try:
        analysis = AnalysisParams(**ana_kwargs)
        analysis.validate()
    except AnalysisError as exc:
        errors.append(f"analysis: {exc}")

    campaign_dir = data.get("campaign_dir")
    if not campaign_dir:
        errors.append("campaign_dir: field is required")

    campaign = None
    if not errors:
        campaign = CampaignConfig(campaign_dir=Path(campaign_dir),
                                  toolchains=toolchains, generator=generator,
                                  **camp_kwargs)
        try:
            campaign.validate()
        except (CampaignError, ToolchainError) as exc:
            errors.append(f"campaign: {exc}")

    if errors:
        raise ConfigError(errors)
    return LoadedConfig(campaign=campaign, analysis=analysis)


def describe(loaded: LoadedConfig) -> str:
    """Echo of the resolved configuration values."""
    c = loaded.campaign
    g = c.generator
    a = loaded.analysis
    lines = [
        f"campaign_dir: {c.campaign_dir}",
        "toolchains: " + ", ".join(f"{t.id} ({t.template}, flags={' '.join(t.flags)})"
                                   for t in c.toolchains),
        f"sizes: {c.n_groups} groups x {c.tests_per_group} tests x "
        f"{c.inputs_per_test} inputs, timeout {c.timeout_seconds}s, "
        f"repetitions {c.repetitions}",
        f"generator: expr<={g.max_expression_size} nest<={g.max_nesting_levels} "
        f"lines<={g.max_lines_in_block} arrays={g.array_size} "
        f"blocks<={g.max_same_level_blocks} math={g.math_func_allowed}"
        f"@{g.math_func_probability} threads={g.num_threads} seed={g.rng_seed}",
        f"analysis: alpha={a.alpha} beta={a.beta} min_time_us={a.min_time_us} "
        f"numeric_rel_tol={a.numeric_rel_tol}",
    ]
    return "\n".join(lines)
