"""YAML campaign-configuration loading with field-level validation."""

from __future__ import annotations

import math
import shlex
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .analysis import AnalysisParams
from .campaign import CampaignConfig, ToolchainSpec
from .nodes import GeneratorParams


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class LoadedConfig:
    campaign: CampaignConfig
    analysis: AnalysisParams


def _settable(cls) -> dict[str, type]:
    """The fields of a config dataclass that YAML sets: those whose default
    is an int, float or bool, with that type."""
    return {f.name: type(f.default) for f in fields(cls)
            if type(f.default) in (int, float, bool)}


def _coerce(section: str, data: dict, cls, errors: list[str]) -> dict:
    """Typed values of one YAML section, which sets the fields of `cls`."""
    if not isinstance(data, (dict, type(None))):
        errors.append(f"{section}: expected a mapping")
        return {}
    spec = _settable(cls)
    out = {}
    for key, value in (data or {}).items():
        if key not in spec:
            errors.append(f"{section}.{key}: unknown field")
            continue
        want = spec[key]
        # a value is read from its text, as a command-line override arrives,
        # so that file and flag take and refuse the same values: 1.9 is no
        # int and true is no number in either
        text = str(value).lower() if isinstance(value, bool) else str(value)
        try:
            if want is bool:
                if not isinstance(value, bool):
                    raise ValueError
                out[key] = value
            else:
                number = want(text)
                if want is float and not math.isfinite(number):
                    raise ValueError  # nan passes every threshold test
                out[key] = number
        except ValueError:
            errors.append(f"{section}.{key}: expected {want.__name__}, got {text!r}")
    return out


def _toolchains(raw, errors: list[str]) -> list[ToolchainSpec]:
    if not raw:
        errors.append("toolchains: section is required")
        return []
    if not isinstance(raw, list):
        errors.append("toolchains: expected a list")
        return []
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            errors.append(f"toolchains[{i}]: expected a mapping")
            continue
        for key in entry:
            if key not in ("id", "template", "flags", "env"):
                errors.append(f"toolchains[{i}].{key}: unknown field")
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
        tc_id = str(entry["id"])
        if tc_id in ("", ".", "..") or "/" in tc_id:  # it names the binaries' directory
            errors.append(f"toolchains[{i}].id: {tc_id!r} is not a directory name")
        for value in [*flags, *env.values()]:  # str() would make null "None"
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                errors.append(f"campaign: toolchain {tc_id!r}: flag or env value "
                              f"{value!r} is not a string or a number")
        specs.append(ToolchainSpec(id=tc_id, template=str(entry["template"]),
                                   flags=[str(f) for f in flags],
                                   env={str(k): str(v) for k, v in env.items()}))
    if specs and len(specs) < 2:
        errors.append("toolchains: differential testing needs at least 2 toolchains")
    ids = [t.id for t in specs]
    if len(set(ids)) != len(ids):
        errors.append("campaign: toolchain ids must be unique")
    for tc in specs:  # each template as ToolchainSpec.command() splits it
        try:
            words = shlex.split(tc.template)
        except ValueError as exc:
            errors.append(f"campaign: toolchain {tc.id!r}: template cannot be "
                          f"split into words ({exc})")
            continue
        if "{src}" not in tc.template or "{out}" not in tc.template:
            errors.append(f"campaign: toolchain {tc.id!r}: template needs "
                          f"{{src}} and {{out}} placeholders")
        if tc.flags and "{flags}" not in words:
            errors.append(f"campaign: toolchain {tc.id!r}: template has no {{flags}} "
                          "word, so its flags would be dropped")
    return specs


def load_config(path, overrides=None) -> LoadedConfig:
    """Parse and validate a campaign config; raises ConfigError listing every
    bad field. `overrides` maps file fields (`campaign_dir`,
    `generator.rng_seed`, ...) to values that replace the file's before any
    field is typed or checked. Omitted fields take the defaults of
    GeneratorParams, CampaignConfig and AnalysisParams (the analysis
    thresholds among them)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file {path} does not exist"])
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config must be a mapping of sections"])
    for name, value in (overrides or {}).items():
        section, _, key = name.rpartition(".")
        if section and data.get(section) is None:
            data[section] = {}
        target = data[section] if section else data
        if isinstance(target, dict):  # else _coerce reports the section
            target[key] = value

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
    # a field the section leaves out has its default, which passes
    settings = {f.name: f.default for f in fields(CampaignConfig)} | camp_kwargs
    if settings["timeout_seconds"] <= 0:
        errors.append("campaign: timeout_seconds must be > 0")
    if settings["repetitions"] < 1:
        errors.append("campaign: repetitions must be >= 1")
    if min(settings["n_groups"], settings["tests_per_group"],
           settings["inputs_per_test"]) < 1:
        errors.append("campaign: campaign sizes must be >= 1")
    ana_kwargs = _coerce("analysis", data.get("analysis"), AnalysisParams, errors)

    generator = GeneratorParams(**gen_kwargs)
    errors += [f"generator: {problem}" for problem in generator.problems()]
    analysis = AnalysisParams(**ana_kwargs)
    errors += [f"analysis: {problem}" for problem in analysis.problems()]

    campaign_dir = data.get("campaign_dir")
    if not campaign_dir:
        errors.append("campaign_dir: field is required")
    elif not isinstance(campaign_dir, str):
        errors.append(f"campaign_dir: expected a path, got {campaign_dir!r}")

    if errors:
        raise ConfigError(errors)
    campaign = CampaignConfig(campaign_dir=Path(campaign_dir), toolchains=toolchains,
                              generator=generator, **camp_kwargs)
    return LoadedConfig(campaign=campaign, analysis=analysis)


def describe(loaded: LoadedConfig) -> str:
    """Echo of the resolved configuration: each section's settable fields as
    `name=value`, under their YAML names."""
    c = loaded.campaign
    lines = [
        f"campaign_dir: {c.campaign_dir}",
        "toolchains: " + ", ".join(
            f"{t.id} ({t.template}, flags={' '.join(t.flags)}, "
            f"env={' '.join(f'{k}={v}' for k, v in t.env.items())})"
            for t in c.toolchains),
    ]
    for section, values in (("generator", c.generator), ("campaign", c),
                            ("analysis", loaded.analysis)):
        lines.append(f"{section}: " + " ".join(
            f"{name}={getattr(values, name)}" for name in _settable(type(values))))
    return "\n".join(lines)
