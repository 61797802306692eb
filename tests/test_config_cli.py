import json
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from ompdiff.analysis import AnalysisParams
from ompdiff.campaign import CampaignConfig
from ompdiff.cli import EXIT_ERROR, EXIT_OK, EXIT_OUTLIERS, OVERRIDES, main
from ompdiff.config import ConfigError, _settable, describe, load_config
from ompdiff.nodes import GeneratorParams

from test_analysis import slow_fixture_records


def write_config(tmp_path, body, name="campaign.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def paper_config(tmp_path, campaign_dir, extra=""):
    return write_config(tmp_path, f"""
        campaign_dir: {campaign_dir}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
            flags: ["-O3", "-fopenmp"]
          - id: clang
            template: "clang++ {{flags}} {{src}} -o {{out}}"
            flags: ["-O3", "-fopenmp"]
        generator:
          max_expression_size: 5
          max_nesting_levels: 3
          max_lines_in_block: 10
          array_size: 1000
          max_same_level_blocks: 3
          math_func_allowed: true
          math_func_probability: 0.01
          num_threads: 32
          rng_seed: 7
        {extra}
    """)


def test_load_config_applies_paper_defaults(tmp_path):
    loaded = load_config(paper_config(tmp_path, tmp_path / "c"))
    assert loaded.analysis.alpha == 0.2
    assert loaded.analysis.beta == 1.5
    assert loaded.analysis.min_time_us == 1000
    assert loaded.campaign.generator.max_expression_size == 5
    assert loaded.campaign.generator.num_threads == 32
    # omitted campaign.inputs_per_test takes the CampaignConfig default
    assert loaded.campaign.inputs_per_test == 3
    text = describe(loaded)
    assert "alpha=0.2" in text and "beta=1.5" in text


def test_load_config_explicit_analysis_section(tmp_path):
    loaded = load_config(paper_config(tmp_path, tmp_path / "c", extra="""
        analysis:
          alpha: 0.3
          beta: 2.0
    """))
    assert loaded.analysis.alpha == 0.3
    assert loaded.analysis.beta == 2.0
    assert loaded.analysis.min_time_us == 1000


def test_every_field_is_settable_from_yaml(tmp_path):
    generator = dict(max_expression_size=4, max_nesting_levels=2,
                     max_lines_in_block=6, array_size=500,
                     max_same_level_blocks=2, math_func_allowed=False,
                     math_func_probability=0.0, num_threads=8, rng_seed=123)
    campaign = dict(n_groups=4, tests_per_group=5, inputs_per_test=2,
                    timeout_seconds=12.5, repetitions=3)
    analysis = dict(alpha=0.1, beta=2.0, min_time_us=500, numeric_rel_tol=1e-9)
    assert set(generator) == {f.name for f in fields(GeneratorParams)}
    assert set(campaign) == {f.name for f in fields(CampaignConfig)} - {
        "campaign_dir", "toolchains", "generator"}
    assert set(analysis) == {f.name for f in fields(AnalysisParams)}
    for cls, values in ((GeneratorParams, generator), (AnalysisParams, analysis)):
        for name, value in values.items():
            assert getattr(cls(), name) != value, name
    for name, value in campaign.items():
        assert getattr(CampaignConfig(tmp_path, []), name) != value, name

    path = tmp_path / "all.yaml"
    path.write_text(yaml.safe_dump({
        "campaign_dir": str(tmp_path / "c"),
        "toolchains": [{"id": "a", "template": "g++ {flags} {src} -o {out}"},
                       {"id": "b", "template": "g++ {flags} {src} -o {out}"}],
        "generator": generator, "campaign": campaign, "analysis": analysis,
    }))
    loaded = load_config(path)
    assert loaded.campaign.generator == GeneratorParams(**generator)
    assert loaded.analysis == AnalysisParams(**analysis)
    assert {k: getattr(loaded.campaign, k) for k in campaign} == campaign


def test_single_toolchain_rejected(tmp_path):
    path = write_config(tmp_path, f"""
        campaign_dir: {tmp_path / 'c'}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
    """)
    with pytest.raises(ConfigError, match="at least 2"):
        load_config(path)


def test_every_bad_campaign_and_toolchain_field_is_reported(tmp_path, capsys):
    path = write_config(tmp_path, f"""
        campaign_dir: {tmp_path / 'c'}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
          - id: gcc
            template: "g++ {{flags}} {{src}}"
        generator:
          num_threads: 0
        campaign:
          n_groups: 0
          timeout_seconds: 0
          repetitions: 0
    """)
    expected = {
        "campaign: toolchain ids must be unique",
        "campaign: toolchain 'gcc': template needs {src} and {out} placeholders",
        "campaign: timeout_seconds must be > 0",
        "campaign: repetitions must be >= 1",
        "campaign: campaign sizes must be >= 1",
        "generator: num_threads must be a positive integer",
    }
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert sorted(info.value.errors) == sorted(expected)
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert sorted(err) == sorted(f"config error: {line}" for line in expected)


def test_every_bad_generator_and_analysis_field_is_reported(tmp_path, capsys):
    path = write_config(tmp_path, f"""
        campaign_dir: {tmp_path / 'c'}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
          - id: gcc-O0
            template: "g++ -O0 {{flags}} {{src}} -o {{out}}"
        generator:
          num_threads: 0
          max_expression_size: 0
          math_func_probability: 2.0
        campaign:
          timeout_seconds: 0
          inputs_per_test: 0
        analysis:
          alpha: -1
          beta: 0.5
          min_time_us: -3
    """)
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    assert sorted(capsys.readouterr().err.splitlines()) == sorted(
        f"config error: {line}" for line in (
            "campaign: timeout_seconds must be > 0",
            "campaign: campaign sizes must be >= 1",
            "generator: max_expression_size must be a positive integer",
            "generator: num_threads must be a positive integer",
            "generator: math_func_probability must lie in [0, 1]",
            "analysis: alpha must be > 0",
            "analysis: beta must be > 1",
            "analysis: min_time_us must be >= 0"))


@pytest.mark.parametrize("bad_id", ["gcc/.", "../x", "..", ".", ""])
def test_a_toolchain_id_must_name_one_directory(tmp_path, capsys, bad_id):
    # `gcc` and `gcc/.` would share binaries; `../x` would build outside the campaign
    path = write_config(tmp_path, f"""
        campaign_dir: {tmp_path / 'c'}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
          - id: "{bad_id}"
            template: "g++ -O0 {{flags}} {{src}} -o {{out}}"
        generator:
          num_threads: 2
    """)
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"config error: toolchains[1].id: {bad_id!r} is not a directory name"]


def test_mistyped_toolchain_keys_are_reported(tmp_path, capsys):
    # a dropped `flags` would build one toolchain without -fopenmp
    path = write_config(tmp_path, f"""
        campaign_dir: {tmp_path / 'c'}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
            flag: ["-O3", "-fopenmp"]
          - id: gcc-bound
            template: "g++ {{flags}} {{src}} -o {{out}}"
            enviroment: {{OMP_PROC_BIND: "true"}}
        generator:
          num_threads: 2
    """)
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "config error: toolchains[0].flag: unknown field",
        "config error: toolchains[1].enviroment: unknown field",
    ]


def test_missing_toolchains_section(tmp_path):
    path = write_config(tmp_path, f"campaign_dir: {tmp_path / 'c'}\n")
    with pytest.raises(ConfigError, match="toolchains"):
        load_config(path)


def test_unknown_fields_reported_by_name(tmp_path):
    path = paper_config(tmp_path, tmp_path / "c", extra="""
        campaign:
          bogus_knob: 3
    """)
    with pytest.raises(ConfigError, match="campaign.bogus_knob"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.yaml")


def test_num_threads_has_no_default(tmp_path):
    path = write_config(tmp_path, f"""
        campaign_dir: {tmp_path / 'c'}
        toolchains:
          - id: gcc
            template: "g++ {{flags}} {{src}} -o {{out}}"
          - id: clang
            template: "clang++ {{flags}} {{src}} -o {{out}}"
        generator:
          rng_seed: 1
    """)
    with pytest.raises(ConfigError, match="num_threads"):
        load_config(path)


def tame_cli_config(tmp_path, toolchains):
    tcs = "\n".join(
        f"""  - id: {t.id}
    template: "{t.template}"
    flags: {json.dumps(t.flags)}""" for t in toolchains)
    return write_config(tmp_path, f"""
campaign_dir: {tmp_path / 'camp'}
toolchains:
{tcs}
campaign:
  n_groups: 1
  tests_per_group: 2
  inputs_per_test: 1
  timeout_seconds: 30
generator:
  max_expression_size: 4
  max_nesting_levels: 2
  max_lines_in_block: 4
  array_size: 64
  max_same_level_blocks: 2
  math_func_allowed: true
  math_func_probability: 0.01
  num_threads: 2
  rng_seed: 5
""", name="cli.yaml")


def test_cli_analyze_corrupt_record_log_is_an_error_not_outliers(tmp_path, capsys):
    camp = tmp_path / "camp"
    camp.mkdir()
    lines = [rec.to_json() for rec in slow_fixture_records()]
    lines.insert(1, '{"test": 0, "gro')
    (camp / "records.jsonl").write_text("\n".join(lines) + "\n")
    cfg = paper_config(tmp_path, camp)
    assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_validate_config(tmp_path, toolchains, capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    assert main(["validate-config", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha=0.2" in out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "campaign_dir: /tmp/x\n")
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    assert "config error" in capsys.readouterr().err


def test_cli_run_before_generate_is_dependency_error(tmp_path, toolchains, capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    assert main(["run", "--config", str(cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "generate" in err


def test_cli_analyze_before_run_is_dependency_error(tmp_path, toolchains, capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
    assert "run" in capsys.readouterr().err


def test_cli_generate_is_reproducible(tmp_path, toolchains):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    camp = tmp_path / "camp"
    first = {p.relative_to(camp): p.read_bytes()
             for p in sorted(camp.rglob("*")) if p.is_file()}
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    second = {p.relative_to(camp): p.read_bytes()
              for p in sorted(camp.rglob("*")) if p.is_file()}
    assert first == second
    assert main(["generate", "--config", str(cfg), "--seed", "6"]) == EXIT_OK
    third = {p.relative_to(camp): p.read_bytes()
             for p in sorted(camp.rglob("*")) if p.is_file()}
    assert first != third


def test_cli_analyze_synthetic_slow_records_signals_outliers(tmp_path, toolchains,
                                                             capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    camp = tmp_path / "camp"
    camp.mkdir()
    with open(camp / "records.jsonl", "w") as fh:
        for rec in slow_fixture_records():
            fh.write(rec.to_json() + "\n")
    assert main(["analyze", "--config", str(cfg)]) == EXIT_OUTLIERS
    out = capsys.readouterr().out
    assert "Slow" in out and "Fast" in out and "Crash" in out and "Hang" in out
    assert (camp / "verdicts.jsonl").exists()
    verdicts = [json.loads(l) for l in (camp / "verdicts.jsonl").read_text().splitlines()]
    slow = [v for v in verdicts if v["verdict"] == "SLOW"]
    assert len(slow) == 1 and slow[0]["toolchain"] == "C"
    assert slow[0]["ratio"] >= 1.5


def test_cli_analyze_is_pure_over_the_record_log(tmp_path, toolchains, capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    camp = tmp_path / "camp"
    camp.mkdir()
    with open(camp / "records.jsonl", "w") as fh:
        for rec in slow_fixture_records():
            fh.write(rec.to_json() + "\n")
    before = (camp / "records.jsonl").read_bytes()
    main(["analyze", "--config", str(cfg)])
    main(["analyze", "--config", str(cfg), "--beta", "99.0", "--alpha", "0.2"])
    capsys.readouterr()
    assert (camp / "records.jsonl").read_bytes() == before


def test_cli_analysis_threshold_overrides(tmp_path, toolchains, capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    camp = tmp_path / "camp"
    camp.mkdir()
    with open(camp / "records.jsonl", "w") as fh:
        for rec in slow_fixture_records():
            fh.write(rec.to_json() + "\n")
    # with beta pushed above the observed ratio, the outlier disappears
    assert main(["analyze", "--config", str(cfg), "--beta", "99.0"]) == EXIT_OK
    capsys.readouterr()


def test_cli_all_runs_the_full_pipeline(tmp_path, toolchains, capsys):
    cfg = tame_cli_config(tmp_path, toolchains[:2])
    code = main(["all", "--config", str(cfg)])
    assert code in (EXIT_OK, EXIT_OUTLIERS)  # outliers depend on host timing
    out = capsys.readouterr().out
    assert "Slow" in out and "groups:" in out
    camp = tmp_path / "camp"
    assert (camp / "_tests" / "_group_0" / "_test_0.cpp").exists()
    assert (camp / "_tests" / "_group_0" / "_test_0.inputs").exists()
    for t in toolchains[:2]:
        assert (camp / "_bin" / t.id / "_group_0" / "_test_0").exists()
    records = (camp / "records.jsonl").read_text().splitlines()
    assert len(records) == 2 * 2 * 1  # toolchains x tests x inputs
    assert (camp / "verdicts.jsonl").exists()


@pytest.mark.parametrize("field, value, error", [
    ("campaign_dir", 5, "campaign_dir: expected a path, got 5"),
    ("campaign_dir", ["a"], "campaign_dir: expected a path, got ['a']"),
    ("toolchains", 5, "toolchains: expected a list"),
    ("generator", 5, "generator: expected a mapping"),
    ("analysis", [1, 2], "analysis: expected a mapping"),
], ids=["dir-int", "dir-list", "toolchains-int", "generator-int", "analysis-list"])
def test_malformed_shape_is_a_field_error(tmp_path, capsys, field, value, error):
    data = yaml.safe_load(paper_config(tmp_path, tmp_path / "c").read_text())
    data[field] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert error in info.value.errors
    # an override into a section that is not a mapping is no traceback either
    assert main(["validate-config", "--config", str(path), "--seed", "9",
                 "--alpha", "0.3"]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("config error: ") for line in err)


@pytest.mark.parametrize("flag, value, section, name", [
    ("--alpha", "0", "analysis", "alpha"),
    ("--beta", "1.1", "analysis", "beta"),
    ("--seed", "-1", "generator", "rng_seed"),
    ("--min-time-us", "-5", "analysis", "min_time_us"),
    ("--timeout", "0", "campaign", "timeout_seconds"),
])
def test_bad_override_is_reported_like_the_same_file_field(tmp_path, capsys, flag,
                                                           value, section, name):
    cfg = paper_config(tmp_path, tmp_path / "c")
    assert main(["validate-config", "--config", str(cfg), flag, value]) == EXIT_ERROR
    from_flag = capsys.readouterr().err
    assert from_flag.startswith(f"config error: {section}: ")
    assert from_flag.count("\n") == 1

    data = yaml.safe_load(cfg.read_text())
    data.setdefault(section, {})[name] = yaml.safe_load(value)
    in_file = tmp_path / "in_file.yaml"
    in_file.write_text(yaml.safe_dump(data))
    assert main(["validate-config", "--config", str(in_file)]) == EXIT_ERROR
    assert capsys.readouterr().err == from_flag


@pytest.mark.parametrize("flag,value,section,name,want", [
    ("--seed", "1.9", "generator", "rng_seed", "int"),
    ("--seed", "true", "generator", "rng_seed", "int"),
    ("--min-time-us", "2.5", "analysis", "min_time_us", "int"),
    ("--timeout", "true", "campaign", "timeout_seconds", "float"),
    ("--alpha", "false", "analysis", "alpha", "float"),
])
def test_mistyped_value_is_refused_alike_in_file_and_flag(tmp_path, capsys, flag, value,
                                                          section, name, want):
    line = f"config error: {section}.{name}: expected {want}, got {value!r}\n"
    cfg = paper_config(tmp_path, tmp_path / "c")
    assert main(["validate-config", "--config", str(cfg), flag, value]) == EXIT_ERROR
    assert capsys.readouterr().err == line

    data = yaml.safe_load(cfg.read_text())
    data.setdefault(section, {})[name] = yaml.safe_load(value)
    in_file = tmp_path / "in_file.yaml"
    in_file.write_text(yaml.safe_dump(data))
    assert main(["validate-config", "--config", str(in_file)]) == EXIT_ERROR
    assert capsys.readouterr().err == line


FLOAT_FIELDS = [(section, name)
                for section, cls in (("generator", GeneratorParams),
                                     ("campaign", CampaignConfig),
                                     ("analysis", AnalysisParams))
                for name, kind in _settable(cls).items() if kind is float]
FLAGS = {name: flag for flag, name, _ in OVERRIDES}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, name", FLOAT_FIELDS)
def test_non_finite_float_is_refused_alike_in_file_and_flag(tmp_path, capsys, section,
                                                           name, value):
    error = f"{section}.{name}: expected float, got {value!r}"
    cfg = paper_config(tmp_path, tmp_path / "c")
    data = yaml.safe_load(cfg.read_text())
    data.setdefault(section, {})[name] = float(value)
    in_file = tmp_path / "in_file.yaml"
    in_file.write_text(yaml.safe_dump(data))
    assert main(["analyze", "--config", str(in_file)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"config error: {error}\n"

    with pytest.raises(ConfigError) as info:
        load_config(cfg, {f"{section}.{name}": value})
    assert info.value.errors == [error]
    if f"{section}.{name}" in FLAGS:
        flag = FLAGS[f"{section}.{name}"]
        assert main(["analyze", "--config", str(cfg), f"{flag}={value}"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("name", ["campaign.yaml", "offline.yaml"])
def test_the_bench_configs_load(name):
    loaded = load_config(Path(__file__).parents[1] / "perfbench" / name)
    assert [t.id for t in loaded.campaign.toolchains] == ["gcc-O3", "gcc-O2", "gcc-O0"]


def test_validate_config_echoes_overrides(tmp_path, capsys):
    # rng_seed 7, default thresholds
    data = yaml.safe_load(paper_config(tmp_path, tmp_path / "c").read_text())
    data["toolchains"][1]["env"] = {"OMP_PROC_BIND": "true", "OMP_WAIT_POLICY": "passive"}
    cfg = tmp_path / "env.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["validate-config", "--config", str(cfg), "--seed", "9",
                 "--alpha", "0.1", "--beta", "2", "--campaign-dir", "X"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "campaign_dir: X"
    # env is part of the build key and the run stamp, so it is shown
    assert out[1].endswith("flags=-O3 -fopenmp, env=), clang (clang++ {flags} {src} -o "
                           "{out}, flags=-O3 -fopenmp, "
                           "env=OMP_PROC_BIND=true OMP_WAIT_POLICY=passive)")
    assert "rng_seed=9" in out[2].split()
    assert {"alpha=0.1", "beta=2.0"} <= set(out[4].split())


def test_campaign_dir_may_come_from_the_command_line(tmp_path, capsys):
    data = yaml.safe_load(paper_config(tmp_path, tmp_path / "c").read_text())
    del data["campaign_dir"]
    path = tmp_path / "no_dir.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == "config error: campaign_dir: field is required\n"
    assert main(["validate-config", "--config", str(path),
                 "--campaign-dir", str(tmp_path / "d")]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"campaign_dir: {tmp_path / 'd'}\n")


GCC = {"id": "gcc", "template": "g++ {flags} {src} -o {out}", "flags": ["-fopenmp"]}
MINIMAL = {"campaign_dir": "c", "toolchains": [GCC, {**GCC, "id": "gcc-O2"}],
           "generator": {"num_threads": 2}}


@pytest.mark.parametrize("second, error", [
    # built without OpenMP: any verdict on it would reflect the lost flags only
    ({"template": "g++ {src} -o {out}", "flags": ["-O2", "-fopenmp"]},
     "template has no {flags} word, so its flags would be dropped"),
    ({"template": "g++ '{flags} {src} -o {out}"},
     "template cannot be split into words (No closing quotation)"),
    ({"template": GCC["template"], "flags": ["-O2", None]},
     "flag or env value None is not a string or a number"),
    ({"template": GCC["template"], "env": {"X": None}},
     "flag or env value None is not a string or a number"),
], ids=["flags-dropped", "unsplittable", "null-flag", "null-env"])
def test_a_toolchain_is_checked_as_its_command_will_be_built(tmp_path, capsys,
                                                              second, error):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({**MINIMAL, "toolchains": [GCC, {"id": "b", **second}]}))
    assert main(["validate-config", "--config", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"config error: campaign: toolchain 'b': {error}"]


@pytest.mark.parametrize("change, error", [
    ({"generator": {"num_threads": 2, "math_func_allowed": 1}},
     "generator.math_func_allowed: expected bool, got '1'"),
    ({"toolchains": [GCC, "clang"]}, "toolchains[1]: expected a mapping"),
    ({"toolchains": [GCC, {"id": "clang"}]}, "toolchains[1]: missing template"),
    ({"toolchains": [GCC, {"flags": []}]}, "toolchains[1]: missing id, template"),
    ({"toolchains": [GCC, {**GCC, "id": "b", "flags": "-O2"}]},
     "toolchains[1].flags: expected a list"),
    ({"toolchains": [GCC, {**GCC, "id": "b", "env": ["X=1"]}]},
     "toolchains[1].env: expected a mapping"),
    ({"bogus": 1}, "bogus: unknown section"),
    ("campaign_dir: [c\n", "config is not valid YAML: "),
    ("- c\n", "config must be a mapping of sections"),
], ids=["non-bool", "entry-not-mapping", "no-template", "no-id-or-template",
        "flags-not-list", "env-not-mapping", "unknown-section", "not-yaml",
        "not-a-mapping"])
def test_each_config_error_names_its_field(tmp_path, change, error):
    path = tmp_path / "bad.yaml"
    path.write_text(change if isinstance(change, str)
                    else yaml.safe_dump({**MINIMAL, **change}))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    # the YAML parser's own text follows the not-yaml message
    assert [e for e in info.value.errors if e.startswith(error)], info.value.errors


def test_the_readme_configuration_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    example = section[section.index("```yaml\n") + len("```yaml\n"):section.index("```\n\n")]
    path = tmp_path / "readme.yaml"
    path.write_text(example)
    loaded = load_config(path)
    assert [t.id for t in loaded.campaign.toolchains] == ["gcc", "clang"]
    assert loaded.campaign.n_groups == 20 and loaded.analysis.beta == 1.5
