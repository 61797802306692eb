"""The names that the benchmark's tracer wraps still exist, and `ompdiff all`
still reaches the pipeline stages through `ompdiff.cli`, where it wraps them.
A refactor that moves one of these hooks would otherwise leave the benchmark's
per-layer figures silently empty."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import ompdiff.cli as cli
from ompdiff.cli import main

from test_build_cache import _cli_config, _toolchains, fakecc  # noqa: F401
from test_campaign import _config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
STAGES = ("generate_tests", "build_matrix", "execute_matrix")


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py, imported as a module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_and_all_calls_each_stage_once_through_cli(
        tmp_path, fakecc, monkeypatch, bench):
    targets = bench.TRACE_TARGETS
    assert not [f"{module}.{name}" for module, names in targets.items()
                for name in names if not hasattr(importlib.import_module(module), name)]
    assert set(STAGES) <= set(targets["ompdiff.cli"])

    calls = []
    for name in STAGES:
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    assert main(["all", "--config", _cli_config(tmp_path, cfg)]) == 0
    assert calls == list(STAGES)


def test_traced_all_records_a_span_for_every_name_and_notes_the_summary(
        tmp_path, fakecc, capsys, bench):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    with bench.patched(bench.Tracer(), bench.TRACE_TARGETS) as tracer:
        assert main(["all", "--config", _cli_config(tmp_path, cfg)]) == 0
    names = [name for names in bench.TRACE_TARGETS.values() for name in names]
    assert len(names) == 13
    assert not [name for name in names if not tracer.named(name)]

    total, analyzed = re.search(r"groups: (\d+) total, (\d+) analyzed",
                                capsys.readouterr().out).groups()
    [span] = tracer.named("analyze_campaign")
    assert span.attrs == {"groups_total": int(total), "groups_analyzed": int(analyzed)}
