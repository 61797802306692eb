"""The names that the benchmark's tracer wraps still exist, and `ompdiff all`
still reaches the pipeline stages through `ompdiff.cli`, where it wraps them.
A refactor that moves one of these hooks would otherwise leave the benchmark's
per-layer figures silently empty."""

import importlib
import importlib.util
import sys
from pathlib import Path

import ompdiff.cli as cli
from ompdiff.cli import main

from test_build_cache import _cli_config, _toolchains, fakecc  # noqa: F401
from test_campaign import _config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
STAGES = ("generate_tests", "build_matrix", "execute_matrix")


def test_traced_names_exist_and_all_calls_each_stage_once_through_cli(
        tmp_path, fakecc, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
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
