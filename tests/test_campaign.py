import stat
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import ompdiff.campaign as campaign
from ompdiff.campaign import (CampaignConfig, CampaignError, CompileResult,
                              ExecResult, RunRecord, ToolchainError, ToolchainSpec,
                              build_matrix, compile_test, execute,
                              execute_matrix, generate_tests, load_records,
                              run_campaign)
from ompdiff.nodes import GeneratorParams

TAME = GeneratorParams(max_expression_size=4, max_nesting_levels=2,
                       max_lines_in_block=4, array_size=64,
                       max_same_level_blocks=2, math_func_allowed=True,
                       math_func_probability=0.01, num_threads=2, rng_seed=11)


def script(path: Path, body: str) -> Path:
    path.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


@pytest.fixture
def fixtures(tmp_path):
    return {
        "ok": script(tmp_path / "ok.py", """
            print("comp=1.5")
            print("time_us=1234")
        """),
        "sleeper": script(tmp_path / "sleeper.py", """
            import signal, time
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            while True:
                time.sleep(0.2)
        """),
        "segfault": script(tmp_path / "segfault.py", """
            import os, signal
            os.kill(os.getpid(), signal.SIGSEGV)
        """),
        "garbled": script(tmp_path / "garbled.py", """
            print("hello world")
        """),
        "flaky": script(tmp_path / "flaky.py", """
            import random
            print(f"comp={random.random()}")
            print("time_us=10")
        """),
        "short": script(tmp_path / "short.py", """
            print("comp=1.0")
            print("time_us=500")
        """),
        "not_utf8": script(tmp_path / "not_utf8.py", """
            import sys
            sys.stdout.buffer.write(b"comp=\\xff\\ntime_us=10\\n")
        """),
        "complains": script(tmp_path / "complains.py", """
            import sys
            sys.stderr.buffer.write(b"x" * 5000 + b"\\xff: assertion failed\\n")
            sys.exit(3)
        """),
    }


def test_execute_ok_parses_contract(fixtures):
    res = execute(fixtures["ok"], [], timeout_seconds=10)
    assert res.status == "OK" and res.time_us == 1234 and res.comp == "1.5"


def test_execute_hang_on_timeout(fixtures):
    import time
    start = time.monotonic()
    res = execute(fixtures["sleeper"], [], timeout_seconds=1)
    elapsed = time.monotonic() - start
    assert res.status == "HANG"
    assert "timeout" in res.exit
    # a hanging binary holds the host for at most timeout + grace (+ slack)
    assert elapsed < 1 + 2 + 2


def test_execute_crash_on_signal(fixtures):
    res = execute(fixtures["segfault"], [], timeout_seconds=10)
    assert res.status == "CRASH"
    assert "signal" in res.exit


def test_execute_crash_on_broken_output(fixtures):
    res = execute(fixtures["garbled"], [], timeout_seconds=10)
    assert res.status == "CRASH"
    assert res.exit == "output contract violated"


def test_execute_crash_on_output_that_is_not_utf8(fixtures):
    res = execute(fixtures["not_utf8"], [], timeout_seconds=10)
    assert res.status == "CRASH"
    assert res.exit == "output contract violated"


def test_execute_repetitions_demand_stable_output(fixtures):
    res = execute(fixtures["flaky"], [], timeout_seconds=10, repetitions=3)
    assert res.status == "CRASH" and "varied" in res.exit
    res = execute(fixtures["ok"], [], timeout_seconds=10, repetitions=3)
    assert res.status == "OK" and res.time_us == 1234


def test_hang_keeps_the_tail_of_stderr(tmp_path):
    talker = script(tmp_path / "talker.py", """
        import sys, time
        print("still working", file=sys.stderr, flush=True)
        time.sleep(30)
    """)
    res = execute(talker, [], timeout_seconds=1)
    assert res.status == "HANG" and res.stderr.startswith("still working\n")
    assert res.wall_us >= 1_000_000


def test_repetitions_keep_the_wall_time_of_the_kept_run(fixtures, monkeypatch):
    runs = iter([ExecResult("OK", time_us=9, comp="1", wall_us=90),
                 ExecResult("OK", time_us=5, comp="1", wall_us=70),
                 ExecResult("OK", time_us=7, comp="1", wall_us=60)])
    monkeypatch.setattr(campaign, "_run_once", lambda *args: next(runs))
    res = execute(fixtures["ok"], [], timeout_seconds=10, repetitions=3)
    assert (res.time_us, res.wall_us) == (5, 70)


def test_execute_missing_binary(tmp_path):
    with pytest.raises(CampaignError):
        execute(tmp_path / "nope", [], timeout_seconds=1)


def test_record_json_roundtrip():
    rec = RunRecord(test=1, group=2, input=0, toolchain="gcc", status="OK",
                    time_us=10, comp="1.0", exit=None)
    assert RunRecord.from_json(rec.to_json()) == rec
    older = ('{"test": 1, "group": 2, "input": 0, "toolchain": "gcc", "status": "OK",'
             ' "time_us": 10, "comp": "1.0", "exit": null}')
    assert RunRecord.from_json(older) == rec  # no stamp, wall_us or stderr


def copying_toolchains(tmp_path, binary, ids=("a", "b")):
    """Toolchains whose stand-in compiler copies `binary` to {out}, so that
    `build_matrix` makes stand-in binaries with current build keys."""
    cc = script(tmp_path / "copycc.py", """
        import shutil, sys
        if sys.argv[1:] != ["--version"]:
            shutil.copy(sys.argv[1], sys.argv[-1])
    """)
    return [ToolchainSpec(id=t, template=f"{cc} {binary} {{src}} -o {{out}}")
            for t in ids]


def test_run_records_keep_wall_time_and_the_tail_of_a_crash_stderr(tmp_path, fixtures):
    ok = _config(tmp_path / "ok", copying_toolchains(tmp_path, fixtures["ok"]))
    generate_tests(ok)
    build_matrix(ok)
    execute_matrix(ok)
    for rec in load_records(ok.records_path()):
        assert rec.status == "OK" and rec.stderr is None
        assert rec.wall_us >= rec.time_us == 1234
    crash = _config(tmp_path / "crash",
                    copying_toolchains(tmp_path, fixtures["complains"]))
    generate_tests(crash)
    build_matrix(crash)
    execute_matrix(crash)
    for rec in load_records(crash.records_path()):
        assert rec.status == "CRASH" and rec.exit == "exit code 3"
        assert len(rec.stderr) == 2000
        assert rec.stderr.endswith("x\ufffd: assertion failed\n")
        assert rec.wall_us > 0


def test_torn_final_record_is_cut_before_resume(tmp_path, fixtures):
    cfg = _config(tmp_path, copying_toolchains(tmp_path, fixtures["ok"]))
    generate_tests(cfg)
    build_matrix(cfg)
    finished = execute_matrix(cfg)
    log = cfg.records_path()
    log.write_bytes(log.read_bytes()[:-20])  # killed in mid-write
    assert len(load_records(log)) == len(finished) - 1
    execute_matrix(cfg)
    keys = [r.key for r in load_records(log)]
    assert sorted(keys) == sorted(r.key for r in finished)
    before = log.read_bytes()
    execute_matrix(cfg)
    assert log.read_bytes() == before


def test_compile_success_and_failure(toolchain, tmp_path):
    good = tmp_path / "good.cpp"
    good.write_text("int main() { return 0; }\n")
    res = compile_test(good, toolchain, tmp_path / "good")
    assert res.ok

    bad = tmp_path / "bad.cpp"
    bad.write_text("int main() { this does not parse }\n")
    res = compile_test(bad, toolchain, tmp_path / "bad")
    assert not res.ok
    assert res.diagnostics  # compiler output captured verbatim


def test_template_placeholders_required():
    with pytest.raises(ToolchainError):
        ToolchainSpec(id="bad", template="g++ {src}").validate()


def _config(tmp_path, toolchains, **kw):
    defaults = dict(campaign_dir=tmp_path / "campaign", toolchains=toolchains,
                    generator=TAME, n_groups=1, tests_per_group=2,
                    inputs_per_test=2, timeout_seconds=30.0)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def test_config_requires_two_toolchains(tmp_path, toolchain):
    cfg = _config(tmp_path, [toolchain])
    with pytest.raises(CampaignError):
        cfg.validate()


def test_campaign_layout_paths(tmp_path, toolchains):
    cfg = _config(tmp_path, toolchains)
    assert str(cfg.test_source(7, 2)).endswith("_tests/_group_7/_test_2.cpp")
    assert str(cfg.test_inputs(7, 2)).endswith("_tests/_group_7/_test_2.inputs")
    assert str(cfg.binary(toolchains[0].id, 0, 1)).endswith(
        f"_bin/{toolchains[0].id}/_group_0/_test_1")


def test_generate_tests_writes_sources_and_inputs(tmp_path, toolchains):
    cfg = _config(tmp_path, toolchains)
    written = generate_tests(cfg)
    assert written == [(0, 0), (0, 1)]
    for g, t in written:
        assert cfg.test_source(g, t).exists()
        lines = cfg.test_inputs(g, t).read_text().splitlines()
        assert len(lines) == cfg.inputs_per_test


def test_build_before_generate_errors(tmp_path, toolchains):
    cfg = _config(tmp_path, toolchains)
    with pytest.raises(CampaignError, match="generate"):
        build_matrix(cfg)


def test_run_campaign_record_accounting(tmp_path, toolchains):
    cfg = _config(tmp_path, toolchains[:2])
    records = run_campaign(cfg)
    assert len(records) == 2 * 2 * 2  # toolchains x tests x inputs
    keys = {r.key for r in records}
    assert len(keys) == len(records)
    assert load_records(cfg.records_path()) == records


def test_campaign_resumes_without_duplicates(tmp_path, toolchains):
    cfg = _config(tmp_path, toolchains[:2])
    full = run_campaign(cfg)

    # simulate a driver crash: keep only the first three records
    lines = cfg.records_path().read_text().splitlines()
    cfg.records_path().write_text("\n".join(lines[:3]) + "\n")
    resumed = execute_matrix(cfg)
    assert len(resumed) == len(full)
    assert {r.key for r in resumed} == {r.key for r in full}
    # resumed runs re-execute, so times differ; statuses and outputs must not
    by_key_full = {r.key: r for r in full}
    for rec in resumed:
        assert rec.status == by_key_full[rec.key].status


def test_compile_fail_becomes_records_not_abort(tmp_path, toolchains):
    cfg = _config(tmp_path, toolchains[:2])
    generate_tests(cfg)
    # sabotage one source for every toolchain
    cfg.test_source(0, 1).write_text("int main() { broken }\n")
    results = build_matrix(cfg)
    assert any(not r.ok for r in results.values())
    records = execute_matrix(cfg)
    assert len(records) == 8
    failed = [r for r in records if r.status == "COMPILE_FAIL"]
    assert {(r.group, r.test) for r in failed} == {(0, 1)}
    assert len(failed) == 4  # 2 toolchains x 2 inputs


def test_compile_failure_gets_the_same_record_from_run_campaign_and_run(
        tmp_path, toolchain):
    broken = replace(toolchain, id="broken",
                     flags=toolchain.flags + ["-fno-such-flag-xyz"])
    cfg = _config(tmp_path, [toolchain, broken])

    def compile_fails(records):
        return {r.key: (r.status, r.exit) for r in records
                if r.status == "COMPILE_FAIL"}

    first = compile_fails(run_campaign(cfg))
    cfg.records_path().write_text("")
    second = compile_fails(execute_matrix(cfg))
    assert len(first) == 2 * 2  # tests x inputs of the broken toolchain
    assert second == first
