"""The content-addressed build cache, record stamps and the record-log lock.

No compiler is needed: `fakecc.py` stands in for one. It writes a Python
script as the "binary", with the source's sha256 and the flags in a comment,
so a binary changes exactly when its source or flags change. It fails after
writing the binary, with 3,000 characters of diagnostics, when `--fail` is
among its flags, and exits 0 without writing a binary when `--no-out` is.
"""

import json
import threading
import time
from dataclasses import replace

import pytest
import yaml

import ompdiff.campaign as campaign
import ompdiff.cli as cli
from ompdiff.campaign import (CampaignError, RunRecord, ToolchainError,
                              ToolchainSpec, build_matrix, compile_test,
                              execute_matrix, generate_tests, load_records)
from ompdiff.cli import EXIT_ERROR, main
from ompdiff.config import load_config

from test_campaign import (_cli_config, _config, copying_toolchains,  # noqa: F401
                           fixtures, script)

FAKECC = """
    import hashlib, os, sys
    if sys.argv[1:] == ["--version"]:
        print("fakecc 1.0")
        sys.exit(0)
    args = sys.argv[1:]
    if "--no-out" in args:
        sys.exit(0)
    out = args[args.index("-o") + 1]
    src = args[args.index("-o") - 1]
    digest = hashlib.sha256(open(src, "rb").read()).hexdigest()
    with open(out, "w") as fh:
        fh.write("#!/usr/bin/env python3\\n"
                 f"# {digest} {' '.join(args[:-3])}\\n"
                 "print('comp=1.5')\\n"
                 "print('time_us=1234')\\n")
    os.chmod(out, 0o755)
    if "--fail" in args:
        print("x" * 3000 + "\\nfakecc: error: --fail given", file=sys.stderr)
        sys.exit(1)
"""


@pytest.fixture
def fakecc(tmp_path):
    return script(tmp_path / "fakecc.py", FAKECC)


def _toolchains(cc, *flag_sets):
    return [ToolchainSpec(id=f"t{i}", template=f"{cc} {{flags}} {{src}} -o {{out}}",
                          flags=list(flags))
            for i, flags in enumerate(flag_sets)]


@pytest.fixture
def compiles(monkeypatch):
    """The arguments of every call of compile_test, the one code that compiles."""
    calls = []
    real = campaign.compile_test

    def counted(source, toolchain, out):
        calls.append((toolchain.id, out))
        return real(source, toolchain, out)

    monkeypatch.setattr(campaign, "compile_test", counted)
    return calls


def test_second_all_compiles_nothing_and_leaves_the_log_byte_identical(
        tmp_path, fakecc, compiles, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    argv = ["--config", _cli_config(tmp_path, cfg)]
    assert main(["all"] + argv) == 0
    assert len(compiles) == 4  # toolchains x tests
    log = cfg.records_path()
    first = log.read_bytes()
    assert len(first.splitlines()) == 2 * 2 * 2
    assert all(r.stamp for r in load_records(log))

    assert main(["all"] + argv) == 0
    assert len(compiles) == 4
    assert log.read_bytes() == first

    capsys.readouterr()
    assert main(["build"] + argv) == 0
    assert capsys.readouterr().out.strip() == \
        "compiled 0, reused 4, failed 0 of 4 matrix entries"


def test_changing_a_toolchains_flags_recompiles_only_that_toolchain(
        tmp_path, fakecc, compiles):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    assert main(["all", "--config", _cli_config(tmp_path, cfg)]) == 0
    before = {r.key: r for r in load_records(cfg.records_path())}
    compiles.clear()

    changed = replace(cfg, toolchains=[cfg.toolchains[0],
                                       replace(cfg.toolchains[1], flags=["-O1"])])
    results = build_matrix(changed)
    assert sorted(compiles) == sorted(
        ("t1", changed.binary("t1", 0, t)) for t in range(2))
    assert all(res.cached for (tc, _, _), res in results.items() if tc == "t0")
    assert "-O1" in changed.binary("t1", 0, 0).read_text()

    # the new binaries make t1's records stale; t0's are kept as they were
    after = execute_matrix(changed)
    assert [r for r in after if r.toolchain == "t0"] == \
        [r for r in before.values() if r.toolchain == "t0"]
    assert all(r.stamp != before[r.key].stamp for r in after if r.toolchain == "t1")


def test_cached_compile_failure_is_not_compiled_again(tmp_path, fakecc, compiles):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["--fail"]))
    assert main(["all", "--config", _cli_config(tmp_path, cfg)]) == 0
    first = load_records(cfg.records_path())
    failed = [r for r in first if r.status == "COMPILE_FAIL"]
    assert len(failed) == 2 * 2 and {r.toolchain for r in failed} == {"t1"}
    for rec in failed:  # the tail of the compiler's diagnostics
        assert rec.exit == "compile failed" and len(rec.stderr) == 2000
        assert rec.stderr.endswith("x\nfakecc: error: --fail given")
    # the compiler wrote a binary before it failed; no binary may remain
    assert not any(cfg.binary("t1", 0, t).exists() for t in range(2))
    log = cfg.records_path().read_bytes()
    compiles.clear()

    results = build_matrix(cfg)
    assert compiles == []
    res = results[("t1", 0, 0)]
    assert not res.ok and res.cached and "--fail given" in res.diagnostics
    assert execute_matrix(cfg) == first
    assert cfg.records_path().read_bytes() == log


def test_a_compile_that_writes_no_binary_fails_on_the_first_build(
        tmp_path, fakecc, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["--no-out"]))
    argv = ["--config", _cli_config(tmp_path, cfg)]
    assert main(["generate"] + argv) == 0
    for summary in ("compiled 2, reused 0, failed 2 of 4 matrix entries",
                    "compiled 0, reused 2, failed 2 of 4 matrix entries"):
        capsys.readouterr()
        assert main(["build"] + argv) == 0
        assert capsys.readouterr().out.strip() == summary
    out = cfg.binary("t1", 0, 0)
    assert (build_matrix(cfg)[("t1", 0, 0)].diagnostics
            == f"exit code 0 but no binary at {out}")

    # a binary left by an earlier compile does not pass for this one's
    out.write_text("stale")
    res = compile_test(cfg.test_source(0, 0), cfg.toolchains[1], out)
    assert not res.ok and res.diagnostics == f"exit code 0 but no binary at {out}"


def test_unknown_compiler_stops_the_build_before_any_compile(
        tmp_path, fakecc, compiles, capsys):
    ghost = ToolchainSpec(id="ghost",
                          template="no-such-compiler-xyz {flags} {src} -o {out}")
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"]) + [ghost])
    generate_tests(cfg)
    with pytest.raises(ToolchainError, match="ghost"):
        build_matrix(cfg)
    capsys.readouterr()
    assert main(["build", "--config", _cli_config(tmp_path, cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'ghost'" in err and "no-such-compiler-xyz" in err
    assert compiles == []
    assert not (cfg.campaign_dir / "_bin").exists()


def test_other_seed_reruns_every_record_and_analyze_sees_only_new_stamps(
        tmp_path, fakecc, compiles, monkeypatch):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    argv = ["all", "--config", _cli_config(tmp_path, cfg)]
    assert main(argv) == 0
    old = {r.stamp for r in load_records(cfg.records_path())}

    runs, analyzed = [], []
    real_execute, real_analyze = campaign.execute, cli.analyze_campaign
    monkeypatch.setattr(campaign, "execute",
                        lambda *a, **k: runs.append(a[0]) or real_execute(*a, **k))
    monkeypatch.setattr(cli, "analyze_campaign",
                        lambda records, params: analyzed.extend(records)
                        or real_analyze(records, params))
    compiles.clear()
    assert main(argv + ["--seed", "999"]) == 0
    assert len(compiles) == 4
    assert len(runs) == 2 * 2 * 2
    assert len(analyzed) == 2 * 2 * 2
    assert not {r.stamp for r in analyzed} & old
    assert load_records(cfg.records_path()) == analyzed


def test_records_without_stamps_are_rerun_once(tmp_path, fixtures):
    cfg = _config(tmp_path, copying_toolchains(tmp_path, fixtures["ok"]))
    generate_tests(cfg)
    build_matrix(cfg)
    finished = execute_matrix(cfg)
    log = cfg.records_path()
    log.write_text("".join(replace(r, stamp=None).to_json() + "\n" for r in finished))
    rerun = execute_matrix(cfg)
    # the same records, but for the wall time each new run measured
    assert [replace(r, wall_us=None) for r in rerun] == [
        replace(r, wall_us=None) for r in finished]
    before = log.read_bytes()
    assert before == "".join(r.to_json() + "\n" for r in rerun).encode()
    execute_matrix(cfg)
    assert log.read_bytes() == before


class Killed(Exception):
    pass


def test_sidecar_of_a_killed_compile_forces_a_rebuild(tmp_path, fakecc, monkeypatch):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    generate_tests(cfg)
    build_matrix(cfg)
    victim = cfg.binary("t1", 0, 1)
    good = victim.read_bytes()

    # a new source, and the harness killed while that compile writes its output
    cfg.test_source(0, 1).write_text(cfg.test_source(0, 1).read_text() + "// edited\n")
    real = campaign.compile_test

    def killed(source, toolchain, out):
        if out == victim:
            out.write_bytes(good[:20])
            raise Killed
        return real(source, toolchain, out)

    monkeypatch.setattr(campaign, "compile_test", killed)
    with pytest.raises(Killed):
        build_matrix(cfg)
    assert not victim.with_suffix(".build").exists()

    monkeypatch.setattr(campaign, "compile_test", real)
    victim.touch()  # newer than its source, as a half-written output is
    results = build_matrix(cfg)
    assert not results[("t1", 0, 1)].cached
    assert results[("t1", 0, 0)].cached
    assert victim.read_bytes() == cfg.binary("t0", 0, 1).read_bytes().replace(
        b"-O2", b"-O0")


def test_stale_sidecar_forces_a_rebuild(tmp_path, fakecc, compiles):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    generate_tests(cfg)
    build_matrix(cfg)
    compiles.clear()
    cfg.binary("t0", 0, 0).with_suffix(".build").write_text(
        json.dumps({"key": "0" * 64, "ok": True, "diagnostics": ""}))
    results = build_matrix(cfg)
    assert [tc for tc, _ in compiles] == ["t0"]
    assert not results[("t0", 0, 0)].cached

    # a sidecar cut short, as a full disk leaves it, is no outcome either
    cfg.binary("t0", 0, 0).with_suffix(".build").write_text('{"key": "')
    assert not build_matrix(cfg)[("t0", 0, 0)].cached


def test_second_run_fails_while_the_first_holds_the_lock(tmp_path, capsys):
    started, release = tmp_path / "started", tmp_path / "release"
    blocker = script(tmp_path / "blocker.py", f"""
        import pathlib, time
        pathlib.Path({str(started)!r}).touch()
        deadline = time.monotonic() + 20
        while not pathlib.Path({str(release)!r}).exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        print("comp=1.5")
        print("time_us=1234")
    """)
    cfg = _config(tmp_path, copying_toolchains(tmp_path, blocker),
                  tests_per_group=1, inputs_per_test=1)
    generate_tests(cfg)
    build_matrix(cfg)
    cfg = load_config(_cli_config(tmp_path, cfg)).campaign

    errors = []

    def first_run():
        try:
            execute_matrix(cfg)
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    thread = threading.Thread(target=first_run)
    thread.start()
    try:
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert started.exists()
        capsys.readouterr()
        assert main(["run", "--config", str(tmp_path / "campaign.yaml")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg.records_path()) in err
    finally:
        release.touch()
        thread.join(timeout=60)
    assert not thread.is_alive() and errors == []
    assert len(load_records(cfg.records_path())) == 2


def test_corrupt_mid_log_line_names_the_file_and_the_line(tmp_path, capsys):
    log = tmp_path / "camp" / "records.jsonl"
    log.parent.mkdir()
    lines = [RunRecord(test=0, group=0, input=i, toolchain=t, status="OK",
                       time_us=2000, comp="1.5").to_json()
             for i in range(2) for t in ("a", "b", "c")]
    lines.insert(3, '{"test": 0, "gro')
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(CampaignError, match=r"records\.jsonl line 4: not a run record"):
        load_records(log)

    cfg = tmp_path / "campaign.yaml"
    cfg.write_text(yaml.safe_dump({
        "campaign_dir": str(log.parent),
        "toolchains": [{"id": t, "template": "cc {src} -o {out}"} for t in "ab"],
        "generator": {"num_threads": 2}}))
    assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log} line 4: not a run record (JSONDecodeError: ")
    assert err.count("\n") == 1


def test_run_after_a_new_generate_refuses_and_leaves_the_log_byte_identical(
        tmp_path, fakecc, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    argv = ["--config", _cli_config(tmp_path, cfg)]
    assert main(["all"] + argv) == 0
    log = cfg.records_path().read_bytes()
    assert main(["generate", "--seed", "7"] + argv) == 0
    capsys.readouterr()
    assert main(["run"] + argv) == EXIT_ERROR
    assert "run the build stage first" in capsys.readouterr().err
    assert cfg.records_path().read_bytes() == log


def test_run_refuses_an_inputs_file_shorter_than_inputs_per_test(
        tmp_path, fakecc, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    assert main(["all", "--config", _cli_config(tmp_path, cfg)]) == 0
    log = cfg.records_path().read_bytes()
    argv = ["--config", _cli_config(tmp_path, replace(cfg, inputs_per_test=3))]
    assert main(["build"] + argv) == 0
    capsys.readouterr()
    assert main(["run"] + argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {cfg.test_inputs(0, 0)} holds 2 of 3 inputs; "
        "run the generate stage first\n")
    assert cfg.records_path().read_bytes() == log


def test_run_refuses_a_binary_without_its_key(tmp_path, fakecc, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    argv = ["--config", _cli_config(tmp_path, cfg)]
    assert main(["all"] + argv) == 0
    victim = cfg.binary("t1", 0, 1)
    victim.with_suffix(".build").unlink()
    capsys.readouterr()
    assert main(["run"] + argv) == EXIT_ERROR
    assert capsys.readouterr().err == \
        f"error: {victim} is out of date; run the build stage first\n"


def test_run_into_an_empty_dir_creates_nothing_and_analyze_then_fails(
        tmp_path, fakecc, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    argv = ["--config", _cli_config(tmp_path, cfg)]
    assert main(["run"] + argv) == EXIT_ERROR
    assert "run the generate stage first" in capsys.readouterr().err
    assert not cfg.campaign_dir.exists()
    assert main(["analyze"] + argv) == EXIT_ERROR


def test_all_takes_each_compilers_fingerprint_once(tmp_path, fakecc, monkeypatch):
    other = script(tmp_path / "othercc.py", FAKECC)
    toolchains = _toolchains(fakecc, ["-O2"], ["-O0"]) + [
        ToolchainSpec(id="o", template=f"{other} {{flags}} {{src}} -o {{out}}")]
    cfg = _config(tmp_path, toolchains)
    calls = []
    real = campaign._compiler_fingerprint
    monkeypatch.setattr(campaign, "_compiler_fingerprint",
                        lambda tc: calls.append(tc.compiler) or real(tc))
    assert main(["all", "--config", _cli_config(tmp_path, cfg)]) == 0
    assert sorted(calls) == sorted([str(fakecc), str(other)])
    assert len(load_records(cfg.records_path())) == 3 * 2 * 2


def test_a_deleted_binary_is_built_again_and_runs(tmp_path, fakecc, capsys):
    cfg = _config(tmp_path, _toolchains(fakecc, ["-O2"], ["-O0"]))
    argv = ["--config", _cli_config(tmp_path, cfg)]
    assert main(["generate"] + argv) == 0
    assert main(["build"] + argv) == 0
    cfg.binary("t0", 0, 0).unlink()  # a natural way to force a rebuild
    capsys.readouterr()
    assert main(["build"] + argv) == 0
    assert capsys.readouterr().out.strip() == \
        "compiled 1, reused 3, failed 0 of 4 matrix entries"
    assert main(["run"] + argv) == 0
    records = load_records(cfg.records_path())
    assert len(records) == 2 * 2 * 2 and {r.status for r in records} == {"OK"}


def test_separate_stages_give_the_records_of_all(tmp_path, fakecc, capsys):
    toolchains = _toolchains(fakecc, ["-O2"], ["-O0"], ["--fail"])
    records, outputs = [], []
    for stages in (["generate", "build", "run", "analyze"], ["all"]):
        where = tmp_path / stages[0]
        where.mkdir()
        cfg = _config(where, toolchains)
        argv = ["--config", _cli_config(where, cfg)]
        capsys.readouterr()
        assert [main([stage] + argv) for stage in stages] == [0] * len(stages)
        outputs.append(capsys.readouterr().out.splitlines())
        records.append({r.key: (r.status, r.comp)
                        for r in load_records(cfg.records_path())})
    assert records[0] == records[1] and len(records[0]) == 3 * 2 * 2
    assert "record log holds 12 records" in outputs[0]
