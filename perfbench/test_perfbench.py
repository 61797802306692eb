"""Tests of the benchmark's own parts: span self time and the planted log.

    python3 -m pytest perfbench -q
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import synthlog  # noqa: E402
from tracer import Span, Tracer, patched, self_times  # noqa: E402


def _span(id, start, end, parent=None, thread=1):
    return Span(id, f"s{id}", start, end, parent, thread)


def test_self_time_nested_same_thread():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 5.0, parent=0),
             _span(2, 3.0, 4.0, parent=1), _span(3, 6.0, 7.0, parent=0)]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_overlapping_children_on_other_threads():
    # two pool workers under one parent: the covered part is the union [1, 9]
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 6.0, parent=0, thread=2),
             _span(2, 4.0, 9.0, parent=0, thread=3)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(0, 0.0, 4.0), _span(1, 3.0, 6.0, parent=0, thread=2)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_links_pool_threads_to_the_waiting_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(leaf, range(n)))

    outer = tracer.wrap("outer", fan_out)
    assert outer(16) == [2 * i for i in range(16)]
    (top,) = tracer.named("outer")
    leaves = tracer.named("leaf")
    assert len(leaves) == 16
    assert all(s.parent == top.id for s in leaves)
    assert {s.thread for s in leaves} != {top.thread}
    assert len({s.id for s in tracer.spans}) == 17


def test_tracer_nesting_and_exceptions():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom)

    def outer():
        with pytest.raises(ValueError):
            inner()
        return "done"

    assert tracer.wrap("outer", outer)() == "done"
    (o,) = tracer.named("outer")
    (i,) = tracer.named("inner")
    assert i.parent == o.id and o.parent is None
    assert o.start <= i.start <= i.end <= o.end


def test_tracer_spans_are_not_lost_under_contention():
    tracer = Tracer()
    tick = tracer.wrap("tick", lambda: None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [tick() for _ in range(500)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.named("tick")) == 8 * 500
    assert len({s.id for s in tracer.spans}) == 8 * 500


def test_patched_wraps_and_restores(monkeypatch):
    import types
    mod = types.ModuleType("perfbench_fake_mod")
    mod.f = lambda x: [x] * 3
    monkeypatch.setitem(sys.modules, "perfbench_fake_mod", mod)
    original = mod.f
    tracer = Tracer()
    with patched(tracer, {"perfbench_fake_mod": {"f": lambda r: {"n": len(r)}}}):
        assert mod.f is not original
        assert mod.f(1) == [1, 1, 1]
    assert mod.f is original
    (s,) = tracer.named("f")
    assert s.attrs == {"n": 3}


def _read(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_planted_log_covers_every_kind_and_matches_its_own_records(tmp_path):
    planted = synthlog.write_log(tmp_path / "r.jsonl", seed=5, n_groups=40)
    recs = _read(tmp_path / "r.jsonl")
    assert planted.records == len(recs) == 40 * 10 * 3 * len(synthlog.TOOLCHAINS)
    assert all(n > 0 for n in planted.kinds.values()), planted.kinds
    # the bench campaign's mix: 85% of groups short, 15% analyzed
    assert planted.groups_excluded_short / planted.groups_total == pytest.approx(0.85, abs=0.01)
    assert planted.groups_analyzed / planted.groups_total == pytest.approx(0.15, abs=0.01)
    assert planted.groups_total == 40 * 10 * 3
    keys = {(r["group"], r["test"], r["input"], r["toolchain"]) for r in recs}
    assert len(keys) == len(recs)
    statuses = {}
    for r in recs:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
        assert (r["time_us"] is None) == (r["status"] != "OK")
    assert statuses == {k: v for k, v in planted.status.items() if v}
    # groups below the filter are exactly those holding an OK run under min_time_us
    by_group = {}
    for r in recs:
        by_group.setdefault((r["group"], r["test"], r["input"]), []).append(r)
    short = sum(1 for rs in by_group.values()
                if any(r["status"] == "OK" and r["time_us"] < synthlog.ANALYSIS["min_time_us"]
                       for r in rs))
    assert short == planted.groups_excluded_short


def test_planted_log_is_seeded():
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        a = synthlog.write_log(Path(d) / "a", seed=1, n_groups=5)
        b = synthlog.write_log(Path(d) / "b", seed=1, n_groups=5)
        c = synthlog.write_log(Path(d) / "c", seed=2, n_groups=5)
        assert (Path(d) / "a").read_bytes() == (Path(d) / "b").read_bytes()
        assert a == b
        assert (Path(d) / "a").read_bytes() != (Path(d) / "c").read_bytes()


def test_planted_verdicts_equal_analyze_campaign(tmp_path):
    from ompdiff.analysis import AnalysisParams, analyze_campaign, write_verdicts
    from ompdiff.campaign import load_records
    planted = synthlog.write_log(tmp_path / "r.jsonl", seed=11, n_groups=60)
    report = analyze_campaign(load_records(tmp_path / "r.jsonl"),
                              AnalysisParams(**synthlog.ANALYSIS))
    for key in ("groups_total", "groups_analyzed", "groups_excluded_short",
                "groups_disagreeing", "group_anomalies", "runs_analyzed"):
        assert getattr(report, key) == getattr(planted, key), key
    assert report.counts == planted.counts
    write_verdicts(report, tmp_path / "v.jsonl")
    assert synthlog.verdicts_digest(tmp_path / "v.jsonl") == \
        (planted.records, planted.verdict_digest)


def test_verdict_digest_detects_a_changed_verdict(tmp_path):
    from ompdiff.analysis import AnalysisParams, analyze_campaign, write_verdicts
    from ompdiff.campaign import load_records
    planted = synthlog.write_log(tmp_path / "r.jsonl", seed=3, n_groups=10)
    report = analyze_campaign(load_records(tmp_path / "r.jsonl"),
                              AnalysisParams(**synthlog.ANALYSIS))
    write_verdicts(report, tmp_path / "v.jsonl")
    lines = (tmp_path / "v.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["verdict"] = "SLOW" if first["verdict"] != "SLOW" else "NONE"
    lines[0] = json.dumps(first)
    (tmp_path / "v.jsonl").write_text("\n".join(lines) + "\n")
    assert synthlog.verdicts_digest(tmp_path / "v.jsonl") != \
        (planted.records, planted.verdict_digest)


def test_benchmark_json_names_what_run_py_reports():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(run.layer_metrics(Tracer())) | {"trace.overhead_s", "error_rate"} == \
        set(run.PER_LAYER_UNITS)
    cmd = run.Command("all", 0, 2.0, "")
    e2e = run.end_to_end([run.Pass([cmd], cmd, cmd, 20, 180, 9)], 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    assert all(value > 0 for value, _ in e2e.values())


SEED_SUMMARY = ("groups: 60 total, 9 analyzed, 51 below the minimum-time filter, "
                "0 with numeric disagreement, 0 whole-group failures")


class _FakeCli:
    """Stands in for ompdiff.cli: writes a 2x10x3x3 record log, prints a summary."""

    def __init__(self, status, summary, write=True):
        self.status, self.summary, self.write = status, summary, write

    def main(self, argv):
        d = Path(argv[argv.index("--campaign-dir") + 1])
        d.mkdir(parents=True, exist_ok=True)
        if self.write:
            with open(d / "records.jsonl", "w") as fh:
                for g in range(2):
                    for t in range(10):
                        for tc in ("gcc-O3", "gcc-O2", "gcc-O0"):
                            for i in range(3):
                                fh.write(json.dumps({
                                    "group": g, "test": t, "input": i, "toolchain": tc,
                                    "status": self.status, "comp": "1.0"}) + "\n")
        print(self.summary)
        return 0


def _campaign_failures(tmp_path, cli, name="campaign-cold", passes=1):
    import run
    w = run.CampaignWorkload(name, cli)
    w.dir = tmp_path / "campaign"
    w.expected_records = 180
    return [w.run_pass().commands[0].failures for _ in range(passes)]


def test_campaign_checks_pass_on_the_seed_outcome(tmp_path):
    assert _campaign_failures(tmp_path, _FakeCli("OK", SEED_SUMMARY)) == [[]]


def test_campaign_checks_catch_a_campaign_where_every_compile_fails(tmp_path):
    # analyze counts each group without an OK run as analyzed
    broken = SEED_SUMMARY.replace("9 analyzed, 51 below", "60 analyzed, 0 below")
    (failures,) = _campaign_failures(tmp_path, _FakeCli("COMPILE_FAIL", broken))
    assert any("statuses" in f for f in failures)
    assert any("60 groups analyzed" in f for f in failures)


def test_warm_pass_without_a_record_log_fails_without_raising(tmp_path):
    cli = _FakeCli("OK", SEED_SUMMARY, write=False)
    first, second = _campaign_failures(tmp_path, cli, "campaign-warm", passes=2)
    assert any("0 records" in f for f in first)
    assert any("0 records" in f for f in second)
