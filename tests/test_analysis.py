import json
from random import Random

import pytest

from ompdiff.analysis import (AnalysisError, AnalysisParams, Classification,
                              analyze_campaign, classify_correctness,
                              classify_performance, comparable, midpoint,
                              numeric_agreement, render_table, write_verdicts)
from ompdiff.campaign import RunRecord

from oracles import classify_bruteforce, correctness_table

RAW = AnalysisParams(alpha=0.2, beta=1.5, min_time_us=0)


def test_comparable_hand_values():
    assert comparable(5, 5, 0.2)
    assert comparable(100, 110, 0.2)  # 10/100 = 0.10 <= 0.2
    assert not comparable(5, 9, 0.2)  # 4/5 = 0.8
    assert comparable(1000, 1200, 0.2)  # exactly on the boundary


def test_comparable_symmetric():
    rng = Random(1)
    for _ in range(500):
        a, b = rng.uniform(1, 1e7), rng.uniform(1, 1e7)
        alpha = rng.uniform(0.01, 2.0)
        assert comparable(a, b, alpha) == comparable(b, a, alpha)


def test_comparable_rejects_zero_min():
    with pytest.raises(AnalysisError):
        comparable(0, 5, 0.2)


def test_midpoint():
    assert midpoint([5, 5]) == 5
    assert midpoint([100, 110]) == 105
    assert midpoint([42.0]) == 42.0
    with pytest.raises(AnalysisError):
        midpoint([])


def test_params_validation():
    with pytest.raises(AnalysisError):
        AnalysisParams(alpha=0.0).validate()
    with pytest.raises(AnalysisError):
        AnalysisParams(beta=1.0).validate()
    with pytest.raises(AnalysisError):
        # a time could be comparable to the cluster yet rated an outlier
        AnalysisParams(alpha=0.6, beta=1.5).validate()
    AnalysisParams().validate()


def test_slow_outlier_paper_scenario():
    # two 5-minute runs and one 9-minute run: 9/5 = 1.8 >= 1.5
    out = classify_performance({"P1": 5, "P2": 5, "P3": 9}, RAW)
    assert out == {"P1": Classification.NONE, "P2": Classification.NONE,
                   "P3": Classification.SLOW}


def test_fast_outlier():
    # cluster {100, 110}, midpoint 105; 105/40 = 2.625 >= 1.5
    out = classify_performance({"A": 100, "B": 110, "C": 40}, RAW)
    assert out == {"A": Classification.NONE, "B": Classification.NONE,
                   "C": Classification.FAST}


def test_identical_times_no_outlier():
    out = classify_performance({"A": 7.0, "B": 7.0, "C": 7.0}, RAW)
    assert set(out.values()) == {Classification.NONE}


def test_no_comparable_pair_excludes_group():
    # 140/100 = 0.4, 190/140 ~ 0.357: no pair within alpha
    out = classify_performance({"A": 100, "B": 140, "C": 190}, RAW)
    assert set(out.values()) == {Classification.EXCLUDED}


def test_two_member_groups_excluded():
    out = classify_performance({"A": 100, "B": 500}, RAW)
    assert set(out.values()) == {Classification.EXCLUDED}


def test_min_time_filter_excludes_whole_group():
    params = AnalysisParams(alpha=0.2, beta=1.5, min_time_us=1000)
    out = classify_performance({"A": 500, "B": 5000, "C": 5100}, params)
    assert set(out.values()) == {Classification.EXCLUDED}
    # 1000 is not below the threshold
    ok = classify_performance({"A": 1000, "B": 1050, "C": 5000}, params)
    assert ok["C"] is Classification.SLOW


def test_zero_times_excluded_even_with_filter_disabled():
    out = classify_performance({"A": 0, "B": 10, "C": 11}, RAW)
    assert set(out.values()) == {Classification.EXCLUDED}
    records = [_rec(0, 0, 0, tc, "OK", t, "1.0")
               for tc, t in (("A", 0), ("B", 10), ("C", 11))]
    report = analyze_campaign(records, AnalysisParams(min_time_us=0))
    assert not report.outliers_found


def test_matches_bruteforce_on_random_groups():
    rng = Random(7)
    for _ in range(2000):
        n = rng.randint(3, 6)
        times = {f"T{i}": rng.choice([rng.uniform(1, 20), float(rng.randint(1, 20))])
                 for i in range(n)}
        got = classify_performance(times, RAW)
        want = classify_bruteforce(times, 0.2, 1.5, 0)
        assert {k: v.value for k, v in got.items()} == want, times


def test_scale_invariance_spot():
    rng = Random(3)
    for _ in range(200):
        times = {f"T{i}": rng.uniform(1, 100) for i in range(4)}
        scale = rng.uniform(1e-3, 1e6)
        base = classify_performance(times, RAW)
        scaled = classify_performance({k: v * scale for k, v in times.items()}, RAW)
        assert base == scaled


def test_monotonicity_of_nonmember_times():
    # with cluster {100, 110} fixed, pushing the outsider up never un-slows it
    last = None
    for t in (150, 160, 200, 1000, 1e9):
        cls = classify_performance({"A": 100, "B": 110, "C": t}, RAW)["C"]
        if last is Classification.SLOW:
            assert cls is Classification.SLOW
        last = cls


def test_correctness_worked_example():
    res = classify_correctness({"P1": "OK", "P2": "CRASH", "P3": "OK"})
    assert res.classes == {"P1": Classification.NONE,
                           "P2": Classification.CRASH_OUTLIER,
                           "P3": Classification.NONE}
    assert not res.group_anomaly


def test_correctness_all_27_cases():
    statuses = ("OK", "CRASH", "HANG")
    for s1 in statuses:
        for s2 in statuses:
            for s3 in statuses:
                combo = {"P1": s1, "P2": s2, "P3": s3}
                res = classify_correctness(combo)
                want = correctness_table(combo)
                assert {k: v.value if v.value != "NONE" else "NONE"
                        for k, v in res.classes.items()} == want, combo


def test_correctness_all_fail_is_anomaly_not_outlier():
    res = classify_correctness({"P1": "HANG", "P2": "HANG", "P3": "HANG"})
    assert set(res.classes.values()) == {Classification.NONE}
    assert res.group_anomaly


def test_correctness_needs_two_implementations():
    with pytest.raises(AnalysisError):
        classify_correctness({"P1": "CRASH"})


def test_numeric_agreement():
    assert numeric_agreement({"a": "1.5", "b": "1.5", "c": "1.5"}, 0) == []
    assert numeric_agreement({"a": "nan", "b": "nan"}, 0) == []
    assert numeric_agreement({"a": "nan", "b": "-nan"}, 0) == []
    assert numeric_agreement({"a": "1.0", "b": "2.0"}, 1e-12) == ["a vs b: 1.0 != 2.0"]
    assert numeric_agreement({"a": "inf", "b": "inf"}, 0) == []
    assert numeric_agreement({"a": "inf", "b": "-inf"}, 1e-6)
    assert numeric_agreement({"a": "nan", "b": "1.0"}, 1e-6)
    assert numeric_agreement({"a": "1.0", "b": "1.0000000001"}, 1e-6) == []
    details = numeric_agreement({"a": "bogus", "b": "1.0"}, 0)
    assert len(details) == 1 and "unparseable" in details[0]
    assert numeric_agreement({"a": "0.0", "b": "-0.0"}, 0) == []


def _rec(group, test, inp, tc, status, time_us=None, comp=None):
    return RunRecord(test=test, group=group, input=inp, toolchain=tc,
                     status=status, time_us=time_us, comp=comp)


def slow_fixture_records():
    """One group where toolchain C is a clean slow outlier."""
    return [
        _rec(0, 0, 0, "A", "OK", 100000, "1.5"),
        _rec(0, 0, 0, "B", "OK", 105000, "1.5"),
        _rec(0, 0, 0, "C", "OK", 400000, "1.5"),
    ]


def test_analyze_campaign_counts_single_slow_group():
    report = analyze_campaign(slow_fixture_records(), AnalysisParams())
    assert report.counts["C"]["slow"] == 1
    assert report.counts["A"] == {"slow": 0, "fast": 0, "crash": 0, "hang": 0}
    assert report.outliers_found


def test_analyze_campaign_empty():
    report = analyze_campaign([], AnalysisParams())
    assert report.groups_total == 0 and report.counts == {}
    assert not report.outliers_found


def test_analyze_campaign_correctness_and_exclusions():
    records = [
        # crash outlier for B
        _rec(0, 0, 0, "A", "OK", 200000, "2.0"),
        _rec(0, 0, 0, "B", "CRASH"),
        _rec(0, 0, 0, "C", "OK", 210000, "2.0"),
        # short group: excluded from performance analysis
        _rec(0, 1, 0, "A", "OK", 400, "1.0"),
        _rec(0, 1, 0, "B", "OK", 90000, "1.0"),
        _rec(0, 1, 0, "C", "OK", 91000, "1.0"),
        # compile failure never counts as a crash
        _rec(0, 2, 0, "A", "COMPILE_FAIL"),
        _rec(0, 2, 0, "B", "OK", 50000, "3.0"),
        _rec(0, 2, 0, "C", "OK", 51000, "3.0"),
    ]
    report = analyze_campaign(records, AnalysisParams())
    assert report.counts["B"]["crash"] == 1
    assert report.groups_excluded_short == 1
    assert report.counts["A"]["crash"] == 0
    v = {(g.group, g.test): g for g in report.verdicts}
    assert v[(0, 2)].classes["A"] is Classification.EXCLUDED


def test_analyze_campaign_numeric_mismatch_reported_separately():
    records = [
        _rec(0, 0, 0, "A", "OK", 100000, "1.0"),
        _rec(0, 0, 0, "B", "OK", 105000, "1.0"),
        _rec(0, 0, 0, "C", "OK", 400000, "9.0"),
    ]
    report = analyze_campaign(records, AnalysisParams())
    assert report.groups_disagreeing == 1
    # the slow verdict exists on the group, but stays out of the main counts
    assert report.verdicts[0].classes["C"] is Classification.SLOW
    assert report.counts["C"]["slow"] == 0
    assert not report.outliers_found


def test_correctness_outlier_never_doubles_as_performance_outlier():
    records = [
        _rec(0, 0, 0, "A", "OK", 100000, "1.0"),
        _rec(0, 0, 0, "B", "OK", 105000, "1.0"),
        _rec(0, 0, 0, "C", "HANG"),
        _rec(0, 0, 0, "D", "OK", 102000, "1.0"),
    ]
    report = analyze_campaign(records, AnalysisParams())
    assert report.verdicts[0].classes["C"] is Classification.HANG_OUTLIER
    assert report.counts["C"] == {"slow": 0, "fast": 0, "crash": 0, "hang": 1}


# One (group, test, input) group of each kind, as {toolchain: (status, time_us, comp)}.
PINNED_GROUPS = {
    (0, 0, 0): {"A": ("OK", 100000, "1.5"), "B": ("OK", 105000, "1.5"),  # C slow
                "C": ("OK", 400000, "1.5"), "D": ("OK", 102000, "1.5")},
    (0, 1, 0): {"A": ("OK", 100000, "2.5"), "B": ("OK", 110000, "2.5"),  # C fast
                "C": ("OK", 40000, "2.5"), "D": ("OK", 104000, "2.5")},
    (0, 2, 1): {"A": ("OK", 200000, "2.0"), "B": ("CRASH", None, None),
                "C": ("OK", 210000, "2.0"), "D": ("OK", 205000, "2.0")},
    (1, 0, 0): {"A": ("OK", 150000, "0.5"), "B": ("OK", 150000, "0.5"),
                "C": ("OK", 151000, "0.5"), "D": ("HANG", None, None)},
    (1, 1, 2): {"A": ("CRASH", None, None), "B": ("HANG", None, None),  # anomaly
                "C": ("CRASH", None, None), "D": ("HANG", None, None)},
    (1, 2, 0): {"A": ("COMPILE_FAIL", None, None), "B": ("OK", 50000, "3.0"),
                "C": ("OK", 51000, "3.0"), "D": ("OK", 50500, "3.0")},
    (2, 0, 0): {"A": ("OK", 400, "1.0"), "B": ("OK", 90000, "1.0"),  # short
                "C": ("OK", 91000, "1.0"), "D": ("OK", 90500, "1.0")},
    (2, 1, 0): {"A": ("OK", 100000, "1.0"), "B": ("OK", 105000, "1.0"),  # C slow,
                "C": ("OK", 400000, "9.0"), "D": ("OK", 102000, "1.0")},  # disagrees
    (2, 2, 0): {"A": ("OK", 100000, "1.0"), "B": ("OK", 101000, "garbage"),
                "C": ("OK", 102000, "1.0"), "D": ("OK", 100500, "1.0")},
    (3, 0, 0): {"A": ("COMPILE_FAIL", None, None), "B": ("COMPILE_FAIL", None, None),
                "C": ("COMPILE_FAIL", None, None), "D": ("OK", 70000, "4.0")},
}


def pinned_records():
    """PINNED_GROUPS as a record stream that is in neither key nor config
    order: (1,0,0) B, (0,0,0) A, (1,0,0) C, (0,0,0) D, then the rest."""
    first = [((1, 0, 0), "B"), ((0, 0, 0), "A"), ((1, 0, 0), "C"), ((0, 0, 0), "D")]
    rest = [(key, tc) for key in sorted(PINNED_GROUPS, reverse=True)
            for tc in "DCBA" if (key, tc) not in first]
    return [_rec(*key, tc, *PINNED_GROUPS[key][tc]) for key, tc in first + rest]


PINNED_TABLE = "\n".join([
    "                  Slow    Fast   Crash    Hang",
    "----------------------------------------------",
    "B                   --      --       1      --",
    "A                   --      --      --      --",
    "C                    1       1      --      --",
    "D                   --      --      --       1",
    "",
    "groups: 10 total, 9 analyzed, 1 below the minimum-time filter, "
    "2 with numeric disagreement, 1 whole-group failures",
    "runs analyzed after filtering: 26",
    "",
    "numeric-mismatch groups (performance verdicts reported, not counted above):",
    "  group 2 test 1 input 0: {'C': 'SLOW'}; "
    "A vs C: 1.0 != 9.0; B vs C: 1.0 != 9.0; C vs D: 9.0 != 1.0",
    "  group 2 test 2 input 0: no performance outlier; "
    "A vs B: unparseable output from B: 'garbage'; "
    "B vs C: unparseable output from B: 'garbage'; "
    "B vs D: unparseable output from B: 'garbage'",
])

# (group, test, input, toolchain, verdict, midpoint, ratio, numeric_agree)
PINNED_VERDICTS = [
    dict(zip(("group", "test", "input", "toolchain", "verdict", "midpoint", "ratio",
              "numeric_agree"), row)) for row in [
        (0, 0, 0, "A", "NONE", 102333.33333333333, 0.977198697068404, True),
        (0, 0, 0, "B", "NONE", 102333.33333333333, 1.0260586319218241, True),
        (0, 0, 0, "C", "SLOW", 102333.33333333333, 3.908794788273616, True),
        (0, 0, 0, "D", "NONE", 102333.33333333333, 0.996742671009772, True),
        (0, 1, 0, "A", "NONE", 104666.66666666667, 0.9554140127388535, True),
        (0, 1, 0, "B", "NONE", 104666.66666666667, 1.0509554140127388, True),
        (0, 1, 0, "C", "FAST", 104666.66666666667, 0.38216560509554137, True),
        (0, 1, 0, "D", "NONE", 104666.66666666667, 0.9936305732484076, True),
        (0, 2, 1, "A", "NONE", 205000.0, 0.975609756097561, True),
        (0, 2, 1, "B", "CRASH_OUTLIER", 205000.0, None, True),
        (0, 2, 1, "C", "NONE", 205000.0, 1.024390243902439, True),
        (0, 2, 1, "D", "NONE", 205000.0, 1.0, True),
        (1, 0, 0, "A", "NONE", 150333.33333333334, 0.9977827050997782, True),
        (1, 0, 0, "B", "NONE", 150333.33333333334, 0.9977827050997782, True),
        (1, 0, 0, "C", "NONE", 150333.33333333334, 1.0044345898004434, True),
        (1, 0, 0, "D", "HANG_OUTLIER", 150333.33333333334, None, True),
        (1, 1, 2, "A", "NONE", None, None, True),
        (1, 1, 2, "B", "NONE", None, None, True),
        (1, 1, 2, "C", "NONE", None, None, True),
        (1, 1, 2, "D", "NONE", None, None, True),
        (1, 2, 0, "A", "EXCLUDED", 50500.0, None, True),
        (1, 2, 0, "B", "NONE", 50500.0, 0.9900990099009901, True),
        (1, 2, 0, "C", "NONE", 50500.0, 1.00990099009901, True),
        (1, 2, 0, "D", "NONE", 50500.0, 1.0, True),
        (2, 0, 0, "A", "EXCLUDED", None, None, True),
        (2, 0, 0, "B", "EXCLUDED", None, None, True),
        (2, 0, 0, "C", "EXCLUDED", None, None, True),
        (2, 0, 0, "D", "EXCLUDED", None, None, True),
        (2, 1, 0, "A", "NONE", 102333.33333333333, 0.977198697068404, False),
        (2, 1, 0, "B", "NONE", 102333.33333333333, 1.0260586319218241, False),
        (2, 1, 0, "C", "SLOW", 102333.33333333333, 3.908794788273616, False),
        (2, 1, 0, "D", "NONE", 102333.33333333333, 0.996742671009772, False),
        (2, 2, 0, "A", "NONE", 100875.0, 0.9913258983890955, False),
        (2, 2, 0, "B", "NONE", 100875.0, 1.0012391573729864, False),
        (2, 2, 0, "C", "NONE", 100875.0, 1.0111524163568772, False),
        (2, 2, 0, "D", "NONE", 100875.0, 0.9962825278810409, False),
        (3, 0, 0, "A", "EXCLUDED", None, None, True),
        (3, 0, 0, "B", "EXCLUDED", None, None, True),
        (3, 0, 0, "C", "EXCLUDED", None, None, True),
        (3, 0, 0, "D", "EXCLUDED", None, None, True),
]]


def test_analyze_output_is_pinned(tmp_path):
    report = analyze_campaign(pinned_records(), AnalysisParams())
    assert render_table(report) == PINNED_TABLE
    write_verdicts(report, tmp_path / "verdicts.jsonl")
    lines = (tmp_path / "verdicts.jsonl").read_text().splitlines()
    assert lines == [json.dumps(v) for v in PINNED_VERDICTS]
