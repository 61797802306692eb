"""Differential outlier detection over run records.

Two execution times are comparable when their gap, normalized by the smaller
one, is within alpha. The midpoint of a pairwise-comparable set is its
arithmetic mean; a time outside the set is a slow outlier when it is at least
beta times the midpoint, and a fast outlier when the midpoint is at least beta
times it. Crash/hang runs are correctness outliers when at least one other
implementation completed the same test normally.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .campaign import RunRecord


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class AnalysisParams:
    alpha: float = 0.2
    beta: float = 1.5
    min_time_us: int = 1000
    numeric_rel_tol: float = 0.0

    def validate(self) -> None:
        if self.alpha <= 0:
            raise AnalysisError("alpha must be > 0")
        if self.beta <= 1:
            raise AnalysisError("beta must be > 1")
        # otherwise a time could be comparable to the midpoint and an outlier at once
        if self.beta <= 1 + self.alpha:
            raise AnalysisError("beta must exceed 1 + alpha")
        if self.min_time_us < 0:
            raise AnalysisError("min_time_us must be >= 0")
        if self.numeric_rel_tol < 0:
            raise AnalysisError("numeric_rel_tol must be >= 0")


class Classification(str, enum.Enum):
    NONE = "NONE"
    SLOW = "SLOW"
    FAST = "FAST"
    CRASH_OUTLIER = "CRASH_OUTLIER"
    HANG_OUTLIER = "HANG_OUTLIER"
    EXCLUDED = "EXCLUDED"


def comparable(r_i: float, r_j: float, alpha: float) -> bool:
    """Relative-gap comparability test; symmetric in its arguments."""
    m = min(r_i, r_j)
    if m == 0:
        raise AnalysisError("comparable() requires min(r_i, r_j) != 0")
    return abs(r_i - r_j) / m <= alpha


def midpoint(times: Iterable[float]) -> float:
    ts = list(times)
    if not ts:
        raise AnalysisError("midpoint() requires at least one time")
    return sum(ts) / len(ts)


def _rel_spread(ts: list[float]) -> float:
    """Mean absolute deviation divided by the mean; scale invariant."""
    m = midpoint(ts)
    return sum(abs(t - m) for t in ts) / (len(ts) * m)


def largest_comparable_subset(times: dict[str, float], alpha: float) -> list[str]:
    """Keys of the largest pairwise-comparable subset of `times`.

    A set is pairwise comparable iff its extreme pair is, so maximal subsets
    are contiguous windows in sorted order. Ties on size are broken toward the
    window with smaller relative mean spread, then toward the smaller values.
    """
    items = sorted(times.items(), key=lambda kv: (kv[1], kv[0]))
    best: list[tuple[str, float]] = []
    best_key: Optional[tuple[float, float]] = None
    n = len(items)
    for lo in range(n):
        hi = lo
        while hi + 1 < n and comparable(items[lo][1], items[hi + 1][1], alpha):
            hi += 1
        window = items[lo:hi + 1]
        vals = [v for _, v in window]
        key = (_rel_spread(vals), midpoint(vals))
        if len(window) > len(best) or (len(window) == len(best) and best_key is not None
                                       and key < best_key):
            best = window
            best_key = key
    return [k for k, _ in best]


def _has_short_run(times: dict[str, float], params: AnalysisParams) -> bool:
    # zero times count as short even when the filter is disabled: the
    # comparability ratio has no value at min(r_i, r_j) = 0
    return any(t < params.min_time_us or t == 0 for t in times.values())


def _judge_performance(times: dict[str, float], params: AnalysisParams, short: bool
                       ) -> tuple[dict[str, Classification], Optional[float]]:
    """Slow/fast verdicts for one group, and the midpoint of the largest
    comparable cluster they were judged against (None when the group gets no
    performance verdict). `short` is `_has_short_run(times, params)`."""
    out = {k: Classification.EXCLUDED for k in times}
    if len(times) < 3 or short:
        return out, None
    cluster = largest_comparable_subset(times, params.alpha)
    if len(cluster) < 2:
        return out, None
    mid = midpoint([times[k] for k in cluster])
    for k, t in times.items():
        if k in cluster:
            out[k] = Classification.NONE
        elif t / mid >= params.beta:
            out[k] = Classification.SLOW
        elif mid / t >= params.beta:
            out[k] = Classification.FAST
        else:
            out[k] = Classification.NONE
    return out, mid


def classify_performance(times: dict[str, float],
                         params: AnalysisParams) -> dict[str, Classification]:
    """Slow/fast verdicts for one (test, input) group of OK execution times."""
    return _judge_performance(times, params, _has_short_run(times, params))[0]


@dataclass
class CorrectnessResult:
    classes: dict[str, Classification]
    group_anomaly: bool  # every implementation failed; nothing to compare against


def classify_correctness(statuses: dict[str, str]) -> CorrectnessResult:
    """One-vs-rest crash/hang outlier detection.

    A CRASH or HANG is an outlier only when at least one other implementation
    finished OK; if none did, the whole group is an anomaly and no single
    implementation is singled out.
    """
    if len(statuses) < 2:
        raise AnalysisError("classify_correctness() needs at least 2 implementations")
    any_ok = any(s == "OK" for s in statuses.values())
    classes = {}
    for k, s in statuses.items():
        if s == "CRASH" and any_ok:
            classes[k] = Classification.CRASH_OUTLIER
        elif s == "HANG" and any_ok:
            classes[k] = Classification.HANG_OUTLIER
        else:
            classes[k] = Classification.NONE
    anomaly = not any_ok and any(s != "OK" for s in statuses.values())
    return CorrectnessResult(classes, anomaly)


@dataclass
class AgreementResult:
    agree: bool
    details: list[str] = field(default_factory=list)


def _parse_comp(token: str) -> Optional[float]:
    try:
        return float(token)
    except (TypeError, ValueError):
        return None


def _values_agree(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    if a == b:
        return True
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def numeric_agreement(outputs: dict[str, str], rel_tol: float) -> AgreementResult:
    """Check that every pair of printed comp values agrees within rel_tol."""
    parsed = {k: _parse_comp(v) for k, v in outputs.items()}
    details = []
    agree = True
    keys = sorted(outputs)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            a, b = parsed[ka], parsed[kb]
            if a is None or b is None:
                agree = False
                bad = ka if a is None else kb
                details.append(f"{ka} vs {kb}: unparseable output from {bad}: "
                               f"{outputs[bad]!r}")
            elif not _values_agree(a, b, rel_tol):
                agree = False
                details.append(f"{ka} vs {kb}: {outputs[ka]} != {outputs[kb]}")
    return AgreementResult(agree, details)


# --- whole-campaign analysis ---

@dataclass
class GroupVerdict:
    group: int
    test: int
    input: int
    classes: dict[str, Classification]
    midpoint_us: Optional[float]
    ratios: dict[str, float]
    numeric_agree: bool
    agreement_details: list[str]
    group_anomaly: bool
    short: bool  # an OK run fell below min_time_us, so no performance verdict
    ok_runs: int


# the outlier table's column of each counted class
_COLUMN = {Classification.SLOW: "slow", Classification.FAST: "fast",
           Classification.CRASH_OUTLIER: "crash", Classification.HANG_OUTLIER: "hang"}
_PERFORMANCE_OUTLIERS = (Classification.SLOW, Classification.FAST)


@dataclass
class OutlierReport:
    verdicts: list[GroupVerdict]
    toolchains: list[str]
    counts: dict[str, dict[str, int]]  # toolchain -> {_COLUMN value: count}

    @property
    def groups_total(self) -> int:
        return len(self.verdicts)

    @property
    def groups_analyzed(self) -> int:  # groups that passed the min-time filter
        return sum(not v.short for v in self.verdicts)

    @property
    def runs_analyzed(self) -> int:  # OK runs inside those groups
        return sum(v.ok_runs for v in self.verdicts if not v.short)

    @property
    def groups_excluded_short(self) -> int:
        return sum(v.short for v in self.verdicts)

    @property
    def groups_disagreeing(self) -> int:
        return sum(not v.numeric_agree for v in self.verdicts)

    @property
    def group_anomalies(self) -> int:
        return sum(v.group_anomaly for v in self.verdicts)

    @property
    def outliers_found(self) -> bool:
        return any(n != 0 for row in self.counts.values() for n in row.values())


def _judge_group(key: tuple[int, int, int], recs: dict[str, RunRecord],
                 params: AnalysisParams) -> GroupVerdict:
    """Every class of one (group, test, input) group, keyed by toolchain.

    A compile failure is EXCLUDED (a different bug class from CRASH). A run
    that did not finish OK is judged one-vs-rest against the others that
    compiled, and is EXCLUDED when there is no other. An OK run gets its
    performance verdict, which a group with a sub-threshold time never gets.
    """
    ran = {tc: r.status for tc, r in recs.items() if r.status != "COMPILE_FAIL"}
    corr = classify_correctness(ran) if len(ran) >= 2 else CorrectnessResult({}, False)
    ok = {tc: r for tc, r in recs.items() if r.status == "OK"}
    times = {tc: float(r.time_us) for tc, r in ok.items()}
    short = _has_short_run(times, params)
    perf, mid = _judge_performance(times, params, short)
    agreement = numeric_agreement({tc: r.comp for tc, r in ok.items()},
                                  params.numeric_rel_tol)
    classes = {tc: perf[tc] if tc in perf
               else corr.classes.get(tc, Classification.EXCLUDED) for tc in recs}
    return GroupVerdict(
        *key, classes=classes, midpoint_us=mid,
        ratios={tc: t / mid for tc, t in times.items()} if mid is not None else {},
        numeric_agree=agreement.agree, agreement_details=agreement.details,
        group_anomaly=corr.group_anomaly, short=short, ok_runs=len(times))


def analyze_campaign(records: Iterable[RunRecord],
                     params: AnalysisParams) -> OutlierReport:
    """Group records by (group, test, input) and judge each group.

    Groups whose OK runs disagree numerically keep their performance verdicts,
    but their slow and fast outliers stay out of the main outlier counts.
    """
    params.validate()
    groups: dict[tuple[int, int, int], dict[str, RunRecord]] = {}
    toolchains: list[str] = []
    for rec in records:
        groups.setdefault((rec.group, rec.test, rec.input), {})[rec.toolchain] = rec
        if rec.toolchain not in toolchains:
            toolchains.append(rec.toolchain)
    verdicts = [_judge_group(key, groups[key], params) for key in sorted(groups)]
    counts = {tc: dict.fromkeys(_COLUMN.values(), 0) for tc in toolchains}
    for v in verdicts:
        for tc, cls in v.classes.items():
            if cls in _COLUMN and (v.numeric_agree or cls not in _PERFORMANCE_OUTLIERS):
                counts[tc][_COLUMN[cls]] += 1
    return OutlierReport(verdicts=verdicts, toolchains=toolchains, counts=counts)


def render_table(report: OutlierReport) -> str:
    """Human-readable summary: one row per toolchain, one column per _COLUMN."""
    header = f"{'':<14}" + "".join(f"{col.capitalize():>8}" for col in _COLUMN.values())
    lines = [header, "-" * len(header)]
    for tc in report.toolchains:
        c = report.counts[tc]
        lines.append(f"{tc:<14}" + "".join(f"{c[col] or '--':>8}"
                                           for col in _COLUMN.values()))
    lines.append("")
    lines.append(f"groups: {report.groups_total} total, "
                 f"{report.groups_analyzed} analyzed, "
                 f"{report.groups_excluded_short} below the minimum-time filter, "
                 f"{report.groups_disagreeing} with numeric disagreement, "
                 f"{report.group_anomalies} whole-group failures")
    lines.append(f"runs analyzed after filtering: {report.runs_analyzed}")
    if report.groups_disagreeing:
        lines.append("")
        lines.append("numeric-mismatch groups (performance verdicts reported, "
                     "not counted above):")
        for v in report.verdicts:
            if not v.numeric_agree:
                flagged = {tc: c.value for tc, c in v.classes.items()
                           if c in _PERFORMANCE_OUTLIERS}
                lines.append(f"  group {v.group} test {v.test} input {v.input}: "
                             f"{flagged or 'no performance outlier'}; "
                             f"{'; '.join(v.agreement_details)}")
    return "\n".join(lines)


def write_verdicts(report: OutlierReport, path) -> None:
    """Machine-readable per-group verdict records, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in report.verdicts:
            for tc, cls in sorted(v.classes.items()):
                fh.write(json.dumps({
                    "group": v.group, "test": v.test, "input": v.input,
                    "toolchain": tc, "verdict": cls.value,
                    "midpoint": v.midpoint_us,
                    "ratio": v.ratios.get(tc),
                    "numeric_agree": v.numeric_agree,
                }) + "\n")
