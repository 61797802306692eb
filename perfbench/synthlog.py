"""Seeded synthetic run-record log with planted verdicts.

Every (group, test, input) group gets one planted kind, and each kind fixes
the verdict of every run in it under the analysis thresholds below. The
expected counts are tallied here from the kind table, not by
`ompdiff.analysis`, so the offline workload can check analyze's output
against a reference of its own.

Records are written as `execute_matrix` writes them (group, test, toolchain,
input order) in the record schema the README documents; this module does not
import ompdiff.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from random import Random

TOOLCHAINS = ("gcc-O3", "gcc-O2", "gcc-O0")
# The kinds below are planted for exactly these thresholds.
ANALYSIS = {"alpha": 0.2, "beta": 1.5, "min_time_us": 1000, "numeric_rel_tol": 0.0}

OK, CRASH, HANG, COMPILE_FAIL = "OK", "CRASH", "HANG", "COMPILE_FAIL"

# kind -> (share per mille, runs as (status, time factor), verdicts, group flags).
# Runs are listed in role order; roles are dealt to toolchains at random.
# A time factor scales the group's base time (5 ms to 200 ms); the string
# "short" stands for a time below min_time_us. Flags: "analyzed" (passes the
# min-time filter), "short", "disagree" (the last OK run prints another comp;
# its verdicts stay out of the outlier counts), "anomaly" (no run is OK).
#
# The shares follow the bench campaign (campaign.yaml, measured at the seed
# commit): 3 toolchains, 51 of 60 groups (85%) with every run under
# min_time_us, 9 (15%) analyzed, every record OK and agreeing. Each kind that
# campaign does not show (outliers, failures, disagreement) gets 2 per mille,
# enough to plant it about 65 times in a log of 10^5 records.
KINDS = {
    "ok_below": (850, [(OK, "short"), (OK, "short"), (OK, "short")],
                 ["EXCLUDED", "EXCLUDED", "EXCLUDED"], {"short"}),
    "ok_above": (136, [(OK, 1.00), (OK, 1.05), (OK, 1.10)],
                 ["NONE", "NONE", "NONE"], {"analyzed"}),
    "slow": (2, [(OK, 1.00), (OK, 1.05), (OK, 2.00)],
             ["NONE", "NONE", "SLOW"], {"analyzed"}),
    "fast": (2, [(OK, 1.00), (OK, 1.05), (OK, 0.40)],
             ["NONE", "NONE", "FAST"], {"analyzed"}),
    "crash_hang": (2, [(OK, 1.00), (CRASH, None), (HANG, None)],
                   ["EXCLUDED", "CRASH_OUTLIER", "HANG_OUTLIER"], {"analyzed"}),
    "all_fail": (2, [(CRASH, None), (HANG, None), (CRASH, None)],
                 ["NONE", "NONE", "NONE"], {"analyzed", "anomaly"}),
    "compile_fail": (2, [(COMPILE_FAIL, None), (OK, 1.00), (OK, 1.03)],
                     ["EXCLUDED", "EXCLUDED", "EXCLUDED"], {"analyzed"}),
    "compile_fail_most": (2, [(COMPILE_FAIL, None), (COMPILE_FAIL, None), (OK, 1.00)],
                          ["EXCLUDED", "EXCLUDED", "EXCLUDED"], {"analyzed"}),
    "comp_disagree": (2, [(OK, 1.00), (OK, 1.05), (OK, 2.00)],
                      ["NONE", "NONE", "SLOW"], {"analyzed", "disagree"}),
}

_COUNTED = {"SLOW": "slow", "FAST": "fast", "CRASH_OUTLIER": "crash",
            "HANG_OUTLIER": "hang"}
_EXIT = {CRASH: "signal 11", HANG: "timeout after 30.0s (SIGINT sent)",
         COMPILE_FAIL: "compile failed"}


@dataclass
class Planted:
    records: int = 0
    groups_total: int = 0
    groups_analyzed: int = 0
    groups_excluded_short: int = 0
    groups_disagreeing: int = 0
    group_anomalies: int = 0
    runs_analyzed: int = 0
    kinds: dict = field(default_factory=lambda: {k: 0 for k in KINDS})
    counts: dict = field(default_factory=lambda: {
        tc: {"slow": 0, "fast": 0, "crash": 0, "hang": 0} for tc in TOOLCHAINS})
    verdict_digest: int = 0
    status: dict = field(default_factory=lambda: {
        s: 0 for s in (OK, CRASH, HANG, COMPILE_FAIL)})


def _line_hash(group, test, inp, toolchain, verdict, numeric_agree) -> int:
    key = f"{group}|{test}|{inp}|{toolchain}|{verdict}|{bool(numeric_agree)}"
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")


def verdicts_digest(path) -> tuple[int, int]:
    """(line count, order-independent digest) of a `verdicts.jsonl` file."""
    n = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            total = (total + _line_hash(d["group"], d["test"], d["input"],
                                        d["toolchain"], d["verdict"],
                                        d["numeric_agree"])) % 2 ** 64
            n += 1
    return n, total


def _plant(rng: Random, kind: str):
    """Per-role (status, time_us, comp) for one group of the given kind."""
    _, runs, _, flags = KINDS[kind]
    base = rng.randint(5_000, 200_000)
    comp = repr(rng.uniform(-1e3, 1e3))
    out = []
    for status, factor in runs:
        if status != OK:
            out.append((status, None, None))
        elif factor == "short":
            out.append((OK, rng.randint(1, ANALYSIS["min_time_us"] - 1), comp))
        else:
            out.append((OK, int(base * factor), comp))
    if "disagree" in flags:
        status, time_us, _ = out[-1]
        out[-1] = (status, time_us, repr(float(comp) * 1.5 + 1.0))
    return out


def _deck(rng: Random, n: int) -> list[str]:
    """Kinds for n groups in shuffled order, each at its share and at least once."""
    counts = {k: max(1, round(n * share / 1000)) for k, (share, *_) in KINDS.items()}
    counts["ok_below"] += n - sum(counts.values())
    deck = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(deck)
    return deck


def write_log(path, seed: int, n_groups: int, tests_per_group: int = 10,
              inputs_per_test: int = 3) -> Planted:
    """Write the planted log to `path`; return what analyze must report."""
    rng = Random(seed)
    deck = iter(_deck(rng, n_groups * tests_per_group * inputs_per_test))
    planted = Planted()
    with open(path, "w", encoding="utf-8") as fh:
        for group in range(n_groups):
            for test in range(tests_per_group):
                # per input: toolchain -> (status, time_us, comp, verdict)
                runs_by_input = []
                for inp in range(inputs_per_test):
                    kind = next(deck)
                    _, _, verdicts, flags = KINDS[kind]
                    roles = list(range(len(TOOLCHAINS)))
                    rng.shuffle(roles)
                    plant = _plant(rng, kind)
                    runs = {}
                    for tc, role in zip(TOOLCHAINS, roles):
                        runs[tc] = plant[role] + (verdicts[role],)
                    runs_by_input.append(runs)
                    _tally(planted, group, test, inp, kind, flags, runs)
                for tc in TOOLCHAINS:
                    for inp, runs in enumerate(runs_by_input):
                        status, time_us, comp, _ = runs[tc]
                        fh.write(json.dumps({
                            "test": test, "group": group, "input": inp,
                            "toolchain": tc, "status": status, "time_us": time_us,
                            "comp": comp, "exit": _EXIT.get(status),
                        }) + "\n")
    return planted


def _tally(planted: Planted, group, test, inp, kind, flags, runs) -> None:
    planted.kinds[kind] += 1
    planted.groups_total += 1
    planted.records += len(runs)
    agree = "disagree" not in flags
    for tc, (status, _, _, verdict) in runs.items():
        planted.status[status] += 1
        if agree and verdict in _COUNTED:
            planted.counts[tc][_COUNTED[verdict]] += 1
        planted.verdict_digest = (planted.verdict_digest + _line_hash(
            group, test, inp, tc, verdict, agree)) % 2 ** 64
    if "analyzed" in flags:
        planted.groups_analyzed += 1
        planted.runs_analyzed += sum(1 for r in runs.values() if r[0] == OK)
    if "short" in flags:
        planted.groups_excluded_short += 1
    if not agree:
        planted.groups_disagreeing += 1
    if "anomaly" in flags:
        planted.group_anomalies += 1
