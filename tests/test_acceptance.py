"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criteria involving compilers compare the two g++ toolchains that
`conftest.py` pins, and skip when g++ is not on PATH.
"""

import math
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from random import Random

import pytest

from ompdiff.analysis import (AnalysisParams, Classification, analyze_campaign,
                              classify_correctness, classify_performance)
from ompdiff.campaign import (CampaignConfig, RunRecord, execute,
                              generate_tests, load_records)
from ompdiff.cli import EXIT_OK, EXIT_OUTLIERS, main
from ompdiff.emit import emit_source
from ompdiff.generator import generate_program
from ompdiff.inputs import (FP_CLASSES, gen_input_sample, gen_value,
                            parse_fp_token, serialize_input)
from ompdiff.nodes import (ArrayRef, BinOp, Critical, ForLoop, GeneratorParams,
                           IfBlock, MathCall, OmpParallel, Paren, TempDecl,
                           Assignment, walk_statements)
from ompdiff.validate import validate_program

from oracles import classify_bits, classify_bruteforce, correctness_table
from test_campaign import _cli_config, script

PAPER_CONFIG = dict(max_expression_size=5, max_nesting_levels=3,
                    max_lines_in_block=10, array_size=1000,
                    max_same_level_blocks=3, math_func_allowed=True,
                    math_func_probability=0.01)

# unpinned by the criterion; sized so triple-nested loops stay desk-scale
PROXY_CONFIG = dict(max_expression_size=5, max_nesting_levels=3,
                    max_lines_in_block=6, array_size=96,
                    max_same_level_blocks=2, math_func_allowed=True,
                    math_func_probability=0.01)


def report(n, ok, text):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


# 20 values spanning [1000, 1e7] us, dense near the alpha/beta boundaries
GRID = [1000, 1050, 1100, 1150, 1200, 1300, 1440, 1500, 1650, 1800,
        2000, 2400, 3000, 5000, 10000, 50000, 100000, 1000000, 5000000,
        10000000]


def test_criterion_1_outlier_math_oracle():
    params = AnalysisParams(alpha=0.2, beta=1.5, min_time_us=1000)
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for a in GRID:
        for b in GRID:
            for c in GRID:
                times = {"A": float(a), "B": float(b), "C": float(c)}
                got = {k: v.value for k, v in
                       classify_performance(times, params).items()}
                want = classify_bruteforce(times, 0.2, 1.5, 1000)
                checked += 1
                if got != want:
                    mismatches += 1
    elapsed = time.monotonic() - start
    report(1, mismatches == 0 and elapsed < 10.0 and checked == len(GRID) ** 3,
           f"{checked} ordered triples, {mismatches} mismatches vs the "
           f"subset-enumeration oracle, {elapsed:.2f}s")


def test_criterion_2_paper_scenarios():
    minutes = 60_000_000
    slow = classify_performance({"P1": 5 * minutes, "P2": 5 * minutes,
                                 "P3": 9 * minutes},
                                AnalysisParams(alpha=0.2, beta=1.5,
                                               min_time_us=1000))
    slow_ok = (slow == {"P1": Classification.NONE, "P2": Classification.NONE,
                        "P3": Classification.SLOW})
    fast = classify_performance({"A": 100.0, "B": 110.0, "C": 40.0},
                                AnalysisParams(alpha=0.2, beta=1.5, min_time_us=0))
    fast_ok = (fast == {"A": Classification.NONE, "B": Classification.NONE,
                        "C": Classification.FAST})
    report(2, slow_ok and fast_ok,
           "{5,5,9} minutes -> one SLOW on the 9-minute run; "
           "{100,110,40} -> one FAST")


def test_criterion_3_correctness_taxonomy():
    statuses = ("OK", "CRASH", "HANG")
    mismatches = 0
    for s1 in statuses:
        for s2 in statuses:
            for s3 in statuses:
                combo = {"P1": s1, "P2": s2, "P3": s3}
                got = {k: v.value for k, v in
                       classify_correctness(combo).classes.items()}
                if got != correctness_table(combo):
                    mismatches += 1
    worked = classify_correctness({"P1": "OK", "P2": "CRASH", "P3": "OK"}).classes
    example_ok = (worked["P2"] is Classification.CRASH_OUTLIER
                  and worked["P1"] is Classification.NONE
                  and worked["P3"] is Classification.NONE)
    report(3, mismatches == 0 and example_ok,
           f"all 27 status assignments match the one-vs-rest table; "
           f"OK/CRASH/OK flags exactly P2")


def _compile(argv, env):
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_criterion_4_generator_soundness(toolchains, tmp_path):
    start = time.monotonic()
    sources = []
    for seed in range(100):
        params = GeneratorParams(rng_seed=seed, num_threads=32, **PAPER_CONFIG)
        program = generate_program(params)
        violations = validate_program(program, params)
        if violations:
            report(4, False, f"seed {seed}: {violations[0]}")
        src = tmp_path / f"t{seed}.cpp"
        src.write_text(emit_source(program, params))
        sources.append(src)

    jobs = []
    for tc in toolchains[:2]:
        for src in sources:
            out = src.with_name(src.stem + "_" + tc.id)
            jobs.append((tc.command(str(src), str(out)), tc.runtime_env(), src, tc.id))
    failures = []
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda j: (_compile(j[0], j[1]), j[2], j[3]), jobs))
    for proc, src, tc_id in results:
        if proc.returncode != 0:
            failures.append((tc_id, src.name, proc.stderr[:200]))
    elapsed = time.monotonic() - start
    report(4, not failures and elapsed < 300,
           f"100 programs (paper config 5/3/10/1000/3/true/0.01) validate and "
           f"compile -O3 under {[t.id for t in toolchains[:2]]} in {elapsed:.0f}s"
           + (f"; failures: {failures[:2]}" if failures else ""))


def _comp_value(stdout):
    for line in stdout.splitlines():
        if line.startswith("comp="):
            return line[len("comp="):]
    raise AssertionError(f"no comp record in {stdout!r}")


def test_criterion_5_race_freedom_proxy(toolchains, tmp_path):
    tc = toolchains[0]
    start = time.monotonic()
    cases = []  # (seed, program_1t, binary_1t, binary_4t)
    jobs = []
    for seed in range(50):
        per_thread = {}
        for nt in (1, 4):
            params = GeneratorParams(rng_seed=seed, num_threads=nt, **PROXY_CONFIG)
            program = generate_program(params)
            src = tmp_path / f"p{seed}_{nt}.cpp"
            src.write_text(emit_source(program, params))
            out = tmp_path / f"p{seed}_{nt}"
            jobs.append((tc.command(str(src), str(out)), tc.runtime_env()))
            per_thread[nt] = (program, out)
        cases.append((seed, per_thread))
    with ThreadPoolExecutor(max_workers=8) as pool:
        for proc in pool.map(lambda j: _compile(*j), jobs):
            assert proc.returncode == 0, proc.stderr[:300]

    checked = reductions = 0
    for seed, per_thread in cases:
        program = per_thread[1][0]
        has_reduction = any(isinstance(s, OmpParallel) and s.reduction
                            for s in walk_statements(program.body))
        reductions += has_reduction
        rng = Random(1000 + seed)
        for _ in range(2):
            tokens = serialize_input(gen_input_sample(program, rng))
            outs = {}
            for nt in (1, 4):
                run = subprocess.run([str(per_thread[nt][1])] + tokens,
                                     capture_output=True, text=True, timeout=120)
                assert run.returncode == 0, (seed, nt, run.stderr[:200])
                outs[nt] = _comp_value(run.stdout)
            checked += 1
            if outs[1] == outs[4]:
                continue
            if not has_reduction:
                report(5, False, f"seed {seed} input {k}: reduction-free program "
                                 f"differs across thread counts: {outs}")
            a, b = float(outs[1]), float(outs[4])
            if math.isnan(a) and math.isnan(b):
                continue
            rel = abs(a - b) / max(abs(a), abs(b))
            tol = 1e-12 if program.precision == "double" else 1e-6
            if rel > tol:
                report(5, False, f"seed {seed} input {k} ({program.precision} "
                                 f"reduction): rel diff {rel:.2e} > {tol}")
    elapsed = time.monotonic() - start
    report(5, elapsed < 300,
           f"{checked} input pairs over 50 programs ({reductions} with "
           f"reductions): 1-thread vs 4-thread comp values agree, {elapsed:.0f}s")


def _count_features(program):
    feats = {"parallel": 0, "omp_for": 0, "reduction": 0, "critical": 0,
             "if": 0, "nested_for": 0, "math": 0}

    def expr_math(e):
        if isinstance(e, MathCall):
            return True
        if isinstance(e, Paren):
            return expr_math(e.inner)
        if isinstance(e, BinOp):
            return expr_math(e.lhs) or expr_math(e.rhs)
        return False

    def loop_in(block):
        return any(isinstance(s, ForLoop) or
                   (hasattr(s, "body") and loop_in(s.body))
                   for s in block.statements)

    for stmt in walk_statements(program.body):
        if isinstance(stmt, OmpParallel):
            feats["parallel"] += 1
            if stmt.reduction:
                feats["reduction"] += 1
        elif isinstance(stmt, ForLoop):
            if stmt.omp_for:
                feats["omp_for"] += 1
            if loop_in(stmt.body):
                feats["nested_for"] += 1
        elif isinstance(stmt, Critical):
            feats["critical"] += 1
        elif isinstance(stmt, IfBlock):
            feats["if"] += 1
            if expr_math(stmt.cond.rhs):
                feats["math"] += 1
        if isinstance(stmt, Assignment) and expr_math(stmt.expr):
            feats["math"] += 1
        if isinstance(stmt, TempDecl) and expr_math(stmt.init):
            feats["math"] += 1
    return feats


def test_criterion_6_grammar_coverage():
    totals = {k: 0 for k in ("parallel", "omp_for", "reduction", "critical",
                             "if", "nested_for", "math")}
    for seed in range(200):
        params = GeneratorParams(rng_seed=seed, num_threads=32, **PAPER_CONFIG)
        feats = _count_features(generate_program(params))
        for k in totals:
            totals[k] += feats[k]
    missing = [k for k, v in totals.items() if v == 0]
    report(6, not missing,
           f"200-program paper-config corpus feature counts: {totals}"
           + (f"; missing: {missing}" if missing else ""))


def test_criterion_7_input_classes():
    rng = Random(2024)
    bad = 0
    n = 100_000
    for precision in ("single", "double"):
        for cls in FP_CLASSES:
            for _ in range(n):
                v = gen_value(cls, precision, rng)
                if cls.value not in classify_bits(v, precision):
                    bad += 1
    # round trip: serialization tokens re-parse bit-exactly
    import struct
    def bits(x):
        return struct.pack("<d", x)
    rt_bad = 0
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -2.0 ** -1022]
    samples = specials + [gen_value(rng.choice(FP_CLASSES),
                                    rng.choice(("single", "double")), rng)
                          for _ in range(20_000)]
    for v in samples:
        if bits(parse_fp_token(float(v).hex())) != bits(v):
            rt_bad += 1
    report(7, bad == 0 and rt_bad == 0,
           f"10^5 draws per class per precision all satisfy the bit-field "
           f"predicate ({bad} misses); {len(samples)} round-trips bit-exact "
           f"({rt_bad} misses)")


def test_criterion_8_campaign_accounting(toolchains, tmp_path):
    gen = GeneratorParams(rng_seed=3, num_threads=2, max_expression_size=4,
                          max_nesting_levels=2, max_lines_in_block=4,
                          array_size=64, max_same_level_blocks=2,
                          math_func_allowed=True, math_func_probability=0.01)
    cfg = CampaignConfig(campaign_dir=tmp_path / "camp",
                         toolchains=toolchains[:2], generator=gen,
                         n_groups=1, tests_per_group=5, inputs_per_test=2,
                         timeout_seconds=60.0)
    code = main(["all", "--config", _cli_config(tmp_path, cfg)])
    records = load_records(cfg.records_path())
    count_ok = code in (EXIT_OK, EXIT_OUTLIERS) and len(records) == 2 * 5 * 2

    hang = execute(script(tmp_path / "sleeper.py", """
        import signal, time
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            time.sleep(0.2)
    """), [], timeout_seconds=2)
    crash = execute(script(tmp_path / "segfault.py", """
        import os, signal
        os.kill(os.getpid(), signal.SIGSEGV)
    """), [], timeout_seconds=10)

    # a group holding one 500us run is dropped by the <1000us filter
    short_group = [
        RunRecord(test=0, group=9, input=0, toolchain="A", status="OK",
                  time_us=500, comp="1.0"),
        RunRecord(test=0, group=9, input=0, toolchain="B", status="OK",
                  time_us=90_000, comp="1.0"),
        RunRecord(test=0, group=9, input=0, toolchain="C", status="OK",
                  time_us=300_000, comp="1.0"),
    ]
    rep = analyze_campaign(short_group, AnalysisParams())
    filtered = (rep.groups_excluded_short == 1 and
                all(c is Classification.EXCLUDED
                    for c in rep.verdicts[0].classes.values()))
    report(8, count_ok and hang.status == "HANG" and crash.status == "CRASH"
           and filtered,
           f"2x5x2 campaign -> {len(records)} records; sleeper -> {hang.status}; "
           f"segfault -> {crash.status}; 500us group excluded by the filter")


def test_criterion_9_generate_determinism(tmp_path):
    gen_section = """
generator:
  max_expression_size: 5
  max_nesting_levels: 3
  max_lines_in_block: 10
  array_size: 1000
  max_same_level_blocks: 3
  math_func_allowed: true
  math_func_probability: 0.01
  num_threads: 32
  rng_seed: 1234
campaign:
  n_groups: 2
  tests_per_group: 5
  inputs_per_test: 3
"""
    trees = {}
    for run in ("one", "two"):
        camp = tmp_path / run
        cfg = tmp_path / f"{run}.yaml"
        cfg.write_text(f"""campaign_dir: {camp}
toolchains:
  - id: a
    template: "g++ {{flags}} {{src}} -o {{out}}"
    flags: ["-O3", "-fopenmp"]
  - id: b
    template: "clang++ {{flags}} {{src}} -o {{out}}"
    flags: ["-O3", "-fopenmp"]
{gen_section}""")
        assert main(["generate", "--config", str(cfg)]) == EXIT_OK
        tests_dir = camp / "_tests"
        trees[run] = {str(p.relative_to(tests_dir)): p.read_bytes()
                      for p in sorted(tests_dir.rglob("*")) if p.is_file()}
    same = trees["one"] == trees["two"]
    report(9, same and len(trees["one"]) == 2 * 5 * 2,
           f"two generate invocations: {len(trees['one'])} files in _tests, "
           f"trees byte-identical: {same}")


def test_criterion_10_scale_invariance():
    rng = Random(77)
    params = AnalysisParams(alpha=0.2, beta=1.5, min_time_us=0)
    changed = 0
    for _ in range(10_000):
        n = rng.randint(3, 5)
        times = {f"T{i}": rng.uniform(1.0, 1e6) for i in range(n)}
        scale = math.exp(rng.uniform(-8, 8))
        base = classify_performance(times, params)
        scaled = classify_performance({k: v * scale for k, v in times.items()},
                                      params)
        if base != scaled:
            changed += 1
    report(10, changed == 0,
           f"10^4 random groups rescaled by random positive constants: "
           f"{changed} verdict changes")
