import ctypes
import ctypes.util
import re
import subprocess

import pytest

from ompdiff.emit import CTYPE, EmitError, emit_source
from ompdiff.generator import generate_program
from ompdiff.inputs import gen_input_sample, serialize_input
from ompdiff.nodes import (COMP, MATH_FUNCS, THREAD_ID, ArrayRef, Assignment,
                           BinOp, Block, ForLoop, GeneratorParams, IfBlock,
                           MathCall, Num, OmpParallel, ParamDecl, Paren, Program,
                           TempDecl, VarTerm, walk_statements)
from random import Random

PAPER = dict(max_expression_size=5, max_nesting_levels=3, max_lines_in_block=10,
             array_size=1000, max_same_level_blocks=3, math_func_allowed=True,
             math_func_probability=0.01)


def test_emit_is_deterministic():
    params = GeneratorParams(rng_seed=17, num_threads=4, **PAPER)
    program = generate_program(params)
    assert emit_source(program, params) == emit_source(program, params)


def test_emit_rejects_invalid_program():
    prog = Program(params=[], body=Block([Assignment(VarTerm("ghost"), "=",
                                                     Num("1.0"))]),
                   precision="double", array_size=10)
    with pytest.raises(EmitError, match="validation"):
        emit_source(prog, GeneratorParams())


def test_thread_id_is_declared_once_right_after_the_brace_of_each_region_using_it():
    def region(stmt):  # the region shape: assignments, then one `omp for` loop
        loop = ForLoop("i_0", 8, True, Block([Assignment(VarTerm(COMP), "+=",
                                                         Num("2.0"))]))
        return OmpParallel(private=(), firstprivate=(), reduction="+", num_threads=2,
                           body=Block([stmt, loop]))
    program = Program(
        params=[ParamDecl("a", "fp-array")],
        body=Block([
            region(Assignment(ArrayRef("a", THREAD_ID), "=", Num("1.0"))),  # sink
            region(Assignment(VarTerm(COMP), "+=", VarTerm(THREAD_ID))),  # expr
            region(Assignment(VarTerm(COMP), "+=", Num("1.0"))),  # unused
        ]),
        precision="double", array_size=8)
    lines = emit_source(program, GeneratorParams(array_size=8, num_threads=2)
                        ).splitlines()
    declaration = f"    int {THREAD_ID} = omp_get_thread_num();"
    braces = [n + 1 for n, line in enumerate(lines)
              if line.startswith("  #pragma omp parallel")]
    assert [lines[n] for n in braces] == ["  {"] * 3
    assert [n - 1 for n, line in enumerate(lines) if line == declaration] == braces[:2]
    assert lines[braces[0] + 2] == f"    a[{THREAD_ID}] = 1.0;"
    assert lines[braces[1] + 2] == f"    {COMP} += (double){THREAD_ID};"
    assert lines[braces[2] + 1] == f"    {COMP} += 1.0;"
    assert sum(THREAD_ID in line for line in lines) == 4


def _first_region_source(max_seed=100):
    for seed in range(max_seed):
        params = GeneratorParams(rng_seed=seed, num_threads=32, **PAPER)
        program = generate_program(params)
        regions = [s for s in walk_statements(program.body)
                   if isinstance(s, OmpParallel)]
        if any(r.private or r.firstprivate for r in regions):
            return program, params, regions
    raise AssertionError("no region with clauses found")


def test_pragma_line_contents():
    program, params, regions = _first_region_source()
    source = emit_source(program, params)
    pragmas = [l.strip() for l in source.splitlines()
               if l.strip().startswith("#pragma omp parallel")]
    assert len(pragmas) == len(regions)
    for line in pragmas:
        assert "default(shared)" in line
        assert "num_threads(32)" in line
    for region, line in zip(regions, pragmas):
        if region.private:
            assert f"private({', '.join(region.private)})" in line
        else:
            assert " private(" not in line
        if region.firstprivate:
            assert f"firstprivate({', '.join(region.firstprivate)})" in line
        if region.reduction:
            assert f"reduction({region.reduction}: comp)" in line


def test_stdout_contract_on_compiled_binary(toolchain, tmp_path):
    params = GeneratorParams(rng_seed=0, max_nesting_levels=0,
                             max_same_level_blocks=0, max_lines_in_block=1,
                             array_size=16, num_threads=2)
    program = generate_program(params)
    source = emit_source(program, params)
    src = tmp_path / "smallest.cpp"
    src.write_text(source)
    out = tmp_path / "smallest"
    cmd = toolchain.command(str(src), str(out))
    built = subprocess.run(cmd, capture_output=True, text=True,
                           env=toolchain.runtime_env())
    assert built.returncode == 0, built.stderr
    tokens = serialize_input(gen_input_sample(program, Random(0)))
    run = subprocess.run([str(out)] + tokens, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0
    lines = run.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("comp=")
    assert lines[1].startswith("time_us=")
    float(lines[0].split("=", 1)[1])
    assert int(lines[1].split("=", 1)[1]) >= 0


def test_wrong_arity_exits_nonzero(toolchain, tmp_path):
    params = GeneratorParams(rng_seed=4, num_threads=2, array_size=8)
    program = generate_program(params)
    src = tmp_path / "t.cpp"
    src.write_text(emit_source(program, params))
    out = tmp_path / "t"
    built = subprocess.run(toolchain.command(str(src), str(out)),
                           capture_output=True, text=True,
                           env=toolchain.runtime_env())
    assert built.returncode == 0, built.stderr
    run = subprocess.run([str(out)], capture_output=True, text=True, timeout=30)
    assert run.returncode == 2


def _math_calls(e) -> set[str]:
    if isinstance(e, MathCall):
        return {e.func} | _math_calls(e.arg)
    if isinstance(e, BinOp):
        return _math_calls(e.lhs) | _math_calls(e.rhs)
    if isinstance(e, Paren):
        return _math_calls(e.inner)
    return set()


def _called(program) -> set[str]:
    called = set()
    for stmt in walk_statements(program.body):
        if isinstance(stmt, Assignment):
            called |= _math_calls(stmt.expr)
        elif isinstance(stmt, TempDecl):
            called |= _math_calls(stmt.init)
        elif isinstance(stmt, IfBlock):
            called |= _math_calls(stmt.cond.rhs)
    return called


def _paper_sources(n=200):
    for seed in range(n):
        params = GeneratorParams(rng_seed=seed, num_threads=2, **PAPER)
        program = generate_program(params)
        yield program, emit_source(program, params)


def test_translation_unit_is_lean_and_declares_each_called_math_function_once():
    seen = {"single": 0, "double": 0}
    for program, source in _paper_sources():
        assert "<cmath>" not in source and "<chrono>" not in source
        assert "std::" not in source
        assert "new " not in source and "delete" not in source
        ctype = CTYPE[program.precision]
        suffix = "f" if program.precision == "single" else ""
        called = _called(program)
        seen[program.precision] += bool(called)
        for func in MATH_FUNCS:
            prototypes = re.findall(rf'^extern "C" .*\b{func}f?\(.*$', source, re.M)
            if func in called:
                assert prototypes == [
                    f'extern "C" {ctype} {func}{suffix}({ctype}) noexcept;']
                assert re.search(rf"\b{func}{suffix}\(", source.split("void compute")[1])
            else:
                assert prototypes == []
    assert min(seen.values()) > 0  # both precisions call math functions


def test_objects_reference_no_cpp_runtime_symbol(toolchain, tmp_path):
    """The emitted translation unit links against libgomp, libc and libm only:
    its objects leave no C++ runtime symbol (operator new[] and delete[],
    exception support) for the link to resolve from libstdc++."""
    names, seen = [], set()
    for seed, (program, source) in enumerate(_paper_sources(12)):
        nodes = list(walk_statements(program.body))
        seen |= {program.precision} | {type(s).__name__ for s in nodes}
        seen |= {"math"} if _called(program) else set()
        seen |= {"reduction"} if any(isinstance(s, OmpParallel) and s.reduction
                                     for s in nodes) else set()
        names.append(f"t{seed}.cpp")
        (tmp_path / names[-1]).write_text(source)
    assert {"single", "double", "math", "Critical", "reduction"} <= seen
    openmp = [f for f in toolchain.flags if not f.startswith("-O")]
    for level in ("-O0", "-O3"):
        out = tmp_path / level
        out.mkdir()
        built = subprocess.run([toolchain.compiler_path(), *openmp, level, "-c",
                                *(f"../{name}" for name in names)],
                               cwd=out, capture_output=True, text=True,
                               env=toolchain.runtime_env())
        assert built.returncode == 0, built.stderr
        objects = sorted(str(o) for o in out.glob("*.o"))
        assert len(objects) == len(names)
        undefined = subprocess.run(["nm", "-u", *objects], capture_output=True,
                                   text=True, check=True).stdout.split()
        assert "malloc" in undefined
        assert [s for s in undefined if s.startswith(("_Z", "__cxa_", "__gxx_"))] == []


def test_clock_is_read_right_before_and_right_after_compute():
    for _, source in _paper_sources():
        lines = [line.strip() for line in source.splitlines()]
        at = [i for i, line in enumerate(lines) if line.startswith("compute(")]
        assert len(at) == 1
        assert lines[at[0] - 1] == "clock_gettime(CLOCK_MONOTONIC, &t_start);"
        assert lines[at[0] + 1] == "clock_gettime(CLOCK_MONOTONIC, &t_end);"
        assert sum("clock_gettime" in line for line in lines) == 2


def _libm(name: str, ctype):
    fn = getattr(ctypes.CDLL(ctypes.util.find_library("m")), name)
    fn.argtypes, fn.restype = [ctype], ctype
    return fn


# Float arguments at which sinf, cosf, expf and cbrtf differ from the double
# function's result rounded to float, so a single-precision program that
# called the double function would print another value. fabs is exact in both.
ORACLE_ARGS = {"sin": "0x1.6ec3f2p-4", "cos": "-0x1.5b86c2p+3", "exp": "0x1.507756p+0",
               "cbrt": "0x1.1e04dcp+4", "fabs": "-0x1.4ccccep+0"}


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("func", MATH_FUNCS)
def test_compiled_math_call_equals_libm_in_the_programs_precision(
        toolchain, tmp_path, func, precision):
    x = float.fromhex(ORACLE_ARGS[func])
    if precision == "single":
        want = _libm(func + "f", ctypes.c_float)(x)
        if func != "fabs":
            assert want != ctypes.c_float(_libm(func, ctypes.c_double)(x)).value
    else:
        want = _libm(func, ctypes.c_double)(x)
    program = Program(params=[ParamDecl("x", "fp-scalar")],
                      body=Block([Assignment(VarTerm(COMP), "=",
                                             MathCall(func, VarTerm("x")))]),
                      precision=precision, array_size=8)
    src = tmp_path / f"{func}_{precision}.cpp"
    src.write_text(emit_source(program, GeneratorParams(array_size=8, num_threads=2)))
    out = tmp_path / f"{func}_{precision}"
    built = subprocess.run(toolchain.command(str(src), str(out)),
                           capture_output=True, text=True, env=toolchain.runtime_env())
    assert built.returncode == 0, built.stderr
    run = subprocess.run([str(out), x.hex()], capture_output=True, text=True,
                         timeout=30)
    assert run.returncode == 0
    assert run.stdout.splitlines()[0] == f"comp={'%.17g' % want}"
