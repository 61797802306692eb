"""C++ translation-unit emission for validated program ASTs.

The emitted file contains the `compute` kernel, a `main` that parses one
positional argument per parameter (hex-significand tokens for floating
point, so values round-trip bit-exactly), fills each array with its seed
value, and prints exactly two records: `comp=<value>` and `time_us=<n>`.

The translation unit is lean, because its headers used to cost more to
compile than the kernel: it includes only <cstdio>, <cstdlib>, <time.h> and
<omp.h>. Each math function the kernel calls is declared once with an
`extern "C"` prototype and called in the program's precision (`sinf` in
single, `sin` in double), which is the function the `std::` overload of the
same argument picks. `time_us` is the CLOCK_MONOTONIC time of the compute
call alone, in microseconds, truncated, as a `duration_cast<microseconds>`
of a `steady_clock` difference computes it.

The translation unit needs no C++ runtime: arrays come from `malloc` and go
back through `free`, not `new[]` and `delete[]`. Those two operators were
its only references into libstdc++. Resolving them from it made the link,
about half of each compile, take 54 ms for one bench test where 23 ms
suffice without them (g++ 12.2, GNU ld 2.40), and each run loaded
libstdc++.so before `main` only to call them. A test binary links against
libgomp, libc and, when a math function is called, libm.
"""

from __future__ import annotations

from .nodes import (
    COMP, MATH_FUNCS, THREAD_ID, ArrayRef, Assignment, BinOp, Block, Critical,
    Expr, ForLoop, GeneratorParams, IfBlock, MathCall, Num, OmpParallel, Paren,
    Program, TempDecl, VarTerm,
)
from .validate import validate_program

CTYPE = {"single": "float", "double": "double"}
STRTO = {"single": "strtof", "double": "strtod"}
MATH_SUFFIX = {"single": "f", "double": ""}


class EmitError(ValueError):
    pass


class _Emitter:
    def __init__(self, program: Program):
        self.program = program
        self.ctype = CTYPE[program.precision]
        self.math_suffix = MATH_SUFFIX[program.precision]
        self.int_names = {d.name for d in program.params if d.kind == "int-scalar"}
        self.math_called: set[str] = set()  # filled while expr() emits calls
        self.uses_thread_id = False  # set while a region's body is emitted
        self.lines: list[str] = []

    def put(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    # --- expressions ---

    def expr(self, e: Expr) -> str:
        if isinstance(e, Num):
            return e.text
        if isinstance(e, VarTerm):
            self.uses_thread_id |= e.name == THREAD_ID
            if e.name in self.int_names or e.name.startswith("i_") or e.name == THREAD_ID:
                return f"({self.ctype}){e.name}"
            return e.name
        if isinstance(e, ArrayRef):
            return self.subscript(e)
        if isinstance(e, Paren):
            return f"({self.expr(e.inner)})"
        if isinstance(e, MathCall):
            self.math_called.add(e.func)
            return f"{e.func}{self.math_suffix}({self.expr(e.arg)})"
        if isinstance(e, BinOp):
            return f"{self.operand(e.lhs)} {e.op} {self.operand(e.rhs)}"
        raise EmitError(f"cannot emit {type(e).__name__}")

    def operand(self, e: Expr) -> str:
        text = self.expr(e)
        return f"({text})" if isinstance(e, BinOp) else text

    def subscript(self, ref: ArrayRef) -> str:
        self.uses_thread_id |= ref.index == THREAD_ID
        if ref.modulo:
            return f"{ref.array}[{ref.index} % {self.program.array_size}]"
        return f"{ref.array}[{ref.index}]"

    def target(self, tgt) -> str:
        if isinstance(tgt, ArrayRef):
            return self.subscript(tgt)
        return tgt.name

    # --- statements ---

    def block(self, block: Block, depth: int) -> None:
        for stmt in block.statements:
            self.statement(stmt, depth)

    def statement(self, stmt, depth: int) -> None:
        if isinstance(stmt, Assignment):
            self.put(depth, f"{self.target(stmt.target)} {stmt.op} {self.expr(stmt.expr)};")
        elif isinstance(stmt, TempDecl):
            self.put(depth, f"{self.ctype} {stmt.name} = {self.expr(stmt.init)};")
        elif isinstance(stmt, IfBlock):
            self.uses_thread_id |= stmt.cond.lhs == THREAD_ID
            self.put(depth, f"if ({stmt.cond.lhs} {stmt.cond.op} "
                            f"{self.expr(stmt.cond.rhs)}) {{")
            self.block(stmt.body, depth + 1)
            self.put(depth, "}")
        elif isinstance(stmt, ForLoop):
            if stmt.omp_for:
                self.put(depth, "#pragma omp for")
            self.put(depth, f"for (int {stmt.index} = 0; {stmt.index} < {stmt.bound}; "
                            f"++{stmt.index}) {{")
            self.block(stmt.body, depth + 1)
            self.put(depth, "}")
        elif isinstance(stmt, OmpParallel):
            self.put(depth, self.pragma(stmt))
            self.put(depth, "{")
            body_at = len(self.lines)
            self.uses_thread_id = False  # regions never nest
            self.block(stmt.body, depth + 1)
            if self.uses_thread_id:
                self.lines.insert(body_at, "  " * (depth + 1)
                                  + f"int {THREAD_ID} = omp_get_thread_num();")
            self.put(depth, "}")
        elif isinstance(stmt, Critical):
            self.put(depth, "#pragma omp critical")
            self.put(depth, "{")
            self.block(stmt.body, depth + 1)
            self.put(depth, "}")
        else:
            raise EmitError(f"cannot emit {type(stmt).__name__}")

    def pragma(self, region: OmpParallel) -> str:
        parts = ["#pragma omp parallel default(shared)"]
        if region.private:
            parts.append(f"private({', '.join(region.private)})")
        if region.firstprivate:
            parts.append(f"firstprivate({', '.join(region.firstprivate)})")
        if region.reduction:
            parts.append(f"reduction({region.reduction}: {COMP})")
        parts.append(f"num_threads({region.num_threads})")
        return " ".join(parts)

    # --- translation unit ---

    def param_decl(self, d) -> str:
        if d.kind == "int-scalar":
            return f"int {d.name}"
        if d.kind == "fp-scalar":
            return f"{self.ctype} {d.name}"
        return f"{self.ctype}* {d.name}"

    def emit(self) -> str:
        p = self.program
        for header in ("cstdio", "cstdlib", "time.h", "omp.h"):
            self.put(0, f"#include <{header}>")
        self.put(0, "")
        prototypes_at = len(self.lines)  # filled in once compute is emitted
        zero = "0.0f" if p.precision == "single" else "0.0"
        self.put(0, f"{self.ctype} {COMP} = {zero};")
        self.put(0, "")
        sig = ", ".join(self.param_decl(d) for d in p.params)
        self.put(0, f"void compute({sig}) {{")
        self.block(p.body, 1)
        self.put(0, "}")
        self.put(0, "")
        if self.math_called:
            self.lines[prototypes_at:prototypes_at] = [
                f'extern "C" {self.ctype} {f}{self.math_suffix}({self.ctype}) noexcept;'
                for f in MATH_FUNCS if f in self.math_called] + [""]
        self.put(0, "int main(int argc, char* argv[]) {")
        self.put(1, f"if (argc != {len(p.params) + 1}) {{")
        self.put(2, f'fprintf(stderr, "expected {len(p.params)} arguments\\n");')
        self.put(2, "return 2;")
        self.put(1, "}")
        strto = STRTO[p.precision]
        for pos, d in enumerate(p.params, start=1):
            if d.kind == "int-scalar":
                self.put(1, f"int {d.name} = (int)strtol(argv[{pos}], 0, 10);")
            elif d.kind == "fp-scalar":
                self.put(1, f"{self.ctype} {d.name} = {strto}(argv[{pos}], 0);")
            else:
                self.put(1, f"{self.ctype} {d.name}_seed = {strto}(argv[{pos}], 0);")
                self.put(1, f"{self.ctype}* {d.name} = ({self.ctype}*)malloc("
                            f"{p.array_size} * sizeof({self.ctype}));")
                self.put(1, f"for (int q = 0; q < {p.array_size}; ++q) {{")
                self.put(2, f"{d.name}[q] = {d.name}_seed;")
                self.put(1, "}")
        args = ", ".join(d.name for d in p.params)
        self.put(1, "struct timespec t_start, t_end;")
        self.put(1, "clock_gettime(CLOCK_MONOTONIC, &t_start);")
        self.put(1, f"compute({args});")
        self.put(1, "clock_gettime(CLOCK_MONOTONIC, &t_end);")
        self.put(1, "long long elapsed = ((t_end.tv_sec - t_start.tv_sec) * 1000000000LL"
                    " + (t_end.tv_nsec - t_start.tv_nsec)) / 1000;")
        self.put(1, f'printf("comp=%.17g\\n", (double){COMP});')
        self.put(1, 'printf("time_us=%lld\\n", elapsed);')
        for d in p.params:
            if d.kind == "fp-array":
                self.put(1, f"free({d.name});")
        self.put(1, "return 0;")
        self.put(0, "}")
        return "\n".join(self.lines) + "\n"


def emit_source(program: Program, params: GeneratorParams) -> str:
    """Emit a compilable translation unit; rejects invalid programs."""
    violations = validate_program(program, params)
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        raise EmitError(f"program fails validation ({len(violations)} issues): {summary}")
    return _Emitter(program).emit()
