"""Structural validation of program ASTs against the grammar and OpenMP rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .nodes import (
    ARITH_OPS, ASSIGN_OPS, BOOL_OPS, COMP, LINE_STATEMENTS, MATH_FUNCS,
    REDUCTION_OPS, THREAD_ID, ArrayRef, Assignment, BinOp, Block, BoolExpr,
    Critical, Expr, ForLoop, GeneratorParams, IfBlock, MathCall, Num,
    OmpParallel, Paren, Program, TempDecl, VarTerm, leaves,
)


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str
    message: str

    def __str__(self):
        return f"{self.path}: [{self.rule}] {self.message}"


@dataclass
class _Env:
    fp: set[str]
    ints: set[str]
    arrays: set[str]
    indices: dict[str, Union[int, str]]  # index -> loop bound
    region: Optional[OmpParallel] = None
    region_locals: frozenset = frozenset()
    in_region_loop: bool = False
    in_critical: bool = False
    omp_body: bool = False  # immediate statement of a region body

    def copy(self) -> "_Env":
        return _Env(set(self.fp), set(self.ints), set(self.arrays),
                    dict(self.indices), self.region, self.region_locals,
                    self.in_region_loop, self.in_critical, self.omp_body)

    def knows(self, name: str) -> bool:
        return (name in self.fp or name in self.ints or name in self.arrays
                or name in self.indices or name == COMP
                or (name == THREAD_ID and self.region is not None))


class _Validator:
    def __init__(self, program: Program, params: GeneratorParams):
        self.program = program
        self.params = params
        self.out: list[Violation] = []

    def err(self, path: str, rule: str, message: str) -> None:
        self.out.append(Violation(path, rule, message))

    def run(self) -> list[Violation]:
        if self.program.precision not in ("single", "double"):
            self.err("precision", "type",
                     f"precision {self.program.precision!r} is neither single nor double")
        names = [d.name for d in self.program.params]
        if len(set(names)) != len(names):
            self.err("params", "scope", "duplicate parameter names")
        env = _Env(
            fp={d.name for d in self.program.params if d.kind == "fp-scalar"},
            ints={d.name for d in self.program.params if d.kind == "int-scalar"},
            arrays={d.name for d in self.program.params if d.kind == "fp-array"},
            indices={},
        )
        self.block(self.program.body, env, depth=0, path="body")
        return self.out

    # --- expressions ---

    def expr(self, e: Expr, env: _Env, path: str) -> None:
        if isinstance(e, Num):
            return
        if isinstance(e, VarTerm):
            if not env.knows(e.name):
                self.err(path, "scope", f"reference to undeclared {e.name!r}")
        elif isinstance(e, ArrayRef):
            self.array_ref(e, env, path)
        elif isinstance(e, Paren):
            self.expr(e.inner, env, path)
        elif isinstance(e, MathCall):
            if not self.params.math_func_allowed:
                self.err(path, "math", "math call generated while disallowed")
            elif e.func not in MATH_FUNCS:
                self.err(path, "math", f"math function {e.func!r} not in the allowed set")
            self.expr(e.arg, env, path)
        elif isinstance(e, BinOp):
            if e.op not in ARITH_OPS:
                self.err(path, "op", f"unknown arithmetic operator {e.op!r}")
            self.expr(e.lhs, env, path)
            self.expr(e.rhs, env, path)
        else:
            self.err(path, "op", f"unknown expression node {type(e).__name__}")

    def sized_expr(self, e: Expr, env: _Env, path: str) -> None:
        n = len(leaves(e))
        if n > self.params.max_expression_size:
            self.err(path, "limit.expr",
                     f"expression has {n} terms, limit is {self.params.max_expression_size}")
        self.expr(e, env, path)

    def array_ref(self, ref: ArrayRef, env: _Env, path: str) -> None:
        if ref.array not in env.arrays:
            self.err(path, "scope", f"{ref.array!r} is not an array parameter")
        if ref.index == THREAD_ID:
            if env.region is None:
                self.err(path, "subscript",
                         "thread-id subscript outside a parallel region")
            elif env.region.num_threads > self.program.array_size:
                self.err(path, "subscript",
                         f"thread-id subscript under num_threads "
                         f"{env.region.num_threads} can exceed the array length "
                         f"{self.program.array_size}")
            if ref.modulo:
                self.err(path, "subscript", "thread-id subscript never uses modulo")
            return
        if ref.index not in env.indices:
            self.err(path, "subscript",
                     f"subscript {ref.index!r} is not a loop index in scope")
            return
        if not ref.modulo:
            bound = env.indices[ref.index]
            if isinstance(bound, int) and bound > self.program.array_size:
                self.err(path, "subscript",
                         f"bare subscript {ref.index!r} under loop bound {bound} "
                         f"can exceed the array length {self.program.array_size}")

    def bool_expr(self, b: BoolExpr, env: _Env, path: str) -> None:
        if not env.knows(b.lhs):
            self.err(path, "scope", f"condition references undeclared {b.lhs!r}")
        if b.op not in BOOL_OPS:
            self.err(path, "op", f"unknown boolean operator {b.op!r}")
        self.sized_expr(b.rhs, env, path)

    # --- statements ---

    def block(self, block: Block, env: _Env, depth: int, path: str) -> None:
        if depth > self.params.max_nesting_levels:
            self.err(path, "limit.depth",
                     f"nesting depth {depth} exceeds {self.params.max_nesting_levels}")
        n_lines = sum(isinstance(s, LINE_STATEMENTS) for s in block.statements)
        n_blocks = len(block.statements) - n_lines
        if n_lines > self.params.max_lines_in_block:
            self.err(path, "limit.lines",
                     f"{n_lines} statements in block, limit is "
                     f"{self.params.max_lines_in_block}")
        if n_blocks > self.params.max_same_level_blocks:
            self.err(path, "limit.blocks",
                     f"{n_blocks} sibling blocks, limit is "
                     f"{self.params.max_same_level_blocks}")
        scope = env.copy()
        for idx, stmt in enumerate(block.statements):
            self.statement(stmt, scope, depth, f"{path}[{idx}]")

    def statement(self, stmt, env: _Env, depth: int, path: str) -> None:
        if isinstance(stmt, TempDecl):
            if env.knows(stmt.name):
                self.err(path, "scope", f"redeclaration of {stmt.name!r}")
            self.sized_expr(stmt.init, env, path)
            env.fp.add(stmt.name)
            if env.region is not None:
                env.region_locals = env.region_locals | {stmt.name}
        elif isinstance(stmt, Assignment):
            self.assignment(stmt, env, path)
        elif isinstance(stmt, IfBlock):
            self.bool_expr(stmt.cond, env, path)
            inner = env.copy()
            inner.omp_body = False
            self.block(stmt.body, inner, depth + 1, f"{path}.body")
        elif isinstance(stmt, ForLoop):
            self.for_loop(stmt, env, depth, path)
        elif isinstance(stmt, OmpParallel):
            self.parallel(stmt, env, depth, path)
        elif isinstance(stmt, Critical):
            if env.region is None or not env.in_region_loop:
                self.err(path, "omp.critical_placement",
                         "critical section outside a loop in a parallel region")
            inner = env.copy()
            inner.in_critical = True
            inner.omp_body = False
            self.block(stmt.body, inner, depth + 1, f"{path}.body")
        else:
            self.err(path, "op", f"unknown statement {type(stmt).__name__}")

    def assignment(self, stmt: Assignment, env: _Env, path: str) -> None:
        if stmt.op not in ASSIGN_OPS:
            self.err(path, "op", f"unknown assignment operator {stmt.op!r}")
        tgt = stmt.target
        if isinstance(tgt, ArrayRef):
            self.array_ref(tgt, env, path)
        elif isinstance(tgt, VarTerm):
            if not env.knows(tgt.name):
                self.err(path, "scope", f"assignment to undeclared {tgt.name!r}")
            elif tgt.name in env.indices or tgt.name == THREAD_ID:
                self.err(path, "scope", f"assignment to loop machinery {tgt.name!r}")
        else:
            self.err(path, "op", f"bad assignment target {type(tgt).__name__}")
        self.sized_expr(stmt.expr, env, path)
        self.race_rules(stmt, env, path)

    def race_rules(self, stmt: Assignment, env: _Env, path: str) -> None:
        """Writes inside a region must be thread-id indexed, reduction-covered,
        or inside a critical section; clause-private and region-local targets
        are exempt because each thread owns its copy."""
        if env.region is None or env.in_critical:
            return
        tgt = stmt.target
        if isinstance(tgt, ArrayRef):
            if tgt.index != THREAD_ID:
                self.err(path, "race",
                         f"unprotected shared array write to {tgt.array!r}")
            return
        if tgt.name == COMP:
            if env.region.reduction is None:
                self.err(path, "race",
                         "comp written in a region without a reduction clause "
                         "and outside any critical section")
            return
        protected = (tgt.name in env.region.private
                     or tgt.name in env.region.firstprivate
                     or tgt.name in env.region_locals)
        if not protected:
            self.err(path, "race",
                     f"unprotected write to shared scalar {tgt.name!r}")

    def for_loop(self, stmt: ForLoop, env: _Env, depth: int, path: str) -> None:
        if isinstance(stmt.bound, int):
            if stmt.bound < 1:
                self.err(path, "limit.bound", f"loop bound {stmt.bound} must be >= 1")
        elif stmt.bound not in env.ints:
            self.err(path, "scope",
                     f"loop bound {stmt.bound!r} is not an int parameter in scope")
        if stmt.omp_for and not env.omp_body:
            self.err(path, "omp.omp_for_placement",
                     "omp-for loop is not an immediate statement of a parallel region")
        inner = env.copy()
        inner.omp_body = False
        if env.region is not None:
            inner.in_region_loop = True
        if env.knows(stmt.index):
            self.err(path, "scope", f"loop index {stmt.index!r} shadows a live name")
        inner.indices[stmt.index] = stmt.bound
        self.block(stmt.body, inner, depth + 1, f"{path}.body")

    def parallel(self, stmt: OmpParallel, env: _Env, depth: int, path: str) -> None:
        if env.region is not None:
            self.err(path, "omp.nested_parallel",
                     "parallel region nested inside another parallel region")
        if stmt.reduction is not None and stmt.reduction not in REDUCTION_OPS:
            self.err(path, "omp.reduction_op",
                     f"reduction operator {stmt.reduction!r} not in {REDUCTION_OPS}")
        if stmt.num_threads < 1:
            self.err(path, "omp.clause", "num_threads must be >= 1")
        listed = list(stmt.private) + list(stmt.firstprivate)
        if len(set(listed)) != len(listed):
            self.err(path, "omp.clause",
                     "private and firstprivate lists must be disjoint")
        for name in listed:
            if name == COMP:
                self.err(path, "omp.clause", "comp never appears in a clause list")
            elif name in env.indices:
                self.err(path, "omp.clause",
                         f"loop index {name!r} in a data-sharing clause")
            elif name in env.arrays:
                self.err(path, "omp.clause",
                         f"array {name!r} in a data-sharing clause")
            elif not (name in env.fp or name in env.ints):
                self.err(path, "omp.clause",
                         f"clause lists undeclared variable {name!r}")

        body = stmt.body.statements
        loops = [s for s in body if isinstance(s, ForLoop)]
        lines = [s for s in body if isinstance(s, LINE_STATEMENTS)]
        if (not body or len(loops) != 1 or len(lines) + len(loops) != len(body)
                or not isinstance(body[-1], ForLoop)):
            self.err(f"{path}.body", "grammar.region_shape",
                     "region body must be assignments followed by one for loop")
        if not lines:
            self.err(f"{path}.body", "grammar.region_shape",
                     "region body needs at least one assignment before its loop")

        inner = env.copy()
        inner.region = stmt
        inner.region_locals = frozenset()
        inner.in_region_loop = False
        inner.in_critical = False  # a nested team does not hold the outer lock
        inner.omp_body = True
        self.block(stmt.body, inner, depth + 1, f"{path}.body")


def validate_program(program: Program, params: GeneratorParams) -> list[Violation]:
    """Every invariant violation in the AST; an empty list means accept."""
    return _Validator(program, params).run()
