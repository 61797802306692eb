"""AST node types for generated OpenMP test programs, plus generator limits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

COMP = "comp"
THREAD_ID = "thread_id"

ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")
ARITH_OPS = ("+", "-", "*", "/")
BOOL_OPS = ("<", ">", "==", "!=", ">=", "<=")
REDUCTION_OPS = ("+", "*")
PARAM_KINDS = ("int-scalar", "fp-scalar", "fp-array")

# Unary math functions total over the reals.
MATH_FUNCS = ("sin", "cos", "exp", "fabs", "cbrt")


class ParamError(ValueError):
    """A GeneratorParams field violates its invariant."""


@dataclass(frozen=True)
class GeneratorParams:
    max_expression_size: int = 5
    max_nesting_levels: int = 3
    max_lines_in_block: int = 10
    array_size: int = 1000
    max_same_level_blocks: int = 3
    math_func_allowed: bool = True
    math_func_probability: float = 0.01
    num_threads: int = 4
    rng_seed: int = 0

    def validate(self) -> None:
        for name in ("max_expression_size", "max_lines_in_block", "array_size",
                     "num_threads"):
            if getattr(self, name) < 1:
                raise ParamError(f"{name} must be a positive integer")
        for name in ("max_nesting_levels", "max_same_level_blocks"):
            if getattr(self, name) < 0:
                raise ParamError(f"{name} must be >= 0")
        if not 0.0 <= self.math_func_probability <= 1.0:
            raise ParamError("math_func_probability must lie in [0, 1]")
        if not self.math_func_allowed and self.math_func_probability != 0.0:
            raise ParamError("math_func_probability must be 0 when math_func_allowed is false")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ParamError("rng_seed must be a 64-bit unsigned integer")
        # thread_id is used as an array subscript, so every id must be in bounds
        if self.num_threads > self.array_size:
            raise ParamError("num_threads must not exceed array_size")


# --- expressions ---

@dataclass
class Num:
    """Floating-point literal; `text` is the exact token to emit."""
    text: str


@dataclass
class VarTerm:
    name: str


@dataclass
class ArrayRef:
    """Array subscript: a loop index (optionally reduced modulo the array
    length) or the thread-id variable."""
    array: str
    index: str
    modulo: bool = False


@dataclass
class Paren:
    inner: "Expr"


@dataclass
class MathCall:
    func: str
    arg: "Expr"


@dataclass
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Num, VarTerm, ArrayRef, Paren, MathCall, BinOp]


@dataclass
class BoolExpr:
    lhs: str
    op: str
    rhs: Expr


# --- statements ---

@dataclass
class Assignment:
    target: Union[VarTerm, ArrayRef]
    op: str
    expr: Expr


@dataclass
class TempDecl:
    name: str
    init: Expr


@dataclass
class Block:
    statements: list["Statement"] = field(default_factory=list)


@dataclass
class IfBlock:
    cond: BoolExpr
    body: Block


@dataclass
class ForLoop:
    index: str
    bound: Union[int, str]  # literal trip count or the name of an int parameter
    omp_for: bool
    body: Block


@dataclass
class OmpParallel:
    private: tuple[str, ...]
    firstprivate: tuple[str, ...]
    reduction: Optional[str]  # reduction operator; the variable is always comp
    num_threads: int
    body: Block


@dataclass
class Critical:
    body: Block


Statement = Union[Assignment, TempDecl, IfBlock, ForLoop, OmpParallel, Critical]

# Simple line-statements count against max_lines_in_block; every other
# statement is a block, which counts against max_same_level_blocks and adds one
# nesting level.
LINE_STATEMENTS = (Assignment, TempDecl)


# --- program ---

@dataclass(frozen=True)
class ParamDecl:
    name: str
    kind: str  # one of PARAM_KINDS

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown parameter kind: {self.kind}")


@dataclass
class Program:
    params: list[ParamDecl]
    body: Block
    # "single" | "double": the type of comp, every fp parameter and every
    # temporary
    precision: str = "double"
    array_size: int = 1000  # element count of every array parameter


def walk_statements(block: Block):
    """Yield every statement under `block`, parents before children."""
    for stmt in block.statements:
        yield stmt
        if isinstance(stmt, (IfBlock, ForLoop, OmpParallel, Critical)):
            yield from walk_statements(stmt.body)


def leaves(expr: Expr) -> list[Expr]:
    """The Num/VarTerm/ArrayRef terms of `expr`, left to right."""
    if isinstance(expr, BinOp):
        return leaves(expr.lhs) + leaves(expr.rhs)
    if isinstance(expr, Paren):
        return leaves(expr.inner)
    if isinstance(expr, MathCall):
        return leaves(expr.arg)
    return [expr]
