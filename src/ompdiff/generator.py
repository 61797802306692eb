"""Random construction of race-free OpenMP compute kernels.

The generator is stricter than plain race freedom: it only emits programs
whose printed result does not depend on the executing thread count, up to
the rounding of a reduction. Without a `reduction(+: comp)` clause the result
is exact at every team size. With one, each thread's partial sum rounds on
its own, so the last bits can differ between team sizes: by up to 1.8e-4
relative in single precision and 1.0e-12 in double, measured between teams
of 2 and 1 threads over 180 g++ 12.2 -O2 groups. Inside a parallel region the
generator keeps these rules:

  * shared scalars and shared arrays stay read-only, except for `comp`;
  * `comp` is updated at a single site per region, either through the
    reduction clause or inside a critical section, and the update expression
    is region-invariant, so the same operation is applied a schedule-
    independent number of times;
  * arrays written inside regions are write-only "sink" arrays whose contents
    never feed back into `comp`;
  * variables in private clauses are assigned on region entry before any use.

Every random choice draws from a uniform distribution over the candidates
allowed in its context, except math-call wrapping which fires per term with
the configured probability.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Union

from .nodes import (
    ARITH_OPS, ASSIGN_OPS, BOOL_OPS, COMP, MATH_FUNCS, PARAM_KINDS, THREAD_ID,
    ArrayRef, Assignment, BinOp, Block, BoolExpr, Critical, Expr, ForLoop,
    GeneratorParams, IfBlock, MathCall, Num, OmpParallel, ParamDecl, Paren,
    Program, Statement, TempDecl, VarTerm,
)


@dataclass
class _Region:
    reduction: Optional[str]
    # scalars whose value cannot change while the region runs; the only legal
    # operands for comp updates and for loop bounds inside the region
    invariant_fp: list[str]
    invariant_ints: list[str]
    invariant_indices: list[str]  # indices of loops enclosing the region
    comp_written: bool = False
    loop_is_omp: bool = False


@dataclass
class _Ctx:
    p: GeneratorParams
    rng: Random
    precision: str
    names: "itertools.count"
    int_params: list[str]
    fp_scalars: list[str]  # readable fp scalars in scope (excluding comp)
    serial_arrays: list[str]
    sink_arrays: list[str]
    loop_indices: list[str] = field(default_factory=list)
    region: Optional[_Region] = None
    in_region_loop: bool = False
    region_locals: list[str] = field(default_factory=list)  # loop-local temps

    def fork(self) -> "_Ctx":
        c = copy.copy(self)
        c.fp_scalars = list(self.fp_scalars)
        c.loop_indices = list(self.loop_indices)
        c.region_locals = list(self.region_locals)
        return c

    def fresh_name(self) -> str:
        return f"var_{next(self.names)}"


# --- operand pools ---

@dataclass
class _Pool:
    """Candidate operands for one expression site."""
    fp: list[str]
    ints: list[str]
    indices: list[str]


def _serial_pool(ctx: _Ctx) -> _Pool:
    return _Pool(fp=ctx.fp_scalars + [COMP], ints=list(ctx.int_params),
                 indices=list(ctx.loop_indices))


def _region_det_pool(ctx: _Ctx, with_tid: bool = False) -> _Pool:
    """Iteration-deterministic operands: values may vary per iteration but not
    with the executing thread, unless the result only feeds a sink array."""
    r = ctx.region
    indices = r.invariant_indices + ctx.loop_indices
    return _Pool(fp=r.invariant_fp + ctx.region_locals,
                 ints=list(r.invariant_ints),
                 indices=indices + [THREAD_ID] if with_tid else indices)


def _region_inv_pool(ctx: _Ctx, include_comp: bool) -> _Pool:
    """Region-invariant operands only; required for comp-update expressions."""
    r = ctx.region
    return _Pool(fp=r.invariant_fp + ([COMP] if include_comp else []),
                 ints=list(r.invariant_ints),
                 indices=list(r.invariant_indices))


# --- expressions ---

def _fp_literal(ctx: _Ctx) -> Num:
    text = f"{ctx.rng.uniform(0.0, 10.0):.4f}e{ctx.rng.randint(-10, 10):+d}"
    if ctx.precision == "single":
        text += "f"
    return Num(text)


def _gen_term(ctx: _Ctx, pool: _Pool) -> Expr:
    rng = ctx.rng
    kinds = ["const"]
    if pool.fp:
        kinds.append("fp")
    if pool.ints:
        kinds.append("int")
    if pool.indices:
        kinds.append("index")
    # an array read at thread_id would vary with the executing thread
    array_indices = [i for i in pool.indices if i != THREAD_ID]
    if ctx.serial_arrays and array_indices:
        kinds.append("array")
    kind = rng.choice(kinds)
    if kind == "const":
        term: Expr = _fp_literal(ctx)
    elif kind == "fp":
        term = VarTerm(rng.choice(pool.fp))
    elif kind == "int":
        term = VarTerm(rng.choice(pool.ints))
    elif kind == "index":
        term = VarTerm(rng.choice(pool.indices))
    else:
        term = ArrayRef(rng.choice(ctx.serial_arrays), rng.choice(array_indices),
                        modulo=True)
    if ctx.p.math_func_allowed and rng.random() < ctx.p.math_func_probability:
        term = MathCall(rng.choice(MATH_FUNCS), term)
    return term


def _gen_expr(ctx: _Ctx, pool: _Pool) -> Expr:
    rng = ctx.rng
    n = rng.randint(1, ctx.p.max_expression_size)
    terms = [_gen_term(ctx, pool) for _ in range(n)]

    def build(lo: int, hi: int) -> Expr:
        if hi - lo == 1:
            return terms[lo]
        k = rng.randint(lo + 1, hi - 1)
        node: Expr = BinOp(rng.choice(ARITH_OPS), build(lo, k), build(k, hi))
        if rng.random() < 0.25:
            node = Paren(node)
        return node

    return build(0, n)


def _gen_bool(ctx: _Ctx, pool: _Pool) -> BoolExpr:
    rng = ctx.rng
    lhs = rng.choice(pool.fp + pool.ints + pool.indices)
    return BoolExpr(lhs, rng.choice(BOOL_OPS), _gen_expr(ctx, pool))


# --- statements ---

def _gen_serial_line(ctx: _Ctx) -> Statement:
    rng = ctx.rng
    kinds = ["comp_assign", "temp_decl"]
    if ctx.fp_scalars:
        kinds.append("scalar_assign")
    if ctx.serial_arrays and ctx.loop_indices:
        kinds.append("serial_array_assign")
    if ctx.sink_arrays and ctx.loop_indices:
        kinds.append("sink_array_assign")
    kind = rng.choice(kinds)
    pool = _serial_pool(ctx)
    if kind == "temp_decl":
        name = ctx.fresh_name()
        stmt: Statement = TempDecl(name, _gen_expr(ctx, pool))
        ctx.fp_scalars.append(name)
        return stmt
    op = rng.choice(ASSIGN_OPS)
    if kind == "comp_assign":
        return Assignment(VarTerm(COMP), op, _gen_expr(ctx, pool))
    if kind == "scalar_assign":
        return Assignment(VarTerm(rng.choice(ctx.fp_scalars)), op, _gen_expr(ctx, pool))
    arrs = ctx.serial_arrays if kind == "serial_array_assign" else ctx.sink_arrays
    target = ArrayRef(rng.choice(arrs), rng.choice(ctx.loop_indices), modulo=True)
    return Assignment(target, op, _gen_expr(ctx, pool))


def _gen_region_loop_line(ctx: _Ctx) -> Statement:
    rng = ctx.rng
    r = ctx.region
    kinds = ["local_decl"]
    if ctx.region_locals:
        kinds.append("local_assign")
    if ctx.sink_arrays:
        kinds.append("sink_tid")
    if r.reduction and r.loop_is_omp and not r.comp_written:
        kinds.append("reduction_update")
    kind = rng.choice(kinds)
    if kind == "local_decl":
        name = ctx.fresh_name()
        stmt: Statement = TempDecl(name, _gen_expr(ctx, _region_det_pool(ctx)))
        ctx.region_locals.append(name)
        return stmt
    if kind == "local_assign":
        return Assignment(VarTerm(rng.choice(ctx.region_locals)),
                          rng.choice(ASSIGN_OPS),
                          _gen_expr(ctx, _region_det_pool(ctx)))
    if kind == "sink_tid":
        target = ArrayRef(rng.choice(ctx.sink_arrays), THREAD_ID, modulo=False)
        return Assignment(target, rng.choice(ASSIGN_OPS),
                          _gen_expr(ctx, _region_det_pool(ctx, with_tid=True)))
    # single comp-update site: every iteration contributes the same invariant
    # value, so thread partials keep one sign and recombine within tolerance
    r.comp_written = True
    return Assignment(VarTerm(COMP), r.reduction + "=",
                      _gen_expr(ctx, _region_inv_pool(ctx, include_comp=False)))


def _gen_critical(ctx: _Ctx) -> Critical:
    """Critical section inside the region's loop: protected sink writes and,
    at most once per region, the comp update site."""
    rng = ctx.rng
    r = ctx.region
    crit = ctx.fork()
    stmts: list[Statement] = []
    n = rng.randint(1, min(3, ctx.p.max_lines_in_block))
    want_comp = (not r.reduction) and (not r.comp_written)
    for k in range(n):
        if want_comp and k == n - 1:
            if r.loop_is_omp:
                # one site applying the same operation each iteration
                op = rng.choice(ASSIGN_OPS)
                pool = _region_inv_pool(crit, include_comp=True)
            else:
                # every thread runs every iteration: only an idempotent
                # assignment of an invariant value is thread-count neutral
                op = "="
                pool = _region_inv_pool(crit, include_comp=False)
            stmts.append(Assignment(VarTerm(COMP), op, _gen_expr(crit, pool)))
            r.comp_written = True
        elif crit.sink_arrays and crit.loop_indices:
            target = ArrayRef(rng.choice(crit.sink_arrays),
                              rng.choice(crit.loop_indices), modulo=True)
            stmts.append(Assignment(target, rng.choice(ASSIGN_OPS),
                                    _gen_expr(crit, _region_det_pool(crit, with_tid=True))))
        else:
            name = crit.fresh_name()
            stmts.append(TempDecl(name, _gen_expr(crit, _region_det_pool(crit))))
            crit.region_locals.append(name)
    return Critical(Block(stmts))


def _critical_eligible(ctx: _Ctx) -> bool:
    if ctx.region is None or not ctx.in_region_loop:
        return False
    r = ctx.region
    comp_open = (not r.reduction) and (not r.comp_written)
    return comp_open or bool(ctx.sink_arrays and ctx.loop_indices)


def _loop_bound(ctx: _Ctx) -> Union[int, str]:
    rng = ctx.rng
    ints = ctx.int_params if ctx.region is None else ctx.region.invariant_ints
    if ints and rng.random() < 0.5:
        return rng.choice(ints)
    return rng.randint(1, ctx.p.array_size)


def _gen_for(ctx: _Ctx, depth: int) -> ForLoop:
    index = f"i_{depth}"
    bound = _loop_bound(ctx)
    inner = ctx.fork()
    inner.loop_indices.append(index)
    return ForLoop(index, bound, omp_for=False, body=_gen_block(inner, depth + 1))


def _gen_if(ctx: _Ctx, depth: int) -> IfBlock:
    pool = _serial_pool(ctx) if ctx.region is None else _region_det_pool(ctx)
    cond = _gen_bool(ctx, pool)
    return IfBlock(cond, _gen_block(ctx.fork(), depth + 1))


def _gen_block(ctx: _Ctx, depth: int) -> Block:
    rng = ctx.rng
    p = ctx.p
    n_lines = rng.randint(1, p.max_lines_in_block)
    n_blocks = rng.randint(0, p.max_same_level_blocks) if depth < p.max_nesting_levels else 0
    slots = ["line"] * n_lines + ["block"] * n_blocks
    rng.shuffle(slots)
    local = ctx.fork()
    stmts: list[Statement] = []
    for slot in slots:
        if slot == "line":
            stmts.append(_gen_region_loop_line(local) if local.in_region_loop
                         else _gen_serial_line(local))
            continue
        kinds = ["if", "for"]
        if local.region is None and depth + 2 <= p.max_nesting_levels:
            kinds.append("omp")
        if _critical_eligible(local):
            kinds.append("critical")
        kind = rng.choice(kinds)
        if kind == "if":
            stmts.append(_gen_if(local, depth))
        elif kind == "for":
            stmts.append(_gen_for(local, depth))
        elif kind == "critical":
            stmts.append(_gen_critical(local))
        else:
            stmts.append(_gen_omp(local, depth))
    return Block(stmts)


# --- parallel regions ---

def assign_data_sharing(scalars, rng: Random) -> dict[str, str]:
    """Data-sharing attribute of each scalar visible to one parallel region,
    drawn uniformly from {shared, private, firstprivate}. Arrays stay shared
    (privatizing the pointer would leave each copy pointing nowhere) and comp
    is shared unless the region reduces into it, so neither takes a draw."""
    return {name: rng.choice(("shared", "private", "firstprivate"))
            for name in scalars}


def _gen_omp(ctx: _Ctx, depth: int) -> OmpParallel:
    rng = ctx.rng
    p = ctx.p
    reduction = "+" if rng.random() < 0.5 else None
    scalars = ctx.fp_scalars + ctx.int_params
    sharing = assign_data_sharing(scalars, rng)
    private = [v for v in scalars if sharing[v] == "private"]
    firstprivate = [v for v in scalars if sharing[v] == "firstprivate"]
    # private copies must be assigned before the loop; keep room in the block
    while len(private) > p.max_lines_in_block - 1:
        demoted = private.pop(rng.randrange(len(private)))
        sharing[demoted] = "shared"

    region = _Region(
        reduction=reduction,
        invariant_fp=[v for v in ctx.fp_scalars if sharing[v] in ("shared", "firstprivate")],
        invariant_ints=[v for v in ctx.int_params if sharing[v] in ("shared", "firstprivate")],
        invariant_indices=list(ctx.loop_indices),
    )
    inner = ctx.fork()
    inner.region = region
    inner.loop_indices = []  # enclosing indices live in invariant_indices
    inner.region_locals = []

    prelude: list[Statement] = []
    for v in private:
        if v in ctx.int_params:
            prelude.append(Assignment(VarTerm(v), "=",
                                      Num(str(rng.randint(1, p.array_size)))))
            region.invariant_ints.append(v)
        else:
            prelude.append(Assignment(VarTerm(v), "=",
                                      _gen_expr(inner, _region_inv_pool(inner, False))))
            region.invariant_fp.append(v)

    n_extra = rng.randint(1, p.max_lines_in_block - len(private))
    for _ in range(n_extra):
        kinds = ["region_temp"]
        if ctx.sink_arrays:
            kinds.append("sink_tid")
        if rng.choice(kinds) == "sink_tid":
            target = ArrayRef(rng.choice(ctx.sink_arrays), THREAD_ID, modulo=False)
            prelude.append(Assignment(target, rng.choice(ASSIGN_OPS),
                                      _gen_expr(inner, _region_det_pool(inner, with_tid=True))))
        else:
            name = inner.fresh_name()
            prelude.append(TempDecl(name, _gen_expr(inner, _region_inv_pool(inner, False))))
            region.invariant_fp.append(name)

    # a reduction must run on distributed iterations, otherwise every thread
    # would contribute the whole loop over again
    region.loop_is_omp = True if reduction else rng.random() < 0.5
    index = f"i_{depth + 1}"
    bound = _loop_bound(inner)
    loop_ctx = inner.fork()
    loop_ctx.in_region_loop = True
    loop_ctx.loop_indices.append(index)
    loop = ForLoop(index, bound, omp_for=region.loop_is_omp,
                   body=_gen_block(loop_ctx, depth + 2))

    return OmpParallel(private=tuple(private), firstprivate=tuple(firstprivate),
                       reduction=reduction, num_threads=p.num_threads,
                       body=Block(prelude + [loop]))


# --- program assembly ---

def _gen_params(rng: Random) -> list[ParamDecl]:
    n = rng.randint(3, 8)
    kinds = list(PARAM_KINDS) + [rng.choice(PARAM_KINDS) for _ in range(n - 3)]
    rng.shuffle(kinds)
    return [ParamDecl(f"var_{i}", kind) for i, kind in enumerate(kinds, start=1)]


def generate_program(params: GeneratorParams) -> Program:
    """Build one random program; identical params give an identical AST."""
    params.validate()
    rng = Random(params.rng_seed)
    precision = rng.choice(("double", "single"))
    decls = _gen_params(rng)
    arrays = [d.name for d in decls if d.kind == "fp-array"]
    sinks = [a for a in arrays if rng.random() < 0.5]
    ctx = _Ctx(
        p=params, rng=rng, precision=precision,
        names=itertools.count(len(decls) + 1),
        int_params=[d.name for d in decls if d.kind == "int-scalar"],
        fp_scalars=[d.name for d in decls if d.kind == "fp-scalar"],
        serial_arrays=[a for a in arrays if a not in sinks],
        sink_arrays=sinks,
    )
    body = _gen_block(ctx, depth=0)
    return Program(params=decls, body=body, precision=precision,
                   array_size=params.array_size)
