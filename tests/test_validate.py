from dataclasses import replace

import pytest

from ompdiff.nodes import (COMP, ArrayRef, Assignment, BinOp, Block, BoolExpr,
                           Critical, ForLoop, GeneratorParams, IfBlock, MathCall,
                           Num, OmpParallel, ParamDecl, Program, TempDecl, VarTerm)
from ompdiff.validate import validate_program

PARAMS = GeneratorParams(max_expression_size=3, max_nesting_levels=2,
                         max_lines_in_block=3, array_size=100,
                         max_same_level_blocks=1, math_func_allowed=False,
                         math_func_probability=0.0, num_threads=4)


def program(body, params=(), precision="double"):
    return Program(params=list(params), body=body, precision=precision,
                   array_size=100)


def rules(violations):
    return {v.rule for v in violations}


def test_clean_minimal_program():
    prog = program(Block([Assignment(VarTerm(COMP), "=", Num("1.0"))]))
    assert validate_program(prog, PARAMS) == []


def test_a_parameter_of_unknown_kind_cannot_be_declared():
    with pytest.raises(ValueError, match="unknown parameter kind: fp-matrix"):
        ParamDecl("m", "fp-matrix")


def test_omp_for_outside_region_is_flagged():
    loop = ForLoop("i_0", 10, omp_for=True,
                   body=Block([Assignment(VarTerm(COMP), "=", Num("1.0"))]))
    violations = validate_program(program(Block([loop])), PARAMS)
    assert any(v.rule == "omp.omp_for_placement" and "body[0]" in v.path
               for v in violations)


def test_expression_size_violation():
    expr = BinOp("+", BinOp("*", Num("1.0"), Num("2.0")),
                 BinOp("-", Num("3.0"), Num("4.0")))  # 4 terms, limit 3
    prog = program(Block([Assignment(VarTerm(COMP), "=", expr)]))
    violations = validate_program(prog, PARAMS)
    assert rules(violations) == {"limit.expr"}


def test_precision_is_single_or_double():
    body = Block([Assignment(VarTerm(COMP), "=", Num("1.0"))])
    for precision in ("single", "double"):
        assert validate_program(program(body, precision=precision), PARAMS) == []
    violations = validate_program(program(body, precision="half"), PARAMS)
    assert [(v.path, v.rule) for v in violations] == [("precision", "type")]


def test_undeclared_identifier():
    prog = program(Block([Assignment(VarTerm(COMP), "=", VarTerm("ghost"))]))
    assert rules(validate_program(prog, PARAMS)) == {"scope"}


def test_depth_and_sibling_limits():
    deep = Block([IfBlock(BoolExpr(COMP, "<", Num("1.0")), Block([
        IfBlock(BoolExpr(COMP, "<", Num("1.0")), Block([
            IfBlock(BoolExpr(COMP, "<", Num("1.0")),
                    Block([Assignment(VarTerm(COMP), "=", Num("1.0"))]))]))]))])
    assert "limit.depth" in rules(validate_program(program(deep), PARAMS))

    wide = Block([IfBlock(BoolExpr(COMP, "<", Num("1.0")),
                          Block([Assignment(VarTerm(COMP), "=", Num("1.0"))])),
                  IfBlock(BoolExpr(COMP, "<", Num("1.0")),
                          Block([Assignment(VarTerm(COMP), "=", Num("1.0"))]))])
    assert "limit.blocks" in rules(validate_program(program(wide), PARAMS))


def test_line_limit():
    lines = Block([Assignment(VarTerm(COMP), "=", Num("1.0")) for _ in range(4)])
    assert "limit.lines" in rules(validate_program(program(lines), PARAMS))


def test_critical_outside_region_loop():
    crit = Critical(Block([Assignment(VarTerm(COMP), "=", Num("1.0"))]))
    assert "omp.critical_placement" in rules(validate_program(program(Block([crit])),
                                                              PARAMS))


def region(body_stmts, **kw):
    defaults = dict(private=(), firstprivate=(), reduction=None, num_threads=4)
    defaults.update(kw)
    return OmpParallel(body=Block(body_stmts), **defaults)


def good_region_body(loop_body):
    return [TempDecl("var_9", Num("0.0")),
            ForLoop("i_1", 10, omp_for=True, body=Block(loop_body))]


def test_nested_parallel_flagged():
    inner = region(good_region_body([TempDecl("var_8", Num("0.0"))]))
    outer = region([TempDecl("var_9", Num("0.0")),
                    ForLoop("i_1", 10, omp_for=True, body=Block([inner]))])
    violations = validate_program(program(Block([outer])), PARAMS)
    assert "omp.nested_parallel" in rules(violations)


def test_write_in_a_region_nested_inside_a_critical_is_a_race():
    # the nested team does not hold the enclosing critical's lock
    inner = region(good_region_body([Assignment(VarTerm(COMP), "+=", Num("1.0"))]))
    outer = region([TempDecl("var_9", Num("0.0")),
                    ForLoop("i_1", 10, omp_for=True,
                            body=Block([Critical(Block([inner]))]))])
    violations = validate_program(program(Block([outer])), PARAMS)
    assert [v.path for v in violations if v.rule == "race"] == [
        "body[0].body[1].body[0].body[0].body[1].body[0]"]


def test_region_shape_requires_trailing_loop():
    bad = region([TempDecl("var_9", Num("0.0"))])
    assert "grammar.region_shape" in rules(validate_program(program(Block([bad])),
                                                            PARAMS))


def test_unprotected_shared_writes_flagged():
    loop_body = [Assignment(VarTerm(COMP), "+=", Num("1.0")),
                 Assignment(ArrayRef("var_1", "i_1", modulo=True), "=", Num("1.0"))]
    prog = program(Block([region(good_region_body(loop_body))]),
                   params=[ParamDecl("var_1", "fp-array")])
    violations = validate_program(prog, PARAMS)
    assert sum(1 for v in violations if v.rule == "race") == 2


def test_protected_writes_pass():
    loop_body = [
        Assignment(ArrayRef("var_1", "thread_id", modulo=False), "=", Num("1.0")),
        Critical(Block([Assignment(VarTerm(COMP), "+=", Num("1.0"))])),
    ]
    prog = program(Block([region(good_region_body(loop_body))]),
                   params=[ParamDecl("var_1", "fp-array")])
    deep_enough = GeneratorParams(max_expression_size=3, max_nesting_levels=3,
                                  max_lines_in_block=3, array_size=100,
                                  max_same_level_blocks=1, math_func_allowed=False,
                                  math_func_probability=0.0, num_threads=4)
    assert validate_program(prog, deep_enough) == []


def test_reduction_write_passes_and_bad_op_flagged():
    loop_body = [Assignment(VarTerm(COMP), "+=", Num("1.0"))]
    good = program(Block([region(good_region_body(loop_body), reduction="+")]))
    assert validate_program(good, PARAMS) == []
    bad = program(Block([region(good_region_body(loop_body), reduction="-")]))
    assert "omp.reduction_op" in rules(validate_program(bad, PARAMS))


def test_clause_rules():
    bad = region(good_region_body([TempDecl("var_8", Num("0.0"))]),
                 private=("ghost",), firstprivate=(COMP,))
    violations = validate_program(program(Block([bad])), PARAMS)
    assert sum(1 for v in violations if v.rule == "omp.clause") == 2

    # a private array pointer would point nowhere in each thread
    bad = region(good_region_body([TempDecl("var_8", Num("0.0"))]),
                 private=("var_1",))
    violations = validate_program(program(Block([bad]),
                                          params=[ParamDecl("var_1", "fp-array")]),
                                  PARAMS)
    assert [v.message for v in violations if v.rule == "omp.clause"] == [
        "array 'var_1' in a data-sharing clause"]


def test_subscript_rules():
    # subscript must be a loop index in scope or the thread id
    prog = program(Block([ForLoop("i_0", 10, omp_for=False, body=Block([
        Assignment(ArrayRef("var_1", "i_9", modulo=True), "=", Num("1.0"))]))]),
        params=[ParamDecl("var_1", "fp-array")])
    assert "subscript" in rules(validate_program(prog, PARAMS))

    # bare index under a bound that exceeds the array length
    prog2 = program(Block([ForLoop("i_0", 5000, omp_for=False, body=Block([
        Assignment(VarTerm(COMP), "=",
                   ArrayRef("var_1", "i_0", modulo=False))]))]),
        params=[ParamDecl("var_1", "fp-array")])
    assert "subscript" in rules(validate_program(prog2, PARAMS))

    # modulo makes the same access safe
    prog3 = program(Block([ForLoop("i_0", 5000, omp_for=False, body=Block([
        Assignment(VarTerm(COMP), "=",
                   ArrayRef("var_1", "i_0", modulo=True))]))]),
        params=[ParamDecl("var_1", "fp-array")])
    assert validate_program(prog3, PARAMS) == []

    # a thread-id subscript past the array end: 8 threads, 4 elements
    loop_body = [Assignment(ArrayRef("var_1", "thread_id", modulo=False), "=",
                            Num("1.0"))]
    prog4 = Program(params=[ParamDecl("var_1", "fp-array")],
                    body=Block([region(good_region_body(loop_body), num_threads=8)]),
                    precision="double", array_size=4)
    assert rules(validate_program(prog4, PARAMS)) == {"subscript"}
    prog4.array_size = 8
    assert validate_program(prog4, PARAMS) == []


def test_generated_output_accepted_is_checked_elsewhere():
    # guards against rule drift: an intentionally broken op is caught
    prog = program(Block([Assignment(VarTerm(COMP), "**=", Num("1.0"))]))
    assert "op" in rules(validate_program(prog, PARAMS))


def test_loop_bound_below_one_has_its_own_rule():
    loop = ForLoop("i_0", 0, omp_for=False,
                   body=Block([Assignment(VarTerm(COMP), "=", Num("1.0"))]))
    assert rules(validate_program(program(Block([loop])), PARAMS)) == {"limit.bound"}


def comp_is(expr):
    return Assignment(VarTerm(COMP), "=", expr)


SCALAR = ParamDecl("var_1", "fp-scalar")
ARRAY = ParamDecl("var_1", "fp-array")
MATH = replace(PARAMS, math_func_allowed=True, math_func_probability=0.5)
DEEPER = replace(PARAMS, max_nesting_levels=3)

# one minimal program per rule: (program, params, the only violation's (path, rule))
EACH_RULE = {
    "duplicate parameter names": (
        program(Block([comp_is(Num("1.0"))]), params=[SCALAR, SCALAR]),
        PARAMS, ("params", "scope")),
    "math call while math is disallowed": (
        program(Block([comp_is(MathCall("sin", Num("1.0")))])),
        PARAMS, ("body[0]", "math")),
    "unknown math function": (
        program(Block([comp_is(MathCall("tan", Num("1.0")))])),
        MATH, ("body[0]", "math")),
    "unknown arithmetic operator": (
        program(Block([comp_is(BinOp("%", Num("1.0"), Num("2.0")))])),
        PARAMS, ("body[0]", "op")),
    "a node that is no expression": (
        program(Block([comp_is(BoolExpr(COMP, "<", Num("1.0")))])),
        PARAMS, ("body[0]", "op")),
    "subscripted scalar": (
        program(Block([ForLoop("i_0", 10, omp_for=False, body=Block([
            comp_is(ArrayRef("var_1", "i_0", modulo=True))]))]), params=[SCALAR]),
        PARAMS, ("body[0].body[0]", "scope")),
    "thread-id subscript outside a region": (
        program(Block([comp_is(ArrayRef("var_1", "thread_id"))]), params=[ARRAY]),
        PARAMS, ("body[0]", "subscript")),
    "thread-id subscript with modulo": (
        program(Block([region(good_region_body([
            Assignment(ArrayRef("var_1", "thread_id", modulo=True), "=",
                       Num("1.0"))]))]), params=[ARRAY]),
        PARAMS, ("body[0].body[1].body[0]", "subscript")),
    "condition on an undeclared name": (
        program(Block([IfBlock(BoolExpr("ghost", "<", Num("1.0")),
                               Block([comp_is(Num("1.0"))]))])),
        PARAMS, ("body[0]", "scope")),
    "unknown boolean operator": (
        program(Block([IfBlock(BoolExpr(COMP, "=<", Num("1.0")),
                               Block([comp_is(Num("1.0"))]))])),
        PARAMS, ("body[0]", "op")),
    "unknown statement": (
        program(Block([Num("1.0")])),
        PARAMS, ("body[0]", "op")),
    "assignment to a loop index": (
        program(Block([ForLoop("i_0", 10, omp_for=False, body=Block([
            Assignment(VarTerm("i_0"), "=", Num("1.0"))]))])),
        PARAMS, ("body[0].body[0]", "scope")),
    "assignment to an undeclared name": (
        program(Block([Assignment(VarTerm("ghost"), "=", Num("1.0"))])),
        PARAMS, ("body[0]", "scope")),
    "assignment to a literal": (
        program(Block([Assignment(Num("1.0"), "=", Num("2.0"))])),
        PARAMS, ("body[0]", "op")),
    "unprotected write to a shared scalar": (
        program(Block([region(good_region_body([
            Assignment(VarTerm("var_1"), "=", Num("1.0"))]))]), params=[SCALAR]),
        PARAMS, ("body[0].body[1].body[0]", "race")),
    "loop bound that is no int parameter": (
        program(Block([ForLoop("i_0", "var_1", omp_for=False, body=Block([
            comp_is(Num("1.0"))]))]), params=[SCALAR]),
        PARAMS, ("body[0]", "scope")),
    "num_threads below one": (
        program(Block([region(good_region_body([TempDecl("var_8", Num("0.0"))]),
                              num_threads=0)])),
        PARAMS, ("body[0]", "omp.clause")),
    "a name both private and firstprivate": (
        program(Block([region(good_region_body([TempDecl("var_8", Num("0.0"))]),
                              private=("var_1",), firstprivate=("var_1",))]),
                params=[SCALAR]),
        PARAMS, ("body[0]", "omp.clause")),
    "loop index in a clause": (
        program(Block([ForLoop("i_0", 10, omp_for=False, body=Block([
            region(good_region_body([TempDecl("var_8", Num("0.0"))]),
                   private=("i_0",))]))])),
        DEEPER, ("body[0].body[0]", "omp.clause")),
    "region with no assignment before its loop": (
        program(Block([region([ForLoop("i_1", 10, omp_for=True, body=Block([
            TempDecl("var_8", Num("0.0"))]))])])),
        PARAMS, ("body[0].body", "grammar.region_shape")),
}


@pytest.mark.parametrize("case", EACH_RULE)
def test_each_rule_flags_its_minimal_program(case):
    prog, params, expected = EACH_RULE[case]
    assert [(v.path, v.rule) for v in validate_program(prog, params)] == [expected]
