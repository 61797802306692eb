import hashlib

import pytest
from dataclasses import replace
from random import Random

from ompdiff.campaign import CampaignConfig, generate_tests
from ompdiff.emit import emit_source
from ompdiff.generator import assign_data_sharing, generate_program
from ompdiff.nodes import (LINE_STATEMENTS, Critical, ForLoop, GeneratorParams,
                           IfBlock, OmpParallel, ParamError, walk_statements)
from ompdiff.validate import validate_program

from test_campaign import TAME

PAPER = dict(max_expression_size=5, max_nesting_levels=3, max_lines_in_block=10,
             array_size=1000, max_same_level_blocks=3, math_func_allowed=True,
             math_func_probability=0.01)
TIGHT = GeneratorParams(rng_seed=5, max_expression_size=2,
                        max_nesting_levels=1, max_lines_in_block=2,
                        max_same_level_blocks=1, array_size=10,
                        num_threads=2, math_func_allowed=False,
                        math_func_probability=0.0)


def test_params_validation_names_field():
    with pytest.raises(ParamError, match="max_expression_size"):
        GeneratorParams(max_expression_size=0).validate()
    with pytest.raises(ParamError, match="math_func_probability"):
        GeneratorParams(math_func_allowed=False, math_func_probability=0.5).validate()
    with pytest.raises(ParamError, match="math_func_probability"):
        GeneratorParams(math_func_probability=1.5).validate()
    with pytest.raises(ParamError, match="num_threads"):
        GeneratorParams(num_threads=64, array_size=32).validate()
    with pytest.raises(ParamError, match="max_nesting_levels"):
        GeneratorParams(max_nesting_levels=-1).validate()
    GeneratorParams(max_nesting_levels=0, max_same_level_blocks=0).validate()


def test_generated_programs_validate_clean():
    for seed in range(60):
        params = GeneratorParams(rng_seed=seed, num_threads=4, **PAPER)
        program = generate_program(params)
        assert validate_program(program, params) == []


def test_generated_programs_are_fixpoints_of_enforcement():
    # generate_program has no repair pass; this is the evidence that its
    # output never needs one: across three configs, no write the race rule
    # would have to protect, and no other rule broken
    base = GeneratorParams(num_threads=4, **PAPER)
    for params in (base, TIGHT, TAME):
        for seed in range(200):
            params = replace(params, rng_seed=seed)
            violations = validate_program(generate_program(params), params)
            assert [v for v in violations if v.rule == "race"] == []
            assert violations == []


def test_same_params_give_identical_source():
    params = GeneratorParams(rng_seed=99, num_threads=8, **PAPER)
    a = emit_source(generate_program(params), params)
    b = emit_source(generate_program(params), params)
    assert a == b


def test_different_seed_changes_source():
    p1 = GeneratorParams(rng_seed=1, num_threads=4, **PAPER)
    p2 = GeneratorParams(rng_seed=2, num_threads=4, **PAPER)
    assert emit_source(generate_program(p1), p1) != emit_source(generate_program(p2), p2)


def test_num_threads_only_changes_the_clause():
    base = dict(PAPER, rng_seed=31)
    one = generate_program(GeneratorParams(num_threads=1, **base))
    four = generate_program(GeneratorParams(num_threads=4, **base))
    kinds_one = [type(s).__name__ for s in walk_statements(one.body)]
    kinds_four = [type(s).__name__ for s in walk_statements(four.body)]
    assert kinds_one == kinds_four
    for s in walk_statements(four.body):
        if isinstance(s, OmpParallel):
            assert s.num_threads == 4


def test_smallest_derivation_is_one_line():
    for seed in range(12):
        params = GeneratorParams(rng_seed=seed, max_nesting_levels=0,
                                 max_same_level_blocks=0, max_lines_in_block=1)
        program = generate_program(params)
        assert len(program.body.statements) == 1
        assert isinstance(program.body.statements[0], LINE_STATEMENTS)


def test_corpus_covers_grammar_features():
    seen = {"parallel": 0, "omp_for": 0, "reduction": 0, "critical": 0, "if": 0}
    for seed in range(80):
        params = GeneratorParams(rng_seed=seed, num_threads=4, **PAPER)
        program = generate_program(params)
        for stmt in walk_statements(program.body):
            if isinstance(stmt, OmpParallel):
                seen["parallel"] += 1
                if stmt.reduction:
                    seen["reduction"] += 1
            elif isinstance(stmt, ForLoop) and stmt.omp_for:
                seen["omp_for"] += 1
            elif isinstance(stmt, Critical):
                seen["critical"] += 1
            elif isinstance(stmt, IfBlock):
                seen["if"] += 1
    assert all(count > 0 for count in seen.values()), seen


def test_limits_respected_under_tight_params():
    program = generate_program(TIGHT)
    assert validate_program(program, TIGHT) == []


# --- data sharing ---

def test_data_sharing_total_and_uniform():
    seen = {"a": set(), "b": set()}
    for seed in range(200):
        sharing = assign_data_sharing(["a", "b"], Random(seed))
        assert sharing.keys() == {"a", "b"}
        for v in ("a", "b"):
            assert sharing[v] in ("shared", "private", "firstprivate")
            seen[v].add(sharing[v])
    assert seen["a"] == {"shared", "private", "firstprivate"}
    assert seen["b"] == {"shared", "private", "firstprivate"}


# sha256 of the `_tests/` tree that generate_tests writes for a paper-config
# campaign of 2 groups x 10 tests x 3 inputs at num_threads 2. A change that
# alters generated sources or inputs on purpose re-pins these and says so.
TREE_DIGESTS = {
    1: "c321645b901fc2da45239ea82c4cbafa7246e9e1a607e2142c13bd6c8a3b229a",
    2: "7258e5692757e99bc401337346d94ab3c011b550efa05bd7df4404b18b3d23f8",
    3: "3dea691f744278ef46381320a99f4a897206312620f178c2a2234395bcb206a5",
}


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(TREE_DIGESTS))
def test_generated_tree_is_pinned(tmp_path, seed):
    config = CampaignConfig(tmp_path, [], GeneratorParams(rng_seed=seed, num_threads=2,
                                                          **PAPER),
                            n_groups=2, tests_per_group=10, inputs_per_test=3)
    generate_tests(config)
    assert _tree_digest(tmp_path / "_tests") == TREE_DIGESTS[seed]
