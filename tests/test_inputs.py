import math
import struct
from random import Random

from ompdiff.inputs import (FP_CLASSES, FpClass, gen_input_sample, gen_value,
                            parse_fp_token, read_inputs_file, serialize_input,
                            write_inputs_file)
from ompdiff.nodes import GeneratorParams
from ompdiff.generator import generate_program

from oracles import classify_bits


def bits_of(v):
    return struct.pack("<d", v)


def test_zero_classes_are_definitional():
    rng = Random(0)
    for precision in ("single", "double"):
        plus = gen_value(FpClass.ZERO_POSITIVE, precision, rng)
        minus = gen_value(FpClass.ZERO_NEGATIVE, precision, rng)
        assert plus == 0.0 and math.copysign(1, plus) > 0
        assert minus == 0.0 and math.copysign(1, minus) < 0


def test_generated_values_satisfy_bitfield_oracle():
    rng = Random(42)
    for precision in ("single", "double"):
        for cls in FP_CLASSES:
            for _ in range(3000):
                v = gen_value(cls, precision, rng)
                assert cls.value in classify_bits(v, precision), (cls, precision, v)


def test_subnormal_below_min_normal():
    rng = Random(5)
    for _ in range(1000):
        v = gen_value(FpClass.SUBNORMAL, "double", rng)
        assert 0 < abs(v) < 2.0 ** -1022


def test_almost_infinity_within_top_decade():
    rng = Random(6)
    max_double = (2.0 - 2.0 ** -52) * 2.0 ** 1023
    for _ in range(1000):
        v = gen_value(FpClass.ALMOST_INFINITY, "double", rng)
        assert math.isfinite(v)
        assert abs(v) >= max_double / 10.0


def test_both_signs_appear():
    rng = Random(9)
    for cls in (FpClass.NORMAL, FpClass.SUBNORMAL, FpClass.ALMOST_INFINITY):
        signs = {math.copysign(1, gen_value(cls, "double", rng)) for _ in range(200)}
        assert signs == {1.0, -1.0}


def test_roundtrip_bit_exact():
    rng = Random(11)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.5, -1.0 / 3.0]
    values = specials + [gen_value(rng.choice(FP_CLASSES), "double", rng)
                         for _ in range(2000)]
    for v in values:
        token = float(v).hex()
        back = parse_fp_token(token)
        assert bits_of(back) == bits_of(v), v


def test_sample_arity_and_int_range():
    params = GeneratorParams(rng_seed=3, num_threads=2, array_size=50)
    program = generate_program(params)
    rng = Random(1)
    sample = gen_input_sample(program, rng)
    assert len(sample.values) == len(program.params)
    tokens = serialize_input(sample)
    assert len(tokens) == len(program.params)
    for decl, iv in zip(program.params, sample.values):
        assert decl.name == iv.name
        if decl.kind == "int-scalar":
            assert iv.fp_class is None
            assert 1 <= iv.value <= 50
        else:
            assert iv.fp_class in FP_CLASSES


def test_sampling_is_deterministic_per_seed():
    params = GeneratorParams(rng_seed=8, num_threads=2)
    program = generate_program(params)
    s1 = gen_input_sample(program, Random(123))
    s2 = gen_input_sample(program, Random(123))
    assert serialize_input(s1) == serialize_input(s2)
    s3 = gen_input_sample(program, Random(124))
    assert serialize_input(s1) != serialize_input(s3)


def test_every_class_occurs_under_uniform_choice():
    params = GeneratorParams(rng_seed=21, num_threads=2)
    program = generate_program(params)
    fp_positions = [i for i, d in enumerate(program.params) if d.kind != "int-scalar"]
    rng = Random(2)
    seen = set()
    for _ in range(1000):
        sample = gen_input_sample(program, rng)
        for i in fp_positions:
            seen.add(sample.values[i].fp_class)
    assert seen == set(FP_CLASSES)


def test_inputs_file_roundtrip(tmp_path):
    params = GeneratorParams(rng_seed=13, num_threads=2)
    program = generate_program(params)
    rng = Random(0)
    samples = [gen_input_sample(program, rng) for _ in range(3)]
    path = tmp_path / "_test_0.inputs"
    write_inputs_file(path, samples)
    lines = read_inputs_file(path)
    assert lines == [serialize_input(s) for s in samples]
