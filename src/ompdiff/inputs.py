"""Random floating-point inputs spanning extreme value classes.

Besides ordinary normal values, inputs cover subnormals, signed zeros, and
two boundary classes: values within one decade of the format maximum
(almost-infinity) and normal values within one decade of the smallest
positive normal (almost-subnormal). Values serialize as hexadecimal
significand tokens so the generated C++ reads them back bit-exactly.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from random import Random
from typing import Optional

from .nodes import Program

DECADE = 10.0  # width of the "close to the boundary" bands, as a factor


class FpClass(enum.Enum):
    NORMAL = "normal"
    SUBNORMAL = "subnormal"
    ALMOST_INFINITY = "almost_infinity"
    ALMOST_SUBNORMAL = "almost_subnormal"
    ZERO_POSITIVE = "zero_positive"
    ZERO_NEGATIVE = "zero_negative"


FP_CLASSES = tuple(FpClass)


@dataclass(frozen=True)
class FpFormat:
    min_normal: float
    max_finite: float
    min_exp: int  # exponent of min_normal
    max_exp: int
    significand_bits: int


FORMATS = {
    "single": FpFormat(2.0 ** -126, (2.0 - 2.0 ** -23) * 2.0 ** 127,
                       -126, 127, 23),
    "double": FpFormat(2.0 ** -1022, (2.0 - 2.0 ** -52) * 2.0 ** 1023,
                       -1022, 1023, 52),
}


def round_to_single(v: float) -> float:
    """`v` rounded to the nearest single, or ±inf where that overflows."""
    try:
        return struct.unpack("<f", struct.pack("<f", v))[0]
    except OverflowError:
        return math.copysign(math.inf, v)


def _satisfies(fp_class: FpClass, v: float, precision: str) -> bool:
    """Class membership of a nonzero draw already rounded to `precision`."""
    fmt = FORMATS[precision]
    av = abs(v)
    if fp_class is FpClass.SUBNORMAL:
        return 0.0 < av < fmt.min_normal
    is_normal = math.isfinite(v) and fmt.min_normal <= av <= fmt.max_finite
    if fp_class is FpClass.ALMOST_INFINITY:
        return is_normal and av >= fmt.max_finite / DECADE
    if fp_class is FpClass.ALMOST_SUBNORMAL:
        return is_normal and av <= fmt.min_normal * DECADE
    return is_normal  # NORMAL


def _signed(rng: Random, v: float) -> float:
    return -v if rng.random() < 0.5 else v


def gen_value(fp_class: FpClass, precision: str, rng: Random) -> float:
    """Draw one value of the requested class; normals are log-uniform."""
    fmt = FORMATS[precision]
    if fp_class is FpClass.ZERO_POSITIVE:
        return 0.0
    if fp_class is FpClass.ZERO_NEGATIVE:
        return -0.0
    while True:
        if fp_class is FpClass.NORMAL:
            exp = rng.randint(fmt.min_exp, fmt.max_exp)
            v = math.ldexp(rng.uniform(1.0, 2.0), exp)
        elif fp_class is FpClass.SUBNORMAL:
            quantum = math.ldexp(1.0, fmt.min_exp - fmt.significand_bits)
            v = rng.randint(1, 2 ** fmt.significand_bits - 1) * quantum
        elif fp_class is FpClass.ALMOST_INFINITY:
            v = rng.uniform(fmt.max_finite / DECADE, fmt.max_finite)
        else:  # ALMOST_SUBNORMAL
            v = rng.uniform(fmt.min_normal, fmt.min_normal * DECADE)
        if precision == "single":
            v = round_to_single(v)
        v = _signed(rng, v)
        if _satisfies(fp_class, v, precision):
            return v


@dataclass(frozen=True)
class InputValue:
    name: str
    fp_class: Optional[FpClass]  # None for integer parameters
    value: float | int


@dataclass
class InputSample:
    values: list[InputValue]


def gen_input_sample(program: Program, rng: Random) -> InputSample:
    """One value per parameter: fp parameters get a uniformly chosen class,
    integer parameters draw uniformly from [1, array_size]."""
    values = []
    for decl in program.params:
        if decl.kind == "int-scalar":
            values.append(InputValue(decl.name, None,
                                     rng.randint(1, program.array_size)))
        else:
            cls = rng.choice(FP_CLASSES)
            values.append(InputValue(decl.name, cls,
                                     gen_value(cls, program.precision, rng)))
    return InputSample(values)


def serialize_input(sample: InputSample) -> list[str]:
    """One argv token per parameter; arrays pass their fill seed as a scalar."""
    tokens = []
    for iv in sample.values:
        if iv.fp_class is None:
            tokens.append(str(int(iv.value)))
        else:
            tokens.append(float(iv.value).hex())
    return tokens


def parse_fp_token(token: str) -> float:
    t = token.strip()
    if t.lower().lstrip("+-").startswith("0x"):
        return float.fromhex(t)
    return float(t)


def write_inputs_file(path, samples: list[InputSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(" ".join(serialize_input(s)) + "\n")


def read_inputs_file(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]
