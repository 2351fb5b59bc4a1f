"""Tag construction for MEMO-TABLE entries.

A MEMO-TABLE tag is the (possibly reduced) bit pattern of the *pair* of
operands; the stored value is the unary result.  Unlike a conventional
cache the tag is wider than the data (section 2.1): two double precision
operands make a 128-bit tag guarding a 64-bit result.

Two float tag modes exist (Table 10):

* ``FULL`` -- the complete 64-bit patterns of both operands;
* ``MANTISSA`` -- only the 52-bit mantissa fields.  Operands whose
  mantissas match but whose exponents differ then *hit*; the hardware
  would recompute the result exponent with a small adder
  (:class:`~repro.core.unit.MemoizedUnit` models that fix-up, so
  mantissa-mode tables still return numerically correct results in
  simulation).
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..arch.ieee754 import decompose64, float64_to_bits
from .config import MemoTableConfig, OperandKind, TagMode

__all__ = [
    "int_tag",
    "float_full_tag",
    "float_mantissa_tag",
    "tag_function",
]

Tag = Tuple[int, int]


def int_tag(a: int, b: int) -> Tag:
    """Tag for an integer operand pair: the full operand values."""
    return (int(a), int(b))


def float_full_tag(a: float, b: float) -> Tag:
    """Tag for a float pair in FULL mode: both 64-bit patterns.

    Using bit patterns (not float equality) means ``-0.0`` and ``0.0``
    are distinct tags and NaN payloads compare consistently, exactly as a
    hardware comparator over register bits would behave.
    """
    return (float64_to_bits(a), float64_to_bits(b))


def float_mantissa_tag(a: float, b: float) -> Tag:
    """Tag for a float pair in MANTISSA mode: 52-bit mantissa fields only."""
    pa = decompose64(a)
    pb = decompose64(b)
    return (pa.mantissa, pb.mantissa)


def tag_function(config: MemoTableConfig) -> Callable[[object, object], Tag]:
    """Return the tag constructor matching ``config``."""
    if config.operand_kind is OperandKind.INT:
        return lambda a, b: int_tag(int(a), int(b))
    if config.tag_mode is TagMode.FULL:
        return lambda a, b: float_full_tag(float(a), float(b))
    return lambda a, b: float_mantissa_tag(float(a), float(b))
