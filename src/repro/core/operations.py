"""Operation semantics for memoized computation units.

Defines the operation classes the paper memoizes (integer multiply,
floating point multiply and divide) plus the long-latency functions its
future-work section targets (sqrt, reciprocal), with IEEE-754-faithful
software semantics so the simulated units never diverge from what the
hardware unit would produce.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

from .config import OperandKind

__all__ = ["Operation", "compute", "ieee_div", "ieee_sqrt"]


class Operation(enum.Enum):
    """A memoizable operation class.

    Each member carries its mnemonic, operand kind (which selects the
    index hash), commutativity (which enables the double-order compare of
    section 2.2) and arity (sqrt and reciprocal are unary; the table tags
    them as ``(a, 0.0)`` pairs).
    """

    INT_MUL = ("imul", OperandKind.INT, True, 2)
    INT_DIV = ("idiv", OperandKind.INT, False, 2)
    FP_MUL = ("fmul", OperandKind.FLOAT, True, 2)
    FP_DIV = ("fdiv", OperandKind.FLOAT, False, 2)
    FP_SQRT = ("fsqrt", OperandKind.FLOAT, False, 1)
    FP_RECIP = ("frecip", OperandKind.FLOAT, False, 1)
    # The paper's future-work targets (section 4): "extend the
    # MEMO-TABLE technique to sqrt, log, trigonometric and other
    # mathematical functions".
    FP_LOG = ("flog", OperandKind.FLOAT, False, 1)
    FP_SIN = ("fsin", OperandKind.FLOAT, False, 1)
    FP_COS = ("fcos", OperandKind.FLOAT, False, 1)

    def __init__(
        self, mnemonic: str, kind: OperandKind, commutative: bool, arity: int
    ) -> None:
        self.mnemonic = mnemonic
        self.operand_kind = kind
        self.commutative = commutative
        self.arity = arity

    @property
    def is_unary(self) -> bool:
        return self.arity == 1

    @classmethod
    def from_mnemonic(cls, mnemonic: str) -> "Operation":
        for member in cls:
            if member.mnemonic == mnemonic:
                return member
        raise ValueError(f"unknown operation mnemonic: {mnemonic!r}")


def ieee_div(a: float, b: float) -> float:
    """IEEE-754 division: produces inf/NaN instead of raising.

    Python's ``/`` raises :class:`ZeroDivisionError` on a zero divisor;
    a hardware FP divider signals the exception but still delivers the
    IEEE default result, which is what traces contain.
    """
    if b != 0:
        return a / b
    if a == 0 or math.isnan(a) or math.isnan(b):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def ieee_sqrt(a: float) -> float:
    """IEEE-754 square root: NaN for negative inputs instead of raising."""
    if a < 0:
        return math.nan
    return math.sqrt(a)


def ieee_recip(a: float) -> float:
    """IEEE-754 reciprocal (the paper cites reciprocal caches [15])."""
    return ieee_div(1.0, a)


def ieee_log(a: float) -> float:
    """Natural log with IEEE default results (-inf at 0, NaN below)."""
    if a > 0:
        return math.log(a)
    if a == 0:
        return -math.inf
    return math.nan


def ieee_sin(a: float) -> float:
    """sin with IEEE default results: NaN for infinite and NaN inputs."""
    return math.sin(a) if math.isfinite(a) else math.nan


def ieee_cos(a: float) -> float:
    """cos with IEEE default results: NaN for infinite and NaN inputs."""
    return math.cos(a) if math.isfinite(a) else math.nan


def int_div(a: int, b: int) -> int:
    """SPARC-style signed integer division (truncating toward zero).

    Division by zero returns 0 here (the real instruction traps; traces
    never contain the trapping case because the producing program would
    have died).
    """
    if b == 0:
        return 0
    quotient = abs(int(a)) // abs(int(b))
    return -quotient if (a < 0) != (b < 0) else quotient


_COMPUTE: dict = {
    Operation.INT_MUL: lambda a, b: int(a) * int(b),
    Operation.INT_DIV: lambda a, b: int_div(a, b),
    Operation.FP_MUL: lambda a, b: float(a) * float(b),
    Operation.FP_DIV: lambda a, b: ieee_div(float(a), float(b)),
    Operation.FP_SQRT: lambda a, b: ieee_sqrt(float(a)),
    Operation.FP_RECIP: lambda a, b: ieee_recip(float(a)),
    Operation.FP_LOG: lambda a, b: ieee_log(float(a)),
    Operation.FP_SIN: lambda a, b: ieee_sin(float(a)),
    Operation.FP_COS: lambda a, b: ieee_cos(float(a)),
}


def compute(op: Operation, a: float, b: float = 0.0) -> float:
    """Execute ``op`` on the operands with hardware-faithful semantics."""
    return _COMPUTE[op](a, b)


def compute_function(op: Operation) -> Callable[[float, float], float]:
    """Return the binary compute callable for ``op``."""
    return _COMPUTE[op]
