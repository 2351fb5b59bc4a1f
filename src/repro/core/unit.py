"""Memoized computation units (section 2.2).

A :class:`MemoizedUnit` models one execution-stage unit (an FP divider,
say) with a MEMO-TABLE at its side.  Operands arrive at both
simultaneously:

* table **hit** -- the stored result is forwarded to write-back after
  ``hit_latency`` (one) cycle and the unit is aborted;
* table **miss** -- the unit runs to completion (``latency`` cycles) and
  the result is written into the table in parallel with write-back, so a
  miss costs nothing beyond the conventional computation.

The unit also hosts the trivial-operation detector of Table 9 and, for
mantissa-only tables, the exponent/normalization fix-up logic the paper
says such a table must incorporate.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import NamedTuple, Optional, Tuple

from ..errors import ConfigurationError
from .config import MemoTableConfig, TagMode, TrivialPolicy
from .memo_table import BaseMemoTable, MemoTable
from .operations import Operation, compute
from .stats import UnitStats
from .trivial import (
    is_trivial_div,
    is_trivial_mul,
    is_trivial_sqrt,
    trivial_div_result,
    trivial_mul_result,
)

__all__ = ["Execution", "MemoizedUnit", "PlainUnit", "DEFAULT_LATENCIES"]

#: Representative latencies (cycles) used throughout the paper's
#: speedup analysis: 3-cycle multiplier / 13-cycle divider for the fast
#: design point, 5 / 39 for the slow one (Tables 11-13); integer multiply
#: and sqrt latencies follow the same era of processors (Table 1).
DEFAULT_LATENCIES = {
    Operation.INT_MUL: 5,
    Operation.INT_DIV: 20,
    Operation.FP_MUL: 3,
    Operation.FP_DIV: 13,
    Operation.FP_SQRT: 20,
    Operation.FP_RECIP: 13,
    # Future-work functions (section 4): software/CORDIC-era latencies.
    Operation.FP_LOG: 35,
    Operation.FP_SIN: 40,
    Operation.FP_COS: 40,
}


class Execution(NamedTuple):
    """Result of presenting one operation to a unit.

    ``cycles`` is what the memoized machine spends; ``base_cycles`` what
    the unmodified machine would have spent on the same operation.
    """

    value: float
    cycles: int
    base_cycles: int
    hit: bool = False
    trivial: bool = False

    @property
    def saved(self) -> int:
        return self.base_cycles - self.cycles


def _is_trivial(op: Operation, a: float, b: float) -> bool:
    if op is Operation.FP_MUL or op is Operation.INT_MUL:
        return is_trivial_mul(a, b)
    if op is Operation.FP_DIV or op is Operation.INT_DIV:
        return is_trivial_div(a, b)
    if op is Operation.FP_SQRT:
        return is_trivial_sqrt(a)
    if op is Operation.FP_RECIP:
        return a == 1 or a == -1
    if op is Operation.FP_LOG:
        return a == 1  # log(1) == 0
    if op is Operation.FP_SIN or op is Operation.FP_COS:
        return a == 0  # sin(0) == 0, cos(0) == 1
    return False


def _trivial_value(op: Operation, a: float, b: float) -> float:
    if op is Operation.FP_MUL or op is Operation.INT_MUL:
        result = trivial_mul_result(a, b)
    elif op is Operation.FP_DIV or op is Operation.INT_DIV:
        result = trivial_div_result(a, b)
    elif op is Operation.FP_SQRT:
        result = a  # sqrt(0) == 0, sqrt(1) == 1
    elif op is Operation.FP_RECIP:
        result = a  # 1/1 == 1, 1/-1 == -1
    elif op is Operation.FP_LOG:
        result = 0.0  # log(1)
    elif op is Operation.FP_SIN:
        result = a  # sin(0) == 0 (signed zero preserved)
    elif op is Operation.FP_COS:
        result = 1.0  # cos(0)
    else:  # pragma: no cover - guarded by _is_trivial
        result = None
    assert result is not None
    return result


class MemoizedUnit:
    """A multi-cycle computation unit paired with a MEMO-TABLE."""

    def __init__(
        self,
        operation: Operation,
        table: Optional[BaseMemoTable] = None,
        config: Optional[MemoTableConfig] = None,
        latency: Optional[int] = None,
        hit_latency: int = 1,
        trivial_latency: int = 2,
        trivial_policy: TrivialPolicy = TrivialPolicy.EXCLUDE,
    ) -> None:
        """Create a unit.

        Either an explicit ``table`` or a ``config`` (from which a
        :class:`MemoTable` is built) may be given; with neither, the
        paper's 32-entry 4-way baseline is used, with commutativity and
        operand kind taken from the operation.
        """
        if table is not None and config is not None:
            raise ConfigurationError("pass either a table or a config, not both")
        self.operation = operation
        if table is None:
            from .config import OperandKind  # local import avoids cycle noise

            base = config if config is not None else MemoTableConfig()
            tag_mode = base.tag_mode
            if operation.operand_kind is OperandKind.INT:
                # Mantissa-only tags are a float concept; integer units
                # always tag full operand values.
                tag_mode = TagMode.FULL
            base = dc_replace(
                base,
                operand_kind=operation.operand_kind,
                commutative=operation.commutative,
                tag_mode=tag_mode,
            )
            table = MemoTable(base)
        self.table = table
        self.latency = (
            latency if latency is not None else DEFAULT_LATENCIES[operation]
        )
        if self.latency < 1:
            raise ConfigurationError(f"latency must be >= 1, got {self.latency}")
        self.hit_latency = hit_latency
        self.trivial_latency = trivial_latency
        self.trivial_policy = trivial_policy
        self.stats = UnitStats()
        # The unit's view of table counters IS the table's stats object.
        self.stats.table = self.table.stats

    # -- mantissa-mode exponent fix-up ------------------------------------

    def _adjust_mantissa_hit(
        self,
        stored: Tuple[float, float],
        stored_value: float,
        a: float,
        b: float,
    ) -> float:
        """Rebuild the result for a mantissa-only hit (Table 10 variant).

        The table matched on mantissas alone, so signs and exponents of
        the current operands may differ from the stored pair; the
        "exponent adder + normalizer" the paper requires of such a table
        is modelled by recomputing sign and exponent exactly.
        """
        sa, sb = stored
        if (sa, sb) == (a, b):
            return stored_value
        finite = all(math.isfinite(x) and x != 0 for x in (sa, sb, a, b))
        if not finite or not math.isfinite(stored_value) or stored_value == 0:
            # Specials route through the full exponent/normalize path,
            # which is exact computation.
            return compute(self.operation, a, b)
        ra, rb = a / sa, b / sb
        if self.operation is Operation.FP_MUL:
            scale = ra * rb
        elif self.operation is Operation.FP_DIV:
            scale = ra / rb if rb else math.inf
        else:
            return compute(self.operation, a, b)
        if not math.isfinite(scale) or scale == 0:
            # The exponent adder over/underflowed (operand ratios can
            # span ~2^4000); such hits route through the full path.
            return compute(self.operation, a, b)
        # For normal operands, same mantissas means |a/sa| and |b/sb|
        # are exact powers of two, so this scaling is exact.
        return stored_value * scale

    # -- execution ---------------------------------------------------------

    def execute(self, a: float, b: float = 0.0) -> Execution:
        """Present one operation to the unit and its table."""
        self.stats.operations += 1
        base_cycles = self.latency

        if _is_trivial(self.operation, a, b):
            self.stats.trivial += 1
            policy = self.trivial_policy
            if policy is TrivialPolicy.EXCLUDE:
                # Bypasses the table entirely; executes in the unit's
                # (short) early-out path on both machines.
                value = _trivial_value(self.operation, a, b)
                cycles = min(self.trivial_latency, self.latency)
                outcome = Execution(
                    value, cycles, base_cycles=cycles, trivial=True
                )
                self.stats.cycles_base += outcome.base_cycles
                self.stats.cycles_memo += outcome.cycles
                return outcome
            if policy is TrivialPolicy.INTEGRATED:
                # Detector in front of the table: a single-cycle "hit".
                self.stats.trivial_hits += 1
                value = _trivial_value(self.operation, a, b)
                outcome = Execution(
                    value,
                    self.hit_latency,
                    base_cycles=min(self.trivial_latency, self.latency),
                    hit=True,
                    trivial=True,
                )
                self.stats.cycles_base += outcome.base_cycles
                self.stats.cycles_memo += outcome.cycles
                return outcome
            # CACHE_ALL: fall through to the table like any operation.

        found = self.table.lookup(a, b)
        if found.hit:
            value = found.value
            if (
                self.table.config.tag_mode is TagMode.MANTISSA
                and found.operands is not None
            ):
                value = self._adjust_mantissa_hit(found.operands, value, a, b)
            outcome = Execution(value, self.hit_latency, base_cycles, hit=True)
        else:
            value = compute(self.operation, a, b)
            self.table.insert(a, b, value)
            outcome = Execution(value, base_cycles, base_cycles)
        self.stats.cycles_base += outcome.base_cycles
        self.stats.cycles_memo += outcome.cycles
        return outcome

    @property
    def hit_ratio(self) -> float:
        """Hit ratio per the active trivial policy (see UnitStats)."""
        return self.stats.hit_ratio

    def reset_stats(self) -> None:
        self.stats.reset()
        self.table.stats.reset()


class PlainUnit:
    """A computation unit with no MEMO-TABLE (the baseline machine)."""

    def __init__(self, operation: Operation, latency: Optional[int] = None) -> None:
        self.operation = operation
        self.latency = (
            latency if latency is not None else DEFAULT_LATENCIES[operation]
        )
        self.stats = UnitStats()

    def execute(self, a: float, b: float = 0.0) -> Execution:
        self.stats.operations += 1
        value = compute(self.operation, a, b)
        self.stats.cycles_base += self.latency
        self.stats.cycles_memo += self.latency
        return Execution(value, self.latency, self.latency)
