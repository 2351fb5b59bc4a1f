"""Trace-driven memo-table statistics collection (the Shade substitute).

The paper used Shade to break on multiply/divide instructions, capture
register operands, and feed software MEMO-TABLES.  Here the equivalent
pass consumes :class:`~repro.isa.trace.TraceEvent` streams: memoizable
events are dispatched to a :class:`~repro.core.bank.MemoTableBank`, and
every event contributes to the instruction frequency breakdown.

Every run is one :func:`repro.core.backend.dispatch`, so the
process-wide backend selection applies (``repro --backend scalar``,
``use_backend``, ``REPRO_BACKEND``); both backends produce
bit-identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from .. import obs
from ..core import backend as execution
from ..core.bank import MemoTableBank
from ..core.operations import Operation
from ..core.stats import UnitStats
from ..isa.opcodes import Opcode
from ..isa.trace import TraceEvent

__all__ = ["SimulationReport", "ShadeSimulator"]


@dataclass
class SimulationReport:
    """What one simulated run produced."""

    instructions: int = 0
    breakdown: Dict[Opcode, int] = field(default_factory=dict)
    unit_stats: Dict[Operation, UnitStats] = field(default_factory=dict)
    mismatches: int = 0  # memo result differed from traced result (validation)

    def hit_ratio(self, op: Operation) -> float:
        """MEMO-TABLE hit ratio for one operation class."""
        stats = self.unit_stats.get(op)
        return stats.hit_ratio if stats is not None else 0.0

    def operation_count(self, op: Operation) -> int:
        stats = self.unit_stats.get(op)
        return stats.operations if stats is not None else 0

    def frequency(self, opcode: Opcode) -> float:
        """Dynamic frequency of one opcode class."""
        if not self.instructions:
            return 0.0
        return self.breakdown.get(opcode, 0) / self.instructions


class ShadeSimulator:
    """Instruction-level trace processor feeding MEMO-TABLES."""

    def __init__(
        self,
        bank: Optional[MemoTableBank] = None,
        validate: bool = False,
    ) -> None:
        """``validate`` cross-checks memoized results against the traced
        results (exact for full-value tags; mantissa-mode hits may differ
        by rounding of the exponent fix-up and are checked loosely)."""
        self.bank = bank if bank is not None else MemoTableBank.paper_baseline()
        self.validate = validate

    def run(self, events: Iterable[TraceEvent]) -> SimulationReport:
        """Consume a trace; returns statistics.  Tables persist across runs."""
        instrumented = obs.enabled()
        if instrumented:
            before = obs.unit_counter_snapshot(self.bank.units)
        with obs.span("shade.run"):
            report = execution.dispatch(
                events, self.bank.units, validate=self.validate
            )
        if instrumented:
            obs.emit_unit_counters("sim", self.bank.units, before)
        return SimulationReport(
            instructions=report.instructions,
            breakdown=report.counts,
            unit_stats={op: unit.stats for op, unit in self.bank.units.items()},
            mismatches=report.mismatches,
        )
