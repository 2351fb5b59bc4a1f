"""Cycle accounting for whole applications (section 3.3).

The paper's speedup indicator is "total cycle count executed by all
instructions", deliberately ignoring multiple issue and pipelining so
the measurement isolates the superfluous cycles the MEMO-TABLE removes.
This model therefore charges each dynamic instruction its latency:

* plain integer/branch/nop instructions: 1 cycle;
* FP add-class instructions: the machine's ``fp_add`` latency;
* loads/stores: the two-level cache hierarchy's access latency;
* memoizable operations: the full unit latency on the baseline machine,
  and the memoized unit's actual cycles (1 on a hit) on the enhanced
  machine -- both accumulated in a single pass, since a miss costs the
  enhanced machine exactly the baseline latency.

The accounting itself is performed by whichever execution backend the
registry (:mod:`repro.core.backend`) selects; this module keeps the
machine-model wiring and the report shape.  ``backend=`` pins a
backend by name -- all backends produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from .. import obs
from ..arch.latency import ProcessorModel
from ..core import backend as execution
from ..core.bank import MemoTableBank
from ..core.operations import Operation
from ..isa.opcodes import Opcode
from ..isa.trace import TraceEvent
from .cache import MemoryHierarchy, default_hierarchy

__all__ = ["CycleReport", "CycleModel"]


@dataclass
class CycleReport:
    """Cycle totals for one application run on one machine model."""

    machine: str = ""
    instructions: int = 0
    base_cycles: int = 0
    memo_cycles: int = 0
    cycles_by_opcode: Dict[Opcode, int] = field(default_factory=dict)
    counts_by_opcode: Dict[Opcode, int] = field(default_factory=dict)
    hit_ratios: Dict[Operation, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Directly measured speedup: baseline cycles / memoized cycles."""
        if not self.memo_cycles:
            return 1.0
        return self.base_cycles / self.memo_cycles

    def fraction_enhanced(self, *opcodes: Opcode) -> float:
        """FE of Amdahl's law: cycles of the given classes / total cycles."""
        if not self.base_cycles:
            return 0.0
        return sum(self.cycles_by_opcode.get(op, 0) for op in opcodes) / (
            self.base_cycles
        )

    @property
    def cpi_base(self) -> float:
        return self.base_cycles / self.instructions if self.instructions else 0.0

    @property
    def cpi_memo(self) -> float:
        return self.memo_cycles / self.instructions if self.instructions else 0.0


class CycleModel:
    """Single-issue in-order cycle accounting over a trace."""

    def __init__(
        self,
        machine: ProcessorModel,
        bank: Optional[MemoTableBank] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        fp_add_latency: int = 3,
        backend: Optional[str] = None,
    ) -> None:
        """``bank`` of None means the baseline machine (no MEMO-TABLES);
        cycle totals are then identical for base and memo columns.
        ``backend`` pins a registered execution backend by name."""
        self.machine = machine
        self.bank = bank
        self.hierarchy = hierarchy if hierarchy is not None else default_hierarchy()
        self.fp_add_latency = fp_add_latency
        self.backend = backend
        if bank is not None:
            # The machine model owns the latencies; retune the bank's units.
            for op, unit in bank.units.items():
                unit.latency = machine.latency(op)

    def run(self, events: Iterable[TraceEvent]) -> CycleReport:
        """Charge every event; returns totals for base and memoized machines."""
        bank = self.bank
        instrumented = obs.enabled()
        if instrumented:
            before = (
                obs.unit_counter_snapshot(bank.units)
                if bank is not None
                else {}
            )
            with obs.span("cycle.run"):
                result = execution.dispatch(
                    events,
                    bank.units if bank is not None else None,
                    machine=self.machine,
                    hierarchy=self.hierarchy,
                    fp_add_latency=self.fp_add_latency,
                    backend=self.backend,
                )
            if bank is not None:
                obs.emit_unit_counters("cycle", bank.units, before)
            reg = obs.registry()
            reg.add_counters(
                "cycle",
                {
                    "instructions": result.instructions,
                    "base_cycles": result.base_cycles,
                    "memo_cycles": result.memo_cycles,
                },
            )
        else:
            result = execution.dispatch(
                events,
                bank.units if bank is not None else None,
                machine=self.machine,
                hierarchy=self.hierarchy,
                fp_add_latency=self.fp_add_latency,
                backend=self.backend,
            )
        report = CycleReport(
            machine=self.machine.name,
            instructions=result.instructions,
            base_cycles=result.base_cycles,
            memo_cycles=result.memo_cycles,
            cycles_by_opcode=result.cycles_by_opcode,
            counts_by_opcode=result.counts,
        )
        if bank is not None:
            report.hit_ratios = {
                op: unit.hit_ratio for op, unit in bank.units.items()
            }
        return report
