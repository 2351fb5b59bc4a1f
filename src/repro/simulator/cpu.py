"""Whole-machine facade: trace in, hit ratios + Amdahl numbers out.

This is the highest-level simulation entry point: given a trace and a
machine model it produces everything a speedup table row needs (hit
ratio, Fraction Enhanced, Speedup Enhanced, overall speedup), using the
same per-instruction cycle accounting as the paper (section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ..analysis.amdahl import amdahl_speedup, speedup_enhanced
from ..arch.latency import ProcessorModel
from ..core.bank import MemoTableBank
from ..core.config import MemoTableConfig
from ..core.operations import Operation
from ..isa.opcodes import operation_to_opcode
from ..isa.trace import TraceEvent
from .cache import MemoryHierarchy
from .pipeline import CycleModel, CycleReport

__all__ = ["SpeedupRow", "MemoizedCPU"]


@dataclass(frozen=True)
class SpeedupRow:
    """One row of a speedup table (Tables 11-13)."""

    app: str
    machine: str
    hit_ratio: float
    fraction_enhanced: float
    speedup_enhanced: float
    speedup: float
    measured_speedup: float  # direct base/memo cycle ratio, for cross-check


class MemoizedCPU:
    """A machine model with MEMO-TABLES on chosen operation classes."""

    def __init__(
        self,
        machine: ProcessorModel,
        memoized: Sequence[Operation] = (Operation.FP_MUL, Operation.FP_DIV),
        config: Optional[MemoTableConfig] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> None:
        self.machine = machine
        self.memoized = tuple(memoized)
        self.bank = MemoTableBank.paper_baseline(
            config=config,
            operations=self.memoized,
            latencies=machine.latencies(),
        )
        self.model = CycleModel(machine, bank=self.bank, hierarchy=hierarchy)

    def run(self, events: Iterable[TraceEvent]) -> CycleReport:
        """Run one application trace through the cycle model."""
        return self.model.run(events)

    def speedup_row(
        self,
        app: str,
        events: Iterable[TraceEvent],
        overhead_factor: float = 0.0,
    ) -> Tuple[SpeedupRow, CycleReport]:
        """Produce one Amdahl table row for ``app``.

        FE is the fraction of baseline cycles spent in the memoized
        operation classes; SE is derived from the blended hit ratio and
        latency over those classes; the reported speedup is Amdahl's
        combination, with the directly measured cycle ratio alongside.

        ``overhead_factor`` models the program around the traced kernel
        (startup, argument parsing, image file I/O -- the paper traces
        whole Khoros binaries, not inner loops) as that multiple of the
        kernel's baseline cycles, identical on both machines.  It
        dilutes FE without touching hit ratios or SE.
        """
        report = self.run(events)
        overhead = int(report.base_cycles * overhead_factor)
        opcodes = tuple(operation_to_opcode(op) for op in self.memoized)
        if report.base_cycles + overhead:
            fe = sum(
                report.cycles_by_opcode.get(op, 0) for op in opcodes
            ) / (report.base_cycles + overhead)
        else:
            fe = 0.0

        # Blend the per-class hit ratios and latencies into one SE by
        # weighting with each class's baseline cycles (exactly what the
        # combined Table 13 does implicitly).
        class_cycles = {
            op: report.cycles_by_opcode.get(operation_to_opcode(op), 0)
            for op in self.memoized
        }
        total_class = sum(class_cycles.values())
        if total_class:
            enhanced_cycles = 0.0
            for op in self.memoized:
                hr = report.hit_ratios.get(op, 0.0)
                latency = self.machine.latency(op)
                count = class_cycles[op] / latency if latency else 0.0
                enhanced_cycles += count * ((1 - hr) * latency + hr)
            se = total_class / enhanced_cycles if enhanced_cycles else 1.0
        else:
            se = 1.0

        hit = _blended_hit_ratio(report, self.memoized)
        measured = (report.base_cycles + overhead) / max(
            report.memo_cycles + overhead, 1
        )
        row = SpeedupRow(
            app=app,
            machine=self.machine.name,
            hit_ratio=hit,
            fraction_enhanced=fe,
            speedup_enhanced=se,
            speedup=amdahl_speedup(fe, se),
            measured_speedup=measured,
        )
        return row, report


def _blended_hit_ratio(report: CycleReport, memoized: Sequence[Operation]) -> float:
    """Operation-count-weighted hit ratio over the memoized classes."""
    total = 0
    hits = 0.0
    for op in memoized:
        count = report.counts_by_opcode.get(operation_to_opcode(op), 0)
        total += count
        hits += count * report.hit_ratios.get(op, 0.0)
    return hits / total if total else 0.0
