"""The reference hazard model for :mod:`repro.simulator.hazard`.

:class:`ReferenceHazardModel` executes a trace the direct way: one
event at a time, each memoized operation probed alone through
``execution.probe_one`` (``unit.execute``), each load or store walking
the hierarchy as it issues, ready times kept in a dict keyed by value
id.  The production :class:`~repro.simulator.hazard.HazardModel` runs
one columnar pass (the kernel's outcome column, one hierarchy walk,
numpy producer resolution and one schedule loop); the tests require
both to return equal reports and leave equal bank states for the same
trace.  Written for obviousness, not speed: it shares the constructor,
the report type and ``NON_PIPELINED`` with production, and no pass.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core import backend as execution
from repro.core.operations import Operation
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.simulator.hazard import NON_PIPELINED, HazardModel, HazardReport

__all__ = ["ReferenceHazardModel"]


class ReferenceHazardModel(HazardModel):
    """The event-walking reference: same constructor, same report."""

    def run(self, events: Iterable[TraceEvent]) -> HazardReport:
        return self._run_events(events)

    def _latency(self, event: TraceEvent) -> int:
        """Latency of one event on this machine (no memoization)."""
        opcode = event.opcode
        operation = opcode.operation
        if operation is not None:
            return self.machine.latency(operation)
        if opcode.is_memory:
            return self.hierarchy.access(event.address or 0)
        if opcode is Opcode.FADD:
            return self.fp_add_latency
        return 1

    def _run_events(self, events: Iterable[TraceEvent]) -> HazardReport:
        """The event-walking reference: one event, one probe at a time."""
        report = HazardReport(
            machine=self.machine.name, issue_width=self.issue_width
        )
        ready: Dict[int, int] = {}          # value id -> cycle available
        unit_free: Dict[Operation, int] = {}  # iterative unit -> free cycle
        bank = self.bank
        cycle = 0            # cycle of the previous issue (in-order floor)
        slots_left = self.issue_width
        last_completion = 0

        for event in events:
            report.instructions += 1
            operation = event.opcode.operation

            # Resolve the execution latency (memoized or not) first; the
            # lookup happens in parallel with issue, so a hit is known
            # when the operation would enter the unit.  This reference
            # probes one event at a time (execution.probe_one); the
            # columnar pass gets the same outcomes in opcode batches.
            hit = False
            if operation is not None and bank is not None and bank.supports(
                operation
            ):
                outcome = execution.probe_one(
                    bank.units[operation], event.a, event.b
                )
                latency = outcome.cycles
                hit = outcome.hit
            else:
                latency = self._latency(event)

            # In-order issue: no earlier than the previous instruction.
            earliest = cycle
            if slots_left == 0:
                earliest = cycle + 1

            # RAW hazard: wait for source values.
            operand_ready = 0
            for src in event.srcs:
                when = ready.get(src, 0)
                if when > operand_ready:
                    operand_ready = when
            raw_wait = max(0, operand_ready - earliest)

            # Structural hazard: iterative unit still busy.  A memo hit
            # bypasses the unit entirely (the unit is aborted/free).
            structural_wait = 0
            uses_iterative = (
                operation in NON_PIPELINED and not hit
            )
            if uses_iterative:
                free_at = unit_free.get(operation, 0)
                structural_wait = max(0, free_at - (earliest + raw_wait))

            issue_at = earliest + raw_wait + structural_wait
            if issue_at > cycle:
                slots_left = self.issue_width
            slots_left -= 1
            cycle = issue_at

            completion = issue_at + latency
            if event.dst is not None:
                ready[event.dst] = completion
            if uses_iterative:
                unit_free[operation] = completion
            if completion > last_completion:
                last_completion = completion

            report.raw_stall_cycles += raw_wait
            report.structural_stall_cycles += structural_wait
            report.issue_slots_used += 1

        report.total_cycles = last_completion
        if bank is not None:
            report.hit_ratios = {
                op: unit.hit_ratio for op, unit in bank.units.items()
            }
        return report
