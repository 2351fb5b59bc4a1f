"""Hazard-aware pipeline model (sections 2.2-2.3 dynamics).

The paper's headline cycle counts deliberately ignore pipelining (see
:mod:`repro.simulator.pipeline`), but its *architecture* discussion is
about hazards: a non-pipelined divider "throws a wrench" into the
pipeline with structural and data hazards, MEMO-TABLE hits cut the
latency dependent instructions wait on, and a table port can stand in
for a duplicated unit to raise the issue rate.

This model executes a dependency-annotated trace (the recorder attaches
``dst``/``srcs`` value ids) on an in-order machine with:

* configurable issue width (1 = scalar, 2+ = superscalar);
* RAW hazards: an instruction issues only when its source values are
  ready;
* structural hazards: iterative units (divide, sqrt, reciprocal,
  log/sin/cos) are busy until they complete; multipliers and adders are
  pipelined with single-cycle initiation;
* loads/stores through the two-level cache hierarchy;
* optionally, a MEMO-TABLE bank -- hits complete in one cycle and
  *release the iterative unit immediately* (the unit "is aborted and
  signals it is free", section 2.2).

Every trace runs as one pass over its
:class:`~repro.isa.columns.ColumnBatch` (a plain event iterable is
converted once): the bank probes every opcode partition at once through
the kernel (:func:`repro.core.backend.probe_outcomes` hands back each
event's hit, miss or bypass -- each unit sees its own subsequence in
trace order, so the outcomes are exact), the cache hierarchy is walked
once over the load/store column, numpy resolves each source operand to
the latest earlier event writing it, and one sequential loop over int
lists schedules issue.  The backend selection picks only who fills the
outcome column (the scalar probe loop under ``scalar``); the schedule
loop is the same.  The event-walking loop this pass replaced is the
tests' reference (``tests/hazard_reference.py``), and they require
equal reports and bank states from both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..arch.latency import ProcessorModel
from ..core import backend as execution
from ..core.bank import MemoTableBank
from ..core.operations import Operation
from ..isa.columns import _F_DST, ColumnBatch
from ..isa.opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode, operation_to_opcode
from ..isa.trace import TraceEvent
from .cache import MemoryHierarchy, default_hierarchy

__all__ = ["HazardReport", "HazardModel", "NON_PIPELINED"]

#: Operations whose units are iterative (not pipelined): a new operation
#: cannot start until the previous one leaves the unit.  Matches the
#: paper's Table 1 discussion ("none of these processors pipeline their
#: division units").
NON_PIPELINED = frozenset(
    {
        Operation.FP_DIV,
        Operation.INT_DIV,
        Operation.FP_SQRT,
        Operation.FP_RECIP,
        Operation.FP_LOG,
        Operation.FP_SIN,
        Operation.FP_COS,
    }
)


@dataclass
class HazardReport:
    """Timing outcome of one hazard-aware run."""

    machine: str = ""
    issue_width: int = 1
    instructions: int = 0
    total_cycles: int = 0
    raw_stall_cycles: int = 0
    structural_stall_cycles: int = 0
    issue_slots_used: int = 0
    hit_ratios: Dict[Operation, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle actually achieved."""
        if not self.total_cycles:
            return 0.0
        return self.instructions / self.total_cycles

    @property
    def stall_fraction(self) -> float:
        """Fraction of issue delay attributable to hazards."""
        if not self.total_cycles:
            return 0.0
        return (
            self.raw_stall_cycles + self.structural_stall_cycles
        ) / self.total_cycles


class HazardModel:
    """In-order, multi-issue, hazard-tracking trace executor.

    A ``bank``'s unit latencies must be the machine's (build it with
    ``latencies=machine.latencies()``): the model checks them and never
    rewrites the bank it is given.
    """

    def __init__(
        self,
        machine: ProcessorModel,
        bank: Optional[MemoTableBank] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        issue_width: int = 1,
        fp_add_latency: int = 3,
    ) -> None:
        if issue_width < 1:
            raise ValueError(f"issue width must be >= 1, got {issue_width}")
        self.machine = machine
        self.bank = bank
        self.hierarchy = hierarchy if hierarchy is not None else default_hierarchy()
        self.issue_width = issue_width
        self.fp_add_latency = fp_add_latency
        if bank is not None:
            for op, unit in bank.units.items():
                if unit.latency != machine.latency(op):
                    raise ValueError(
                        f"{op.name} unit has latency {unit.latency} but "
                        f"{machine.name} takes {machine.latency(op)}; build "
                        f"the bank with latencies=machine.latencies()"
                    )

    def run(self, events: Iterable[TraceEvent]) -> HazardReport:
        """Execute ``events`` (a Trace, a ColumnBatch or any event
        iterable, converted once) and report its timing."""
        return self._run_columns(execution.as_batch(events))

    def _latency_columns(self, batch: ColumnBatch) -> Tuple[list, list]:
        """Per event: its execution latency on the modelled machine, and the
        opcode index of the iterative unit it occupies (-1 for none).

        Memo units' events cost what ``unit.execute`` charges them: a
        hit ``hit_latency`` (and it leaves the unit free), an EXCLUDE
        trivial operation the early-out, anything else ``latency``.
        Loads and stores walk the hierarchy in trace order."""
        codes = batch.views().opcode
        latency_of = np.ones(len(OPCODE_LIST), dtype=np.int64)
        unit_of = np.full(len(OPCODE_LIST), -1, dtype=np.int64)
        present = np.flatnonzero(np.bincount(codes, minlength=len(OPCODE_LIST)))
        for code in present.tolist():
            opcode = OPCODE_LIST[code]
            operation = opcode.operation
            if operation is not None:
                latency_of[code] = self.machine.latency(operation)
                if operation in NON_PIPELINED:
                    unit_of[code] = code
            elif opcode is Opcode.FADD:
                latency_of[code] = self.fp_add_latency
        latency = latency_of[codes]
        unit = unit_of[codes]

        memory = np.flatnonzero(
            (codes == OPCODE_INDEX[Opcode.LOAD])
            | (codes == OPCODE_INDEX[Opcode.STORE])
        )
        if len(memory):
            access = self.hierarchy.access
            # An absent address is stored as 0, as ``event.address or 0``.
            latency[memory] = [
                access(address)
                for address in batch.views().address[memory].tolist()
            ]

        bank = self.bank
        if bank is not None:
            outcomes = execution.probe_outcomes(batch, bank.units)
            for operation, memo_unit in bank.units.items():
                rows = np.flatnonzero(
                    codes == OPCODE_INDEX[operation_to_opcode(operation)]
                )
                if not len(rows):
                    continue
                got = outcomes[rows]
                latency[rows] = np.where(
                    got == execution.OUTCOME_HIT,
                    memo_unit.hit_latency,
                    np.where(
                        got == execution.OUTCOME_BYPASS,
                        min(memo_unit.trivial_latency, memo_unit.latency),
                        memo_unit.latency,
                    ),
                )
            unit[outcomes == execution.OUTCOME_HIT] = -1
        return latency.tolist(), unit.tolist()

    def _run_columns(self, batch: ColumnBatch) -> HazardReport:
        """The columnar pass: the kernel's outcome column, one hierarchy
        walk, numpy producer resolution and one schedule loop."""
        n = len(batch)
        report = HazardReport(
            machine=self.machine.name,
            issue_width=self.issue_width,
            instructions=n,
            issue_slots_used=n,
        )
        latency, unit = self._latency_columns(batch)
        first_src, second_src, extra_srcs = _producers(batch)

        width = self.issue_width
        # completion[p] for producer p; index -1 (no producer) stays 0.
        completion = [0] * (n + 1)
        unit_free = [0] * len(OPCODE_LIST)
        cycle = 0            # cycle of the previous issue (in-order floor)
        slots_left = width
        last_completion = raw_total = structural_total = 0
        for i, lat, p, q, u in zip(
            range(n), latency, first_src, second_src, unit
        ):
            earliest = cycle if slots_left else cycle + 1
            if p < -1:
                ready = max(completion[r] for r in extra_srcs[-2 - p])
            else:
                ready = completion[p]
                other = completion[q]
                if other > ready:
                    ready = other
            if ready > earliest:
                raw_total += ready - earliest
                issue_at = ready
            else:
                issue_at = earliest
            if u >= 0:
                free_at = unit_free[u]
                if free_at > issue_at:
                    structural_total += free_at - issue_at
                    issue_at = free_at
                done = issue_at + lat
                unit_free[u] = done
            else:
                done = issue_at + lat
            if issue_at > cycle:
                slots_left = width
            slots_left -= 1
            cycle = issue_at
            completion[i] = done
            if done > last_completion:
                last_completion = done

        report.total_cycles = last_completion
        report.raw_stall_cycles = raw_total
        report.structural_stall_cycles = structural_total
        if self.bank is not None:
            report.hit_ratios = {
                op: memo_unit.hit_ratio
                for op, memo_unit in self.bank.units.items()
            }
        return report


def _producers(batch: ColumnBatch) -> Tuple[list, list, List[list]]:
    """Resolve every source operand to its producer: the latest earlier
    event whose ``dst`` is that value id (-1 if none, so the value is
    ready at cycle 0).  An event's own ``dst`` never feeds its sources.

    Returns per-event first and second producer columns.  An event with
    more than two sources has first producer ``-2 - k`` instead, where
    ``extra[k]`` lists all of its producers."""
    n = len(batch)
    views = batch.views()
    offsets = np.frombuffer(batch.src_offsets, dtype=np.uint64).astype(np.int64)
    srcs = np.frombuffer(batch.srcs_col, dtype=np.int64)
    first = np.full(n, -1, dtype=np.int64)
    second = np.full(n, -1, dtype=np.int64)
    extra: List[list] = []
    writers = np.flatnonzero(views.flags & _F_DST)
    if not len(srcs) or not len(writers):
        return first.tolist(), second.tolist(), extra
    counts = np.diff(offsets)
    readers = np.repeat(np.arange(n, dtype=np.int64), counts)
    # Dense ids over every value id, then one sorted key per write:
    # (value id, position).  A source's producer is the greatest key
    # below (its value id, its own position).
    _, dense = np.unique(
        np.concatenate((views.dst[writers], srcs)), return_inverse=True
    )
    dense = dense.ravel().astype(np.int64, copy=False)
    stride = n + 1
    written = dense[: len(writers)] * stride + writers
    written.sort()
    wanted = dense[len(writers):]
    below = np.searchsorted(written, wanted * stride + readers) - 1
    key = written[np.maximum(below, 0)]
    producer = np.where(
        (below >= 0) & (key // stride == wanted), key % stride, -1
    )
    starts = offsets[:-1]
    some = counts >= 1
    first[some] = producer[starts[some]]
    pair = counts >= 2
    second[pair] = producer[starts[pair] + 1]
    for i in np.flatnonzero(counts > 2).tolist():
        first[i] = -2 - len(extra)
        extra.append(producer[offsets[i]:offsets[i + 1]].tolist())
    return first.tolist(), second.tolist(), extra


def hazard_speedup(
    machine: ProcessorModel,
    events,
    memoized=(Operation.FP_MUL, Operation.FP_DIV),
    issue_width: int = 1,
) -> Dict[str, float]:
    """Convenience: run a trace with and without MEMO-TABLES.

    Returns baseline/memoized cycle counts and their ratio under the
    hazard-aware model.  ``events`` is converted once, so a one-shot
    iterable serves both runs.
    """
    events = execution.as_batch(events)
    baseline = HazardModel(machine, issue_width=issue_width).run(events)
    bank = MemoTableBank.paper_baseline(
        operations=memoized, latencies=machine.latencies()
    )
    memo = HazardModel(machine, bank=bank, issue_width=issue_width).run(events)
    return {
        "baseline_cycles": baseline.total_cycles,
        "memo_cycles": memo.total_cycles,
        "speedup": (
            baseline.total_cycles / memo.total_cycles
            if memo.total_cycles
            else 1.0
        ),
        "baseline_ipc": baseline.ipc,
        "memo_ipc": memo.ipc,
    }
