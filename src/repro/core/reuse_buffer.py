"""A Sodani & Sohi Reuse Buffer, for comparison (section 1.1).

Dynamic Instruction Reuse [18] keys its table by the *instruction
address*: a fetched instruction hits when its PC matches an entry and
the stored operands match the current operands.  The paper contrasts
its MEMO-TABLE against this on two points:

1. the RB holds every instruction class, so cheap single-cycle
   instructions can bump multi-cycle ones out;
2. PC-keying makes unrolled copies of the same computation distinct --
   the value-keyed MEMO-TABLE hits across them.

This model implements the RB faithfully enough to demonstrate both
effects on recorded traces (which carry synthetic PCs when the recorder
is built with ``record_sites=True``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..isa.columns import ColumnBatch
from ..isa.opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from ..isa.trace import TraceEvent
from .kernel import _F_PC, _decode_partition, as_batch
from .stats import MemoStats

__all__ = ["ReuseBuffer", "ReuseBufferReport", "run_reuse_buffer"]

#: Instruction classes inserted into the RB.  Sodani & Sohi insert all
#: executed instructions (except stores); loads/branches are modelled as
#: occupying entries without being reuse candidates here.
_RB_CLASSES = frozenset(
    {
        Opcode.IMUL,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FSQRT,
        Opcode.FRECIP,
        Opcode.FLOG,
        Opcode.FSIN,
        Opcode.FCOS,
        Opcode.FADD,
        Opcode.IALU,
        Opcode.LOAD,
    }
)


class _RBEntry:
    __slots__ = ("pc", "a", "b", "result", "last_used")

    def __init__(self, pc, a, b, result, now):
        self.pc = pc
        self.a = a
        self.b = b
        self.result = result
        self.last_used = now


class ReuseBuffer:
    """PC-indexed, operand-verified reuse table (scheme S_v)."""

    def __init__(self, entries: int = 1024, associativity: int = 4) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(
                f"entries must be a positive power of two, got {entries}"
            )
        if entries % associativity:
            raise ConfigurationError(
                f"associativity {associativity} does not divide {entries}"
            )
        self.entries = entries
        self.associativity = associativity
        self.n_sets = entries // associativity
        self._sets: List[List[_RBEntry]] = [[] for _ in range(self.n_sets)]
        self._clock = 0
        self.stats = MemoStats()

    def _set_for(self, pc: int) -> List[_RBEntry]:
        # Word-aligned PCs: drop the low 2 bits before indexing.
        return self._sets[(pc >> 2) % self.n_sets]

    def access(self, pc: int, a, b, result) -> bool:
        """Present one dynamic instruction; returns True on a reuse hit.

        On a miss the (pc, operands, result) tuple is inserted, evicting
        the set's LRU entry if needed -- which is how single-cycle
        instructions bump multi-cycle ones in a unified buffer.
        """
        self._clock += 1
        self.stats.lookups += 1
        ways = self._set_for(pc)
        for entry in ways:
            if entry.pc == pc and entry.a == a and entry.b == b:
                entry.last_used = self._clock
                self.stats.hits += 1
                return True
        self.stats.insertions += 1
        entry = _RBEntry(pc, a, b, result, self._clock)
        if len(ways) < self.associativity:
            ways.append(entry)
            return False
        victim = min(range(len(ways)), key=lambda i: ways[i].last_used)
        ways[victim] = entry
        self.stats.evictions += 1
        return False

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)


class ReuseBufferReport:
    """Per-class hit counts of one RB run."""

    def __init__(self) -> None:
        self.lookups: dict = {}
        self.hits: dict = {}
        self.skipped_no_pc = 0

    def record(self, opcode: Opcode, hit: bool) -> None:
        self.lookups[opcode] = self.lookups.get(opcode, 0) + 1
        if hit:
            self.hits[opcode] = self.hits.get(opcode, 0) + 1

    def hit_ratio(self, opcode: Opcode) -> float:
        looked = self.lookups.get(opcode, 0)
        if not looked:
            return 0.0
        return self.hits.get(opcode, 0) / looked


def run_reuse_buffer(
    events: Iterable[TraceEvent],
    buffer: Optional[ReuseBuffer] = None,
    classes: frozenset = _RB_CLASSES,
) -> Tuple[ReuseBuffer, ReuseBufferReport]:
    """Feed a PC-stamped trace through a Reuse Buffer.

    Events without a PC (traces recorded with ``record_sites=False``, or
    classes the recorder doesn't stamp, like loop overhead) are counted
    in ``report.skipped_no_pc`` -- for a faithful comparison record the
    workload with sites enabled.  Opcode, pc and operands are read from
    the trace's columns, each operand as the Python value of its own
    event's type; a plain event sequence is converted once.
    """
    if buffer is None:
        buffer = ReuseBuffer()
    report = ReuseBufferReport()
    batch = as_batch(events)
    if batch is None:
        batch = ColumnBatch.from_events(events)
    views = batch.views()
    idx = np.flatnonzero(
        np.isin(views.opcode, [OPCODE_INDEX[opcode] for opcode in classes])
    )
    stamped = np.bitwise_and(views.flags[idx], _F_PC) != 0
    report.skipped_no_pc = int(len(idx) - stamped.sum())
    idx = idx[stamped]
    a_values, b_values, results = _decode_partition(batch, views, idx, True)
    for code, pc, a, b, result in zip(
        views.opcode[idx].tolist(), views.pc[idx].tolist(),
        a_values, b_values, results,
    ):
        report.record(OPCODE_LIST[code], buffer.access(pc, a, b, result))
    return buffer, report
