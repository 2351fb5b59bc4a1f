"""The reference dual-issue model for ext-dual-issue (section 2.3).

When a processor duplicates a computation unit, a table per unit lets
the same calculation be performed -- and stored -- twice.  The paper's
fix is one larger multi-ported table shared by the duplicated units, and
it further suggests replacing a second divider outright with an
interface to the shared table.  This module models both the direct way,
one pair of probes at a time:

* :class:`SharedMemoTable` -- a port-arbitrated wrapper around one table
  serving several units, counting port conflicts per cycle;
* :class:`TableOnlyUnit` -- a "unit" that is nothing but a table port:
  hits complete in a cycle, misses stall until the real unit is free;
* :class:`DualIssueModel` -- two divides per cycle, the second on the
  table port.

Production (:func:`repro.experiments.ext_dual_issue.dual_issue`) takes
the same outcomes as one kernel outcome column of a CACHE_ALL unit and
does the cycle arithmetic with numpy; the tests require both to report
equal pairs, second-slot hits, table hits and cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.memo_table import BaseMemoTable, LookupResult
from repro.core.operations import Operation, compute
from repro.core.stats import UnitStats

__all__ = ["SharedMemoTable", "TableOnlyUnit", "DualIssueModel"]


class SharedMemoTable:
    """A multi-ported front to a single MEMO-TABLE.

    ``ports`` lookups are serviced per cycle; extra lookups in the same
    cycle are counted as conflicts and charged one stall cycle each.
    Callers mark cycle boundaries with :meth:`begin_cycle`.
    """

    def __init__(self, table: BaseMemoTable, ports: int = 2) -> None:
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.table = table
        self.ports = ports
        self.port_conflicts = 0
        self._used_this_cycle = 0

    def begin_cycle(self) -> None:
        """Start a new machine cycle: all ports become free."""
        self._used_this_cycle = 0

    def lookup(self, a: float, b: float) -> LookupResult:
        self._used_this_cycle += 1
        if self._used_this_cycle > self.ports:
            self.port_conflicts += 1
        return self.table.lookup(a, b)

    def insert(self, a: float, b: float, value: float) -> None:
        self.table.insert(a, b, value)

    @property
    def stats(self):
        return self.table.stats


@dataclass
class _IssueOutcome:
    value: float
    cycles: int
    hit: bool


class TableOnlyUnit:
    """A table port standing in for a duplicated functional unit.

    On a hit the operation completes in ``hit_latency``; on a miss it
    waits ``stall`` cycles for the real unit and then takes its full
    latency (section 2.3's "stalled until the divider is free").
    """

    def __init__(
        self,
        operation: Operation,
        shared: SharedMemoTable,
        latency: int,
        hit_latency: int = 1,
    ) -> None:
        self.operation = operation
        self.shared = shared
        self.latency = latency
        self.hit_latency = hit_latency
        self.stats = UnitStats()

    def issue(self, a: float, b: float, stall: int) -> _IssueOutcome:
        self.stats.operations += 1
        found = self.shared.lookup(a, b)
        if found.hit:
            self.stats.cycles_memo += self.hit_latency
            self.stats.cycles_base += self.latency
            return _IssueOutcome(found.value, self.hit_latency, True)
        value = compute(self.operation, a, b)
        self.shared.insert(a, b, value)
        cycles = stall + self.latency
        self.stats.cycles_memo += cycles
        self.stats.cycles_base += self.latency
        return _IssueOutcome(value, cycles, False)


class DualIssueModel:
    """Two same-class operations issued per cycle (section 2.3 scenario).

    The first goes to the real unit (with the shared table alongside);
    the second goes to a :class:`TableOnlyUnit`.  The model reports how
    often the second issue slot was serviced by the table alone, i.e.
    how much issue bandwidth a table buys instead of a second divider.
    """

    def __init__(
        self,
        operation: Operation,
        table: BaseMemoTable,
        latency: int,
        ports: int = 2,
    ) -> None:
        self.operation = operation
        self.shared = SharedMemoTable(table, ports=ports)
        self.latency = latency
        self.table_unit = TableOnlyUnit(operation, self.shared, latency)
        self.pairs_issued = 0
        self.second_slot_hits = 0
        self.total_cycles = 0
        self.baseline_cycles = 0

    def issue_pair(
        self, a1: float, b1: float, a2: float, b2: float
    ) -> List[float]:
        """Issue two operations in the same cycle; returns their results."""
        self.pairs_issued += 1
        self.shared.begin_cycle()

        # First op: real unit + table in tandem.
        first = self.shared.lookup(a1, b1)
        if first.hit:
            value1 = first.value
            first_cycles = 1
        else:
            value1 = compute(self.operation, a1, b1)
            self.shared.insert(a1, b1, value1)
            first_cycles = self.latency

        # Second op: table-only port; a miss waits for the real unit.
        stall = first_cycles if not first.hit else 0
        outcome = self.table_unit.issue(a2, b2, stall=stall)
        if outcome.hit:
            self.second_slot_hits += 1

        self.total_cycles += max(first_cycles, outcome.cycles)
        # Baseline single-unit machine serializes the pair.
        self.baseline_cycles += 2 * self.latency
        return [value1, outcome.value]

    @property
    def second_slot_hit_ratio(self) -> float:
        if not self.pairs_issued:
            return 0.0
        return self.second_slot_hits / self.pairs_issued

    @property
    def speedup(self) -> float:
        if not self.total_cycles:
            return 1.0
        return self.baseline_cycles / self.total_cycles
