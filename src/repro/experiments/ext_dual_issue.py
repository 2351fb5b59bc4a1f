"""Extension experiment: a MEMO-TABLE port in place of a second divider.

Section 2.3 suggests that instead of duplicating a divider, a processor
could add a multi-ported MEMO-TABLE interface: when two divides issue
together, the second goes to the table and only stalls on a miss.  The
paper leaves quantifying this to future work; this experiment measures
it on the MM division streams: the fraction of second-issue slots the
table services alone, and the dual-issue speedup over a serializing
single-divider baseline.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..core import backend as execution
from ..core.config import MemoTableConfig, TrivialPolicy
from ..core.memo_table import MemoTable
from ..core.operations import Operation
from ..core.unit import MemoizedUnit
from ..isa.opcodes import OPCODE_INDEX, Opcode
from ..workloads.khoros import SPEEDUP_APPS
from .base import ExperimentResult, ratio_cell
from .common import DEFAULT_IMAGE_SET, record_mm_trace

__all__ = ["DualIssue", "dual_issue", "run"]

_FDIV_CODE = OPCODE_INDEX[Opcode.FDIV]


class DualIssue(NamedTuple):
    """One trace's divides issued two at a time."""

    pairs: int
    second_slot_hits: int
    #: Hits of the shared table over both slots' ``2 * pairs`` lookups.
    table_hits: int
    total_cycles: int
    #: A single serializing divider: ``2 * latency`` per pair.
    baseline_cycles: int

    @property
    def second_slot_hit_ratio(self) -> float:
        return self.second_slot_hits / self.pairs if self.pairs else 0.0

    @property
    def speedup(self) -> float:
        if not self.total_cycles:
            return 1.0
        return self.baseline_cycles / self.total_cycles


def dual_issue(trace, latency: int = 13, entries: int = 32) -> DualIssue:
    """Issue ``trace``'s divides in consecutive pairs (section 2.3).

    The first of a pair goes to the divider with the shared table
    alongside: one cycle on a hit, else ``latency``.  The second goes to
    a table port: one cycle on a hit, else ``latency`` plus a
    ``latency`` stall for the divider when the first missed too.  A
    pair takes the longer of the two; an odd last divide is not issued.
    Both slots look up and, on a miss, fill one ``entries``-entry
    4-way table in trace order, so its hits are the outcome column of
    a CACHE_ALL divide unit, probed through the kernel.
    """
    batch = execution.as_batch(trace)
    unit = MemoizedUnit(
        Operation.FP_DIV,
        table=MemoTable(MemoTableConfig(entries=entries, associativity=4)),
        latency=latency,
        trivial_policy=TrivialPolicy.CACHE_ALL,
    )
    outcomes = execution.probe_outcomes(batch, {Operation.FP_DIV: unit})
    hit = outcomes[batch.views().opcode == _FDIV_CODE] == execution.OUTCOME_HIT
    pairs = len(hit) // 2
    first, second = hit[0:2 * pairs:2], hit[1:2 * pairs:2]
    first_cycles = np.where(first, 1, latency)
    second_cycles = np.where(second, 1, np.where(first, latency, 2 * latency))
    return DualIssue(
        pairs=pairs,
        second_slot_hits=int(second.sum()),
        table_hits=int(first.sum() + second.sum()),
        total_cycles=int(np.maximum(first_cycles, second_cycles).sum()),
        baseline_cycles=2 * latency * pairs,
    )


def run(
    scale: float = 0.15,
    images: Sequence[str] = DEFAULT_IMAGE_SET[:3],
    apps: Sequence[str] = SPEEDUP_APPS,
    latency: int = 13,
    entries: int = 32,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ext-dual-issue",
        title=(
            "Extension: MEMO-TABLE port as a second divider "
            f"({latency}-cycle divider, {entries}-entry shared table)"
        ),
        headers=[
            "app", "div pairs", "2nd-slot hits", "dual speedup",
            "port conflicts",
        ],
        notes="(pairs of consecutive fdivs issued together, section 2.3)",
    )
    summary = {}
    for app in apps:
        pairs_issued = 0
        slot_hits = 0
        speedups = []
        for image in images:
            trace = record_mm_trace(app, image, scale=scale)
            issued = dual_issue(trace, latency=latency, entries=entries)
            if not issued.pairs:
                continue
            pairs_issued += issued.pairs
            slot_hits += issued.second_slot_hits
            speedups.append(issued.speedup)
        if not pairs_issued:
            result.rows.append([app, 0, "-", "-", 0])
            continue
        slot_ratio = slot_hits / pairs_issued
        mean_speedup = sum(speedups) / len(speedups)
        summary[app] = {
            "pairs": pairs_issued,
            "second_slot_hit_ratio": slot_ratio,
            "speedup": mean_speedup,
        }
        result.rows.append(
            [
                app,
                pairs_issued,
                ratio_cell(slot_ratio),
                f"{mean_speedup:.2f}",
                # Two ports, two lookups per pair: no port conflicts.
                0,
            ]
        )
    if summary:
        mean_slot = sum(v["second_slot_hit_ratio"] for v in summary.values()) / len(summary)
        mean_speed = sum(v["speedup"] for v in summary.values()) / len(summary)
        result.rows.append(
            ["average", "", ratio_cell(mean_slot), f"{mean_speed:.2f}", ""]
        )
        result.extras["average_second_slot"] = mean_slot
        result.extras["average_speedup"] = mean_speed
    result.extras["per_app"] = summary
    return result
