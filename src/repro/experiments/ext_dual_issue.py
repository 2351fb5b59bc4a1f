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

from typing import Sequence

import numpy as np

from ..core.config import MemoTableConfig
from ..core.memo_table import MemoTable
from ..core.multiported import DualIssueModel
from ..core.operations import Operation
from ..isa.opcodes import OPCODE_INDEX, Opcode
from ..workloads.khoros import SPEEDUP_APPS
from .base import ExperimentResult, ratio_cell
from .common import DEFAULT_IMAGE_SET, record_mm_trace

__all__ = ["run"]

_FDIV_CODE = OPCODE_INDEX[Opcode.FDIV]


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
        slot_hits = 0.0
        speedups = []
        conflicts = 0
        for image in images:
            batch = record_mm_trace(app, image, scale=scale).columns()
            fdiv = np.flatnonzero(batch.views().opcode == _FDIV_CODE)
            operands = [batch.operand_triple(i)[:2] for i in fdiv.tolist()]
            if len(operands) < 2:
                continue
            model = DualIssueModel(
                Operation.FP_DIV,
                MemoTable(MemoTableConfig(entries=entries, associativity=4)),
                latency=latency,
            )
            for index in range(0, len(operands) - 1, 2):
                a1, b1 = operands[index]
                a2, b2 = operands[index + 1]
                model.issue_pair(a1, b1, a2, b2)
            pairs_issued += model.pairs_issued
            slot_hits += model.second_slot_hits
            speedups.append(model.speedup)
            conflicts += model.shared.port_conflicts
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
                conflicts,
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
