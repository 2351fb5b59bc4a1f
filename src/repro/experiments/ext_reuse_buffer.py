"""Extension experiment: MEMO-TABLEs vs the Reuse Buffer (section 1.1).

The paper differentiates its scheme from Sodani & Sohi's Dynamic
Instruction Reuse on two grounds; this experiment measures both on the
MM workloads: dedicated 32-entry value-keyed tables against a unified
1024-entry PC-keyed buffer shared by all instruction classes.
"""

from __future__ import annotations

from typing import Sequence

from ..core.bank import MemoTableBank
from ..core.config import TrivialPolicy
from ..core.operations import Operation
from ..core.reuse_buffer import ReuseBuffer, run_reuse_buffer
from ..images import generate
from ..isa.opcodes import Opcode
from ..simulator.shade import ShadeSimulator
from ..workloads.khoros import run_kernel
from ..workloads.recorder import OperationRecorder
from .base import ExperimentResult, ratio_cell

__all__ = ["run"]

_PAIRS = ((Opcode.FMUL, Operation.FP_MUL), (Opcode.FDIV, Operation.FP_DIV))


def _memo_bank(trace) -> MemoTableBank:
    """The trace's FMUL and FDIV streams through paper-baseline tables
    that, like the Reuse Buffer, treat trivial operations as any other
    (CACHE_ALL: a lookup, plus an insert on a miss)."""
    bank = MemoTableBank.paper_baseline(
        operations=(Operation.FP_MUL, Operation.FP_DIV),
        trivial_policy=TrivialPolicy.CACHE_ALL,
    )
    ShadeSimulator(bank).run(trace)
    return bank


def run(
    scale: float = 0.15,
    images: Sequence[str] = ("Muppet1", "chroms"),
    apps: Sequence[str] = ("vgauss", "vslope", "vkmeans", "vgpwl"),
    rb_entries: int = 1024,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ext-reuse-buffer",
        title=(
            "Extension: 32-entry MEMO-TABLEs vs a "
            f"{rb_entries}-entry unified Reuse Buffer"
        ),
        headers=[
            "app", "input",
            "fmul.memo", "fmul.RB", "fdiv.memo", "fdiv.RB",
        ],
        notes="(RB is PC-indexed with operand verification; all classes share it)",
    )
    deltas = []
    for app in apps:
        for image_name in images:
            recorder = OperationRecorder(record_sites=True)
            run_kernel(app, recorder, generate(image_name, scale=scale))
            trace = recorder.trace
            _, rb_report = run_reuse_buffer(
                trace, ReuseBuffer(entries=rb_entries, associativity=4)
            )
            bank = _memo_bank(trace)
            cells = [app, image_name]
            for opcode, operation in _PAIRS:
                if not trace.count(opcode):
                    cells += ["-", "-"]
                    continue
                memo = bank.units[operation].table.stats.hit_ratio
                rb = rb_report.hit_ratio(opcode)
                deltas.append(memo - rb)
                cells += [ratio_cell(memo), ratio_cell(rb)]
            result.rows.append(cells)
    result.extras["mean_memo_minus_rb"] = (
        sum(deltas) / len(deltas) if deltas else 0.0
    )
    return result
