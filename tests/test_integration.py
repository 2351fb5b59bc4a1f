"""End-to-end integration tests across the whole stack."""

import io

import numpy as np
import pytest

from repro.arch.latency import FAST_DESIGN
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.isa.trace import Trace, read_trace, write_trace
from repro.simulator.cpu import MemoizedCPU
from repro.simulator.shade import ShadeSimulator
from repro.workloads.khoros import run_kernel
from repro.workloads.recorder import OperationRecorder


class TestRecordSerializeReplay:
    def test_trace_roundtrip_preserves_simulation(self, small_image):
        """Archived traces replay to identical memo-table statistics."""
        recorder = OperationRecorder()
        run_kernel("vgauss", recorder, small_image)

        direct = ShadeSimulator().run(recorder.trace)

        buffer = io.StringIO()
        write_trace(recorder.trace, buffer)
        buffer.seek(0)
        replayed = ShadeSimulator().run(read_trace(buffer))

        assert replayed.instructions == direct.instructions
        assert replayed.breakdown == direct.breakdown
        for op in (Operation.FP_MUL, Operation.FP_DIV):
            assert replayed.hit_ratio(op) == direct.hit_ratio(op)

    def test_memoized_results_match_traced_results(self, small_image):
        """Memoization never changes a computed value (validate mode)."""
        recorder = OperationRecorder()
        run_kernel("vslope", recorder, small_image)
        report = ShadeSimulator(validate=True).run(recorder.trace)
        assert report.mismatches == 0


class TestWholeMachine:
    def test_cycle_counts_internally_consistent(self, small_image):
        recorder = OperationRecorder()
        run_kernel("vgauss", recorder, small_image)
        cpu = MemoizedCPU(FAST_DESIGN, memoized=(Operation.FP_MUL, Operation.FP_DIV))
        report = cpu.run(recorder.trace)
        assert report.memo_cycles <= report.base_cycles
        assert report.base_cycles == sum(report.cycles_by_opcode.values())
        assert sum(report.counts_by_opcode.values()) == report.instructions

    def test_hit_ratio_drives_speedup(self):
        """More operand reuse must produce more measured speedup."""
        flat = np.full((12, 12), 9, dtype=np.int64)     # maximal reuse
        noisy = np.arange(144, dtype=np.int64).reshape(12, 12) * 7 % 251

        speedups = []
        for image in (flat, noisy):
            recorder = OperationRecorder()
            run_kernel("vgauss", recorder, image)
            cpu = MemoizedCPU(
                FAST_DESIGN, memoized=(Operation.FP_MUL, Operation.FP_DIV)
            )
            row, _ = cpu.speedup_row("vgauss", recorder.trace)
            speedups.append((row.hit_ratio, row.measured_speedup))
        (flat_hit, flat_speedup), (noisy_hit, noisy_speedup) = speedups
        assert flat_hit > noisy_hit
        assert flat_speedup > noisy_speedup

    def test_infinite_bank_never_worse(self, small_image):
        recorder = OperationRecorder()
        run_kernel("vkmeans", recorder, small_image)
        finite = ShadeSimulator(MemoTableBank.paper_baseline()).run(recorder.trace)
        infinite = ShadeSimulator(MemoTableBank.infinite()).run(recorder.trace)
        for op in (Operation.FP_MUL, Operation.FP_DIV):
            assert infinite.hit_ratio(op) >= finite.hit_ratio(op) - 1e-12
