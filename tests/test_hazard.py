"""Tests for the hazard-aware multi-issue pipeline model."""

import pytest

from repro.analysis.static.memo import reference_machine
from repro.arch.latency import FAST_DESIGN, SLOW_DESIGN
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.simulator.hazard import HazardModel, hazard_speedup
from repro.workloads.khoros import run_kernel
from repro.workloads.recorder import OperationRecorder


def _div(a, b, dst=None, srcs=()):
    return TraceEvent(Opcode.FDIV, a, b, a / b, dst=dst, srcs=srcs)


def _ialu(dst=None, srcs=()):
    return TraceEvent(Opcode.IALU, dst=dst, srcs=srcs)


class TestBasics:
    def test_bank_latencies_checked_not_overwritten(self):
        bank = MemoTableBank.paper_baseline(
            operations=(Operation.FP_DIV,), latencies=FAST_DESIGN.latencies()
        )
        with pytest.raises(ValueError, match=r"FP_DIV .* 13 .* takes 39"):
            HazardModel(SLOW_DESIGN, bank=bank)
        assert bank.units[Operation.FP_DIV].latency == 13
        HazardModel(FAST_DESIGN, bank=bank)  # matching latencies are fine

    def test_issue_width_validated(self):
        with pytest.raises(ValueError):
            HazardModel(FAST_DESIGN, issue_width=0)

    def test_single_instruction(self):
        report = HazardModel(FAST_DESIGN).run([_div(9.0, 7.0)])
        assert report.total_cycles == 13
        assert report.instructions == 1

    def test_independent_ialu_stream_is_one_per_cycle(self):
        report = HazardModel(FAST_DESIGN).run([_ialu() for _ in range(10)])
        assert report.total_cycles == 10
        assert report.ipc == 1.0

    def test_dual_issue_doubles_independent_throughput(self):
        events = [_ialu() for _ in range(10)]
        scalar = HazardModel(FAST_DESIGN, issue_width=1).run(events)
        dual = HazardModel(FAST_DESIGN, issue_width=2).run(events)
        assert dual.total_cycles < scalar.total_cycles
        assert dual.total_cycles == 5


class TestDataHazards:
    def test_raw_dependency_stalls(self):
        # ialu produces value 1; the divide consumes it.
        events = [
            _div(9.0, 7.0, dst=1),            # completes at 13
            _div(13.0, 7.0, dst=2, srcs=(1,)),  # must wait for value 1
        ]
        report = HazardModel(FAST_DESIGN).run(events)
        assert report.raw_stall_cycles > 0
        # Second div issues at 13, completes at 26... but the divider is
        # also structurally busy until 13, counted as RAW first.
        assert report.total_cycles == 26

    def test_independent_divides_stall_structurally(self):
        events = [_div(9.0, 7.0, dst=1), _div(11.0, 5.0, dst=2)]
        report = HazardModel(FAST_DESIGN).run(events)
        assert report.structural_stall_cycles > 0
        assert report.total_cycles == 26  # non-pipelined divider serializes

    def test_pipelined_multiplier_overlaps(self):
        events = [
            TraceEvent(Opcode.FMUL, 2.0, float(i + 2), 2.0 * (i + 2), dst=i + 1)
            for i in range(4)
        ]
        report = HazardModel(FAST_DESIGN).run(events)
        # Initiation 1/cycle, latency 3: last issues at cycle 3, done 6.
        assert report.total_cycles == 6
        assert report.structural_stall_cycles == 0


class TestMemoizationEffects:
    def test_hit_releases_divider(self):
        bank = MemoTableBank.paper_baseline(
            operations=(Operation.FP_DIV,),
            latencies={Operation.FP_DIV: 13},
        )
        events = [
            _div(9.0, 7.0, dst=1),
            _div(9.0, 7.0, dst=2),  # hit: completes in 1, no unit conflict
            _div(9.0, 7.0, dst=3),
        ]
        report = HazardModel(FAST_DESIGN, bank=bank).run(events)
        assert report.structural_stall_cycles == 0
        # The two hits issue in the first divide's shadow and complete
        # long before it does: total time is just the one real divide.
        assert report.total_cycles == 13

    def test_memoization_cuts_raw_stalls(self):
        # A dependent chain of identical divides: baseline pays the full
        # latency chain; the memoized machine pays it once.
        chain = []
        for i in range(6):
            chain.append(
                TraceEvent(
                    Opcode.FDIV, 9.0, 7.0, 9.0 / 7.0,
                    dst=i + 1, srcs=(i,) if i else (),
                )
            )
        result = hazard_speedup(
            SLOW_DESIGN, chain, memoized=(Operation.FP_DIV,)
        )
        assert result["speedup"] > 3.0

    @pytest.mark.parametrize("machine", [FAST_DESIGN, SLOW_DESIGN],
                             ids=lambda m: m.name)
    def test_one_shot_iterable_equals_list(self, machine):
        # Both runs read one conversion: a generator's memoized run
        # does not see an exhausted trace.
        program = reference_machine("memo_showcase", 256)
        program.run(max_steps=1_000_000)
        events = list(program.trace)
        expected = hazard_speedup(machine, events)
        assert expected["memo_cycles"] > 0
        assert expected["speedup"] > 1.0
        assert hazard_speedup(machine, iter(events)) == expected
        assert hazard_speedup(machine, (e for e in events)) == expected

    def test_kernel_trace_end_to_end(self, small_image):
        recorder = OperationRecorder()
        run_kernel("vgauss", recorder, small_image)
        result = hazard_speedup(
            FAST_DESIGN,
            recorder.trace,
            memoized=(Operation.FP_MUL, Operation.FP_DIV),
        )
        assert result["speedup"] >= 1.0
        assert 0 < result["memo_ipc"] <= 2.0

    def test_wider_issue_benefits_from_memoing_more(self, small_image):
        """Section 2.3: tables buy issue bandwidth on wider machines."""
        recorder = OperationRecorder()
        run_kernel("vsqrt", recorder, small_image)
        scalar = hazard_speedup(
            SLOW_DESIGN, recorder.trace, memoized=(Operation.FP_DIV,),
            issue_width=1,
        )
        dual = hazard_speedup(
            SLOW_DESIGN, recorder.trace, memoized=(Operation.FP_DIV,),
            issue_width=2,
        )
        assert dual["memo_ipc"] >= scalar["memo_ipc"] - 1e-9


class TestStallAccounting:
    def test_stall_fraction_bounded(self, small_image):
        recorder = OperationRecorder()
        run_kernel("vslope", recorder, small_image)
        report = HazardModel(SLOW_DESIGN).run(recorder.trace)
        assert 0.0 <= report.stall_fraction <= 1.0
        assert report.issue_slots_used == report.instructions
