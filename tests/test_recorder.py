"""Tests for the kernel instrumentation layer."""

import math

import numpy as np

from repro.isa.opcodes import Opcode
from repro.simulator.shade import ShadeSimulator
from repro.workloads.recorder import TrackedArray


class TestArithmeticRecording:
    def test_fmul_records_and_computes(self, recorder):
        assert recorder.fmul(2.5, 4.0) == 10.0
        event = recorder.trace[0]
        assert event.opcode is Opcode.FMUL
        assert (event.a, event.b, event.result) == (2.5, 4.0, 10.0)

    def test_fdiv_ieee_semantics(self, recorder):
        assert recorder.fdiv(1.0, 0.0) == math.inf
        assert math.isnan(recorder.fdiv(0.0, 0.0))

    def test_imul_exact(self, recorder):
        assert recorder.imul(2**40, 3) == 3 * 2**40
        assert recorder.trace[0].opcode is Opcode.IMUL

    def test_fsqrt_and_frecip(self, recorder):
        assert recorder.fsqrt(16.0) == 4.0
        assert recorder.frecip(4.0) == 0.25
        assert [e.opcode for e in recorder.trace] == [
            Opcode.FSQRT,
            Opcode.FRECIP,
        ]

    def test_fadd_fsub_classed_as_fadd(self, recorder):
        recorder.fadd(1.0, 2.0)
        recorder.fsub(5.0, 2.0)
        assert all(e.opcode is Opcode.FADD for e in recorder.trace)

    def test_numpy_scalars_coerced(self, recorder):
        value = recorder.fmul(np.float64(2.0), np.float64(3.0))
        assert isinstance(recorder.trace[0].a, float)
        assert value == 6.0


class TestTrackedArrays:
    def test_load_store_recorded_with_addresses(self, recorder):
        tracked = recorder.track(np.zeros((4, 4)))
        tracked[1, 2] = 7.0
        assert tracked[1, 2] == 7.0
        store, load = recorder.trace.events
        assert store.opcode is Opcode.STORE
        assert load.opcode is Opcode.LOAD
        assert store.address == load.address

    def test_addresses_follow_row_major_layout(self, recorder):
        tracked = recorder.track(np.zeros((4, 8)))
        tracked[0, 0]
        tracked[0, 1]
        tracked[1, 0]
        addresses = [e.address for e in recorder.trace.events]
        assert addresses[1] - addresses[0] == 8      # next column
        assert addresses[2] - addresses[0] == 8 * 8  # next row

    def test_distinct_arrays_get_distinct_pages(self, recorder):
        first = recorder.track(np.zeros(16))
        second = recorder.track(np.zeros(16))
        assert first.base != second.base
        assert second.base % 4096 == 0
        assert second.base >= first.base + 16 * 8

    def test_values_returned_as_python_scalars(self, recorder):
        tracked = recorder.track(np.array([1.5]))
        assert isinstance(tracked[0], float)

    def test_peek_does_not_record(self, recorder):
        tracked = recorder.track(np.array([3.0]))
        assert tracked.peek(0) == 3.0
        assert len(recorder.trace) == 0

    def test_new_array_tracked_and_filled(self, recorder):
        out = recorder.new_array((2, 2), fill=1.5)
        assert out.array.tolist() == [[1.5, 1.5], [1.5, 1.5]]

    def test_1d_indexing(self, recorder):
        tracked = recorder.track(np.arange(10.0))
        assert tracked[3] == 3.0
        assert recorder.trace[0].address == tracked.base + 3 * 8


class TestOverheadAndStreaming:
    def test_loop_charges_overhead(self, recorder):
        items = list(recorder.loop(range(3)))
        assert items == [0, 1, 2]
        counts = recorder.breakdown()
        assert counts[Opcode.IALU] == 6
        assert counts[Opcode.BRANCH] == 3

    def test_ialu_branch_counts(self, recorder):
        recorder.ialu(3)
        recorder.branch(2)
        counts = recorder.breakdown()
        assert counts[Opcode.IALU] == 3 and counts[Opcode.BRANCH] == 2

    def test_recorded_events_replay_validated(self, recorder):
        recorder.fadd(1.0, 1.0)
        recorder.fmul(recorder.fdiv(3.0, 7.0), 7.0)
        recorder.imul(6, 7)
        report = ShadeSimulator(validate=True).run(recorder.trace)
        assert report.instructions == recorder.events_recorded == 4
        assert report.mismatches == 0
