"""Tests for the binary trace format."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import Operation
from repro.errors import TraceFormatError
from repro.isa.columns import ColumnBatch
from repro.isa.binfmt import read_column_blocks, write_column_trace
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.simulator.shade import ShadeSimulator


def _encode(events) -> bytes:
    buffer = io.BytesIO()
    write_column_trace(ColumnBatch.from_events(events), buffer)
    return buffer.getvalue()


def _decode(blob: bytes):
    return ColumnBatch.concat(read_column_blocks(io.BytesIO(blob))).to_events()


def _roundtrip(events):
    return _decode(_encode(events))


class TestBinaryFormat:
    def test_roundtrip_mixed_trace(self):
        events = [
            TraceEvent(Opcode.FMUL, 0.1, -2.5, -0.25),
            TraceEvent(Opcode.IMUL, -7, 2**40, -7 * 2**40),
            TraceEvent(Opcode.LOAD, address=0xDEADBEEF),
            TraceEvent(Opcode.STORE, address=0x10),
            TraceEvent(Opcode.BRANCH),
            TraceEvent(Opcode.FDIV, 1.0, 3.0, 1.0 / 3.0),
            TraceEvent(Opcode.FSQRT, 2.0, 0.0, math.sqrt(2.0)),
        ]
        assert _roundtrip(events) == events

    def test_negative_zero_and_inf_exact(self):
        events = [TraceEvent(Opcode.FMUL, -0.0, math.inf, -math.inf)]
        restored = _roundtrip(events)[0]
        assert math.copysign(1.0, restored.a) == -1.0
        assert restored.b == math.inf

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            _decode(b"NOTATRACE")

    def test_truncated_record_rejected(self):
        blob = _encode([TraceEvent(Opcode.FMUL, 1.0, 2.0, 2.0)])
        with pytest.raises(TraceFormatError, match="truncated"):
            _decode(blob[:-5])

    def test_imul_overflow_rejected(self):
        with pytest.raises(TraceFormatError, match="int64"):
            _roundtrip([TraceEvent(Opcode.IMUL, 2**70, 1, 2**70)])

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False),
                st.floats(allow_nan=False),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_float_roundtrip_property(self, pairs):
        events = [TraceEvent(Opcode.FDIV, a, b, 1.0) for a, b in pairs]
        assert _roundtrip(events) == events

    def test_statistics_preserved_through_format(self, small_image):
        from repro.workloads.khoros import run_kernel
        from repro.workloads.recorder import OperationRecorder

        recorder = OperationRecorder()
        run_kernel("vgauss", recorder, small_image)
        direct = ShadeSimulator().run(recorder.trace)
        restored = _roundtrip(recorder.trace.events)
        replayed = ShadeSimulator().run(restored)
        assert replayed.hit_ratio(Operation.FP_MUL) == direct.hit_ratio(
            Operation.FP_MUL
        )
        assert replayed.breakdown == direct.breakdown


class TestBinaryFormatV2:
    """Annotated events -- synthetic PCs and dataflow ids, what the
    retired v2 records added -- survive the format alongside operands."""

    def _annotated(self):
        return [
            TraceEvent(Opcode.FMUL, 1.5, 2.0, 3.0, dst=9, srcs=(1, 2), pc=0x40),
            TraceEvent(Opcode.IMUL, -7, 2**40, -7 * 2**40, dst=3, srcs=(3,)),
            TraceEvent(Opcode.LOAD, address=0xDEADBEEF, dst=4, pc=0x44),
            TraceEvent(Opcode.STORE, address=0x10, srcs=(4, 9)),
            TraceEvent(Opcode.BRANCH, pc=0x48),
            TraceEvent(Opcode.FDIV, 1.0, 3.0, 1.0 / 3.0),
        ]

    def test_v2_preserves_annotations(self):
        assert _roundtrip(self._annotated()) == self._annotated()

    def test_v2_preserves_non_memoizable_operands(self):
        # FADD operands matter to dual-issue style experiments; the
        # property tests never give plain events operands, so this is
        # the check that they are archived.
        event = TraceEvent(Opcode.FADD, 1.25, 2.5, 3.75)
        assert _roundtrip([event])[0] == event

    def test_v2_negative_zero_and_inf_exact(self):
        events = [TraceEvent(Opcode.FMUL, -0.0, math.inf, -math.inf,
                             dst=1, pc=8)]
        restored = _roundtrip(events)[0]
        assert math.copysign(1.0, restored.a) == -1.0
        assert restored.b == math.inf
        assert restored.pc == 8

    def test_truncated_v2_tail_rejected(self):
        # Clipping the tail cuts into the src-id column.
        blob = _encode(self._annotated())
        with pytest.raises(TraceFormatError, match="truncated"):
            _decode(blob[:-3])

    def test_statistics_preserved_through_v2(self, small_image):
        from repro.workloads.khoros import run_kernel
        from repro.workloads.recorder import OperationRecorder

        recorder = OperationRecorder(record_sites=True)
        run_kernel("vgauss", recorder, small_image)
        restored = _roundtrip(recorder.trace.events)
        assert restored == list(recorder.trace.events)
        assert any(event.pc is not None for event in restored)
        direct = ShadeSimulator().run(recorder.trace)
        replayed = ShadeSimulator().run(restored)
        assert replayed.breakdown == direct.breakdown
