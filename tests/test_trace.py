"""Tests for trace records and serialization."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.isa.opcodes import (
    MEMOIZABLE_OPCODES,
    Opcode,
    opcode_to_operation,
    operation_to_opcode,
)
from repro.core.operations import Operation
from repro.isa.trace import Trace, TraceEvent, dumps, loads


class TestOpcodes:
    def test_memoizable_set(self):
        assert Opcode.FMUL in MEMOIZABLE_OPCODES
        assert Opcode.LOAD not in MEMOIZABLE_OPCODES

    def test_opcode_operation_mapping_roundtrip(self):
        for op in Operation:
            assert opcode_to_operation(operation_to_opcode(op)) is op

    def test_plain_opcodes_map_to_none(self):
        assert opcode_to_operation(Opcode.IALU) is None
        assert opcode_to_operation(Opcode.BRANCH) is None

    def test_cached_attribute_matches_function(self):
        for opcode in Opcode:
            assert opcode.operation is opcode_to_operation(opcode)

    def test_memory_flag(self):
        assert Opcode.LOAD.is_memory and Opcode.STORE.is_memory
        assert not Opcode.FMUL.is_memory


class TestTraceContainer:
    def test_filter(self):
        trace = Trace(
            [
                TraceEvent(Opcode.FMUL, 1.0, 2.0, 2.0),
                TraceEvent(Opcode.IALU),
                TraceEvent(Opcode.FDIV, 4.0, 2.0, 2.0),
            ]
        )
        fp = trace.filter(Opcode.FMUL, Opcode.FDIV)
        assert len(fp) == 2
        assert all(e.opcode.is_memoizable for e in fp)

    def test_breakdown(self):
        trace = Trace([TraceEvent(Opcode.IALU)] * 5 + [TraceEvent(Opcode.FMUL)])
        counts = trace.breakdown()
        assert counts[Opcode.IALU] == 5
        assert counts[Opcode.FMUL] == 1
        assert list(counts) == [Opcode.IALU, Opcode.FMUL]  # first seen first

    def test_indexing(self):
        trace = Trace([TraceEvent(Opcode.NOP), TraceEvent(Opcode.BRANCH)])
        assert trace[1].opcode is Opcode.BRANCH

    def test_event_view_is_the_batch_view_until_it_grows(self):
        # One cached event view per batch: the trace shares it, and an
        # appended event makes a new one that holds it.
        trace = Trace([TraceEvent(Opcode.NOP), TraceEvent(Opcode.BRANCH)])
        batch = trace.columns()
        view = trace.events
        assert batch.to_events() is view
        batch.append(TraceEvent(Opcode.FMUL, 2.0, 3.0, 6.0))
        grown = trace.events
        assert grown is not view and len(view) == 2
        assert [e.opcode for e in grown] == [
            Opcode.NOP, Opcode.BRANCH, Opcode.FMUL
        ]
        assert batch.to_events() is grown


class TestSerialization:
    def test_roundtrip_float_exact_bits(self):
        original = [
            TraceEvent(Opcode.FMUL, 0.1, -0.2, 0.1 * -0.2),
            TraceEvent(Opcode.FDIV, 1.0, 3.0, 1.0 / 3.0),
            TraceEvent(Opcode.FSQRT, 2.0, 0.0, math.sqrt(2.0)),
        ]
        restored = loads(dumps(original)).events
        assert restored == original

    def test_roundtrip_integer_operands(self):
        original = [TraceEvent(Opcode.IMUL, 2**45, -7, -(2**45) * 7)]
        restored = loads(dumps(original)).events
        assert restored[0].a == 2**45
        assert isinstance(restored[0].a, int)

    def test_roundtrip_memory_and_plain(self):
        original = [
            TraceEvent(Opcode.LOAD, address=0x1000),
            TraceEvent(Opcode.STORE, address=0xFF8),
            TraceEvent(Opcode.BRANCH),
            TraceEvent(Opcode.NOP),
        ]
        restored = loads(dumps(original)).events
        assert [e.opcode for e in restored] == [e.opcode for e in original]
        assert restored[0].address == 0x1000
        assert restored[1].address == 0xFF8

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nnop\n"
        assert len(loads(text)) == 1

    def test_unknown_opcode_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown opcode"):
            loads("frobnicate\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(TraceFormatError):
            loads("fmul 0000000000000000\n")
        with pytest.raises(TraceFormatError):
            loads("nop extra\n")
        with pytest.raises(TraceFormatError):
            loads("load 123\n")  # missing @ prefix

    def test_bad_encoding_rejected(self):
        with pytest.raises(TraceFormatError):
            loads("fmul zzzz zzzz zzzz\n")

    @given(
        st.lists(
            st.tuples(
                # Finite only: 0 * inf would make a NaN result, and NaN
                # breaks tuple equality (it still roundtrips bit-exactly,
                # which test_roundtrip_float_exact_bits covers).
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, pairs):
        original = [
            TraceEvent(Opcode.FMUL, a, b, a * b) for a, b in pairs
        ]
        assert loads(dumps(original)).events == original

    def test_negative_zero_preserved(self):
        event = TraceEvent(Opcode.FMUL, -0.0, 1.0, -0.0)
        restored = loads(dumps([event])).events[0]
        assert math.copysign(1.0, restored.a) == -1.0
