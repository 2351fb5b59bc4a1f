"""Property tests for the binary trace format.

Complements ``test_binfmt_sampling.py`` with generative coverage: the
round-trip invariants must hold for *arbitrary* event streams (any
opcode mix, NaN payloads, annotation combinations), and any malformed or
truncated input must be rejected with :class:`TraceFormatError` rather
than yielding phantom events.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.ieee754 import float64_to_bits
from repro.errors import TraceFormatError
from repro.isa.binfmt import (
    BINARY_MAGIC_V3,
    _write_block,
    read_column_blocks,
    write_column_trace,
)
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_FLOAT_MEMO = [
    Opcode.FMUL,
    Opcode.FDIV,
    Opcode.FSQRT,
    Opcode.FRECIP,
    Opcode.FLOG,
    Opcode.FSIN,
    Opcode.FCOS,
]
_INT_MEMO = [Opcode.IMUL, Opcode.IDIV]
_PLAIN = [Opcode.IALU, Opcode.FADD, Opcode.BRANCH, Opcode.NOP]

_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
_int64 = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
_address = st.integers(min_value=0, max_value=INT64_MAX)
_id = st.integers(min_value=0, max_value=INT64_MAX)


@st.composite
def trace_events(draw):
    """One arbitrary event of any opcode family, with any annotations."""
    family = draw(st.sampled_from(["float", "int", "memory", "plain"]))
    kwargs = {}
    if draw(st.booleans()):
        kwargs["pc"] = draw(_id)
    if draw(st.booleans()):
        kwargs["dst"] = draw(_id)
    kwargs["srcs"] = tuple(draw(st.lists(_id, max_size=4)))
    if family == "float":
        opcode = draw(st.sampled_from(_FLOAT_MEMO))
        return TraceEvent(
            opcode, draw(_any_float), draw(_any_float), draw(_any_float),
            **kwargs,
        )
    if family == "int":
        opcode = draw(st.sampled_from(_INT_MEMO))
        return TraceEvent(
            opcode, draw(_int64), draw(_int64), draw(_int64), **kwargs
        )
    if family == "memory":
        opcode = draw(st.sampled_from([Opcode.LOAD, Opcode.STORE]))
        return TraceEvent(opcode, address=draw(_address), **kwargs)
    return TraceEvent(draw(st.sampled_from(_PLAIN)), **kwargs)


def _write(events):
    buffer = io.BytesIO()
    write_column_trace(ColumnBatch.from_events(events), buffer)
    return buffer.getvalue()


def _read(blob):
    return ColumnBatch.concat(read_column_blocks(io.BytesIO(blob))).to_events()


def _operand_key(value):
    """Bit-exact comparison key: NaN payloads and -0.0 must survive."""
    if isinstance(value, int) and not isinstance(value, bool):
        return ("i", value)
    return ("f", float64_to_bits(float(value)))


def _key(event):
    """Everything the format keeps, with operands compared bit-exactly."""
    operands = tuple(_operand_key(v) for v in (event.a, event.b, event.result))
    return (
        event.opcode, operands, event.address, event.pc, event.dst,
        tuple(event.srcs),
    )


class TestRoundTripProperties:
    @given(st.lists(trace_events(), max_size=40))
    @settings(max_examples=60)
    def test_v3_is_lossless(self, events):
        restored = _read(_write(events))
        assert len(restored) == len(events)
        for before, after in zip(events, restored):
            assert _key(before) == _key(after)

    @given(_any_float, _any_float, _any_float)
    @settings(max_examples=60)
    def test_float_bits_exact(self, a, b, result):
        restored = _read(_write([TraceEvent(Opcode.FMUL, a, b, result)]))[0]
        assert float64_to_bits(restored.a) == float64_to_bits(float(a))
        assert float64_to_bits(restored.b) == float64_to_bits(float(b))
        assert float64_to_bits(restored.result) == float64_to_bits(
            float(result)
        )

    @given(_int64, _int64, _int64)
    @settings(max_examples=60)
    def test_int64_corners_exact(self, a, b, result):
        event = TraceEvent(Opcode.IMUL, a, b, result)
        restored = _read(_write([event]))[0]
        assert (restored.a, restored.b, restored.result) == (a, b, result)


class TestMalformedInput:
    @given(st.lists(trace_events(), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=60)
    def test_truncation_never_fabricates_events(self, events, data):
        blob = _write(events)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        full = _read(blob)
        try:
            partial = _read(blob[:cut])
        except TraceFormatError:
            return  # rejected: fine
        # accepted: must be a strict prefix of the real stream
        assert len(partial) < len(full)
        assert [_key(e) for e in partial] == [
            _key(e) for e in full[: len(partial)]
        ]

    @given(st.lists(trace_events(), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=100)
    def test_damaged_stream_decodes_or_raises_format_error(self, events, data):
        """A truncated or bit-flipped stream either decodes or raises
        TraceFormatError -- never another exception."""
        blob = bytearray(_write(events))
        if data.draw(st.booleans(), label="truncate"):
            del blob[data.draw(st.integers(0, len(blob) - 1), label="cut"):]
        else:
            for _ in range(data.draw(st.integers(1, 4), label="flips")):
                index = data.draw(st.integers(0, len(blob) - 1))
                blob[index] ^= 1 << data.draw(st.integers(0, 7))
        try:
            ColumnBatch.concat(read_column_blocks(io.BytesIO(bytes(blob))))
        except TraceFormatError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=60)
    def test_garbage_rejected(self, blob):
        if blob.startswith(BINARY_MAGIC_V3):
            return
        with pytest.raises(TraceFormatError):
            _read(blob)

    def test_unknown_opcode_index_rejected(self):
        # One event: header, opcode 255, flags 0, zero a/b/result.
        block = struct.pack("<IB", 1, 0) + bytes((255, 0)) + bytes(24)
        with pytest.raises(TraceFormatError, match="opcode index"):
            _read(BINARY_MAGIC_V3 + block)

    def test_truncated_src_list_rejected(self):
        event = TraceEvent(Opcode.FMUL, 1.0, 2.0, 2.0, srcs=(1, 2, 3))
        blob = _write([event])
        with pytest.raises(TraceFormatError, match="truncated"):
            _read(blob[:-4])

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            _read(b"")


class TestDegenerateShapes:
    """Zero-length and single-opcode traces (the fuzzer's size floor)."""

    def test_zero_length_trace_round_trips_all_versions(self):
        assert _read(_write([])) == []

    def test_zero_length_v3_column_blocks(self):
        blob = _write([])
        assert blob == BINARY_MAGIC_V3  # no blocks at all, not one empty
        blocks = list(read_column_blocks(io.BytesIO(blob)))
        assert blocks == [] or sum(len(b) for b in blocks) == 0
        batch = ColumnBatch.from_events([])
        buffer = io.BytesIO()
        assert write_column_trace(batch, buffer) == 0
        assert _read(buffer.getvalue()) == []

    def test_zero_length_v3_block_embedded_mid_stream(self):
        """An empty block between two real ones must decode as a no-op."""
        events = [
            TraceEvent(Opcode.FMUL, 1.5, 2.0, 3.0, dst=1, srcs=(0,), pc=4),
            TraceEvent(Opcode.IDIV, 7, 2, 3, dst=2, srcs=(1,)),
            TraceEvent(Opcode.LOAD, address=0x1000),
        ]
        batch = ColumnBatch.from_events(events)
        stream = io.BytesIO()
        stream.write(BINARY_MAGIC_V3)
        _write_block(stream, batch, 0, 1)
        _write_block(stream, batch, 1, 1)  # zero events
        _write_block(stream, batch, 1, len(events))
        restored = _read(stream.getvalue())
        assert [_key(e) for e in restored] == [_key(e) for e in events]

    @given(
        st.sampled_from(_FLOAT_MEMO + _INT_MEMO + _PLAIN),
        st.data(),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60)
    def test_single_opcode_traces_round_trip(self, opcode, data, size):
        """Traces of one repeated opcode (including size zero) survive v3."""
        if opcode in _INT_MEMO:
            events = [
                TraceEvent(
                    opcode, data.draw(_int64), data.draw(_int64),
                    data.draw(_int64),
                )
                for _ in range(size)
            ]
        elif opcode in _FLOAT_MEMO:
            events = [
                TraceEvent(
                    opcode, data.draw(_any_float), data.draw(_any_float),
                    data.draw(_any_float),
                )
                for _ in range(size)
            ]
        else:
            events = [TraceEvent(opcode) for _ in range(size)]
        restored = _read(_write(events))
        assert len(restored) == size
        assert [_key(e) for e in restored] == [_key(e) for e in events]
