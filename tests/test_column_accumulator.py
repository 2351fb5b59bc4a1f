"""The recording accumulator encodes exactly as the event converter does.

The recorder and the ISA machine append straight into columns through
:class:`ColumnAccumulator`; traces that arrive as events go through
:meth:`ColumnBatch.append`.  Both must produce identical columns for the
same event, or a trace would change with the path that built it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.columns import ColumnAccumulator, ColumnBatch
from repro.isa.opcodes import OPCODE_INDEX, Opcode
from repro.isa.trace import TraceEvent

_FLOAT_OPS = [Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT, Opcode.FADD, Opcode.FSIN]
_INT_OPS = [Opcode.IMUL, Opcode.IDIV]
_PLAIN_OPS = [Opcode.LOAD, Opcode.STORE, Opcode.IALU, Opcode.BRANCH, Opcode.NOP]

_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
# Spans int64 and well beyond it, so wide events appear.
_ints = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
)
_ids = st.integers(min_value=0, max_value=(1 << 63) - 1)
_maybe_id = st.one_of(st.none(), _ids)


@st.composite
def _event(draw):
    family = draw(st.sampled_from(["float", "int", "plain"]))
    annotations = dict(
        dst=draw(_maybe_id),
        srcs=tuple(draw(st.lists(_ids, max_size=3))),
        pc=draw(_maybe_id),
    )
    if family == "float":
        opcode = draw(st.sampled_from(_FLOAT_OPS))
        operands = (draw(_floats), draw(_floats), draw(_floats))
    elif family == "int":
        opcode = draw(st.sampled_from(_INT_OPS))
        operands = (draw(_ints), draw(_ints), draw(_ints))
    else:
        opcode = draw(st.sampled_from(_PLAIN_OPS))
        return TraceEvent(opcode, address=draw(_maybe_id), **annotations)
    return TraceEvent(opcode, *operands, **annotations)


def _accumulate(events):
    columns = ColumnAccumulator()
    for event in events:
        code = OPCODE_INDEX[event.opcode]
        tail = (event.dst, event.srcs, event.pc)
        if event.opcode in _FLOAT_OPS:
            columns.float_op(code, event.a, event.b, event.result, *tail)
        elif event.opcode in _INT_OPS:
            columns.int_op(code, event.a, event.b, event.result, *tail)
        else:
            columns.plain(code, event.address, *tail)
    return columns


_COLUMNS = (
    "opcode_col", "flags_col", "a_col", "b_col", "result_col",
    "address_col", "pc_col", "dst_col", "src_offsets", "srcs_col", "wide",
)


@given(st.lists(_event(), max_size=40))
@settings(max_examples=80)
def test_accumulated_columns_equal_converted_columns(events):
    accumulated = _accumulate(events).batch()
    converted = ColumnBatch.from_events(events)
    for name in _COLUMNS:
        assert getattr(accumulated, name) == getattr(converted, name), name


@given(st.lists(_event(), max_size=40))
@settings(max_examples=40)
def test_event_view_converts_back_to_the_same_columns(events):
    batch = _accumulate(events).batch()
    restored = batch.to_events()
    assert [e.opcode for e in restored] == [e.opcode for e in events]
    reconverted = ColumnBatch.from_events(restored)
    for name in _COLUMNS:
        assert getattr(reconverted, name) == getattr(batch, name), name


def test_snapshot_is_reused_until_the_next_append():
    columns = ColumnAccumulator()
    columns.plain_run(bytes([OPCODE_INDEX[Opcode.IALU]]) * 2)
    first = columns.trace()
    assert columns.trace() is first
    columns.float_op(OPCODE_INDEX[Opcode.FMUL], 2.0, 3.0, 6.0)
    second = columns.trace()
    assert second is not first
    assert len(first) == 2 and len(second) == 3
    assert second[2] == TraceEvent(Opcode.FMUL, 2.0, 3.0, 6.0)
