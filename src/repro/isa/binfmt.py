"""Compact binary trace format.

The text format (:mod:`repro.isa.trace`) is greppable but ~50 bytes per
event; full-size workload runs produce tens of millions of events, so a
fixed-width binary record keeps archives practical:

========  =====  =========================================
field     bytes  contents
========  =====  =========================================
opcode        1  index into the Opcode enum
flags         1  bit 0: operands present, bit 1: address present
a             8  operand bit pattern (IEEE-754 or int64)
b             8  operand bit pattern
result        8  result bit pattern
address       8  load/store address
========  =====  =========================================

Integer-multiply operands are stored as two's-complement int64 (flag
bit 2 marks them), float operands as raw IEEE-754 bits, so round-trips
are exact.  A 8-byte magic + version header guards the format.

Two on-disk versions exist:

* **v1** (``RPROTRC1``) is the fixed 34-byte record above.  It archives
  value streams only -- dataflow (``dst``/``srcs``) and PC annotations
  are dropped, the same information Shade recorded.
* **v2** (``RPROTRC2``) appends optional variable-length annotation
  fields after the fixed record, marked by three extra flag bits: a
  synthetic PC (bit 3), a dataflow destination id (bit 4) and a
  source-id list (bit 5: one count byte then that many ids).  v2 exists
  so the trace corpus can persist *exactly* what the recorder produced;
  PC-indexed schemes (the Reuse Buffer) and the hazard-aware pipeline
  replay identically from disk.
* **v3** (``RPROTRC3``) is the columnar block format: the stream is a
  sequence of blocks, each holding up to :data:`~repro.isa.columns.
  DEFAULT_BATCH_EVENTS` events as the parallel columns of a
  :class:`~repro.isa.columns.ColumnBatch` (opcode bytes, flag bytes,
  little-endian int64 operand/result columns, then address/pc/dst/srcs
  columns present only when some event in the block uses them).  It
  archives exactly the v2 information, but deserializes straight into
  batches -- :func:`read_column_blocks` never builds an event object,
  which is what makes corpus replay fast.

Readers accept all versions transparently; :func:`read_column_blocks`
adapts v1/v2 streams into batches so every consumer can be columnar.
Writers default to v1 for compatibility.
"""

from __future__ import annotations

import struct
import sys
from typing import BinaryIO, Iterable, Iterator, Optional

from ..errors import TraceFormatError
from .opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from .trace import TraceEvent
from ..arch.ieee754 import bits_to_float64, float64_to_bits

__all__ = [
    "write_binary_trace",
    "read_binary_trace",
    "write_column_trace",
    "read_column_blocks",
    "BINARY_MAGIC",
    "BINARY_MAGIC_V2",
    "BINARY_MAGIC_V3",
]

BINARY_MAGIC = b"RPROTRC1"
BINARY_MAGIC_V2 = b"RPROTRC2"
BINARY_MAGIC_V3 = b"RPROTRC3"

_RECORD = struct.Struct("<BBqqqq")
_QWORD = struct.Struct("<q")
_OPCODES = list(OPCODE_LIST)
_OPCODE_INDEX = OPCODE_INDEX

_FLAG_OPERANDS = 1
_FLAG_ADDRESS = 2
_FLAG_INT_OPERANDS = 4
# v2-only annotation flags.
_FLAG_PC = 8
_FLAG_DST = 16
_FLAG_SRCS = 32

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _signed(bits: int) -> int:
    bits &= 0xFFFFFFFFFFFFFFFF
    return bits - (1 << 64) if bits >> 63 else bits


def write_binary_trace(
    events: Iterable[TraceEvent], stream: BinaryIO, version: int = 1
) -> int:
    """Serialize events; returns the number written.

    ``version=1`` archives the value stream only (dataflow and PC
    annotations dropped); ``version=2`` appends the annotations so the
    round-trip is lossless.  Integer-multiply operands outside int64
    range are rejected (they could not exist in a real register trace).
    """
    if version == 3:
        return write_column_trace(events, stream)
    if version == 1:
        stream.write(BINARY_MAGIC)
    elif version == 2:
        stream.write(BINARY_MAGIC_V2)
    else:
        raise TraceFormatError(f"unknown binary trace version {version!r}")
    annotate = version == 2
    count = 0
    pack = _RECORD.pack
    pack_q = _QWORD.pack
    for event in events:
        flags = 0
        a = b = result = address = 0
        # v1 archives operands of memoizable opcodes only (the value
        # stream Shade kept); v2 keeps any operands the recorder
        # attached -- e.g. fp-add values -- so round-trips are lossless.
        has_operands = event.opcode.is_memoizable or (
            annotate
            and not (event.a == 0 and event.b == 0 and event.result == 0)
        )
        if has_operands:
            flags |= _FLAG_OPERANDS
            as_int = (
                event.opcode in (Opcode.IMUL, Opcode.IDIV)
                if not annotate
                else all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in (event.a, event.b, event.result)
                )
            )
            if as_int:
                flags |= _FLAG_INT_OPERANDS
                for value in (event.a, event.b, event.result):
                    if not _INT64_MIN <= int(value) <= _INT64_MAX:
                        raise TraceFormatError(
                            f"integer operand {value} exceeds int64 range"
                        )
                a, b, result = int(event.a), int(event.b), int(event.result)
            else:
                a = _signed(float64_to_bits(float(event.a)))
                b = _signed(float64_to_bits(float(event.b)))
                result = _signed(float64_to_bits(float(event.result)))
        elif event.opcode.is_memory:
            flags |= _FLAG_ADDRESS
            address = event.address or 0
        tail = b""
        if annotate:
            if event.pc is not None:
                flags |= _FLAG_PC
                tail += pack_q(event.pc)
            if event.dst is not None:
                flags |= _FLAG_DST
                tail += pack_q(event.dst)
            if event.srcs:
                if len(event.srcs) > 255:
                    raise TraceFormatError(
                        f"event has {len(event.srcs)} sources; v2 caps at 255"
                    )
                flags |= _FLAG_SRCS
                tail += bytes((len(event.srcs),))
                for src in event.srcs:
                    tail += pack_q(src)
        stream.write(
            pack(_OPCODE_INDEX[event.opcode], flags, a, b, result, address)
            + tail
        )
        count += 1
    return count


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    blob = stream.read(size)
    if len(blob) != size:
        raise TraceFormatError(f"truncated binary trace {what}")
    return blob


def read_binary_trace(stream: BinaryIO) -> Iterator[TraceEvent]:
    """Parse events written by :func:`write_binary_trace` (v1, v2 or v3)."""
    magic = stream.read(len(BINARY_MAGIC))
    if magic == BINARY_MAGIC:
        annotated = False
    elif magic == BINARY_MAGIC_V2:
        annotated = True
    elif magic == BINARY_MAGIC_V3:
        for batch in _read_v3_blocks(stream):
            yield from batch.to_events()
        return
    else:
        raise TraceFormatError(
            f"bad magic {magic!r}; not a binary trace (expected "
            f"{BINARY_MAGIC!r}, {BINARY_MAGIC_V2!r} or {BINARY_MAGIC_V3!r})"
        )
    yield from _read_records(stream, annotated)


def _read_records(stream: BinaryIO, annotated: bool) -> Iterator[TraceEvent]:
    """Yield the fixed-record events of a v1/v2 stream (magic consumed)."""
    record_size = _RECORD.size
    unpack = _RECORD.unpack
    unpack_q = _QWORD.unpack
    while True:
        blob = stream.read(record_size)
        if not blob:
            return
        if len(blob) != record_size:
            raise TraceFormatError("truncated binary trace record")
        opcode_index, flags, a, b, result, address = unpack(blob)
        try:
            opcode = _OPCODES[opcode_index]
        except IndexError:
            raise TraceFormatError(
                f"unknown opcode index {opcode_index}"
            ) from None
        pc = dst = None
        srcs: tuple = ()
        if annotated:
            if flags & _FLAG_PC:
                pc = unpack_q(_read_exact(stream, 8, "pc field"))[0]
            if flags & _FLAG_DST:
                dst = unpack_q(_read_exact(stream, 8, "dst field"))[0]
            if flags & _FLAG_SRCS:
                n = _read_exact(stream, 1, "srcs count")[0]
                srcs = tuple(
                    unpack_q(_read_exact(stream, 8, "src field"))[0]
                    for _ in range(n)
                )
        elif flags & (_FLAG_PC | _FLAG_DST | _FLAG_SRCS):
            raise TraceFormatError(
                "annotation flags present in a v1 binary trace record"
            )
        if flags & _FLAG_OPERANDS:
            if flags & _FLAG_INT_OPERANDS:
                yield TraceEvent(opcode, a, b, result, dst=dst, srcs=srcs, pc=pc)
            else:
                yield TraceEvent(
                    opcode,
                    bits_to_float64(a & 0xFFFFFFFFFFFFFFFF),
                    bits_to_float64(b & 0xFFFFFFFFFFFFFFFF),
                    bits_to_float64(result & 0xFFFFFFFFFFFFFFFF),
                    dst=dst,
                    srcs=srcs,
                    pc=pc,
                )
        elif flags & _FLAG_ADDRESS:
            yield TraceEvent(opcode, address=address, dst=dst, srcs=srcs, pc=pc)
        else:
            yield TraceEvent(opcode, dst=dst, srcs=srcs, pc=pc)


# -- v3: columnar blocks ----------------------------------------------------
#
# Stream layout: the 8-byte magic, then zero or more blocks.  Each block:
#
#   <u32 n_events> <u8 presence>
#   opcode column   (n bytes, codes into OPCODE_LIST)
#   flags column    (n bytes, the ColumnBatch flag bits)
#   a/b/result      (3 x 8n bytes, little-endian int64)
#   [address 8n]    if presence bit 1
#   [pc 8n]         if presence bit 2
#   [dst 8n]        if presence bit 4
#   [src offsets (n+1) x u32, then 8 x offsets[-1] src ids]  if bit 8
#
# Optional columns are omitted when no event in the block uses them; a
# reader fills zeros (the flag bits stay authoritative per event).  EOF
# is only legal on a block boundary; anything shorter raises.

_BLOCK_HEADER = struct.Struct("<IB")
_P_ADDRESS = 1
_P_PC = 2
_P_DST = 4
_P_SRCS = 8
# In-memory ColumnBatch flag bits legal on disk (everything but _F_WIDE).
_V3_FLAG_MASK = 1 | 2 | 4 | 8


def _le_bytes(column) -> bytes:
    if sys.byteorder == "little":
        return column.tobytes()
    from array import array as _array

    clone = _array(column.typecode, column)
    clone.byteswap()
    return clone.tobytes()


def _column_from_le(typecode: str, blob: bytes):
    from array import array as _array

    column = _array(typecode)
    column.frombytes(blob)
    if sys.byteorder != "little":
        column.byteswap()
    return column


def _reject_wide(batch, start: int, stop: int) -> None:
    """Raise exactly as the v2 writer would for unencodable operands."""
    for index in sorted(batch.wide):
        if not start <= index < stop:
            continue
        a, b, result = batch.wide[index]
        if all(
            isinstance(v, int) and not isinstance(v, bool)
            for v in (a, b, result)
        ):
            for value in (a, b, result):
                if not _INT64_MIN <= int(value) <= _INT64_MAX:
                    raise TraceFormatError(
                        f"integer operand {value} exceeds int64 range"
                    )
        # A mixed triple went wide because float coercion overflowed;
        # coercing again raises the same OverflowError the v2 writer
        # surfaces for such events.
        float(a), float(b), float(result)
        raise TraceFormatError(
            "unencodable wide operands"
        )  # pragma: no cover - unreachable by construction


def _write_block(stream: BinaryIO, batch, start: int, stop: int) -> None:
    n = stop - start
    if batch.wide:
        _reject_wide(batch, start, stop)
    flags = batch.flags_col[start:stop]
    or_flags = 0
    for value in flags:
        or_flags |= value
    src_lo = batch.src_offsets[start]
    src_hi = batch.src_offsets[stop]
    presence = 0
    if or_flags & 2:  # _F_ADDRESS
        presence |= _P_ADDRESS
    if or_flags & 4:  # _F_PC
        presence |= _P_PC
    if or_flags & 8:  # _F_DST
        presence |= _P_DST
    if src_hi > src_lo:
        presence |= _P_SRCS
    stream.write(_BLOCK_HEADER.pack(n, presence))
    stream.write(batch.opcode_col[start:stop].tobytes())
    stream.write(flags.tobytes())
    stream.write(_le_bytes(batch.a_col[start:stop]))
    stream.write(_le_bytes(batch.b_col[start:stop]))
    stream.write(_le_bytes(batch.result_col[start:stop]))
    if presence & _P_ADDRESS:
        stream.write(_le_bytes(batch.address_col[start:stop]))
    if presence & _P_PC:
        stream.write(_le_bytes(batch.pc_col[start:stop]))
    if presence & _P_DST:
        stream.write(_le_bytes(batch.dst_col[start:stop]))
    if presence & _P_SRCS:
        from array import array as _array

        offsets = _array(
            "I", (bound - src_lo for bound in batch.src_offsets[start:stop + 1])
        )
        stream.write(_le_bytes(offsets))
        stream.write(_le_bytes(batch.srcs_col[src_lo:src_hi]))


def write_column_trace(
    source, stream: BinaryIO, block_events: Optional[int] = None
) -> int:
    """Serialize a trace as v3 columnar blocks; returns events written.

    ``source`` may be a :class:`~repro.isa.columns.ColumnBatch`, a
    :class:`~repro.isa.trace.Trace` (its columnar view is used -- no
    event objects are materialized), or any iterable of events.
    """
    from .columns import ColumnBatch, DEFAULT_BATCH_EVENTS

    if block_events is None:
        block_events = DEFAULT_BATCH_EVENTS
    if block_events < 1:
        raise TraceFormatError(f"block_events must be >= 1, got {block_events}")
    stream.write(BINARY_MAGIC_V3)
    columns = getattr(source, "columns", None)
    if callable(columns):
        source = columns()
    if isinstance(source, ColumnBatch):
        total = len(source)
        for start in range(0, total, block_events):
            _write_block(stream, source, start, min(start + block_events, total))
        return total
    # Plain event iterable: batch incrementally so memory stays bounded.
    total = 0
    batch = ColumnBatch()
    for event in source:
        batch.append(event)
        if len(batch) >= block_events:
            _write_block(stream, batch, 0, len(batch))
            total += len(batch)
            batch = ColumnBatch()
    if len(batch):
        _write_block(stream, batch, 0, len(batch))
        total += len(batch)
    return total


def _read_v3_blocks(stream: BinaryIO) -> Iterator["object"]:
    """Yield ColumnBatch blocks of a v3 stream (magic already consumed)."""
    from array import array as _array

    from .columns import ColumnBatch

    header_size = _BLOCK_HEADER.size
    while True:
        header = stream.read(header_size)
        if not header:
            return
        if len(header) != header_size:
            raise TraceFormatError("truncated binary trace block header")
        n, presence = _BLOCK_HEADER.unpack(header)
        if presence & ~(_P_ADDRESS | _P_PC | _P_DST | _P_SRCS):
            raise TraceFormatError(
                f"unknown column presence bits 0x{presence:02x}"
            )
        batch = ColumnBatch()
        batch.opcode_col = _column_from_le(
            "B", _read_exact(stream, n, "opcode column")
        )
        limit = len(_OPCODES)
        for code in batch.opcode_col:
            if code >= limit:
                raise TraceFormatError(f"unknown opcode index {code}")
        batch.flags_col = _column_from_le(
            "B", _read_exact(stream, n, "flags column")
        )
        for flag_bits in batch.flags_col:
            if flag_bits & ~_V3_FLAG_MASK:
                raise TraceFormatError(
                    f"unknown event flag bits 0x{flag_bits:02x}"
                )
        batch.a_col = _column_from_le(
            "q", _read_exact(stream, 8 * n, "operand column")
        )
        batch.b_col = _column_from_le(
            "q", _read_exact(stream, 8 * n, "operand column")
        )
        batch.result_col = _column_from_le(
            "q", _read_exact(stream, 8 * n, "result column")
        )
        zeros = bytes(8 * n)
        batch.address_col = _column_from_le(
            "q",
            _read_exact(stream, 8 * n, "address column")
            if presence & _P_ADDRESS
            else zeros,
        )
        batch.pc_col = _column_from_le(
            "q",
            _read_exact(stream, 8 * n, "pc column")
            if presence & _P_PC
            else zeros,
        )
        batch.dst_col = _column_from_le(
            "q",
            _read_exact(stream, 8 * n, "dst column")
            if presence & _P_DST
            else zeros,
        )
        if presence & _P_SRCS:
            offsets = _column_from_le(
                "I", _read_exact(stream, 4 * (n + 1), "src offsets")
            )
            previous = offsets[0]
            if previous != 0:
                raise TraceFormatError("src offsets must start at 0")
            for bound in offsets:
                if bound < previous:
                    raise TraceFormatError("src offsets must be monotonic")
                previous = bound
            batch.src_offsets = _array("Q", offsets)
            batch.srcs_col = _column_from_le(
                "q", _read_exact(stream, 8 * offsets[-1], "src ids")
            )
        else:
            batch.src_offsets = _array("Q", bytes(8 * (n + 1)))
            batch.srcs_col = _array("q")
        yield batch


def read_column_blocks(
    stream: BinaryIO, block_events: Optional[int] = None
) -> Iterator["object"]:
    """Yield :class:`~repro.isa.columns.ColumnBatch` blocks of any version.

    v3 streams deserialize straight into their stored blocks; v1/v2
    streams are adapted through the record reader, grouped into blocks
    of ``block_events``.  This is the single entry point the corpus and
    the columnar simulators read traces through.
    """
    from .columns import ColumnBatch, DEFAULT_BATCH_EVENTS

    if block_events is None:
        block_events = DEFAULT_BATCH_EVENTS
    magic = stream.read(len(BINARY_MAGIC))
    if magic == BINARY_MAGIC_V3:
        yield from _read_v3_blocks(stream)
        return
    if magic == BINARY_MAGIC:
        annotated = False
    elif magic == BINARY_MAGIC_V2:
        annotated = True
    else:
        raise TraceFormatError(
            f"bad magic {magic!r}; not a binary trace (expected "
            f"{BINARY_MAGIC!r}, {BINARY_MAGIC_V2!r} or {BINARY_MAGIC_V3!r})"
        )
    batch = ColumnBatch()
    for event in _read_records(stream, annotated):
        batch.append(event)
        if len(batch) >= block_events:
            yield batch
            batch = ColumnBatch()
    if len(batch):
        yield batch
