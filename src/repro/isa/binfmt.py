"""Compact binary trace format (v3, magic ``RPROTRC3``).

The text format (:mod:`repro.isa.trace`) is greppable but ~50 bytes per
event; full-size workload runs produce tens of millions of events, so
archives use a columnar binary format: an 8-byte magic, then a sequence
of blocks, each holding up to :data:`~repro.isa.columns.
DEFAULT_BATCH_EVENTS` events as the parallel columns of a
:class:`~repro.isa.columns.ColumnBatch`.

Integer operands are stored as two's-complement int64 (flag bit 0),
float operands as raw IEEE-754 bits, so round-trips are exact.  The
format keeps everything the recorder produced -- operands of any opcode,
load/store addresses, synthetic PCs and dataflow ``dst``/``srcs`` ids --
so PC-indexed schemes (the Reuse Buffer) and the hazard-aware pipeline
replay identically from disk.

:func:`write_column_trace` is the one writer and
:func:`read_column_blocks` the one reader.  The reader deserializes
straight into batches and never builds an event object, which is what
makes corpus replay fast; :meth:`ColumnBatch.concat
<repro.isa.columns.ColumnBatch.concat>` joins its blocks into one trace.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import BinaryIO, Iterator, Union

from ..errors import TraceFormatError
from .columns import (
    _F_ADDRESS,
    _F_DST,
    _F_INT,
    _F_PC,
    DEFAULT_BATCH_EVENTS,
    ColumnBatch,
)
from .opcodes import OPCODE_LIST
from .trace import Trace

__all__ = [
    "write_column_trace",
    "read_column_blocks",
    "BINARY_MAGIC_V3",
]

BINARY_MAGIC_V3 = b"RPROTRC3"

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
_FLAG_MASK = _F_INT | _F_ADDRESS | _F_PC | _F_DST


def _le_bytes(column) -> bytes:
    if sys.byteorder == "little":
        return column.tobytes()
    clone = array(column.typecode, column)
    clone.byteswap()
    return clone.tobytes()


def _column_from_le(typecode: str, blob: bytes) -> array:
    column = array(typecode)
    column.frombytes(blob)
    if sys.byteorder != "little":
        column.byteswap()
    return column


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    blob = stream.read(size)
    if len(blob) != size:
        raise TraceFormatError(f"truncated binary trace {what}")
    return blob


def _write_block(
    stream: BinaryIO, batch: ColumnBatch, start: int, stop: int
) -> None:
    n = stop - start
    flags = batch.flags_col[start:stop]
    or_flags = 0
    for value in flags:
        or_flags |= value
    src_lo = batch.src_offsets[start]
    src_hi = batch.src_offsets[stop]
    presence = 0
    if or_flags & _F_ADDRESS:
        presence |= _P_ADDRESS
    if or_flags & _F_PC:
        presence |= _P_PC
    if or_flags & _F_DST:
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
        offsets = array(
            "I", (bound - src_lo for bound in batch.src_offsets[start:stop + 1])
        )
        stream.write(_le_bytes(offsets))
        stream.write(_le_bytes(batch.srcs_col[src_lo:src_hi]))


def write_column_trace(
    source: Union[Trace, ColumnBatch], stream: BinaryIO
) -> int:
    """Serialize a trace as columnar blocks; returns events written.

    A :class:`~repro.isa.trace.Trace` is written from its columns, so no
    event objects are built.  Events whose operands no fixed column can
    hold (see :class:`~repro.isa.columns.ColumnBatch`) are rejected
    before anything is written.
    """
    batch = source.columns() if isinstance(source, Trace) else source
    if batch.wide:
        index = min(batch.wide)
        opcode = OPCODE_LIST[batch.opcode_col[index]]
        raise TraceFormatError(
            f"event {index} ({opcode.value}) has operands beyond int64 "
            f"or float64 range; such a trace cannot be archived"
        )
    stream.write(BINARY_MAGIC_V3)
    total = len(batch)
    for start in range(0, total, DEFAULT_BATCH_EVENTS):
        _write_block(
            stream, batch, start, min(start + DEFAULT_BATCH_EVENTS, total)
        )
    return total


def read_column_blocks(stream: BinaryIO) -> Iterator[ColumnBatch]:
    """Yield the :class:`~repro.isa.columns.ColumnBatch` blocks of a trace.

    Any input that is not a complete ``RPROTRC3`` stream -- another
    magic, a truncated block, an unknown opcode or flag bit -- raises
    :class:`~repro.errors.TraceFormatError`.
    """
    magic = stream.read(len(BINARY_MAGIC_V3))
    if magic != BINARY_MAGIC_V3:
        raise TraceFormatError(
            f"bad magic {magic!r}; not a binary trace "
            f"(expected {BINARY_MAGIC_V3!r})"
        )
    header_size = _BLOCK_HEADER.size
    limit = len(OPCODE_LIST)
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
        for code in batch.opcode_col:
            if code >= limit:
                raise TraceFormatError(f"unknown opcode index {code}")
        batch.flags_col = _column_from_le(
            "B", _read_exact(stream, n, "flags column")
        )
        for flag_bits in batch.flags_col:
            if flag_bits & ~_FLAG_MASK:
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
            batch.src_offsets = array("Q", offsets)
            batch.srcs_col = _column_from_le(
                "q", _read_exact(stream, 8 * offsets[-1], "src ids")
            )
        else:
            batch.src_offsets = array("Q", bytes(8 * (n + 1)))
            batch.srcs_col = array("q")
        yield batch
