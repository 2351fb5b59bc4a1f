"""Columnar (struct-of-arrays) traces: the one in-memory representation.

A :class:`ColumnBatch` holds a trace as parallel fixed-width columns --
one ``array('B')`` of opcode indices, one of per-event flags, int64
columns for operands/result/address/pc/dst and a flattened srcs column
-- so the simulator kernel (:mod:`repro.core.kernel`) can partition a
whole trace by opcode, extract index/tag columns and trivial-operand
masks with numpy, and probe the MEMO-TABLES without touching an event
object.  The corpus stores the same columns as v3 blocks.

Traces are born columnar: the workload recorder and the ISA machine
append each operation to a :class:`ColumnAccumulator`, whose
:meth:`~ColumnAccumulator.batch` turns the float64 operand buffers into
int64 bit columns with one reinterpretation.  :class:`TraceEvent`
objects exist only as the event view (:meth:`ColumnBatch.to_events`)
that the scalar reference and the oracle walk;
:meth:`ColumnBatch.append` / :meth:`ColumnBatch.from_events` is the one
event-to-column converter, for traces that arrive as events (the text
format, generated test cases), and :func:`repro.core.kernel.as_batch`
calls it once for any simulator handed a plain event iterable.

The columns are the binary trace format's (:mod:`repro.isa.binfmt`), so
a batch serializes to blocks verbatim:

* operands are stored as int64 values when ``a``/``b``/``result`` are
  all non-bool ints (``_F_INT``), otherwise as the raw IEEE-754 bit
  patterns of their float64 coercion;
* optional fields (``address``/``pc``/``dst``) store 0 with their flag
  bit clear when absent, so ``None`` round-trips;
* the rare event a fixed column cannot hold (an out-of-int64 integer
  operand, or a mixed int/float triple whose float coercion overflows)
  is marked ``_F_WIDE`` and kept verbatim in a side table; such events
  reconstruct exactly but cannot be serialized (the writer rejects
  them).

Batches reconstruct their events bit-exactly: NaN payloads, ``-0.0``
and int64 corner values all survive the round trip.
"""

from __future__ import annotations

import functools
import gc
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..arch.ieee754 import bits_to_float64, float64_to_bits
from .opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from .trace import Trace, TraceEvent

__all__ = ["ColumnAccumulator", "ColumnBatch", "DEFAULT_BATCH_EVENTS"]

#: Events per block in serialized form: large enough that the per-block
#: fixed costs amortize, small enough to keep one block resident.
DEFAULT_BATCH_EVENTS = 65536

# Per-event flag bits (shared with the on-disk block format, where
# _F_WIDE never appears -- the writer rejects wide events).
_F_INT = 1
_F_ADDRESS = 2
_F_PC = 4
_F_DST = 8
_F_WIDE = 16

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_U64_MASK = 0xFFFFFFFFFFFFFFFF


#: TraceEvent from a complete field tuple, with no per-call Python frame.
_make_event = functools.partial(tuple.__new__, TraceEvent)


def _signed(bits: int) -> int:
    bits &= _U64_MASK
    return bits - (1 << 64) if bits >> 63 else bits


class _Views:
    """Cached numpy views over a batch's columns (zero-copy), and the
    state the probe kernel derives from them: ``probes``, the batch's
    probe memo (:mod:`repro.core.kernel` owns its keys and entries)."""

    __slots__ = (
        "length", "opcode", "flags", "a_i", "b_i", "r_i",
        "a_f", "b_f", "r_f", "address", "pc", "dst", "probes",
    )

    def __init__(self, batch: "ColumnBatch") -> None:
        import numpy as np

        self.length = len(batch)
        self.opcode = np.frombuffer(batch.opcode_col, dtype=np.uint8)
        self.flags = np.frombuffer(batch.flags_col, dtype=np.uint8)
        self.a_i = np.frombuffer(batch.a_col, dtype=np.int64)
        self.b_i = np.frombuffer(batch.b_col, dtype=np.int64)
        self.r_i = np.frombuffer(batch.result_col, dtype=np.int64)
        self.a_f = self.a_i.view(np.float64)
        self.b_f = self.b_i.view(np.float64)
        self.r_f = self.r_i.view(np.float64)
        self.address = np.frombuffer(batch.address_col, dtype=np.int64)
        self.pc = np.frombuffer(batch.pc_col, dtype=np.int64)
        self.dst = np.frombuffer(batch.dst_col, dtype=np.int64)
        self.probes: dict = {}


class ColumnBatch:
    """A trace slice as parallel columns (see module docstring).

    A batch may grow (``append``, ``extend_batch``), but its columns
    are immutable once probed: nothing rewrites an existing event.  The
    cached views and the probe memo the kernel keeps with them
    (:meth:`views`), and the event view (:meth:`to_events`), are
    derived from the columns; they are rebuilt, and the memo dropped,
    when the batch grows, and an in-place write would leave them
    stale."""

    __slots__ = (
        "opcode_col", "flags_col", "a_col", "b_col", "result_col",
        "address_col", "pc_col", "dst_col", "src_offsets", "srcs_col",
        "wide", "_views", "_events",
    )

    def __init__(self) -> None:
        self.opcode_col = array("B")
        self.flags_col = array("B")
        self.a_col = array("q")
        self.b_col = array("q")
        self.result_col = array("q")
        self.address_col = array("q")
        self.pc_col = array("q")
        self.dst_col = array("q")
        #: Prefix-sum boundaries into :attr:`srcs_col`; length ``n + 1``.
        self.src_offsets = array("Q", [0])
        self.srcs_col = array("q")
        #: index -> (a, b, result) for events the fixed columns cannot hold.
        self.wide: Dict[int, Tuple] = {}
        self._views: Optional[_Views] = None
        self._events: Optional[List[TraceEvent]] = None

    # -- construction ------------------------------------------------------

    def append(self, event: TraceEvent) -> None:
        flags = 0
        a = b = result = 0
        ea, eb, er = event.a, event.b, event.result
        if (
            isinstance(ea, int) and isinstance(eb, int)
            and isinstance(er, int)
            and not (
                isinstance(ea, bool) or isinstance(eb, bool)
                or isinstance(er, bool)
            )
        ):
            if (
                _INT64_MIN <= ea <= _INT64_MAX
                and _INT64_MIN <= eb <= _INT64_MAX
                and _INT64_MIN <= er <= _INT64_MAX
            ):
                flags |= _F_INT
                a, b, result = ea, eb, er
            else:
                flags |= _F_WIDE
                self.wide[len(self.opcode_col)] = (ea, eb, er)
        else:
            try:
                a = _signed(float64_to_bits(float(ea)))
                b = _signed(float64_to_bits(float(eb)))
                result = _signed(float64_to_bits(float(er)))
            except OverflowError:
                flags |= _F_WIDE
                a = b = result = 0
                self.wide[len(self.opcode_col)] = (ea, eb, er)
        address = pc = dst = 0
        if event.address is not None:
            flags |= _F_ADDRESS
            address = event.address
        if event.pc is not None:
            flags |= _F_PC
            pc = event.pc
        if event.dst is not None:
            flags |= _F_DST
            dst = event.dst
        self.opcode_col.append(OPCODE_INDEX[event.opcode])
        self.flags_col.append(flags)
        self.a_col.append(a)
        self.b_col.append(b)
        self.result_col.append(result)
        self.address_col.append(address)
        self.pc_col.append(pc)
        self.dst_col.append(dst)
        if event.srcs:
            self.srcs_col.extend(event.srcs)
        self.src_offsets.append(len(self.srcs_col))

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.append(event)

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "ColumnBatch":
        batch = cls()
        batch.extend(events)
        return batch

    @classmethod
    def concat(cls, blocks: Iterable["ColumnBatch"]) -> "ColumnBatch":
        """Join ``blocks`` into one batch by extending the first in place."""
        merged: Optional[ColumnBatch] = None
        for block in blocks:
            if merged is None:
                merged = block
            else:
                merged.extend_batch(block)
        return merged if merged is not None else cls()

    def extend_batch(self, other: "ColumnBatch") -> None:
        """Append every event of ``other`` (column-level concatenation)."""
        offset = len(self.opcode_col)
        src_base = len(self.srcs_col)
        self.opcode_col.extend(other.opcode_col)
        self.flags_col.extend(other.flags_col)
        self.a_col.extend(other.a_col)
        self.b_col.extend(other.b_col)
        self.result_col.extend(other.result_col)
        self.address_col.extend(other.address_col)
        self.pc_col.extend(other.pc_col)
        self.dst_col.extend(other.dst_col)
        self.srcs_col.extend(other.srcs_col)
        self.src_offsets.extend(
            src_base + bound for bound in other.src_offsets[1:]
        )
        for index, triple in other.wide.items():
            self.wide[offset + index] = triple

    # -- numpy views -------------------------------------------------------

    def views(self) -> _Views:
        """Zero-copy numpy views and the probe memo; rebuilt (the memo
        emptied) whenever the batch has grown (``array`` reallocation
        invalidates older buffers)."""
        if self._views is None or self._views.length != len(self):
            self._views = _Views(self)
        return self._views

    # -- reconstruction ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.opcode_col)

    def operand_triple(self, index: int) -> Tuple:
        """Raw ``(a, b, result)`` of one event, wide-aware."""
        flags = self.flags_col[index]
        if flags & _F_WIDE:
            return self.wide[index]
        if flags & _F_INT:
            return (
                self.a_col[index], self.b_col[index], self.result_col[index]
            )
        return (
            bits_to_float64(self.a_col[index] & _U64_MASK),
            bits_to_float64(self.b_col[index] & _U64_MASK),
            bits_to_float64(self.result_col[index] & _U64_MASK),
        )

    def srcs_for(self, index: int) -> tuple:
        lo, hi = self.src_offsets[index], self.src_offsets[index + 1]
        return tuple(self.srcs_col[lo:hi])

    def __getitem__(self, index: int) -> TraceEvent:
        # Indexing parity with list-backed traces: code that windows a
        # trace by position does events[i].
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("ColumnBatch index out of range")
        return self.event(index)

    def event(self, index: int) -> TraceEvent:
        flags = self.flags_col[index]
        a, b, result = self.operand_triple(index)
        return TraceEvent(
            OPCODE_LIST[self.opcode_col[index]],
            a,
            b,
            result,
            address=self.address_col[index] if flags & _F_ADDRESS else None,
            dst=self.dst_col[index] if flags & _F_DST else None,
            srcs=self.srcs_for(index),
            pc=self.pc_col[index] if flags & _F_PC else None,
        )

    def to_events(self) -> List[TraceEvent]:
        """The event view: the whole batch materialized (the bulk
        inverse of append) on first use and cached until the batch
        grows, for the code that walks events one at a time (the
        scalar probe loop, the oracle).  Callers share the list and
        must not modify it."""
        if self._events is None or len(self._events) != len(self):
            self._events = self._materialize()
        return self._events

    def _materialize(self) -> List[TraceEvent]:
        """Columns convert to Python values in bulk (float bit patterns
        reinterpret exactly, so NaN payloads survive); only integer and
        wide operands are patched event by event."""
        import numpy as np

        flags = np.frombuffer(self.flags_col, dtype=np.uint8)
        ints = np.flatnonzero(flags & _F_INT).tolist()
        operands = []
        for col in (self.a_col, self.b_col, self.result_col):
            values = np.frombuffer(col, dtype=np.float64).tolist()
            for index in ints:
                values[index] = col[index]
            operands.append(values)
        for index, triple in self.wide.items():
            for values, value in zip(operands, triple):
                values[index] = value

        def optional(col, bit):
            values = np.full(len(flags), None, dtype=object)
            present = np.flatnonzero(flags & bit)
            values[present] = np.frombuffer(col, dtype=np.int64)[
                present
            ].astype(object)
            return values.tolist()

        srcs = self.srcs_col.tolist()
        offsets = self.src_offsets.tolist()
        # Every event is a new GC-tracked tuple; collecting while the
        # list grows would re-walk it many times over.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return list(
                map(
                    _make_event,
                    zip(
                        map(OPCODE_LIST.__getitem__, self.opcode_col),
                        *operands,
                        optional(self.address_col, _F_ADDRESS),
                        optional(self.dst_col, _F_DST),
                        [tuple(srcs[lo:hi]) for lo, hi in zip(offsets, offsets[1:])],
                        optional(self.pc_col, _F_PC),
                    ),
                )
            )
        finally:
            if collecting:
                gc.enable()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.to_events())

    def breakdown(self) -> Dict[Opcode, int]:
        """Instruction frequency breakdown without materializing events,
        keyed in first-occurrence order (as counting the events would)."""
        import numpy as np

        codes, first, counts = np.unique(
            self.views().opcode, return_index=True, return_counts=True
        )
        return {
            OPCODE_LIST[codes[i]]: int(counts[i]) for i in np.argsort(first)
        }


class ColumnAccumulator:
    """Appends operations straight into columns, one call per event.

    The workload recorder and the ISA machine write here instead of
    building :class:`TraceEvent` objects.  ``code`` is an opcode's column
    index (:data:`~repro.isa.opcodes.OPCODE_INDEX`).  Float operands go
    into float64 buffers that :meth:`batch` reinterprets as the int64 bit
    columns; integer operands keep :meth:`ColumnBatch.append`'s int64
    range check and its ``_F_WIDE`` side table.  Every event a caller can
    append encodes exactly as ``append`` encodes the equivalent event.
    """

    __slots__ = (
        "opcode_col", "flags_col", "a_col", "b_col", "result_col",
        "address_col", "pc_col", "dst_col", "src_offsets", "srcs_col",
        "ints", "wide", "_trace",
    )

    def __init__(self) -> None:
        self.opcode_col = array("B")
        self.flags_col = array("B")
        # Integer-operand events hold 0.0 here; their values wait in
        # ``ints`` (or ``wide``) until batch() places them.
        self.a_col = array("d")
        self.b_col = array("d")
        self.result_col = array("d")
        self.address_col = array("q")
        self.pc_col = array("q")
        self.dst_col = array("q")
        self.src_offsets = array("Q", [0])
        self.srcs_col = array("q")
        #: (index, a, b, result) of each in-range integer-operand event.
        self.ints: List[Tuple[int, int, int, int]] = []
        self.wide: Dict[int, Tuple] = {}
        self._trace: Optional[Trace] = None

    def __len__(self) -> int:
        return len(self.opcode_col)

    # The three appenders below are the recording hot path: each writes
    # every column inline rather than through a shared helper.

    def float_op(
        self, code: int, a: float, b: float, result: float,
        dst: Optional[int] = None, srcs: tuple = (), pc: Optional[int] = None,
    ) -> None:
        """An event whose operands and result are floats."""
        self.opcode_col.append(code)
        self.flags_col.append(
            (0 if pc is None else _F_PC) | (0 if dst is None else _F_DST)
        )
        self.a_col.append(a)
        self.b_col.append(b)
        self.result_col.append(result)
        self.address_col.append(0)
        self.pc_col.append(0 if pc is None else pc)
        self.dst_col.append(0 if dst is None else dst)
        if srcs:
            self.srcs_col.extend(srcs)
        self.src_offsets.append(len(self.srcs_col))

    def int_op(
        self, code: int, a: int, b: int, result: int,
        dst: Optional[int] = None, srcs: tuple = (), pc: Optional[int] = None,
    ) -> None:
        """An event whose operands and result are (unbounded) ints."""
        index = len(self.opcode_col)
        if (
            _INT64_MIN <= a <= _INT64_MAX
            and _INT64_MIN <= b <= _INT64_MAX
            and _INT64_MIN <= result <= _INT64_MAX
        ):
            flags = _F_INT
            self.ints.append((index, a, b, result))
        else:
            flags = _F_WIDE
            self.wide[index] = (a, b, result)
        self.opcode_col.append(code)
        self.flags_col.append(
            flags | (0 if pc is None else _F_PC) | (0 if dst is None else _F_DST)
        )
        self.a_col.append(0.0)
        self.b_col.append(0.0)
        self.result_col.append(0.0)
        self.address_col.append(0)
        self.pc_col.append(0 if pc is None else pc)
        self.dst_col.append(0 if dst is None else dst)
        if srcs:
            self.srcs_col.extend(srcs)
        self.src_offsets.append(len(self.srcs_col))

    def plain(
        self, code: int, address: Optional[int] = None,
        dst: Optional[int] = None, srcs: tuple = (), pc: Optional[int] = None,
    ) -> None:
        """An event without operands (memory access, ALU, branch, nop)."""
        self.opcode_col.append(code)
        self.flags_col.append(
            (0 if address is None else _F_ADDRESS)
            | (0 if pc is None else _F_PC)
            | (0 if dst is None else _F_DST)
        )
        self.a_col.append(0.0)
        self.b_col.append(0.0)
        self.result_col.append(0.0)
        self.address_col.append(0 if address is None else address)
        self.pc_col.append(0 if pc is None else pc)
        self.dst_col.append(0 if dst is None else dst)
        if srcs:
            self.srcs_col.extend(srcs)
        self.src_offsets.append(len(self.srcs_col))

    def plain_run(self, codes: bytes) -> None:
        """``len(codes)`` bare operand-free events (no address, pc or
        dataflow), e.g. one loop iteration's overhead."""
        n = len(codes)
        zeros = (0,) * n
        self.opcode_col.frombytes(codes)
        self.flags_col.frombytes(bytes(n))
        self.a_col.extend((0.0,) * n)
        self.b_col.extend((0.0,) * n)
        self.result_col.extend((0.0,) * n)
        self.address_col.extend(zeros)
        self.pc_col.extend(zeros)
        self.dst_col.extend(zeros)
        self.src_offsets.extend((len(self.srcs_col),) * n)

    def batch(self) -> ColumnBatch:
        """A :class:`ColumnBatch` of everything appended so far (a copy:
        appending may continue)."""
        batch = ColumnBatch()
        batch.opcode_col = self.opcode_col[:]
        batch.flags_col = self.flags_col[:]
        for name in ("a_col", "b_col", "result_col"):
            bits = array("q")
            bits.frombytes(memoryview(getattr(self, name)).cast("B"))
            setattr(batch, name, bits)
        a_col, b_col, r_col = batch.a_col, batch.b_col, batch.result_col
        for index, a, b, result in self.ints:
            a_col[index] = a
            b_col[index] = b
            r_col[index] = result
        batch.address_col = self.address_col[:]
        batch.pc_col = self.pc_col[:]
        batch.dst_col = self.dst_col[:]
        batch.src_offsets = self.src_offsets[:]
        batch.srcs_col = self.srcs_col[:]
        batch.wide = dict(self.wide)
        return batch

    def trace(self) -> Trace:
        """A :class:`~repro.isa.trace.Trace` of everything appended so
        far, reused until the next append."""
        if self._trace is None or len(self._trace) != len(self):
            self._trace = Trace(columns=self.batch())
        return self._trace
