"""Instrumented execution: turning Python kernels into instruction traces.

The paper instruments real binaries with Shade; here, workload kernels
are ordinary Python functions written against an
:class:`OperationRecorder`, which

* performs each arithmetic operation (so the kernel really computes its
  output) while appending the matching event -- opcode, operands,
  result, dataflow edges and optional PC -- straight into the columns of
  a :class:`~repro.isa.columns.ColumnAccumulator`;
* tracks array accesses through :class:`TrackedArray` so loads/stores
  carry realistic addresses for the cache hierarchy;
* counts loop overhead (branch + index arithmetic) via :meth:`loop`.

No event object is built while recording: :attr:`OperationRecorder.trace`
hands the columns to the simulators as a :class:`~repro.isa.trace.Trace`,
so the operand values reaching the MEMO-TABLES are the values the
computation actually produced -- value locality is emergent, not
synthesized.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from ..core.operations import (
    ieee_cos,
    ieee_div,
    ieee_log,
    ieee_sin,
    ieee_sqrt,
    int_div,
)
from ..isa.columns import ColumnAccumulator
from ..isa.opcodes import OPCODE_INDEX, Opcode
from ..isa.trace import Trace

__all__ = ["OperationRecorder", "TrackedArray", "TracedValue", "TracedInt"]

# Column codes of the opcodes the recorder appends; IALU and BRANCH are
# one-byte runs for ColumnAccumulator.plain_run.
_IMUL = OPCODE_INDEX[Opcode.IMUL]
_IDIV = OPCODE_INDEX[Opcode.IDIV]
_FMUL = OPCODE_INDEX[Opcode.FMUL]
_FDIV = OPCODE_INDEX[Opcode.FDIV]
_FSQRT = OPCODE_INDEX[Opcode.FSQRT]
_FRECIP = OPCODE_INDEX[Opcode.FRECIP]
_FLOG = OPCODE_INDEX[Opcode.FLOG]
_FSIN = OPCODE_INDEX[Opcode.FSIN]
_FCOS = OPCODE_INDEX[Opcode.FCOS]
_FADD = OPCODE_INDEX[Opcode.FADD]
_LOAD = OPCODE_INDEX[Opcode.LOAD]
_STORE = OPCODE_INDEX[Opcode.STORE]
_IALU = bytes([OPCODE_INDEX[Opcode.IALU]])
_BRANCH = bytes([OPCODE_INDEX[Opcode.BRANCH]])
#: One loop iteration's overhead: two IALU and one BRANCH.
_LOOP_OVERHEAD = _IALU + _IALU + _BRANCH


class TracedValue(float):
    """A float carrying the virtual value-id of the event that made it.

    Kernels handle these as ordinary floats (any further plain-Python
    arithmetic returns a bare float, dropping the id -- which is correct:
    untraced operations are not pipeline producers).  The recorder reads
    the id back to attach dataflow edges to subsequent events.
    """

    def __new__(cls, value: float, vid: int):
        self = float.__new__(cls, value)
        self.vid = vid
        return self


class TracedInt(int):
    """Integer twin of :class:`TracedValue` (for imul results)."""

    def __new__(cls, value: int, vid: int):
        self = int.__new__(cls, value)
        self.vid = vid
        return self


def _srcs(a, b=None) -> tuple:
    """Dataflow edges: the ids of traced operands (constants drop out)."""
    if hasattr(a, "vid"):
        return (a.vid, b.vid) if hasattr(b, "vid") else (a.vid,)
    return (b.vid,) if hasattr(b, "vid") else ()

#: Tracked arrays are laid out in a flat synthetic address space,
#: page-aligned so distinct arrays never share cache lines.
_ARRAY_ALIGNMENT = 4096


class TrackedArray:
    """A numpy array whose element accesses are recorded as loads/stores.

    Only scalar (integer-tuple) indexing is supported -- kernels are
    written as explicit per-pixel loops, which is what a compiled
    scalar binary would execute.
    """

    def __init__(
        self, recorder: "OperationRecorder", array: np.ndarray, base: int
    ) -> None:
        self._recorder = recorder
        self.array = array
        self.base = base
        self.itemsize = array.itemsize
        # Element strides, precomputed: address math runs per access.
        self._strides = tuple(s // array.itemsize for s in array.strides)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.array.shape

    def _address(self, index) -> int:
        if isinstance(index, tuple):
            flat = 0
            for i, stride in zip(index, self._strides):
                flat += i * stride
        else:
            flat = index * self._strides[0]
        return self.base + flat * self.itemsize

    def __getitem__(self, index):
        recorder = self._recorder
        recorder._next_vid += 1
        vid = recorder._next_vid
        recorder._columns.plain(_LOAD, self._address(index), vid)
        value = self.array[index]
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float):
            return TracedValue(value, vid)
        if isinstance(value, int):
            return TracedInt(value, vid)
        return value

    def __setitem__(self, index, value) -> None:
        self._recorder._columns.plain(
            _STORE, self._address(index), None, _srcs(value)
        )
        self.array[index] = value

    def peek(self, index):
        """Read without recording (for assertions and debugging)."""
        value = self.array[index]
        return value.item() if isinstance(value, np.generic) else value


class OperationRecorder:
    """Collects the dynamic instruction stream of an instrumented kernel."""

    def __init__(self, record_sites: bool = False) -> None:
        """``record_sites`` stamps each arithmetic event with a synthetic
        PC identifying its static call site (needed by PC-indexed schemes
        like the Reuse Buffer)."""
        self._columns = ColumnAccumulator()
        self._next_base = _ARRAY_ALIGNMENT
        self._next_vid = 0
        self.record_sites = record_sites
        self._sites: Dict[tuple, int] = {}

    @property
    def trace(self) -> Trace:
        """A :class:`~repro.isa.trace.Trace` of everything recorded so far."""
        return self._columns.trace()

    @property
    def events_recorded(self) -> int:
        """Number of events recorded so far."""
        return len(self._columns)

    def _site_pc(self) -> int:
        """Synthetic PC of the kernel statement that called the recorder
        (callers check :attr:`record_sites` first).

        Derived from the caller's code object and bytecode offset, two
        frames up (kernel -> public method -> helper), so one source
        statement is one static instruction -- unrolled source therefore
        occupies multiple PCs, exactly the distinction the paper draws
        against the Reuse Buffer.
        """
        frame = sys._getframe(3)
        key = (id(frame.f_code), frame.f_lasti)
        pc = self._sites.get(key)
        if pc is None:
            # 4-byte "instructions", like a RISC text segment.
            pc = 0x10000 + 4 * len(self._sites)
            self._sites[key] = pc
        return pc

    # -- memory -----------------------------------------------------------

    def track(self, array: np.ndarray) -> TrackedArray:
        """Place ``array`` in the synthetic address space and wrap it."""
        arr = np.asarray(array)
        base = self._next_base
        span = arr.size * arr.itemsize
        self._next_base = (
            (base + span + _ARRAY_ALIGNMENT - 1) // _ARRAY_ALIGNMENT
        ) * _ARRAY_ALIGNMENT
        return TrackedArray(self, arr, base)

    def new_array(self, shape, dtype=np.float64, fill=0.0) -> TrackedArray:
        """Allocate and track a fresh output array."""
        return self.track(np.full(shape, fill, dtype=dtype))

    # -- arithmetic (records and computes) ----------------------------------
    #
    # Every method computes the true result, appends an event carrying
    # the plain operand values plus dataflow edges, and returns the result
    # wrapped with its value id so later events can name it as a source.

    def _binary(self, code: int, raw_a, raw_b, value_a, value_b, result):
        """Append a float two-operand event; ``raw_*`` keep the dataflow ids."""
        self._next_vid += 1
        vid = self._next_vid
        self._columns.float_op(
            code, value_a, value_b, result, vid, _srcs(raw_a, raw_b),
            self._site_pc() if self.record_sites else None,
        )
        return vid

    def _integer(self, code: int, raw_a, raw_b, value_a, value_b, result):
        """Append an integer two-operand event."""
        self._next_vid += 1
        vid = self._next_vid
        self._columns.int_op(
            code, value_a, value_b, result, vid, _srcs(raw_a, raw_b),
            self._site_pc() if self.record_sites else None,
        )
        return vid

    def _unary(self, code: int, raw_a, value_a, result):
        self._next_vid += 1
        vid = self._next_vid
        self._columns.float_op(
            code, value_a, 0.0, result, vid, _srcs(raw_a),
            self._site_pc() if self.record_sites else None,
        )
        return vid

    def imul(self, a: int, b: int) -> int:
        ia, ib = int(a), int(b)
        result = ia * ib
        return TracedInt(result, self._integer(_IMUL, a, b, ia, ib, result))

    def idiv(self, a: int, b: int) -> int:
        ia, ib = int(a), int(b)
        result = int_div(ia, ib)
        return TracedInt(result, self._integer(_IDIV, a, b, ia, ib, result))

    def fmul(self, a: float, b: float) -> float:
        fa, fb = float(a), float(b)
        result = fa * fb
        return TracedValue(result, self._binary(_FMUL, a, b, fa, fb, result))

    def fdiv(self, a: float, b: float) -> float:
        fa, fb = float(a), float(b)
        result = ieee_div(fa, fb)
        return TracedValue(result, self._binary(_FDIV, a, b, fa, fb, result))

    def fsqrt(self, a: float) -> float:
        fa = float(a)
        result = ieee_sqrt(fa)
        return TracedValue(result, self._unary(_FSQRT, a, fa, result))

    def frecip(self, a: float) -> float:
        fa = float(a)
        result = ieee_div(1.0, fa)
        return TracedValue(result, self._unary(_FRECIP, a, fa, result))

    def flog(self, a: float) -> float:
        fa = float(a)
        result = ieee_log(fa)
        return TracedValue(result, self._unary(_FLOG, a, fa, result))

    def fsin(self, a: float) -> float:
        fa = float(a)
        result = ieee_sin(fa)
        return TracedValue(result, self._unary(_FSIN, a, fa, result))

    def fcos(self, a: float) -> float:
        fa = float(a)
        result = ieee_cos(fa)
        return TracedValue(result, self._unary(_FCOS, a, fa, result))

    def fadd(self, a: float, b: float) -> float:
        fa, fb = float(a), float(b)
        result = fa + fb
        return TracedValue(result, self._binary(_FADD, a, b, fa, fb, result))

    def fsub(self, a: float, b: float) -> float:
        fa, fb = float(a), float(b)
        result = fa - fb
        return TracedValue(result, self._binary(_FADD, a, b, fa, fb, result))

    # -- overhead instructions ----------------------------------------------

    def ialu(self, count: int = 1) -> None:
        """Record integer ALU work (address arithmetic, comparisons...)."""
        if count > 0:
            self._columns.plain_run(_IALU * count)

    def branch(self, count: int = 1) -> None:
        if count > 0:
            self._columns.plain_run(_BRANCH * count)

    def loop(self, iterable: Iterable) -> Iterator:
        """Iterate while charging per-iteration loop overhead.

        Each iteration of a compiled scalar loop costs index increments,
        a bounds compare and a conditional branch; ``loop`` records that
        mix (two IALU + one BRANCH), so traces carry a realistic
        instruction breakdown even though the kernel bodies are Python.
        """
        plain_run = self._columns.plain_run
        for item in iterable:
            plain_run(_LOOP_OVERHEAD)
            yield item

    # -- summary ------------------------------------------------------------

    def breakdown(self) -> dict:
        """Opcode frequency breakdown of everything recorded so far."""
        return self.trace.breakdown()
