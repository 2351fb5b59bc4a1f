"""Instruction traces: the interface between workloads and simulators.

A trace is a sequence of :class:`TraceEvent` records.  Memoizable events
carry operand and result values (what Shade extracted from registers);
memory events carry an address (for the cache hierarchy of section 3.3);
everything else is just an opcode for the frequency breakdown.

In memory a :class:`Trace` is one columnar
:class:`~repro.isa.columns.ColumnBatch`; :class:`TraceEvent` is the type
of its event view.  Traces can also be round-tripped through a simple
line-oriented text format so recorded workloads can be archived and
replayed.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, NamedTuple, Optional, TextIO, Union

from ..arch.ieee754 import bits_to_float64, float64_to_bits
from ..errors import TraceFormatError
from .opcodes import Opcode

if TYPE_CHECKING:
    from .columns import ColumnBatch

__all__ = ["TraceEvent", "Trace", "write_trace", "read_trace"]


class TraceEvent(NamedTuple):
    """One dynamic instruction.

    ``a``/``b``/``result`` are meaningful for memoizable opcodes (for
    integer multiply they hold exact integers); ``address`` for loads and
    stores.  Plain instructions carry neither.

    ``dst``/``srcs`` are optional dataflow edges (virtual value ids
    assigned by the recorder): ``dst`` names the value this instruction
    produces, ``srcs`` the values it consumes.  The hazard-aware pipeline
    model uses them to charge RAW stalls; the text serialization drops
    them (archived traces are value streams only).

    A NamedTuple rather than a dataclass: an event view runs to millions
    of events and construction cost dominates materializing it.
    """

    opcode: Opcode
    a: Union[int, float] = 0.0
    b: Union[int, float] = 0.0
    result: Union[int, float] = 0.0
    address: Optional[int] = None
    dst: Optional[int] = None
    srcs: tuple = ()
    #: Static instruction identity (synthetic PC), recorded when the
    #: recorder's ``record_sites`` is on.  Used by the Reuse Buffer
    #: comparison (Sodani & Sohi index by instruction address).
    pc: Optional[int] = None


class Trace:
    """An in-memory instruction trace: exactly one
    :class:`~repro.isa.columns.ColumnBatch`.

    The recorder, the ISA machine and the corpus build traces from
    columns; ``Trace(events)`` converts an event sequence once.  The
    event view (:attr:`events`, iteration, indexing) is the batch's
    (:meth:`~repro.isa.columns.ColumnBatch.to_events`), materialized on
    first use and cached, for the code that walks events one at a time.
    """

    def __init__(
        self,
        events: Optional[Iterable[TraceEvent]] = None,
        columns: Optional["ColumnBatch"] = None,
    ) -> None:
        if columns is not None and events is not None:
            raise ValueError("pass either events or columns, not both")
        if columns is None:
            from .columns import ColumnBatch  # deferred: columns imports us

            columns = ColumnBatch.from_events(events or ())
        self._columns = columns

    @property
    def events(self) -> List[TraceEvent]:
        """The event view (materialized from the columns on first use)."""
        return self._columns.to_events()

    def columns(self) -> "ColumnBatch":
        """The columnar trace."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self.events[index]

    def filter(self, *opcodes: Opcode) -> "Trace":
        """Sub-trace containing only the given opcodes."""
        wanted = frozenset(opcodes)
        return Trace(e for e in self.events if e.opcode in wanted)

    def count(self, opcode: Opcode) -> int:
        return self.breakdown().get(opcode, 0)

    def breakdown(self) -> Dict[Opcode, int]:
        """Instruction frequency breakdown (per section 3 of the paper)."""
        return self._columns.breakdown()


# -- text serialization ----------------------------------------------------
#
# Format: one event per line, space separated:
#   <opcode> [a_bits b_bits result_bits | addr]
# Float operands are stored as hex bit patterns so round-trips are exact;
# integer multiply operands are stored as decimal integers prefixed "i".


def _encode_operand(value: Union[int, float]) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"i{value:d}"
    return f"{float64_to_bits(float(value)):016x}"


def _decode_operand(token: str) -> Union[int, float]:
    if token.startswith("i"):
        return int(token[1:])
    return bits_to_float64(int(token, 16))


def write_trace(events: Iterable[TraceEvent], stream: TextIO) -> int:
    """Serialize events to ``stream``; returns the number written."""
    count = 0
    for event in events:
        if event.opcode.is_memoizable:
            stream.write(
                f"{event.opcode.value} {_encode_operand(event.a)} "
                f"{_encode_operand(event.b)} {_encode_operand(event.result)}\n"
            )
        elif event.opcode.is_memory:
            address = event.address if event.address is not None else 0
            stream.write(f"{event.opcode.value} @{address:x}\n")
        else:
            stream.write(f"{event.opcode.value}\n")
        count += 1
    return count


def read_trace(stream: TextIO) -> Iterator[TraceEvent]:
    """Parse events from ``stream`` (inverse of :func:`write_trace`)."""
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            opcode = Opcode(parts[0])
        except ValueError as exc:
            raise TraceFormatError(
                f"line {line_number}: unknown opcode {parts[0]!r}"
            ) from exc
        if opcode.is_memoizable:
            if len(parts) != 4:
                raise TraceFormatError(
                    f"line {line_number}: {opcode.value} needs 3 operand fields"
                )
            try:
                a, b, result = (_decode_operand(p) for p in parts[1:4])
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {line_number}: bad operand encoding"
                ) from exc
            yield TraceEvent(opcode, a, b, result)
        elif opcode.is_memory:
            if len(parts) != 2 or not parts[1].startswith("@"):
                raise TraceFormatError(
                    f"line {line_number}: {opcode.value} needs one @address field"
                )
            try:
                address = int(parts[1][1:], 16)
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {line_number}: bad address {parts[1]!r}"
                ) from exc
            yield TraceEvent(opcode, address=address)
        else:
            if len(parts) != 1:
                raise TraceFormatError(
                    f"line {line_number}: {opcode.value} takes no operands"
                )
            yield TraceEvent(opcode)


def dumps(events: Iterable[TraceEvent]) -> str:
    """Serialize a trace to a string."""
    buffer = io.StringIO()
    write_trace(events, buffer)
    return buffer.getvalue()


def loads(text: str) -> Trace:
    """Parse a trace from a string."""
    return Trace(read_trace(io.StringIO(text)))
