"""Instruction-set substrate: opcodes, traces, and a SPARC-like machine."""

from .machine import Machine, MachineError, Program, assemble
from .opcodes import MEMOIZABLE_OPCODES, Opcode, opcode_to_operation, operation_to_opcode
from .programs import PROGRAMS
from .trace import Trace, TraceEvent, dumps, loads, read_trace, write_trace

__all__ = [
    "Machine",
    "MachineError",
    "Program",
    "assemble",
    "MEMOIZABLE_OPCODES",
    "Opcode",
    "opcode_to_operation",
    "operation_to_opcode",
    "PROGRAMS",
    "Trace",
    "TraceEvent",
    "dumps",
    "loads",
    "read_trace",
    "write_trace",
]
