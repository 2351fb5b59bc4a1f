"""The reference interpreter for :mod:`repro.isa.machine`.

:class:`ReferenceMachine` executes a :class:`~repro.isa.machine.Program`
the direct way: every step dispatches on the instruction's mnemonic
string and parses its operand tokens again.  The production
:class:`~repro.isa.machine.Machine` decodes each instruction once into a
closure; the tests require both to leave equal columns, registers,
memory, condition codes, step counts and error texts for the same
program.  Written for obviousness, not speed: it shares the assembler,
the column accumulator and the IEEE helpers with production, and no
decoding.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.operations import (
    ieee_div,
    ieee_log,
    ieee_recip,
    ieee_sqrt,
    int_div,
)
from repro.isa.columns import ColumnAccumulator
from repro.isa.machine import Instruction, MachineError, Program
from repro.isa.opcodes import OPCODE_INDEX, Opcode
from repro.isa.trace import Trace

__all__ = ["ReferenceMachine"]

TEXT_BASE = 0x10000

_INT_OPS = {"add", "sub", "and", "or", "xor", "sll", "srl"}
_BRANCHES = {"ba", "be", "bne", "bl", "ble", "bg", "bge"}


def _ieee_sin(a: float) -> float:
    """sin with IEEE default results (NaN for non-finite inputs)."""
    return math.sin(a) if math.isfinite(a) else math.nan


def _ieee_cos(a: float) -> float:
    """cos with IEEE default results (NaN for non-finite inputs)."""
    return math.cos(a) if math.isfinite(a) else math.nan


# Column codes of the traced opcodes.
_NOP = OPCODE_INDEX[Opcode.NOP]
_IALU = OPCODE_INDEX[Opcode.IALU]
_BRANCH = OPCODE_INDEX[Opcode.BRANCH]
_LOAD = OPCODE_INDEX[Opcode.LOAD]
_STORE = OPCODE_INDEX[Opcode.STORE]
_IMUL = OPCODE_INDEX[Opcode.IMUL]
_IDIV = OPCODE_INDEX[Opcode.IDIV]
_FADD = OPCODE_INDEX[Opcode.FADD]
_FMUL = OPCODE_INDEX[Opcode.FMUL]
_FDIV = OPCODE_INDEX[Opcode.FDIV]

#: Unary FP mnemonics -> (compute, traced opcode code).
_FP_UNARY = {
    "fsqrt": (ieee_sqrt, OPCODE_INDEX[Opcode.FSQRT]),
    "frecip": (ieee_recip, OPCODE_INDEX[Opcode.FRECIP]),
    "flog": (ieee_log, OPCODE_INDEX[Opcode.FLOG]),
    "fsin": (_ieee_sin, OPCODE_INDEX[Opcode.FSIN]),
    "fcos": (_ieee_cos, OPCODE_INDEX[Opcode.FCOS]),
}

_MEM_RE = re.compile(r"^\[%r(\d+)(?:\s*\+\s*(-?\d+))?\]$")


class ReferenceMachine:
    """Interpreter executing a :class:`Program` and recording its trace.

    Integer registers hold Python ints and floating-point registers and
    memory hold floats (``write_doubles`` coerces), so every traced
    operand triple is all-int or all-float.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.int_regs: List[int] = [0] * 32
        self.fp_regs: List[float] = [0.0] * 32
        self.memory: Dict[int, float] = {}
        self.cc = 0  # condition codes: sign of last cmp
        self._columns = ColumnAccumulator()
        self.steps = 0
        self.halted = False
        # Dataflow: last writer event id per register / memory word.
        self._next_vid = 0
        self._int_vids: List[Optional[int]] = [None] * 32
        self._fp_vids: List[Optional[int]] = [None] * 32
        self._mem_vids: Dict[int, int] = {}

    @property
    def trace(self) -> Trace:
        """A :class:`~repro.isa.trace.Trace` of everything executed so far."""
        return self._columns.trace()

    # -- helpers -----------------------------------------------------------

    def _new_vid(self) -> int:
        self._next_vid += 1
        return self._next_vid

    @staticmethod
    def _int_reg(token: str) -> int:
        if not token.startswith("%r"):
            raise MachineError(f"expected integer register, got {token!r}")
        number = int(token[2:])
        if not 0 <= number < 32:
            raise MachineError(f"no such register {token!r}")
        return number

    @staticmethod
    def _fp_reg(token: str) -> int:
        if not token.startswith("%f"):
            raise MachineError(f"expected fp register, got {token!r}")
        number = int(token[2:])
        if not 0 <= number < 32:
            raise MachineError(f"no such register {token!r}")
        return number

    def _read_int(self, token: str) -> Tuple[int, Optional[int]]:
        """Integer register or immediate -> (value, producing vid)."""
        if token.startswith("%r"):
            number = self._int_reg(token)
            if number == 0:
                return 0, None
            return self.int_regs[number], self._int_vids[number]
        try:
            return int(token, 0), None
        except ValueError:
            raise MachineError(f"bad integer operand {token!r}") from None

    def _write_int(self, token: str, value: int, vid: Optional[int]) -> None:
        number = self._int_reg(token)
        if number == 0:
            return  # %r0 is hardwired zero
        self.int_regs[number] = value
        self._int_vids[number] = vid

    def _read_fp(self, token: str) -> Tuple[float, Optional[int]]:
        number = self._fp_reg(token)
        return self.fp_regs[number], self._fp_vids[number]

    def _write_fp(self, token: str, value: float, vid: Optional[int]) -> None:
        number = self._fp_reg(token)
        self.fp_regs[number] = value
        self._fp_vids[number] = vid

    def _effective_address(self, token: str) -> Tuple[int, Optional[int]]:
        match = _MEM_RE.match(token)
        if not match:
            raise MachineError(f"bad memory operand {token!r}")
        base = int(match.group(1))
        offset = int(match.group(2) or 0)
        base_value = 0 if base == 0 else self.int_regs[base]
        base_vid = None if base == 0 else self._int_vids[base]
        return base_value + offset, base_vid

    # -- memory seeding / inspection ----------------------------------------

    def write_doubles(self, address: int, values: Sequence[float]) -> None:
        """Seed memory with an array of doubles (8 bytes per element)."""
        for index, value in enumerate(values):
            self.memory[address + 8 * index] = float(value)

    def read_doubles(self, address: int, count: int) -> List[float]:
        return [self.memory.get(address + 8 * i, 0.0) for i in range(count)]

    # -- execution -----------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> int:
        """Execute until ``halt`` or the step budget; returns steps taken."""
        index = 0
        instructions = self.program.instructions
        labels = self.program.labels
        while not self.halted:
            if self.steps >= max_steps:
                raise MachineError(f"step budget exhausted ({max_steps})")
            if index >= len(instructions):
                break  # fell off the end: implicit halt
            instruction = instructions[index]
            index = self._execute(instruction, index, labels)
            self.steps += 1
        return self.steps

    def _execute(self, ins: Instruction, index: int, labels) -> int:
        m = ins.mnemonic
        ops = ins.operands
        pc = ins.pc
        columns = self._columns
        try:
            if m == "halt":
                self.halted = True
                return index
            if m == "nop":
                columns.plain(_NOP, pc=pc)
                return index + 1
            if m == "set":
                value, _ = self._read_int(ops[0])
                vid = self._new_vid()
                self._write_int(ops[1], value, vid)
                columns.plain(_IALU, dst=vid, pc=pc)
                return index + 1
            if m == "fset":
                vid = self._new_vid()
                self._write_fp(ops[1], float(ops[0]), vid)
                columns.plain(_IALU, dst=vid, pc=pc)
                return index + 1
            if m in _INT_OPS:
                a, va = self._read_int(ops[0])
                b, vb = self._read_int(ops[1])
                result = {
                    "add": a + b,
                    "sub": a - b,
                    "and": a & b,
                    "or": a | b,
                    "xor": a ^ b,
                    "sll": a << (b & 63),
                    "srl": (a % (1 << 64)) >> (b & 63),
                }[m]
                vid = self._new_vid()
                self._write_int(ops[2], result, vid)
                srcs = tuple(v for v in (va, vb) if v is not None)
                columns.plain(_IALU, dst=vid, srcs=srcs, pc=pc)
                return index + 1
            if m in ("sdiv", "smul"):
                a, va = self._read_int(ops[0])
                b, vb = self._read_int(ops[1])
                result = int_div(a, b) if m == "sdiv" else a * b
                vid = self._new_vid()
                self._write_int(ops[2], result, vid)
                srcs = tuple(v for v in (va, vb) if v is not None)
                columns.int_op(
                    _IDIV if m == "sdiv" else _IMUL, a, b, result, vid, srcs, pc
                )
                return index + 1
            if m == "ld":
                address, base_vid = self._effective_address(ops[0])
                value = self.memory.get(address, 0.0)
                vid = self._new_vid()
                srcs = tuple(
                    v
                    for v in (base_vid, self._mem_vids.get(address))
                    if v is not None
                )
                self._write_fp(ops[1], value, vid)
                columns.plain(_LOAD, address, vid, srcs, pc)
                return index + 1
            if m == "st":
                value, value_vid = self._read_fp(ops[0])
                address, base_vid = self._effective_address(ops[1])
                self.memory[address] = value
                vid = self._new_vid()
                self._mem_vids[address] = vid
                srcs = tuple(v for v in (value_vid, base_vid) if v is not None)
                columns.plain(_STORE, address, vid, srcs, pc)
                return index + 1
            if m in ("fadd", "fsub"):
                a, va = self._read_fp(ops[0])
                b, vb = self._read_fp(ops[1])
                result = a + b if m == "fadd" else a - b
                vid = self._new_vid()
                self._write_fp(ops[2], result, vid)
                srcs = tuple(v for v in (va, vb) if v is not None)
                columns.float_op(_FADD, a, b, result, vid, srcs, pc)
                return index + 1
            if m in ("fmul", "fdiv"):
                a, va = self._read_fp(ops[0])
                b, vb = self._read_fp(ops[1])
                result = a * b if m == "fmul" else ieee_div(a, b)
                code = _FMUL if m == "fmul" else _FDIV
                vid = self._new_vid()
                self._write_fp(ops[2], result, vid)
                srcs = tuple(v for v in (va, vb) if v is not None)
                columns.float_op(code, a, b, result, vid, srcs, pc)
                return index + 1
            if m in _FP_UNARY:
                compute, code = _FP_UNARY[m]
                a, va = self._read_fp(ops[0])
                result = float(compute(a))
                vid = self._new_vid()
                self._write_fp(ops[1], result, vid)
                srcs = (va,) if va is not None else ()
                columns.float_op(code, a, 0.0, result, vid, srcs, pc)
                return index + 1
            if m == "cmp":
                a, _ = self._read_int(ops[0])
                b, _ = self._read_int(ops[1])
                self.cc = (a > b) - (a < b)
                columns.plain(_IALU, pc=pc)
                return index + 1
            if m in _BRANCHES:
                taken = {
                    "ba": True,
                    "be": self.cc == 0,
                    "bne": self.cc != 0,
                    "bl": self.cc < 0,
                    "ble": self.cc <= 0,
                    "bg": self.cc > 0,
                    "bge": self.cc >= 0,
                }[m]
                columns.plain(_BRANCH, pc=pc)
                if taken:
                    target = labels.get(ops[0])
                    if target is None:
                        raise MachineError(f"unknown label {ops[0]!r}")
                    return (target - TEXT_BASE) // 4
                return index + 1
        except (IndexError, ValueError) as exc:
            raise MachineError(
                f"line {ins.line}: malformed {m!r} instruction"
            ) from exc
        raise MachineError(f"line {ins.line}: unknown mnemonic {m!r}")
