"""A SPARC-flavoured register machine and assembler.

The paper's measurement substrate is Shade executing SPARC binaries.
The instrumented-Python workloads reproduce its *value streams*; this
module closes the remaining gap for users who want to study real
(if small) programs: an assembler for a SPARC-like textual ISA and a
machine that executes programs while appending each instruction to
the same columnar trace the workload recorder builds
(:class:`~repro.isa.columns.ColumnAccumulator`) -- with genuine program
counters (for the Reuse Buffer comparison) and genuine register
dataflow (for the hazard pipeline).

Each instruction is decoded once per :class:`Machine`.  Decoding turns
an :class:`Instruction` into an *op*: a closure bound to that machine's
register lists, memory dict, condition codes and accumulator appenders,
with its register indices, immediates, memory base and offset,
successor indices, result function and traced opcode resolved up front.
:meth:`Machine.run` is then the step-budget check plus
``index = ops[index]()``.  Decoding never raises.  An instruction that
does not decode becomes an op raising its :class:`MachineError` when it
executes, and only then; operands are checked in the order execution
reads them, so the first bad one is reported.  A branch to an unknown
label raises only when taken, after its BRANCH event is appended.  The
ops hold no reference to their machine, so a finished machine is freed
by reference counting.

Syntax (one instruction per line, ``!`` or ``#`` comments)::

    ! integer:   %r0..%r31  (r0 reads as zero), floats: %f0..%f31
    set     1024, %r1        ! r1 <- immediate (or register)
    fset    2.5, %f1         ! f1 <- float immediate
    add     %r1, 8, %r2      ! also sub/and/or/xor/sll/srl
    smul    %r1, %r2, %r3    ! integer multiply     (traced IMUL)
    sdiv    %r1, %r2, %r3    ! integer divide       (traced IDIV)
    ld      [%r1 + 8], %f2   ! load double          (traced LOAD)
    st      %f2, [%r1 + 16]  ! store double         (traced STORE)
    fadd    %f1, %f2, %f3    ! also fsub            (traced FADD)
    fmul    %f1, %f2, %f3    !                      (traced FMUL)
    fdiv    %f1, %f2, %f3    !                      (traced FDIV)
    fsqrt   %f1, %f3         !                      (traced FSQRT)
    frecip  %f1, %f3         !                      (traced FRECIP)
    flog    %f1, %f3         !                      (traced FLOG)
    fsin    %f1, %f3         !                      (traced FSIN)
    fcos    %f1, %f3         !                      (traced FCOS)
    cmp     %r1, %r2         ! set condition codes  (traced IALU)
    bne     loop             ! be/bne/bl/ble/bg/bge/ba
    nop
    halt

Loads/stores address a flat 8-byte-word memory; ``Machine.write_doubles``
seeds input arrays.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.operations import (
    ieee_cos,
    ieee_div,
    ieee_log,
    ieee_recip,
    ieee_sin,
    ieee_sqrt,
    int_div,
)
from ..errors import TraceFormatError
from .columns import ColumnAccumulator
from .opcodes import OPCODE_INDEX, Opcode
from .trace import Trace

__all__ = [
    "Program",
    "Instruction",
    "assemble",
    "Machine",
    "MachineError",
    "BINARY_OPS",
    "FP_UNARY_OPS",
    "BRANCH_CONDITIONS",
]

#: Address of the first instruction (text segment base).
TEXT_BASE = 0x10000


# Column codes of the traced opcodes.
_NOP = OPCODE_INDEX[Opcode.NOP]
_IALU = OPCODE_INDEX[Opcode.IALU]
_BRANCH = OPCODE_INDEX[Opcode.BRANCH]
_LOAD = OPCODE_INDEX[Opcode.LOAD]
_STORE = OPCODE_INDEX[Opcode.STORE]

# The decode tables: the one definition of each mnemonic, which the
# static analyzer (repro.analysis.static) also folds through.

#: Three-operand mnemonics -> (result, traced opcode code, float?).
#: IALU instructions are traced without their operands.
BINARY_OPS: Dict[str, Tuple[Callable, int, bool]] = {
    "add": (operator.add, _IALU, False),
    "sub": (operator.sub, _IALU, False),
    "and": (operator.and_, _IALU, False),
    "or": (operator.or_, _IALU, False),
    "xor": (operator.xor, _IALU, False),
    "sll": (lambda a, b: a << (b & 63), _IALU, False),
    "srl": (lambda a, b: (a % (1 << 64)) >> (b & 63), _IALU, False),
    "smul": (operator.mul, OPCODE_INDEX[Opcode.IMUL], False),
    "sdiv": (int_div, OPCODE_INDEX[Opcode.IDIV], False),
    "fadd": (operator.add, OPCODE_INDEX[Opcode.FADD], True),
    "fsub": (operator.sub, OPCODE_INDEX[Opcode.FADD], True),
    "fmul": (operator.mul, OPCODE_INDEX[Opcode.FMUL], True),
    "fdiv": (ieee_div, OPCODE_INDEX[Opcode.FDIV], True),
}

#: Unary FP mnemonics -> (result, traced opcode code).
FP_UNARY_OPS: Dict[str, Tuple[Callable[[float], float], int]] = {
    "fsqrt": (ieee_sqrt, OPCODE_INDEX[Opcode.FSQRT]),
    "frecip": (ieee_recip, OPCODE_INDEX[Opcode.FRECIP]),
    "flog": (ieee_log, OPCODE_INDEX[Opcode.FLOG]),
    "fsin": (ieee_sin, OPCODE_INDEX[Opcode.FSIN]),
    "fcos": (ieee_cos, OPCODE_INDEX[Opcode.FCOS]),
}

#: Branch mnemonics -> taken?, indexed by the condition codes (0, 1, -1).
BRANCH_CONDITIONS: Dict[str, Tuple[bool, bool, bool]] = {
    "ba": (True, True, True),
    "be": (True, False, False),
    "bne": (False, True, True),
    "bl": (False, False, True),
    "ble": (True, False, True),
    "bg": (False, True, False),
    "bge": (True, True, False),
}


class MachineError(TraceFormatError):
    """Assembly or execution error."""


@dataclass(frozen=True)
class Instruction:
    """One assembled instruction."""

    mnemonic: str
    operands: Tuple[str, ...]
    pc: int
    line: int  # source line, for diagnostics


@dataclass
class Program:
    """An assembled program: instructions + label addresses."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)


_LABEL_RE = re.compile(r"^([A-Za-z_][\w]*):$")
_MEM_RE = re.compile(r"^\[%r(\d+)(?:\s*\+\s*(-?\d+))?\]$")


def _split_operands(rest: str) -> Tuple[str, ...]:
    """Split on commas that are not inside [...] memory operands."""
    parts: List[str] = []
    depth = 0
    current = ""
    for char in rest:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return tuple(parts)


def assemble(source: str) -> Program:
    """Assemble textual source into a :class:`Program`."""
    program = Program()
    pending_labels: List[str] = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("!")[0].split("#")[0].strip()
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            pending_labels.append(label_match.group(1))
            continue
        fields = line.split(None, 1)
        mnemonic = fields[0].lower()
        operands = _split_operands(fields[1]) if len(fields) > 1 else ()
        pc = TEXT_BASE + 4 * len(program.instructions)
        for label in pending_labels:
            if label in program.labels:
                raise MachineError(f"line {line_number}: duplicate label {label!r}")
            program.labels[label] = pc
        pending_labels.clear()
        program.instructions.append(
            Instruction(mnemonic, operands, pc, line_number)
        )
    for label in pending_labels:
        program.labels[label] = TEXT_BASE + 4 * len(program.instructions)
    return program


# -- decoding ----------------------------------------------------------------

#: An executable instruction: runs one step and returns the next index.
_Op = Callable[[], int]

#: Where an operand lives: ``values[index]`` and ``vids[index]`` are its
#: value and producing event id at run time.
_Slot = Tuple[list, list, int]


class _Halt(Exception):
    """Raised by ``halt``: the step counts and the machine halts."""


class _End(Exception):
    """Raised past the last instruction: the run ends without a step."""


def _halt() -> int:
    raise _Halt


def _end() -> int:
    raise _End


def _raising(message: str, cause: Optional[BaseException] = None) -> _Op:
    """An op raising ``MachineError(message)`` whenever it executes."""

    def op() -> int:
        raise MachineError(message) from cause

    return op


def _int_reg(token: str) -> int:
    if not token.startswith("%r"):
        raise MachineError(f"expected integer register, got {token!r}")
    number = int(token[2:])
    if not 0 <= number < 32:
        raise MachineError(f"no such register {token!r}")
    return number


def _fp_reg(token: str) -> int:
    if not token.startswith("%f"):
        raise MachineError(f"expected fp register, got {token!r}")
    number = int(token[2:])
    if not 0 <= number < 32:
        raise MachineError(f"no such register {token!r}")
    return number


def _constant(value: float) -> _Slot:
    """A private slot: an immediate or ``%r0`` read, or a ``%r0`` write
    that nothing reads back."""
    return [value], [None], 0


def _int_source(token: str, machine: "Machine") -> _Slot:
    """An integer register or immediate operand."""
    if token.startswith("%r"):
        number = _int_reg(token)
        if number == 0:
            return _constant(0)
        return machine.int_regs, machine._int_vids, number
    try:
        return _constant(int(token, 0))
    except ValueError:
        raise MachineError(f"bad integer operand {token!r}") from None


def _int_dest(token: str, machine: "Machine") -> _Slot:
    """An integer destination register (``%r0`` is hardwired zero)."""
    number = _int_reg(token)
    if number == 0:
        return _constant(0)
    return machine.int_regs, machine._int_vids, number


def _fp_slot(token: str, machine: "Machine") -> _Slot:
    """A floating-point register operand, read or written."""
    return machine.fp_regs, machine._fp_vids, _fp_reg(token)


def _memory_operand(token: str, machine: "Machine") -> Tuple[_Slot, int]:
    """``[%rN + offset]`` -> (base register slot, offset)."""
    match = _MEM_RE.match(token)
    if not match:
        raise MachineError(f"bad memory operand {token!r}")
    base = int(match.group(1))
    offset = int(match.group(2) or 0)
    if base == 0:
        return _constant(0), offset
    if base >= 32:  # reported as a malformed instruction
        raise IndexError(f"no register %r{base}")
    return (machine.int_regs, machine._int_vids, base), offset


def _decode_nop(ins: Instruction, index: int, machine: "Machine") -> _Op:
    plain = machine._columns.plain
    pc, following = ins.pc, index + 1

    def op() -> int:
        plain(_NOP, None, None, (), pc)
        return following

    return op


def _decode_set(ins: Instruction, index: int, machine: "Machine") -> _Op:
    if ins.mnemonic == "fset":
        values, _, source = _constant(float(ins.operands[0]))
        regs, vids, dest = _fp_slot(ins.operands[1], machine)
    else:
        values, _, source = _int_source(ins.operands[0], machine)
        regs, vids, dest = _int_dest(ins.operands[1], machine)
    new_vid = machine._vids.__next__
    plain = machine._columns.plain
    pc, following = ins.pc, index + 1

    def op() -> int:
        vid = new_vid()
        regs[dest] = values[source]
        vids[dest] = vid
        plain(_IALU, None, vid, (), pc)
        return following

    return op


def _decode_binary(ins: Instruction, index: int, machine: "Machine") -> _Op:
    compute, code, is_float = BINARY_OPS[ins.mnemonic]
    source = _fp_slot if is_float else _int_source
    a_values, a_vids, a = source(ins.operands[0], machine)
    b_values, b_vids, b = source(ins.operands[1], machine)
    regs, vids, dest = (_fp_slot if is_float else _int_dest)(
        ins.operands[2], machine
    )
    new_vid = machine._vids.__next__
    pc, following = ins.pc, index + 1

    if code == _IALU:
        plain = machine._columns.plain

        def op() -> int:
            x = a_values[a]
            y = b_values[b]
            va = a_vids[a]
            vb = b_vids[b]
            vid = new_vid()
            regs[dest] = compute(x, y)
            vids[dest] = vid
            if va is None:
                srcs = () if vb is None else (vb,)
            else:
                srcs = (va,) if vb is None else (va, vb)
            plain(_IALU, None, vid, srcs, pc)
            return following

        return op

    columns = machine._columns
    append = columns.float_op if is_float else columns.int_op

    def traced_op() -> int:
        x = a_values[a]
        y = b_values[b]
        va = a_vids[a]
        vb = b_vids[b]
        result = compute(x, y)
        vid = new_vid()
        regs[dest] = result
        vids[dest] = vid
        if va is None:
            srcs = () if vb is None else (vb,)
        else:
            srcs = (va,) if vb is None else (va, vb)
        append(code, x, y, result, vid, srcs, pc)
        return following

    return traced_op


def _decode_ld(ins: Instruction, index: int, machine: "Machine") -> _Op:
    (bases, base_vids, base), offset = _memory_operand(ins.operands[0], machine)
    regs, vids, dest = _fp_slot(ins.operands[1], machine)
    load = machine.memory.get
    producer = machine._mem_vids.get
    new_vid = machine._vids.__next__
    plain = machine._columns.plain
    pc, following = ins.pc, index + 1

    def op() -> int:
        address = bases[base] + offset
        vb = base_vids[base]
        value = load(address, 0.0)
        vid = new_vid()
        vm = producer(address)
        if vb is None:
            srcs = () if vm is None else (vm,)
        else:
            srcs = (vb,) if vm is None else (vb, vm)
        regs[dest] = value
        vids[dest] = vid
        plain(_LOAD, address, vid, srcs, pc)
        return following

    return op


def _decode_st(ins: Instruction, index: int, machine: "Machine") -> _Op:
    regs, vids, source = _fp_slot(ins.operands[0], machine)
    (bases, base_vids, base), offset = _memory_operand(ins.operands[1], machine)
    memory, mem_vids = machine.memory, machine._mem_vids
    new_vid = machine._vids.__next__
    plain = machine._columns.plain
    pc, following = ins.pc, index + 1

    def op() -> int:
        value = regs[source]
        vv = vids[source]
        address = bases[base] + offset
        vb = base_vids[base]
        memory[address] = value
        vid = new_vid()
        mem_vids[address] = vid
        if vv is None:
            srcs = () if vb is None else (vb,)
        else:
            srcs = (vv,) if vb is None else (vv, vb)
        plain(_STORE, address, vid, srcs, pc)
        return following

    return op


def _decode_fp_unary(ins: Instruction, index: int, machine: "Machine") -> _Op:
    compute, code = FP_UNARY_OPS[ins.mnemonic]
    a = _fp_reg(ins.operands[0])
    dest = _fp_reg(ins.operands[1])
    regs, vids = machine.fp_regs, machine._fp_vids
    new_vid = machine._vids.__next__
    float_op = machine._columns.float_op
    pc, following = ins.pc, index + 1

    def op() -> int:
        x = regs[a]
        va = vids[a]
        result = float(compute(x))
        vid = new_vid()
        regs[dest] = result
        vids[dest] = vid
        float_op(code, x, 0.0, result, vid, () if va is None else (va,), pc)
        return following

    return op


def _decode_cmp(ins: Instruction, index: int, machine: "Machine") -> _Op:
    a_values, _, a = _int_source(ins.operands[0], machine)
    b_values, _, b = _int_source(ins.operands[1], machine)
    cc = machine._cc
    plain = machine._columns.plain
    pc, following = ins.pc, index + 1

    def op() -> int:
        x = a_values[a]
        y = b_values[b]
        cc[0] = (x > y) - (x < y)
        plain(_IALU, None, None, (), pc)
        return following

    return op


def _decode_branch(ins: Instruction, index: int, machine: "Machine") -> _Op:
    taken = BRANCH_CONDITIONS[ins.mnemonic]
    cc = machine._cc
    plain = machine._columns.plain
    pc, following = ins.pc, index + 1
    try:
        label = ins.operands[0]
    except IndexError as exc:
        message = f"line {ins.line}: malformed {ins.mnemonic!r} instruction"
        cause: Optional[BaseException] = exc.with_traceback(None)
    else:
        address = machine.program.labels.get(label)
        if address is not None:
            end = len(machine.program.instructions)
            target = (address - TEXT_BASE) // 4
            if not 0 <= target <= end:
                target = end  # a hand-built label outside the program
            # Successor indices, indexed by the condition codes.
            successors = tuple(target if t else following for t in taken)

            def op() -> int:
                plain(_BRANCH, None, None, (), pc)
                return successors[cc[0]]

            return op
        message, cause = f"unknown label {label!r}", None

    def failing_op() -> int:
        plain(_BRANCH, None, None, (), pc)
        if taken[cc[0]]:
            raise MachineError(message) from cause
        return following

    return failing_op


_DECODERS: Dict[str, Callable[[Instruction, int, "Machine"], _Op]] = {
    "halt": lambda ins, index, machine: _halt,
    "nop": _decode_nop,
    "set": _decode_set,
    "fset": _decode_set,
    "ld": _decode_ld,
    "st": _decode_st,
    "cmp": _decode_cmp,
    **dict.fromkeys(BINARY_OPS, _decode_binary),
    **dict.fromkeys(FP_UNARY_OPS, _decode_fp_unary),
    **dict.fromkeys(BRANCH_CONDITIONS, _decode_branch),
}


def _decode(ins: Instruction, index: int, machine: "Machine") -> _Op:
    """The op of one instruction, or one raising its error when executed."""
    decoder = _DECODERS.get(ins.mnemonic)
    if decoder is None:
        return _raising(f"line {ins.line}: unknown mnemonic {ins.mnemonic!r}")
    try:
        return decoder(ins, index, machine)
    except (IndexError, ValueError) as exc:
        # Drop the traceback: its frames hold the machine, and the op
        # that keeps the cause must not.
        return _raising(
            f"line {ins.line}: malformed {ins.mnemonic!r} instruction",
            exc.with_traceback(None),
        )
    except MachineError as exc:
        return _raising(str(exc))


class Machine:
    """Executes a :class:`Program` and records its trace.

    Integer registers hold Python ints and floating-point registers and
    memory hold floats (``write_doubles`` coerces), so every traced
    operand triple is all-int or all-float.  The program is decoded
    when the machine is built, against these register lists and this
    memory dict: change their contents, never the objects.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.int_regs: List[int] = [0] * 32
        self.fp_regs: List[float] = [0.0] * 32
        self.memory: Dict[int, float] = {}
        self.steps = 0
        self.halted = False
        self._cc = [0]  # condition codes: sign of last cmp
        self._columns = ColumnAccumulator()
        # Dataflow: last writer event id per register / memory word.
        self._vids = itertools.count(1)
        self._int_vids: List[Optional[int]] = [None] * 32
        self._fp_vids: List[Optional[int]] = [None] * 32
        self._mem_vids: Dict[int, int] = {}
        self._ops: List[_Op] = [
            _decode(ins, index, self)
            for index, ins in enumerate(program.instructions)
        ]
        self._ops.append(_end)

    @property
    def cc(self) -> int:
        """Condition codes: the sign of the last ``cmp``."""
        return self._cc[0]

    @property
    def trace(self) -> Trace:
        """A :class:`~repro.isa.trace.Trace` of everything executed so far."""
        return self._columns.trace()

    # -- memory seeding / inspection ----------------------------------------

    def write_doubles(self, address: int, values: Sequence[float]) -> None:
        """Seed memory with an array of doubles (8 bytes per element)."""
        for index, value in enumerate(values):
            self.memory[address + 8 * index] = float(value)

    def read_doubles(self, address: int, count: int) -> List[float]:
        return [self.memory.get(address + 8 * i, 0.0) for i in range(count)]

    # -- execution -----------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> int:
        """Execute from the first instruction until ``halt``, the end of
        the program or the step budget; returns the steps taken."""
        if self.halted:
            return self.steps
        ops = self._ops
        steps = self.steps
        index = 0
        try:
            while steps < max_steps:
                index = ops[index]()
                steps += 1
        except _Halt:
            steps += 1
            self.halted = True
            return steps
        except _End:
            return steps
        finally:
            self.steps = steps
        raise MachineError(f"step budget exhausted ({max_steps})")
