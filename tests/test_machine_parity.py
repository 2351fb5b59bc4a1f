"""The decoded machine against the reference interpreter.

:class:`~repro.isa.machine.Machine` decodes each instruction once into
a closure; :class:`tests.machine_reference.ReferenceMachine` is the
interpreter it replaced, which dispatches on the mnemonic and parses
operands at every step.  For the same program, seed and step budget
both must leave equal trace columns and wide table, equal steps,
halted flag and condition codes, bitwise-equal registers and memory,
and the same error (type and text), or no error from either.
"""

from __future__ import annotations

import gc
import struct
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static.memo import reference_machine
from repro.isa.machine import Machine, MachineError, assemble
from repro.isa.programs import PROGRAMS

from .machine_reference import ReferenceMachine

_COLUMNS = (
    "opcode_col", "flags_col", "a_col", "b_col", "result_col",
    "address_col", "pc_col", "dst_col", "src_offsets", "srcs_col",
)


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _outcome(machine, max_steps):
    try:
        machine.run(max_steps=max_steps)
        error = None
    except Exception as exc:  # compared, whatever it is
        error = (type(exc).__name__, str(exc))
    batch = machine.trace.columns()
    return {
        "error": error,
        "columns": {name: getattr(batch, name).tolist() for name in _COLUMNS},
        "wide": batch.wide,
        "steps": machine.steps,
        "halted": machine.halted,
        "cc": machine.cc,
        "int_regs": machine.int_regs,
        "fp_regs": _bits(machine.fp_regs),
        "memory": sorted(
            (address, struct.pack("<d", value))
            for address, value in machine.memory.items()
        ),
    }


def _seed(machine, int_seed, fp_seed, memory_seed):
    for number, value in int_seed.items():
        machine.int_regs[number] = value
    for number, value in fp_seed.items():
        machine.fp_regs[number] = value
    machine.memory.update(memory_seed)


def _assert_parity(source, max_steps, int_seed=None, fp_seed=None,
                   memory_seed=None):
    program = assemble(source)
    machine, reference = Machine(program), ReferenceMachine(program)
    for each in (machine, reference):
        _seed(each, int_seed or {}, fp_seed or {}, memory_seed or {})
    assert _outcome(machine, max_steps) == _outcome(reference, max_steps)


# ---------------------------------------------------------------------------
# drawn programs
#
# Integer registers come in two classes so that no drawn program grows a
# value exponentially: %r0-%r7 take immediates, copies, ALU results and
# shifts (at most 63 more bits a step), and %r8-%r11 take smul and sdiv
# results, which only cmp, sdiv and addressing read back.

SMALL = [f"%r{i}" for i in range(8)]
PRODUCTS = [f"%r{i}" for i in range(8, 12)]
FP = [f"%f{i}" for i in range(6)]
LABELS = [f"L{i}" for i in range(5)] + ["nowhere"]


def _spelled(value: int) -> st.SearchStrategy:
    """Every base ``int(x, 0)`` accepts, negative ones included."""
    return st.sampled_from(
        [str(value), hex(value), oct(value), bin(value),
         hex(value).upper().replace("0X", "0x")]
    )


IMMEDIATES = st.one_of(
    st.integers(-300, 300).flatmap(_spelled),
    st.integers(-(2**70), 2**70).flatmap(_spelled),
    st.sampled_from([
        "0", "-0", "1_000", "0x7fffffffffffffff", "-9223372036854775808",
        "9223372036854775808", "0X1F", "0B11", "0O17", "64", "65", "-1",
    ]),
)
SMALL_SOURCES = st.one_of(st.sampled_from(SMALL), IMMEDIATES)
ANY_SOURCES = st.one_of(st.sampled_from(SMALL + PRODUCTS), IMMEDIATES)
FP_LITERALS = st.sampled_from([
    "2.5", "-0.0", "0.0", "nan", "-nan", "inf", "-inf", "1e308", "-1e308",
    "5e-324", "3", "-7.25", "1_0.5",
])
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, float("inf"), -float("inf")]),
)


def _memory_token(base: str, offset: int, form: int) -> str:
    if form == 0:
        return f"[{base}]"
    if form == 1:
        return f"[{base} + {offset}]"
    return f"[{base}+{offset}]"


MEMORY = st.builds(
    _memory_token,
    st.sampled_from(SMALL + PRODUCTS),
    st.sampled_from([0, 8, 16, 24, -8, -16, 4096]),
    st.integers(0, 2),
)


def _join(mnemonic, *operands):
    return f"{mnemonic} " + ", ".join(operands)


INSTRUCTIONS = st.one_of(
    st.just("nop"),
    st.builds(_join, st.just("set"), SMALL_SOURCES, st.sampled_from(SMALL)),
    st.builds(_join, st.just("fset"), FP_LITERALS, st.sampled_from(FP)),
    st.builds(
        _join, st.sampled_from(["add", "sub", "and", "or", "xor"]),
        SMALL_SOURCES, SMALL_SOURCES, st.sampled_from(SMALL),
    ),
    st.builds(
        _join, st.sampled_from(["sll", "srl"]), SMALL_SOURCES,
        st.one_of(st.integers(-70, 140).map(str), st.sampled_from(SMALL)),
        st.sampled_from(SMALL),
    ),
    st.builds(
        _join, st.just("smul"), SMALL_SOURCES, SMALL_SOURCES,
        st.sampled_from(PRODUCTS + ["%r0"]),
    ),
    st.builds(
        _join, st.just("sdiv"), ANY_SOURCES,
        st.one_of(st.just("0"), st.just("%r0"), ANY_SOURCES),
        st.sampled_from(PRODUCTS + ["%r0"]),
    ),
    st.builds(_join, st.just("ld"), MEMORY, st.sampled_from(FP)),
    st.builds(_join, st.just("st"), st.sampled_from(FP), MEMORY),
    st.builds(
        _join, st.sampled_from(["fadd", "fsub", "fmul", "fdiv"]),
        st.sampled_from(FP), st.sampled_from(FP), st.sampled_from(FP),
    ),
    st.builds(
        _join, st.sampled_from(["fsqrt", "frecip", "flog", "fsin", "fcos"]),
        st.sampled_from(FP), st.sampled_from(FP),
    ),
    st.builds(_join, st.just("cmp"), ANY_SOURCES, ANY_SOURCES),
    st.builds(
        _join, st.sampled_from(["ba", "be", "bne", "bl", "ble", "bg", "bge"]),
        st.sampled_from(LABELS),
    ),
)

#: One instruction per MachineError kind (and two that parse oddly but
#: execute: an extra operand and a zero-padded register).
MALFORMED = st.sampled_from([
    "frobnicate %r1",
    "set 1",
    "fset abc, %f1",
    "fset 1.0, %r1",
    "fset abc, %r1",
    "st %f1, [%r99]",
    "st %f99, [%r99]",
    "add %r1, 0q7, %r2",
    "add %r1, 1.5, %r2",
    "ld %r1, %f2",
    "ld [%r1 +], %f2",
    "set 1, %f1",
    "fadd %r1, %f2, %f3",
    "set 1, %r32",
    "fmul %f1, %f40, %f2",
    "cmp %rx, 1",
    "smul %r1, %r2",
    "fsqrt %f1",
    "bne",
    "ba",
    "cmp %r1, %r2, %r3",
    "add %r01, 1, %r02",
])


@st.composite
def programs(draw):
    """Assembly source: instructions, label definitions, counted loops,
    and malformed lines both on the executed path and jumped over."""
    lines, labels, skips, loops = [], 0, 0, 0
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(
            ["ins"] * 10 + ["label", "label", "loop", "bad", "skip", "halt"]
        ))
        if kind == "ins":
            lines.append(draw(INSTRUCTIONS))
        elif kind == "label" and labels < len(LABELS) - 1:
            lines.append(f"L{labels}:")
            labels += 1
        elif kind == "loop":
            lines += [
                "set 0, %r7", f"C{loops}:",
                *draw(st.lists(INSTRUCTIONS, min_size=1, max_size=5)),
                "add %r7, 1, %r7", f"cmp %r7, {draw(st.integers(1, 12))}",
                f"bl C{loops}",
            ]
            loops += 1
        elif kind == "bad":
            lines.append(draw(MALFORMED))
        elif kind == "skip":
            lines += [f"ba S{skips}", draw(MALFORMED), f"S{skips}:"]
            skips += 1
        elif kind == "halt":
            lines.append("halt")
    return "\n".join(lines) + "\n"


class TestDrawnPrograms:
    @given(
        source=programs(),
        max_steps=st.integers(0, 200),
        int_seed=st.dictionaries(
            st.integers(1, 11), st.integers(0, 64).map(lambda v: 8 * v),
            max_size=6,
        ),
        fp_seed=st.dictionaries(st.integers(0, 5), FLOATS, max_size=6),
        memory_seed=st.dictionaries(
            st.integers(-2, 64).map(lambda v: 8 * v), FLOATS, max_size=12,
        ),
    )
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_machine_matches_reference(
        self, source, max_steps, int_seed, fp_seed, memory_seed
    ):
        _assert_parity(source, max_steps, int_seed, fp_seed, memory_seed)

    @pytest.mark.parametrize("source", [
        # every condition, taken and untaken, after each cmp outcome
        f"set 1, %r1\ncmp %r1, {b}\n"
        + "".join(
            f"{c} X{i}\nadd %r2, {1 << i}, %r2\nX{i}:\n"
            for i, c in enumerate(["ba", "be", "bne", "bl", "ble", "bg", "bge"])
        )
        + "halt\n"
        for b in ("0", "1", "2")
    ] + [
        # int64 overflow: wide IMUL events
        "set 0x7fffffffffffffff, %r1\nsmul %r1, %r1, %r8\n"
        "smul %r1, -3, %r9\nsdiv %r8, 0, %r10\nsdiv %r8, %r1, %r11\nhalt\n",
        # NaN, infinities and -0.0 through FP ops and memory
        "fset nan, %f1\nfset -inf, %f2\nfset -0.0, %f3\nset 64, %r1\n"
        "st %f1, [%r1 + 8]\nld [%r1 + 8], %f4\nfdiv %f3, %f3, %f5\n"
        "fmul %f2, %f3, %f5\nfsqrt %f2, %f5\nflog %f3, %f5\n"
        "frecip %f3, %f5\nfsin %f2, %f5\nfcos %f1, %f5\n"
        "st %f3, [%r0 + -8]\nld [%r0+-8], %f0\nhalt\n",
        # a loop that exhausts the budget
        "set 0, %r1\nloop:\nadd %r1, 1, %r1\nsll %r1, 70, %r2\n"
        "srl %r2, -1, %r3\nba loop\n",
        # falling off the end without a halt
        "set %r0, %r0\nnop\n",
    ])
    def test_edge_programs(self, source):
        _assert_parity(source, max_steps=60, fp_seed={0: float("nan")})


@pytest.mark.parametrize(
    "n", [64, pytest.param(8192, marks=pytest.mark.slow)]
)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bundled_program_matches_reference(name, n):
    """The serve path's harness: a bundled program on the deterministic
    inputs of ``reference_machine`` (n = 8192 is a sample job's size)."""
    machine = reference_machine(name, n)
    reference = ReferenceMachine(machine.program)
    reference.int_regs[:] = machine.int_regs
    reference.memory.update(machine.memory)
    assert _outcome(machine, 8_000_000) == _outcome(reference, 8_000_000)


def test_finished_machine_is_freed_by_reference_counting():
    """No machine <-> op cycle: once the last reference goes, the machine,
    its decoded ops and its columns go with it, collector or not."""
    refs = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        machine = reference_machine("saxpy", 64)
        machine.run()
        failing = Machine(assemble(
            "set 1, %r1\ncmp %r1, %r1\nbne nowhere\nfset x, %f1\nba\n"
        ))
        try:
            failing.run()
        except MachineError:
            pass
        else:
            pytest.fail("the malformed fset did not raise")
        for each in (machine, failing):
            refs.append(weakref.ref(each))
            refs.append(weakref.ref(each._columns.opcode_col))
            refs += [
                weakref.ref(op) for op in each._ops
                if op.__closure__ is not None
            ]
        del machine, failing, each
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        if collecting:
            gc.enable()
