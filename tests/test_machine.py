"""Tests for the SPARC-flavoured assembler and machine."""

import pytest

from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.core.reuse_buffer import run_reuse_buffer
from repro.isa.machine import Machine, MachineError, TEXT_BASE, assemble
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAMS
from repro.simulator.hazard import HazardModel
from repro.simulator.shade import ShadeSimulator
from repro.arch.latency import FAST_DESIGN


def run_source(source, n=None, arrays=None, max_steps=200_000):
    machine = Machine(assemble(source))
    if n is not None:
        machine.int_regs[1] = n
    for address, values in (arrays or {}).items():
        machine.write_doubles(address, values)
    machine.run(max_steps=max_steps)
    return machine


class TestAssembler:
    def test_labels_resolve(self):
        program = assemble("start:\n  nop\nend:\n  halt\n")
        assert program.labels["start"] == TEXT_BASE
        assert program.labels["end"] == TEXT_BASE + 4

    def test_comments_and_blanks(self):
        program = assemble("! comment\n\n  nop  ! trailing\n# hash\n")
        assert len(program) == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(MachineError, match="duplicate label"):
            assemble("x:\n nop\nx:\n nop\n")

    def test_pcs_are_word_spaced(self):
        program = assemble("nop\nnop\nnop\n")
        assert [i.pc for i in program.instructions] == [
            TEXT_BASE, TEXT_BASE + 4, TEXT_BASE + 8
        ]


class TestExecution:
    def test_set_and_add(self):
        machine = run_source("set 5, %r1\nadd %r1, 3, %r2\nhalt\n")
        assert machine.int_regs[2] == 8

    def test_r0_hardwired_zero(self):
        machine = run_source("set 7, %r0\nadd %r0, 1, %r2\nhalt\n")
        assert machine.int_regs[2] == 1

    def test_integer_ops(self):
        machine = run_source(
            "set 12, %r1\nset 10, %r2\n"
            "sub %r1, %r2, %r3\nand %r1, %r2, %r4\n"
            "or %r1, %r2, %r5\nxor %r1, %r2, %r6\n"
            "sll %r1, 2, %r7\nsrl %r1, 2, %r8\nhalt\n"
        )
        assert machine.int_regs[3] == 2
        assert machine.int_regs[4] == 8
        assert machine.int_regs[5] == 14
        assert machine.int_regs[6] == 6
        assert machine.int_regs[7] == 48
        assert machine.int_regs[8] == 3

    def test_smul_traced(self):
        machine = run_source("set 6, %r1\nset 7, %r2\nsmul %r1, %r2, %r3\nhalt\n")
        assert machine.int_regs[3] == 42
        imuls = machine.trace.filter(Opcode.IMUL)
        assert len(imuls) == 1
        assert (imuls[0].a, imuls[0].b, imuls[0].result) == (6, 7, 42)

    def test_fp_ops(self):
        machine = run_source(
            "fset 9.0, %f1\nfset 2.0, %f2\n"
            "fmul %f1, %f2, %f3\nfdiv %f1, %f2, %f4\n"
            "fadd %f1, %f2, %f5\nfsub %f1, %f2, %f6\nfsqrt %f1, %f7\nhalt\n"
        )
        assert machine.fp_regs[3] == 18.0
        assert machine.fp_regs[4] == 4.5
        assert machine.fp_regs[5] == 11.0
        assert machine.fp_regs[6] == 7.0
        assert machine.fp_regs[7] == 3.0

    def test_memory_roundtrip(self):
        machine = run_source(
            "set 4096, %r1\nfset 3.25, %f1\n"
            "st %f1, [%r1 + 8]\nld [%r1 + 8], %f2\nhalt\n"
        )
        assert machine.fp_regs[2] == 3.25
        loads = machine.trace.filter(Opcode.LOAD)
        stores = machine.trace.filter(Opcode.STORE)
        assert loads[0].address == stores[0].address == 4096 + 8

    def test_branching_loop(self):
        machine = run_source(
            "set 0, %r2\nset 5, %r1\n"
            "loop:\ncmp %r2, %r1\nbge out\nadd %r2, 1, %r2\nba loop\n"
            "out:\nhalt\n"
        )
        assert machine.int_regs[2] == 5

    def test_conditional_variants(self):
        source = (
            "set {a}, %r1\nset {b}, %r2\ncmp %r1, %r2\n{branch} yes\n"
            "set 0, %r3\nhalt\nyes:\nset 1, %r3\nhalt\n"
        )
        cases = [
            (1, 1, "be", 1), (1, 2, "be", 0), (1, 2, "bne", 1),
            (1, 2, "bl", 1), (2, 1, "bl", 0), (2, 1, "bg", 1),
            (1, 1, "ble", 1), (1, 1, "bge", 1),
        ]
        for a, b, branch, expected in cases:
            machine = run_source(source.format(a=a, b=b, branch=branch))
            assert machine.int_regs[3] == expected, (a, b, branch)

    def test_step_budget_enforced(self):
        with pytest.raises(MachineError, match="step budget"):
            run_source("loop:\nba loop\n", max_steps=100)

    def test_unknown_mnemonic(self):
        with pytest.raises(MachineError, match="unknown mnemonic"):
            run_source("frobnicate %r1\n")

    def test_bad_register(self):
        with pytest.raises(MachineError):
            run_source("set 1, %r99\nhalt\n")

    def test_unknown_label(self):
        with pytest.raises(MachineError, match="unknown label"):
            run_source("ba nowhere\n")

    def test_fall_off_end_halts(self):
        machine = run_source("nop\n")
        assert machine.steps == 1


#: (source, exact MachineError text or None, steps at the error, the
#: partial trace as (opcode, dst, srcs) rows).  Every message the
#: machine can raise, with the instruction it comes from: checked
#: operands fail in the order they are read, and nothing fails before
#: the instruction executes.
ERROR_CASES = {
    "unknown-mnemonic": (
        "nop\nfrobnicate %r1\n",
        "line 2: unknown mnemonic 'frobnicate'", 1, [("NOP", None, ())],
    ),
    "missing-operand": (
        "set 3, %r1\nset 1\nhalt\n",
        "line 2: malformed 'set' instruction", 1, [("IALU", 1, ())],
    ),
    "bad-fset-literal": (
        "nop\nfset abc, %f1\n",
        "line 2: malformed 'fset' instruction", 1, [("NOP", None, ())],
    ),
    "r99-memory-base": (
        "fset 1.0, %f1\nst %f1, [%r99]\n",
        "line 2: malformed 'st' instruction", 1, [("IALU", 1, ())],
    ),
    "bad-integer-operand": (
        "nop\nadd %r1, 0q7, %r2\n",
        "bad integer operand '0q7'", 1, [("NOP", None, ())],
    ),
    "bad-memory-operand": (
        "set 8, %r1\nld %r1, %f2\n",
        "bad memory operand '%r1'", 1, [("IALU", 1, ())],
    ),
    "expected-integer-register": (
        "set 1, %f1\n", "expected integer register, got '%f1'", 0, [],
    ),
    "expected-fp-register": (
        "fadd %r1, %f2, %f3\n", "expected fp register, got '%r1'", 0, [],
    ),
    "no-such-register": (
        "set 1, %r32\n", "no such register '%r32'", 0, [],
    ),
    "no-such-fp-register": (
        "fmul %f1, %f40, %f2\n", "no such register '%f40'", 0, [],
    ),
    "value-operand-read-first": (
        "st %f99, [%r99]\n", "no such register '%f99'", 0, [],
    ),
    "unknown-label-taken": (
        "set 1, %r1\ncmp %r1, %r0\nbg nowhere\nhalt\n",
        "unknown label 'nowhere'", 2,
        [("IALU", 1, ()), ("IALU", None, ()), ("BRANCH", None, ())],
    ),
    "unknown-label-untaken": (
        "set 1, %r1\ncmp %r1, %r0\nbl nowhere\nhalt\n",
        None, 4,
        [("IALU", 1, ()), ("IALU", None, ()), ("BRANCH", None, ())],
    ),
    "malformed-unexecuted": (
        "ba skip\nset 1\nfrobnicate\nst %f1, [%r99]\nskip:\nhalt\n",
        None, 2, [("BRANCH", None, ())],
    ),
    "step-budget": (
        "set 0, %r1\nloop:\nadd %r1, 1, %r1\nba loop\n",
        "step budget exhausted (6)", 6,
        [("IALU", 1, ()), ("IALU", 2, (1,)), ("BRANCH", None, ()),
         ("IALU", 3, (2,)), ("BRANCH", None, ()), ("IALU", 4, (3,))],
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_machine_error_text_steps_and_partial_trace(name):
    source, message, steps, rows = ERROR_CASES[name]
    machine = Machine(assemble(source))
    if message is None:
        machine.run(max_steps=6)
        assert machine.halted
    else:
        with pytest.raises(MachineError) as excinfo:
            machine.run(max_steps=6)
        assert str(excinfo.value) == message
        assert not machine.halted
    assert machine.steps == steps
    assert [
        (event.opcode.name, event.dst, event.srcs) for event in machine.trace
    ] == rows


def test_duplicate_label_text():
    with pytest.raises(MachineError) as excinfo:
        assemble("x:\n nop\nx:\n nop\n")
    assert str(excinfo.value) == "line 4: duplicate label 'x'"


class TestPrograms:
    def test_saxpy(self):
        machine = run_source(
            PROGRAMS["saxpy"],
            n=4,
            arrays={0x1000: [1.0, 2.0, 3.0, 4.0], 0x2000: [10.0, 20.0, 30.0, 40.0]},
        )
        assert machine.read_doubles(0x2000, 4) == [12.5, 25.0, 37.5, 50.0]

    def test_dot_product(self):
        machine = run_source(
            PROGRAMS["dot_product"],
            n=3,
            arrays={0x1000: [1.0, 2.0, 3.0], 0x2000: [4.0, 5.0, 6.0]},
        )
        assert machine.read_doubles(0x3000, 1) == [32.0]

    def test_vector_normalize(self):
        machine = run_source(
            PROGRAMS["vector_normalize"], n=2, arrays={0x1000: [3.0, 4.0]}
        )
        assert machine.read_doubles(0x1000, 2) == [0.6, 0.8]

    def test_gamma_lut(self):
        machine = run_source(
            PROGRAMS["gamma_lut"], n=2, arrays={0x1000: [16.0, 255.0]}
        )
        out = machine.read_doubles(0x2000, 2)
        assert out[0] == pytest.approx(256.0 / 255.0)
        assert out[1] == pytest.approx(255.0)

    def test_sobel_gx_matches_numpy(self):
        import numpy as np

        width, height = 6, 5
        rng = np.random.default_rng(0)
        image = np.floor(rng.random((height, width)) * 16.0)
        machine = Machine(assemble(PROGRAMS["sobel_gx"]))
        machine.int_regs[1] = width
        machine.int_regs[2] = height
        machine.write_doubles(0x1000, image.ravel())
        machine.run(max_steps=500_000)

        for i in range(1, height - 1):
            row = machine.read_doubles(0x20000 + 8 * (i * width), width)
            for j in range(1, width - 1):
                expected = (
                    (image[i - 1, j + 1] - image[i - 1, j - 1])
                    + 2 * (image[i, j + 1] - image[i, j - 1])
                    + (image[i + 1, j + 1] - image[i + 1, j - 1])
                ) / 8.0
                assert row[j] == pytest.approx(expected), (i, j)

    def test_sobel_gx_generates_imul_stream(self):
        import numpy as np

        image = np.ones((5, 5)) * 3.0
        machine = Machine(assemble(PROGRAMS["sobel_gx"]))
        machine.int_regs[1] = 5
        machine.int_regs[2] = 5
        machine.write_doubles(0x1000, image.ravel())
        machine.run(max_steps=500_000)
        imuls = machine.trace.filter(Opcode.IMUL)
        assert len(imuls) == 2 * 9  # two address multiplies per inner pixel


class TestMachineTracesThroughStack:
    """Machine-generated traces drive every simulator."""

    def _gamma_trace(self, values):
        machine = run_source(
            PROGRAMS["gamma_lut"], n=len(values), arrays={0x1000: values}
        )
        return machine.trace

    def test_memo_statistics(self):
        trace = self._gamma_trace([7.0, 9.0, 7.0, 9.0, 7.0] * 8)
        report = ShadeSimulator(MemoTableBank.paper_baseline()).run(trace)
        # Two distinct pixel values: divisions repeat massively.
        assert report.hit_ratio(Operation.FP_DIV) > 0.9
        assert report.hit_ratio(Operation.FP_MUL) > 0.9

    def test_hazard_model_consumes_register_dataflow(self):
        trace = self._gamma_trace([float(i) for i in range(8)])
        report = HazardModel(FAST_DESIGN).run(trace)
        # The fdiv depends on the fmul each iteration: RAW stalls exist.
        assert report.raw_stall_cycles > 0
        assert report.total_cycles > report.instructions

    def test_reuse_buffer_sees_real_pcs(self):
        trace = self._gamma_trace([5.0] * 10)
        _, report = run_reuse_buffer(trace)
        assert report.skipped_no_pc == 0
        # One static fdiv site with constant operands: hits after warmup.
        assert report.hit_ratio(Opcode.FDIV) == pytest.approx(0.9)
