"""Tests for the repro-trace command line tool."""

import io
import struct

import pytest

from repro.analysis.static.memo import reference_machine
from repro.isa.binfmt import write_column_trace
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAM_STEP_BUDGET, PROGRAMS
from repro.isa.trace import Trace, TraceEvent
from repro.trace_cli import _load, main


def _v3_bytes() -> bytes:
    buffer = io.BytesIO()
    write_column_trace(Trace([TraceEvent(Opcode.FMUL, 1.5, 2.0, 3.0)]), buffer)
    return buffer.getvalue()


#: name -> (file name, contents or None for a missing file)
_BAD_INPUTS = {
    "missing": ("absent.trc", None),
    "not-a-trace": ("junk.trc", b"hello, not a trace at all"),
    "truncated": ("cut.trc", _v3_bytes()[:-5]),
    "retired-v1": ("old.trc", b"RPROTRC1" + struct.pack("<BBqqqq", *[0] * 6)),
    "malformed-text": ("bad.trace", b"fmul 3ff0000000000000\n"),
    "binary-as-text": ("bin.trace", _v3_bytes()),
}


class TestRecordAndInspect:
    def test_record_binary_then_stats_and_simulate(self, tmp_path, capsys):
        target = tmp_path / "k.trc"
        assert main(
            ["record", "vgauss", "chroms", str(target), "--scale", "0.1"]
        ) == 0
        assert target.exists()
        capsys.readouterr()

        assert main(["stats", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fmul" in out and "events" in out

        assert main(["simulate", str(target)]) == 0
        out = capsys.readouterr().out
        assert "hit ratio" in out and "fdiv" in out

    def test_record_text_format(self, tmp_path, capsys):
        target = tmp_path / "k.trace"
        assert main(
            ["record", "vgpwl", "fractal", str(target), "--scale", "0.08"]
        ) == 0
        text = target.read_text()
        assert "fdiv" in text  # greppable text format

    def test_record_writes_v3_and_keeps_pcs(self, tmp_path, capsys):
        target = tmp_path / "k.trc"
        assert main(
            ["record", "vgauss", "chroms", str(target), "--scale", "0.05",
             "--pc"]
        ) == 0
        assert target.read_bytes().startswith(b"RPROTRC3")
        trace = _load(target)
        assert len(trace) > 0
        assert any(event.pc is not None for event in trace.events)

    @pytest.mark.parametrize("command", ["stats", "simulate"])
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_unreadable_trace_is_a_clean_error(
        self, tmp_path, capsys, command, case
    ):
        name, contents = _BAD_INPUTS[case]
        target = tmp_path / name
        if contents is not None:
            target.write_bytes(contents)
        assert main([command, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(target) in captured.err
        assert "Traceback" not in captured.err

    def test_simulate_options(self, tmp_path, capsys):
        target = tmp_path / "k.trc"
        main(["record", "vgauss", "fractal", str(target), "--scale", "0.08"])
        capsys.readouterr()
        assert main(
            ["simulate", str(target), "--entries", "8", "--ways", "2",
             "--mantissa"]
        ) == 0
        out = capsys.readouterr().out
        assert "8-entry 2-way" in out and "mantissa" in out


class TestAssemblyCommands:
    def test_programs_listing(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        assert "saxpy" in out and "vector_normalize" in out

    def test_asm_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "prog.trc"
        assert main(["asm", "gamma_lut", str(target), "--n", "16"]) == 0
        capsys.readouterr()
        assert main(["simulate", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fdiv" in out

    def test_asm_unknown_program(self, capsys):
        assert main(["asm", "nonsense", "x.trc"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown program 'nonsense'" in err

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_asm_writes_the_reference_harness_trace(
        self, name, tmp_path, capsys
    ):
        target = tmp_path / f"{name}.trc"
        assert main(["asm", name, str(target), "--n", "64"]) == 0
        machine = reference_machine(name, 64)
        steps = machine.run(max_steps=PROGRAM_STEP_BUDGET)
        assert f"executed {steps} instructions" in capsys.readouterr().out
        expected = io.BytesIO()
        write_column_trace(machine.trace, expected)
        assert target.read_bytes() == expected.getvalue()

    def test_bad_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["record", "not-a-kernel", "chroms", "x.trc"])
