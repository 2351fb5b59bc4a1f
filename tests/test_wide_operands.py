"""Integer operands beyond int64 survive recording exactly.

Python integers are unbounded, so ``imul``/``idiv`` (and the machine's
``smul``/``sdiv``) can produce operands no int64 column holds.  Such
events are kept verbatim beside the columns: the event view returns the
exact integers, both backends count them alike (a partition whose wide
events are wide only in their results still takes the pair-id loop),
and the v3 writer refuses them rather than truncating.
"""

from __future__ import annotations

import io

import pytest

from repro.core import backend as execution
from repro.core import kernel
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.errors import TraceFormatError
from repro.isa.binfmt import write_column_trace
from repro.isa.machine import Machine, assemble
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent
from repro.simulator.shade import ShadeSimulator
from repro.workloads.recorder import OperationRecorder

_INT_UNITS = (Operation.INT_MUL, Operation.INT_DIV)

_OVERFLOWING_PROGRAM = """
        set     0x4000000000000000, %r1
        set     8, %r2
        smul    %r1, %r2, %r3     ! 2**65: wide result
        set     3, %r5
        smul    %r5, %r5, %r6     ! in range
        sdiv    %r3, %r5, %r7     ! wide dividend
        smul    %r6, %r2, %r8     ! in range
        halt
"""


def _recorded_trace():
    recorder = OperationRecorder()
    recorder.imul(3, 5)
    recorder.imul(1 << 62, 8)
    recorder.imul(-7, 9)
    recorder.idiv(-(1 << 70), 7)
    recorder.imul(3, 5)
    recorder.fmul(1.5, 2.0)
    return recorder.trace


def _machine_trace():
    machine = Machine(assemble(_OVERFLOWING_PROGRAM))
    machine.run()
    return machine.trace


def _mixed_trace():
    # An int operand too large for float64 beside float ones.
    return Trace([TraceEvent(Opcode.FMUL, 10**400, 1.0, 1.0)])


def _int_triples(trace):
    return [
        (e.a, e.b, e.result)
        for e in trace.events
        if e.opcode in (Opcode.IMUL, Opcode.IDIV)
    ]


def test_recorder_event_view_returns_exact_integers():
    trace = _recorded_trace()
    triples = _int_triples(trace)
    assert triples == [
        (3, 5, 15),
        (1 << 62, 8, 1 << 65),
        (-7, 9, -63),
        (-(1 << 70), 7, -((1 << 70) // 7)),
        (3, 5, 15),
    ]
    assert all(type(v) is int for triple in triples for v in triple)
    assert trace.events[-1].opcode is Opcode.FMUL


def test_machine_event_view_returns_exact_integers():
    triples = _int_triples(_machine_trace())
    assert triples == [
        (1 << 62, 8, 1 << 65),
        (3, 3, 9),
        (1 << 65, 3, (1 << 65) // 3),
        (9, 8, 72),
    ]
    assert all(type(v) is int for triple in triples for v in triple)


@pytest.mark.parametrize("make", [_recorded_trace, _machine_trace])
def test_scalar_and_fused_count_wide_events_alike(make, monkeypatch):
    looped = []
    probe_fused = kernel._probe_fused

    def counting(unit, *args):
        looped.append(unit.operation)
        return probe_fused(unit, *args)

    monkeypatch.setattr(kernel, "_probe_fused", counting)
    stats = {}
    for backend in ("scalar", "fused"):
        bank = MemoTableBank.paper_baseline(operations=_INT_UNITS)
        with execution.use_backend(backend):
            report = ShadeSimulator(bank).run(make())
        stats[backend] = report.unit_stats
    assert stats["scalar"] == stats["fused"]
    assert stats["fused"][Operation.INT_MUL].operations > 0
    # IMUL's wide event is wide only in its result, so its operands fit
    # the loop; IDIV's wide dividend sends it to unit.execute.
    assert looped == [Operation.INT_MUL]


@pytest.mark.parametrize("make", [_recorded_trace, _machine_trace, _mixed_trace])
def test_v3_writer_rejects_wide_operands(make):
    with pytest.raises(TraceFormatError, match="int64"):
        write_column_trace(make(), io.BytesIO())
