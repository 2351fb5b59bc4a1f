"""fsin and fcos of infinities and NaNs: one IEEE result on every path.

``repro.core.operations.ieee_sin``/``ieee_cos`` define the result (NaN
for a non-finite operand, where ``math.sin`` raises on an infinity).
The ISA machine and the workload recorder trace it, and every unit
path -- both kernel backends, the oracle and the differential harness
-- must compute and memoize the same bits when it replays such a trace.
"""

import math

import numpy as np
import pytest

from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.config import MemoTableConfig, TrivialPolicy
from repro.core.operations import Operation, compute, ieee_cos, ieee_sin
from repro.isa.machine import Machine, assemble
from repro.isa.opcodes import Opcode
from repro.verify.differential import (
    FuzzCase,
    _bits,
    canonicalize,
    run_case,
    table_contents,
)
from repro.workloads.recorder import OperationRecorder

#: Both infinities, a NaN of either sign and a finite angle.
OPERANDS = ("inf", "-inf", "nan", "-nan", "0.5")

#: Each operand through fsin and fcos twice, so the second probe of
#: every operand can hit.
SOURCE = "\n".join(
    [f"fset {value}, %f{k}" for k, value in enumerate(OPERANDS, start=1)]
    + [
        f"{mnemonic} %f{k}, %f{10 + k}"
        for _ in range(2)
        for mnemonic in ("fsin", "fcos")
        for k in range(1, len(OPERANDS) + 1)
    ]
)

SIN_COS_OPS = 4 * len(OPERANDS)


def _trace():
    machine = Machine(assemble(SOURCE))
    machine.run()
    return machine.trace


def _recorded_trace():
    """The same operations through the workload recorder."""
    recorder = OperationRecorder()
    for _ in range(2):
        for unit in (recorder.fsin, recorder.fcos):
            for value in OPERANDS:
                unit(float(value))
    return recorder.trace


@pytest.mark.parametrize(
    "make_trace", [_trace, _recorded_trace], ids=["machine", "recorder"]
)
def test_traced_result_is_the_ieee_result(make_trace):
    events = [
        event for event in make_trace().events
        if event.opcode in (Opcode.FSIN, Opcode.FCOS)
    ]
    assert len(events) == SIN_COS_OPS
    for event in events:
        ieee = ieee_sin if event.opcode is Opcode.FSIN else ieee_cos
        assert _bits(event.result) == _bits(ieee(event.a))
        assert _bits(event.result) == _bits(
            compute(event.opcode.operation, event.a)
        )
        assert math.isnan(event.result) == (not math.isfinite(event.a))


def test_both_backends_probe_and_agree():
    batch = execution.as_batch(_trace())
    banks, reports, outcomes = {}, {}, {}
    for backend in ("scalar", "fused"):
        bank = MemoTableBank.paper_baseline(operations=tuple(Operation))
        with execution.use_backend(backend):
            reports[backend] = execution.dispatch(batch, bank.units)
            outcomes[backend] = execution.probe_outcomes(
                batch,
                MemoTableBank.paper_baseline(
                    operations=tuple(Operation)
                ).units,
            )
        banks[backend] = bank
    scalar, fused = banks["scalar"], banks["fused"]
    for operation in Operation:
        assert (
            scalar.units[operation].stats == fused.units[operation].stats
        ), operation
    assert table_contents(scalar) == table_contents(fused)
    assert reports["scalar"].counts == reports["fused"].counts
    assert np.array_equal(outcomes["scalar"], outcomes["fused"])
    sin, cos = fused.units[Operation.FP_SIN], fused.units[Operation.FP_COS]
    assert sin.stats.operations + cos.stats.operations == SIN_COS_OPS
    assert sin.stats.table.hits + cos.stats.table.hits > 0


@pytest.mark.parametrize("infinite", [False, True], ids=["finite", "infinite"])
@pytest.mark.parametrize("policy", list(TrivialPolicy), ids=lambda p: p.value)
def test_oracle_scalar_and_fused_agree(policy, infinite):
    case = FuzzCase(
        events=canonicalize(_trace().events),
        config=MemoTableConfig(entries=8, associativity=2),
        trivial_policy=policy,
        infinite=infinite,
    )
    result = run_case(case)
    assert result.ok, result.divergences
    assert result.memoizable_events == SIN_COS_OPS
