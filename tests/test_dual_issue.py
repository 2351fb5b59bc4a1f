"""ext-dual-issue's arithmetic against the pair-at-a-time reference.

:func:`repro.experiments.ext_dual_issue.dual_issue` takes a trace's
divide outcomes from one kernel outcome column of a CACHE_ALL unit and
does section 2.3's cycle arithmetic with numpy;
:class:`tests.dual_issue_reference.DualIssueModel` issues each pair
through a dual-ported shared table, probing one divide at a time.  Both
must report the same pairs, second-slot hits, table hits and cycles,
and the reference must never count a port conflict.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend as execution
from repro.core.config import MemoTableConfig
from repro.core.memo_table import MemoTable
from repro.core.operations import Operation, ieee_div
from repro.experiments.common import record_mm_trace
from repro.experiments.ext_dual_issue import dual_issue
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent

from .dual_issue_reference import DualIssueModel

#: Operand values that stress tags: repeats, NaN, both zeros, ±1.
_OPERANDS = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 3.0, 7.0, 1e308,
             5e-324, math.inf, -math.inf, math.nan]


def _reference(trace, latency, entries):
    """Pair-at-a-time: the first ``2 * (n // 2)`` divides in order."""
    operands = [
        (event.a, event.b) for event in trace if event.opcode is Opcode.FDIV
    ]
    model = DualIssueModel(
        Operation.FP_DIV,
        MemoTable(MemoTableConfig(entries=entries, associativity=4)),
        latency=latency,
    )
    for index in range(0, len(operands) - 1, 2):
        a1, b1 = operands[index]
        a2, b2 = operands[index + 1]
        model.issue_pair(a1, b1, a2, b2)
    return model


def _assert_equal(trace, latency, entries):
    issued = dual_issue(trace, latency=latency, entries=entries)
    model = _reference(trace, latency, entries)
    assert issued.pairs == model.pairs_issued
    assert issued.second_slot_hits == model.second_slot_hits
    assert issued.table_hits == model.shared.stats.hits
    assert 2 * issued.pairs == model.shared.stats.lookups
    assert issued.total_cycles == model.total_cycles
    assert issued.baseline_cycles == model.baseline_cycles
    assert issued.second_slot_hit_ratio == model.second_slot_hit_ratio
    assert issued.speedup == model.speedup
    # Two ports, two lookups per pair.
    assert model.shared.port_conflicts == 0
    return issued


@st.composite
def _divide_streams(draw):
    """FDIV streams of any length (odd ones leave a divide unissued)
    with repeated pairs, NaN, ±0.0, ±inf and divisors ±1, between
    other opcodes that no table sees."""
    events = []
    for _ in range(draw(st.integers(0, 80))):
        if draw(st.integers(0, 4)) == 0:
            opcode = draw(st.sampled_from(
                [Opcode.FMUL, Opcode.IALU, Opcode.FSQRT]
            ))
            events.append(TraceEvent(opcode, 2.0, 3.0, 6.0))
            continue
        a = draw(st.sampled_from(_OPERANDS))
        b = draw(st.one_of(
            st.sampled_from(_OPERANDS), st.sampled_from([1.0, -1.0])
        ))
        events.append(TraceEvent(Opcode.FDIV, a, b, ieee_div(a, b)))
    return events


@settings(max_examples=200, deadline=None)
@given(
    events=_divide_streams(),
    latency=st.sampled_from([1, 2, 13, 39]),
    entries=st.sampled_from([4, 8, 32]),
)
def test_drawn_divide_streams(events, latency, entries):
    _assert_equal(events, latency, entries)


@pytest.mark.parametrize("backend", execution.names())
@pytest.mark.parametrize("app", ["vgauss", "vkmeans"])
def test_mm_traces(app, backend):
    trace = record_mm_trace(app, "chroms", scale=0.05)
    with execution.use_backend(backend):
        issued = _assert_equal(trace, latency=13, entries=32)
    assert issued.pairs > 0
    assert 0 < issued.second_slot_hits < issued.pairs
    assert issued.speedup > 1.0


def test_fewer_than_two_divides_issue_nothing():
    one = [TraceEvent(Opcode.FDIV, 1.0, 3.0, 1.0 / 3.0)]
    for trace in ([], one):
        issued = _assert_equal(trace, latency=13, entries=32)
        assert issued.pairs == 0
        assert issued.speedup == 1.0
