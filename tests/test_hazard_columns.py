"""The columnar hazard pass against the event-walking reference.

``HazardModel.run`` runs a columnar trace as one pass over its
``ColumnBatch`` -- the kernel's per-event outcome column, one cache
hierarchy walk, numpy producer resolution and one schedule loop -- and
keeps the event loop as the reference it runs for plain event
iterables and under the ``scalar`` backend.  Both must produce equal
reports, every field, and leave the bank in the same state: the same
statistics and the same table contents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static.memo import reference_machine
from repro.arch.latency import FAST_DESIGN, SLOW_DESIGN
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from repro.core.operations import Operation
from repro.experiments.common import DEFAULT_IMAGE_SET, record_mm_trace
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAMS
from repro.isa.trace import Trace, TraceEvent
from repro.simulator.hazard import HazardModel
from repro.verify.differential import (
    ALL_OPERATIONS,
    _bank_contents,
    _bank_fingerprint,
)
from repro.workloads.khoros import SPEEDUP_APPS

MACHINES = (FAST_DESIGN, SLOW_DESIGN)
WIDTHS = (1, 2, 3)

#: Every replacement policy x trivial policy x tag mode (18 banks).
BANK_CONFIGS = [
    (replacement, policy, tag_mode)
    for replacement in ReplacementKind
    for policy in TrivialPolicy
    for tag_mode in TagMode
]


def _config_id(config):
    return "-".join(part.name.lower() for part in config)


def _small_bank(machine, replacement, policy, tag_mode):
    """A factory for a bank small enough to evict constantly."""
    config = MemoTableConfig(
        entries=8, associativity=2, replacement=replacement,
        tag_mode=tag_mode, seed=5,
    )
    return lambda: MemoTableBank.paper_baseline(
        config=config, operations=ALL_OPERATIONS, trivial_policy=policy,
        latencies=machine.latencies(),
    )


def _paper_bank(machine, operations=ALL_OPERATIONS):
    return lambda: MemoTableBank.paper_baseline(
        operations=operations, latencies=machine.latencies()
    )


def _assert_columns_match_events(machine, trace, width, make_bank=None):
    """Run ``trace`` columnar and as plain events on fresh banks."""
    reports, banks = [], []
    for events in (trace.columns(), trace.events):
        bank = make_bank() if make_bank is not None else None
        with execution.use_backend("fused"):
            model = HazardModel(machine, bank=bank, issue_width=width)
            reports.append(model.run(events))
        banks.append(bank)
    columnar, reference = reports
    assert columnar == reference
    if make_bank is not None:
        assert _bank_fingerprint(banks[0]) == _bank_fingerprint(banks[1])
        assert _bank_contents(banks[0]) == _bank_contents(banks[1])
    return columnar


@pytest.fixture(scope="module")
def program_traces():
    out = {}
    for name in PROGRAMS:
        for n in (64, 256):
            machine = reference_machine(name, n=n)
            machine.run(max_steps=2_000_000)
            out[name, n] = machine.trace
    return out


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bundled_programs(program_traces, name, n):
    trace = program_traces[name, n]
    for machine in MACHINES:
        for width in WIDTHS:
            _assert_columns_match_events(machine, trace, width)
            report = _assert_columns_match_events(
                machine, trace, width, _paper_bank(machine)
            )
            assert report.instructions == len(trace)


@pytest.mark.parametrize("config", BANK_CONFIGS, ids=_config_id)
def test_bank_configurations(program_traces, config):
    for name in sorted(PROGRAMS):
        trace = program_traces[name, 64]
        for machine in MACHINES:
            for width in WIDTHS:
                _assert_columns_match_events(
                    machine, trace, width, _small_bank(machine, *config)
                )


@pytest.mark.parametrize("app", SPEEDUP_APPS)
def test_ext_hazard_traces(app):
    memoized = (Operation.FP_MUL, Operation.FP_DIV)
    for image in DEFAULT_IMAGE_SET[:3]:
        trace = record_mm_trace(app, image, scale=0.05)
        for machine in MACHINES:
            for width in WIDTHS:
                _assert_columns_match_events(machine, trace, width)
                _assert_columns_match_events(
                    machine, trace, width, _paper_bank(machine, memoized)
                )


def test_scalar_backend_walks_events(program_traces, monkeypatch):
    trace = program_traces["memo_showcase", 64]
    expected = _assert_columns_match_events(
        FAST_DESIGN, trace, 2, _paper_bank(FAST_DESIGN)
    )

    def refuse(self, batch):
        raise AssertionError("the scalar backend took the columnar pass")

    monkeypatch.setattr(HazardModel, "_run_columns", refuse)
    with execution.use_backend("scalar"):
        bank = _paper_bank(FAST_DESIGN)()
        report = HazardModel(FAST_DESIGN, bank=bank, issue_width=2).run(trace)
    assert report == expected


# -- generated dataflow traces ------------------------------------------------

_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 3.0, 1.5, -6.0,
           float("nan")]
_INTS = [0, 1, -1, 2, 3, -7, 12, 2**62, 2**70, -(2**66)]
_FLOAT_OPS = [Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT, Opcode.FRECIP,
              Opcode.FLOG, Opcode.FSIN, Opcode.FCOS]
_PLAIN_OPS = [Opcode.IALU, Opcode.FADD, Opcode.BRANCH, Opcode.NOP]


@st.composite
def _dataflow_events(draw):
    """Events with 0-4 sources, redefined and never-written value ids,
    events without ``dst``, loads/stores with and without an address,
    and integer operands beyond int64 (wide events)."""
    events = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["float", "int", "memory", "plain"]))
        srcs = tuple(draw(st.lists(st.integers(0, 12), max_size=4)))
        dst = draw(st.one_of(st.none(), st.integers(0, 9)))
        if kind == "float":
            opcode = draw(st.sampled_from(_FLOAT_OPS))
            a = draw(st.sampled_from(_FLOATS))
            b = draw(st.sampled_from(_FLOATS))
            events.append(TraceEvent(opcode, a, b, 0.0, dst=dst, srcs=srcs))
        elif kind == "int":
            opcode = draw(st.sampled_from([Opcode.IMUL, Opcode.IDIV]))
            a = draw(st.sampled_from(_INTS))
            b = draw(st.sampled_from(_INTS))
            events.append(TraceEvent(opcode, a, b, a * b, dst=dst, srcs=srcs))
        elif kind == "memory":
            opcode = draw(st.sampled_from([Opcode.LOAD, Opcode.STORE]))
            address = draw(st.one_of(
                st.none(), st.integers(0, 1 << 16).map(lambda x: x * 8)
            ))
            events.append(TraceEvent(
                opcode, 0.0, 0.0, 0.0, address=address, dst=dst, srcs=srcs
            ))
        else:
            opcode = draw(st.sampled_from(_PLAIN_OPS))
            events.append(TraceEvent(opcode, 0.0, 0.0, 0.0, dst=dst, srcs=srcs))
    return events


@settings(max_examples=120, deadline=None)
@given(
    events=_dataflow_events(),
    machine=st.sampled_from(MACHINES),
    width=st.sampled_from(WIDTHS),
    config=st.one_of(st.none(), st.sampled_from(BANK_CONFIGS)),
)
def test_generated_dataflow_traces(events, machine, width, config):
    make_bank = None if config is None else _small_bank(machine, *config)
    _assert_columns_match_events(machine, Trace(events), width, make_bank)
