"""Backend-vs-scalar parity gate for the columnar probe kernel.

The execution backends (``repro.core.backend``) replace four scalar
probe loops; their one contract is *bit-identical* statistics.  These
tests run every bundled ISA program -- and synthetic edge-value traces
-- through every registered non-scalar backend (``fused``, and
whatever else the registry carries) against the scalar reference,
requiring exactly equal ``MemoStats`` / ``UnitStats`` counters, opcode
breakdowns, cycle totals and final table contents.  NaN-carrying
values are compared by bit pattern, never by ``==``.  Every input is
columnar: a plain event list would send the fast backend down its
scalar degrade path and compare the scalar loop with itself.

CI runs this module once per backend (the backend-matrix job) as the
parity gate required by the columnar-pipeline acceptance criteria.
"""

import math
import struct

import pytest

from repro.analysis.static.memo import reference_machine
from repro.arch.latency import FAST_DESIGN
from repro.core import backend as execution
from repro.core import kernel
from repro.core.bank import MemoTableBank
from repro.core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from repro.core.operations import Operation
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAMS
from repro.isa.trace import Trace, TraceEvent
from repro.simulator.cache import MemoryHierarchy
from repro.simulator.pipeline import CycleModel
from repro.simulator.sampling import SamplingPlan, estimate_hit_ratios
from repro.simulator.shade import ShadeSimulator

ALL_OPERATIONS = tuple(Operation)

#: Every registered backend that must match the scalar reference.
NON_SCALAR_BACKENDS = tuple(
    name for name in execution.names() if name != "scalar"
)


def _bits(value):
    """Bit-exact comparison key (NaN payloads and -0.0 must survive)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return ("i", value)
    if value is None:
        return ("n",)
    return ("f", struct.unpack("<Q", struct.pack("<d", float(value)))[0])


def _memo_key(stats):
    return (
        stats.lookups,
        stats.hits,
        stats.insertions,
        stats.evictions,
        stats.commutative_hits,
    )


def _unit_key(stats):
    return (
        stats.operations,
        stats.trivial,
        stats.trivial_hits,
        stats.cycles_base,
        stats.cycles_memo,
    ) + _memo_key(stats.table)


def _bank_fingerprint(bank):
    return {op: _unit_key(unit.stats) for op, unit in bank.units.items()}


def _table_entries(bank):
    """Full table contents, bit-exact -- tags, values, stored operands."""
    contents = {}
    for op, unit in bank.units.items():
        table = unit.table
        if hasattr(table, "_sets"):
            contents[op] = [
                [
                    (e.tag, _bits(e.value), tuple(map(_bits, e.operands)),
                     e.last_used)
                    for e in ways
                ]
                for ways in table._sets
            ]
        else:  # InfiniteMemoTable
            contents[op] = {
                tag: (_bits(value), tuple(map(_bits, operands)))
                for tag, (value, operands) in table._entries.items()
            }
    return contents


@pytest.fixture(scope="module")
def traces():
    """One trace per bundled program, executed once and shared."""
    out = {}
    for name in PROGRAMS:
        machine = reference_machine(name)
        machine.run(max_steps=2_000_000)
        out[name] = machine.trace
    return out


def _run_both(events, make_bank, backend="fused", **kwargs):
    # The fast side must see a columnar view, or it silently degrades
    # to the scalar loop and the comparison proves nothing.
    assert execution.as_batch(events) is not None
    backend_bank = make_bank()
    scalar_bank = make_bank()
    report = ShadeSimulator(
        bank=backend_bank, backend=backend, **kwargs
    ).run(events)
    scalar = ShadeSimulator(
        bank=scalar_bank, backend="scalar", **kwargs
    ).run(events)
    return report, scalar, backend_bank, scalar_bank


class TestProgramParity:
    """Every bundled ISA program: identical stats AND table contents."""

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_shade_stats_identical(self, traces, name, backend):
        events = traces[name]
        report, scalar, b_bank, s_bank = _run_both(
            events, lambda: MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert report.instructions == scalar.instructions
        assert report.breakdown == scalar.breakdown
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_cycle_model_identical(self, traces, name, backend):
        events = traces[name]
        reports = []
        for chosen in (backend, "scalar"):
            bank = MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS,
                latencies=FAST_DESIGN.latencies(),
            )
            model = CycleModel(
                FAST_DESIGN,
                bank=bank,
                hierarchy=MemoryHierarchy(),
                backend=chosen,
            )
            reports.append(model.run(events))
        report, scalar_report = reports
        assert report.base_cycles == scalar_report.base_cycles
        assert report.memo_cycles == scalar_report.memo_cycles
        assert report.cycles_by_opcode == scalar_report.cycles_by_opcode
        assert report.counts_by_opcode == scalar_report.counts_by_opcode
        assert report.hit_ratios == scalar_report.hit_ratios

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_infinite_bank_identical(self, traces, name, backend):
        events = traces[name]
        report, scalar, b_bank, s_bank = _run_both(
            events, lambda: MemoTableBank.infinite(operations=ALL_OPERATIONS),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)


def _edge_trace():
    """Synthetic columnar trace hammering trivial-operand and NaN edge
    cases."""
    nan = float("nan")
    inf = float("inf")
    tiny = 5e-324  # smallest subnormal
    events = []
    fp_pool = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, nan, inf, -inf, tiny, 0.5]
    for op, ok in (
        (Opcode.FMUL, lambda a, b: True),
        (Opcode.FDIV, lambda a, b: True),
        (Opcode.FRECIP, lambda a, b: True),
    ):
        for i, a in enumerate(fp_pool):
            for b in fp_pool[i:]:
                events.append(TraceEvent(op, a, b, 0.25))
    # Domain-limited unary ops: operands their compute function accepts.
    for a in (0.0, 1.0, 4.0, 2.25, 0.5):
        events.append(TraceEvent(Opcode.FSQRT, a, 0.0, math.sqrt(a)))
        events.append(TraceEvent(Opcode.FSIN, a, 0.0, math.sin(a)))
        events.append(TraceEvent(Opcode.FCOS, a, 0.0, math.cos(a)))
    for a in (1.0, 2.0, 0.5, 8.0):
        events.append(TraceEvent(Opcode.FLOG, a, 0.0, math.log(a)))
    int_pool = [0, 1, -1, 2, -7, 2**62, -(2**62), 13]
    for op in (Opcode.IMUL, Opcode.IDIV):
        for i, a in enumerate(int_pool):
            for b in int_pool[i:]:
                if op is Opcode.IDIV and b == 0:
                    continue
                events.append(TraceEvent(op, a, b, 3))
    # Repeat everything so the second pass exercises hits and LRU state.
    return ColumnBatch.from_events(events + events)


class TestEdgeValueParity:
    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize(
        "policy",
        [TrivialPolicy.EXCLUDE, TrivialPolicy.INTEGRATED,
         TrivialPolicy.CACHE_ALL],
    )
    def test_trivial_policies(self, policy, backend):
        events = _edge_trace()
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS, trivial_policy=policy
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_mantissa_tag_mode(self, backend):
        events = _edge_trace()
        config = MemoTableConfig(tag_mode=TagMode.MANTISSA)
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_tiny_geometry_evictions(self, backend):
        # A 4-entry direct-mapped table forces constant evictions; the
        # victim choice (hence final contents) must match exactly.
        events = _edge_trace()
        config = MemoTableConfig(entries=4, associativity=1)
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_validation_mismatch_counts(self, backend):
        # Traced results are wrong on purpose: both tiers must flag the
        # same number of mismatches.
        events = ColumnBatch.from_events([
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 4.0, 5.0, 20.0),
        ])
        report, scalar, _, _ = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(operations=ALL_OPERATIONS),
            validate=True,
            backend=backend,
        )
        assert report.mismatches == scalar.mismatches > 0

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize(
        "replacement", [ReplacementKind.FIFO, ReplacementKind.RANDOM]
    )
    def test_non_lru_replacement(self, replacement, backend):
        # A tiny 2-way table evicts constantly, so every victim choice
        # of the policy (and RANDOM's seeded stream) must line up.
        events = _edge_trace()
        config = MemoTableConfig(
            entries=4, associativity=2, replacement=replacement, seed=3
        )
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)
        assert sum(
            unit.stats.table.evictions for unit in b_bank.units.values()
        ) > 0

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_infinite_table(self, backend):
        events = _edge_trace()
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.infinite(operations=ALL_OPERATIONS),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)


class TestSliceParity:
    """``dispatch(start=, stop=)`` is the sampling front-end's path."""

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("window", [(0, 7), (3, 60), (100, 101),
                                        (40, None)])
    def test_arbitrary_windows(self, traces, window, backend):
        events = traces["memo_showcase"]
        start, stop = window
        results = []
        for chosen in (backend, "scalar"):
            bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
            report = execution.dispatch(
                events, bank.units, start=start, stop=stop, backend=chosen
            )
            results.append((report.instructions, dict(report.counts),
                            _bank_fingerprint(bank)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_sampling_estimator(self, traces, backend):
        events = traces["memo_showcase"]
        plan = SamplingPlan(window=40, interval=150, warmup=10)
        estimates = []
        for chosen in (backend, "scalar"):
            with execution.use_backend(chosen):
                bank = MemoTableBank.paper_baseline(
                    operations=ALL_OPERATIONS
                )
                estimates.append(
                    estimate_hit_ratios(events, bank=bank, plan=plan)
                )
        assert estimates[0].hit_ratios == estimates[1].hit_ratios
        assert estimates[0].events_measured == estimates[1].events_measured


class TestCorpusRoundTripParity:
    def test_v3_roundtrip_preserves_stats(self, traces, tmp_path):
        from repro.corpus.store import TraceCorpus, TraceKey

        corpus = TraceCorpus(tmp_path / "corpus")
        key = TraceKey(suite="parity", name="memo_showcase")
        original = traces["memo_showcase"]
        corpus.put(key, Trace(list(original)))
        corpus.clear_memory()  # force the on-disk (columnar) path
        restored = corpus.get(key)
        assert restored is not None

        fingerprints = []
        for events in (original, restored):
            bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
            ShadeSimulator(bank=bank).run(events)
            fingerprints.append(_bank_fingerprint(bank))
        assert fingerprints[0] == fingerprints[1]


class TestReplayInfiniteParity:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_scalar_reference(self, traces, name):
        events = traces[name]
        assert kernel.replay_infinite(events) == (
            kernel._replay_infinite_scalar(events)
        )
