"""Backend-vs-scalar parity gate for the columnar probe kernel.

The execution backends (``repro.core.backend``) replace four scalar
probe loops; their one contract is *bit-identical* statistics.  These
tests run every bundled ISA program -- and synthetic edge-value traces
-- through the non-scalar backend (``fused``) against the scalar
reference, each side selected with ``use_backend`` or pinned with
``dispatch(..., backend=...)``, requiring exactly equal ``MemoStats`` /
``UnitStats`` counters, opcode breakdowns, cycle totals and final
table contents.  NaN-carrying
values are compared by bit pattern, never by ``==``.  Both backends
take the same columns (``dispatch`` converts any input once); the
scalar one walks their event view.

CI runs this module once per backend (the backend-matrix job) as the
parity gate required by the columnar-pipeline acceptance criteria.
"""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.static.memo import (
    measure_infinite_hit_ratio,
    reference_machine,
)
from repro.arch.latency import FAST_DESIGN, SLOW_DESIGN
from repro.core import backend as execution
from repro.core import kernel
from repro.core.bank import MemoTableBank
from repro.core.config import (
    MemoTableConfig,
    OperandKind,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from repro.core.memo_table import InfiniteMemoTable, MemoTable
from repro.core.operations import Operation
from repro.core.unit import MemoizedUnit
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAMS
from repro.isa.trace import Trace, TraceEvent
from repro.simulator.cache import MemoryHierarchy
from repro.simulator.hazard import HazardModel
from repro.simulator.pipeline import CycleModel
from repro.simulator.shade import ShadeSimulator
from repro.verify import faults
from repro.verify.fuzz import TraceFuzzer

from .hazard_reference import ReferenceHazardModel

ALL_OPERATIONS = tuple(Operation)

#: Every backend that must match the scalar reference.
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
    """Full table contents, bit-exact -- tags, values, stored operands,
    recency and insertion clocks, in way order."""
    contents = {}
    for op, unit in bank.units.items():
        table = unit.table
        if hasattr(table, "_sets"):
            contents[op] = [
                [
                    (e.tag, _bits(e.value), tuple(map(_bits, e.operands)),
                     e.last_used, e.inserted)
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


def _table_clocks(bank):
    return {
        op: unit.table._clock
        for op, unit in bank.units.items()
        if hasattr(unit.table, "_clock")
    }


def _count_calls(monkeypatch, names):
    """Wrap each kernel function in ``names`` (all take the unit first)
    so every call appends the unit's operation to the returned list."""
    calls = []
    for name in names:
        original = getattr(kernel, name)

        def counting(unit, *args, _original=original, **kwargs):
            calls.append(unit.operation)
            return _original(unit, *args, **kwargs)

        monkeypatch.setattr(kernel, name, counting)
    return calls


@pytest.fixture
def fused_served(monkeypatch):
    """The operations whose partitions the pair-id loop served, one
    entry per partition (the scalar backend never reaches it).  A
    replay from the probe memo counts as the loop's service: the memo
    only ever stores the loop's runs.  (An INT unit under a MANTISSA
    config tags full values, so it replays a partition that an earlier
    test on the shared ``traces`` already probed.)"""
    return _count_calls(monkeypatch, ("_probe_fused", "_replay_fused"))


@pytest.fixture
def loop_runs(monkeypatch):
    """The operations the pair-id loop itself ran for, one entry per
    partition (memo replays not counted)."""
    return _count_calls(monkeypatch, ("_probe_fused",))


@pytest.fixture
def replays(monkeypatch):
    """The operations whose partitions a probe-memo replay served."""
    return _count_calls(monkeypatch, ("_replay_fused",))


@pytest.fixture
def infinite_served(monkeypatch):
    """The operations whose partitions the tag dict loop served."""
    return _count_calls(monkeypatch, ("_probe_infinite",))


@pytest.fixture
def executed(monkeypatch):
    """The operation of every ``unit.execute`` call, one entry each."""
    calls = []
    original = MemoizedUnit.execute

    def counting(unit, *args, **kwargs):
        calls.append(unit.operation)
        return original(unit, *args, **kwargs)

    monkeypatch.setattr(MemoizedUnit, "execute", counting)
    return calls


@pytest.fixture
def batch_runs(monkeypatch):
    """One entry per call of the fused entry point, ``_run_batch``."""
    calls = []
    original = kernel._run_batch

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "_run_batch", counting)
    return calls


def _probed(bank):
    """Operations that saw at least one event, one entry each."""
    return sorted(
        (op for op, unit in bank.units.items() if unit.stats.operations),
        key=lambda op: op.name,
    )


@pytest.fixture(scope="module")
def traces():
    """One trace per bundled program, executed once and shared."""
    out = {}
    for name in PROGRAMS:
        machine = reference_machine(name)
        machine.run(max_steps=2_000_000)
        out[name] = machine.trace
    return out


def _run_both(events, make_bank, backend="fused"):
    backend_bank = make_bank()
    scalar_bank = make_bank()
    with execution.use_backend(backend):
        report = ShadeSimulator(bank=backend_bank).run(events)
    with execution.use_backend("scalar"):
        scalar = ShadeSimulator(bank=scalar_bank).run(events)
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
                FAST_DESIGN, bank=bank, hierarchy=MemoryHierarchy()
            )
            with execution.use_backend(chosen):
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

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize(
        "policy, tag_mode",
        [
            (TrivialPolicy.INTEGRATED, TagMode.FULL),
            (TrivialPolicy.CACHE_ALL, TagMode.FULL),
            (TrivialPolicy.EXCLUDE, TagMode.MANTISSA),
        ],
        ids=["integrated", "cache-all", "mantissa"],
    )
    def test_table9_table10_configs_take_the_pair_id_loop(
        self, traces, name, backend, policy, tag_mode, fused_served
    ):
        config = MemoTableConfig(tag_mode=tag_mode)
        report, scalar, b_bank, s_bank = _run_both(
            traces[name],
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS,
                trivial_policy=policy,
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)
        assert sorted(fused_served, key=lambda op: op.name) == _probed(b_bank)


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
    def test_trivial_policies(self, policy, backend, fused_served):
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
        assert sorted(fused_served, key=lambda op: op.name) == _probed(b_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    def test_mantissa_tag_mode(self, backend, fused_served):
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
        assert _table_entries(b_bank) == _table_entries(s_bank)
        assert sorted(fused_served, key=lambda op: op.name) == _probed(b_bank)

    @pytest.mark.parametrize("backend", NON_SCALAR_BACKENDS)
    @pytest.mark.parametrize(
        "entries, ways", [(2, 1), (2, 2)], ids=["direct", "two-way"]
    )
    def test_mantissa_reinsert_takes_the_inserting_operands(
        self, entries, ways, backend, fused_served
    ):
        # (1.5, 3.0), (-6.0, 0.75) and (0.375, -12.0) share one mantissa
        # pair but differ in sign and exponent.  The others evict it in
        # between, so each re-insert must store its own operands and
        # value, not those of the pair's first occurrence.
        pairs = [
            (1.5, 3.0), (1.25, 1.125), (1.375, 1.0625),
            (-6.0, 0.75), (1.5, 3.0), (1.25, 1.125), (1.375, 1.0625),
            (1.75, 1.875), (0.375, -12.0), (-6.0, 0.75),
        ]
        events = ColumnBatch.from_events(
            [TraceEvent(Opcode.FDIV, a, b, a / b) for a, b in pairs]
        )
        config = MemoTableConfig(
            entries=entries, associativity=ways, tag_mode=TagMode.MANTISSA
        )
        report, scalar, b_bank, s_bank = _run_both(
            events,
            lambda: MemoTableBank.paper_baseline(
                config=config, operations=(Operation.FP_DIV,)
            ),
            backend=backend,
        )
        assert _bank_fingerprint(b_bank) == _bank_fingerprint(s_bank)
        assert _table_entries(b_bank) == _table_entries(s_bank)
        assert b_bank.units[Operation.FP_DIV].table.stats.evictions > 0
        stored = {
            entry.operands
            for ways_ in b_bank.units[Operation.FP_DIV].table._sets
            for entry in ways_
        }
        # The last insert of the shared pair was (0.375, -12.0); the
        # final (-6.0, 0.75) hits it.
        assert (0.375, -12.0) in stored
        assert (1.5, 3.0) not in stored
        assert fused_served == [Operation.FP_DIV]

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

    @pytest.mark.parametrize("backend", execution.names())
    def test_validation_mismatch_counts(self, backend, batch_runs):
        # Traced results are wrong on purpose.  Only the scalar loop
        # validates, so a validating run takes it under either
        # selection, counts both mismatches and is attributed to it.
        events = ColumnBatch.from_events([
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 2.0, 3.0, 999.0),
            TraceEvent(Opcode.FMUL, 4.0, 5.0, 20.0),
        ])
        registry = obs.MetricsRegistry()
        obs.set_enabled(True)
        try:
            with obs.use_registry(registry), execution.use_backend(backend):
                report = ShadeSimulator(
                    bank=MemoTableBank.paper_baseline(
                        operations=ALL_OPERATIONS
                    ),
                    validate=True,
                ).run(events)
        finally:
            obs.set_enabled(None)
        counters = registry.as_dict()["counters"]
        assert report.mismatches == 2
        assert batch_runs == []
        assert counters["backend.scalar.dispatches"] == 1
        assert "backend.fused.dispatches" not in counters

    def test_validation_still_resolves_the_backend_name(self):
        bank = MemoTableBank.paper_baseline()
        with pytest.raises(execution.UnknownBackendError):
            execution.dispatch(
                _edge_trace(), bank.units, backend="warp-drive",
                validate=True,
            )

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


def _infinite_bank(policy, tag_mode):
    """Infinite tables for every operation under ``policy``, the float
    ones with ``tag_mode`` tags (``MemoTableBank.infinite`` builds FULL
    ones; integer tables always tag full values)."""
    return MemoTableBank({
        op: MemoizedUnit(
            op,
            table=InfiniteMemoTable(
                op.operand_kind,
                TagMode.FULL if op.operand_kind is OperandKind.INT
                else tag_mode,
                op.commutative,
            ),
            trivial_policy=policy,
        )
        for op in ALL_OPERATIONS
    })


INFINITE_CONFIGS = [
    (policy, tag_mode)
    for policy in (TrivialPolicy.EXCLUDE, TrivialPolicy.INTEGRATED,
                   TrivialPolicy.CACHE_ALL)
    for tag_mode in (TagMode.FULL, TagMode.MANTISSA)
]


def _assert_tag_dict_parity(batch, policy, tag_mode, served, executed):
    """The fused pass over an infinite bank runs the tag dict loop for
    every probed partition, never ``unit.execute``, and leaves the
    scalar loop's counters, entries and outcome column."""
    batch = execution.as_batch(batch)
    del served[:], executed[:]
    bank = _infinite_bank(policy, tag_mode)
    with execution.use_backend("fused"):
        outcomes = execution.probe_outcomes(batch, bank.units)
    assert executed == []
    assert sorted(served, key=lambda op: op.name) == _probed(bank)
    reference = _infinite_bank(policy, tag_mode)
    with execution.use_backend("scalar"):
        expected = execution.probe_outcomes(batch, reference.units)
    assert _bank_fingerprint(bank) == _bank_fingerprint(reference)
    assert _table_entries(bank) == _table_entries(reference)
    assert np.array_equal(outcomes, expected)


#: Float operands: trivial ones, repeats, values sharing a mantissa
#: across sign and exponent, signed zeros, infinities, a NaN and the
#: odd drawn value.
_FLOATS = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -1.0, 1.5, 3.0, -6.0, 0.75, 2.5,
        float("inf"), float("-inf"), float("nan"),
    ]),
    st.floats(width=64),
)
_INTS = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, -7, 12]),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
)


@st.composite
def _memo_events(draw):
    opcode = draw(st.sampled_from([
        Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT, Opcode.FRECIP,
        Opcode.FLOG, Opcode.IMUL, Opcode.IDIV, Opcode.IALU,
    ]))
    if opcode in (Opcode.IMUL, Opcode.IDIV):
        return TraceEvent(opcode, draw(_INTS), draw(_INTS), 0)
    if opcode is Opcode.IALU:
        return TraceEvent(opcode, 1, 2, 3)
    return TraceEvent(opcode, draw(_FLOATS), draw(_FLOATS), 0.0)


@st.composite
def _memo_traces(draw):
    # Repeat drawn events so operand pairs recur, as memoization needs.
    pool = draw(st.lists(_memo_events(), min_size=1, max_size=30))
    length = draw(st.integers(1, 300))
    rng = draw(st.randoms(use_true_random=False))
    return ColumnBatch.from_events(
        [rng.choice(pool) for _ in range(length)]
    )


class TestInfiniteTagDictLoop:
    """The tag dict loop serves every ``InfiniteMemoTable``: EXCLUDE,
    INTEGRATED and CACHE_ALL, FULL and MANTISSA tags."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bundled_programs(
        self, traces, name, infinite_served, executed
    ):
        for policy, tag_mode in INFINITE_CONFIGS:
            _assert_tag_dict_parity(
                traces[name], policy, tag_mode, infinite_served, executed
            )

    def test_edge_values(self, infinite_served, executed):
        for policy, tag_mode in INFINITE_CONFIGS:
            _assert_tag_dict_parity(
                _edge_trace(), policy, tag_mode, infinite_served, executed
            )

    @given(batch=_memo_traces(), config=st.sampled_from(INFINITE_CONFIGS))
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    def test_drawn_traces(self, batch, config, infinite_served, executed):
        policy, tag_mode = config
        _assert_tag_dict_parity(
            batch, policy, tag_mode, infinite_served, executed
        )


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


class TestCorpusRoundTripParity:
    def test_v3_roundtrip_preserves_stats(self, traces, tmp_path):
        from repro.corpus.store import TraceCorpus, TraceKey

        corpus = TraceCorpus(tmp_path / "corpus")
        key = TraceKey(suite="parity", name="memo_showcase")
        original = traces["memo_showcase"]
        corpus.put(key, Trace(list(original)))
        restored = corpus.get(key)  # decoded from disk, column-backed
        assert restored is not None

        fingerprints = []
        for events in (original, restored):
            bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
            ShadeSimulator(bank=bank).run(events)
            fingerprints.append(_bank_fingerprint(bank))
        assert fingerprints[0] == fingerprints[1]


def _replay_infinite_reference(events):
    """The event-walking reference of ``measure_infinite_hit_ratio``:
    real per-class infinite tables, one lookup per event."""
    tables = {}
    counts = {}
    hits = 0
    total = 0
    for event in events:
        operation = event.opcode.operation
        if operation is None:
            continue
        table = tables.get(operation)
        if table is None:
            table = InfiniteMemoTable(
                operand_kind=operation.operand_kind,
                tag_mode=TagMode.FULL,
                commutative=operation.commutative,
            )
            tables[operation] = table
        found = table.lookup(event.a, event.b)
        if found.hit:
            hits += 1
        else:
            table.insert(event.a, event.b, event.result)
        if event.pc is not None:
            counts[event.pc] = counts.get(event.pc, 0) + 1
        total += 1
    return counts, hits, total


class TestReplayInfiniteParity:
    """``measure_infinite_hit_ratio`` (one dispatch into a CACHE_ALL
    infinite bank, per-pc counts from the pc column) against real
    infinite tables walked one event at a time."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_scalar_reference(self, traces, name):
        events = traces[name]
        assert measure_infinite_hit_ratio(SimpleNamespace(trace=events)) == (
            _replay_infinite_reference(events)
        )

    def test_matches_reference_on_fuzzed_traces(self):
        # Fuzzer cases carry edge operands (NaN payloads, -0.0, int64
        # corners, mixed int/float triples) as plain event lists.
        for seed in range(40):
            fuzzer = TraceFuzzer(seed=seed)
            for _ in range(25):
                events = fuzzer.next_case().events
                measured = measure_infinite_hit_ratio(
                    SimpleNamespace(trace=events)
                )
                assert measured == _replay_infinite_reference(events), seed


def _fresh(events):
    """A copy of ``events``' columns that no dispatch has seen, so its
    probe memo starts empty."""
    batch = ColumnBatch()
    batch.extend_batch(execution.as_batch(events))
    return batch


def _assert_same_state(bank, reference):
    assert _bank_fingerprint(bank) == _bank_fingerprint(reference)
    assert _table_entries(bank) == _table_entries(reference)
    assert _table_clocks(bank) == _table_clocks(reference)


class _SubclassTable(MemoTable):
    """A custom table class: the kernel serves it through
    ``unit.execute``, never the pair-id loop or its memo."""


class TestProbeMemo:
    """A partition dispatched again into an equally configured,
    never-probed table replays the pair-id loop's stored run instead of
    running the loop, and leaves exactly what the scalar reference
    leaves; every other table runs its own loop."""

    @pytest.mark.parametrize(
        "tag_mode", [TagMode.FULL, TagMode.MANTISSA], ids=["full", "mantissa"]
    )
    @pytest.mark.parametrize(
        "policy",
        [TrivialPolicy.EXCLUDE, TrivialPolicy.INTEGRATED,
         TrivialPolicy.CACHE_ALL],
        ids=["exclude", "integrated", "cache-all"],
    )
    @pytest.mark.parametrize(
        "replacement", [ReplacementKind.LRU, ReplacementKind.FIFO],
        ids=["lru", "fifo"],
    )
    def test_replay_equals_probe(
        self, traces, replacement, policy, tag_mode, loop_runs, replays
    ):
        config = MemoTableConfig(
            entries=8, associativity=2, replacement=replacement,
            tag_mode=tag_mode,
        )

        def make_bank():
            return MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS,
                trivial_policy=policy,
            )

        inputs = [traces[name] for name in sorted(PROGRAMS)]
        inputs.append(_edge_trace())
        for events in inputs:
            execution.dispatch(events, make_bank().units, backend="fused")
            del loop_runs[:], replays[:]
            bank = make_bank()
            execution.dispatch(events, bank.units, backend="fused")
            assert loop_runs == []
            assert sorted(replays, key=lambda op: op.name) == _probed(bank)
            reference = make_bank()
            execution.dispatch(events, reference.units, backend="scalar")
            _assert_same_state(bank, reference)

    def test_replay_decodes_no_partition(self, traces, monkeypatch, replays):
        # The memo is consulted before any operand is read: a partition
        # served from it is never decoded.
        decoded = []
        for name in ("_partition_arrays", "_decode_partition"):
            def counting(*args, _original=getattr(kernel, name), _name=name):
                decoded.append(_name)
                return _original(*args)

            monkeypatch.setattr(kernel, name, counting)

        def make_bank():
            return MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)

        batch = _fresh(traces["memo_showcase"])
        execution.dispatch(batch, make_bank().units, backend="fused")
        assert decoded
        del decoded[:]
        bank = make_bank()
        execution.dispatch(batch, bank.units, backend="fused")
        assert decoded == []
        assert sorted(replays, key=lambda op: op.name) == _probed(bank)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_one_probe_serves_two_machines(self, traces, name, loop_runs):
        # A machine's latencies change only the cycle charge, so the
        # SLOW run replays the FAST run's probes and still charges its
        # own latencies -- in the cycle model and in the hazard pass.
        batch = _fresh(traces[name])
        events = batch.to_events()
        for machine in (FAST_DESIGN, SLOW_DESIGN):
            del loop_runs[:]
            reports = []
            for chosen, trace in (("fused", batch), ("scalar", events)):
                bank = MemoTableBank.paper_baseline(
                    operations=ALL_OPERATIONS,
                    latencies=machine.latencies(),
                )
                model = CycleModel(
                    machine, bank=bank, hierarchy=MemoryHierarchy()
                )
                with execution.use_backend(chosen):
                    reports.append(model.run(trace))
            report, scalar_report = reports
            assert report.base_cycles == scalar_report.base_cycles
            assert report.memo_cycles == scalar_report.memo_cycles
            assert report.cycles_by_opcode == scalar_report.cycles_by_opcode
            if machine is SLOW_DESIGN:
                assert loop_runs == []
        for machine in (FAST_DESIGN, SLOW_DESIGN):
            del loop_runs[:]
            hazard = []
            for model_type, trace in (
                (HazardModel, batch), (ReferenceHazardModel, events)
            ):
                bank = MemoTableBank.paper_baseline(
                    operations=ALL_OPERATIONS,
                    latencies=machine.latencies(),
                )
                with execution.use_backend("fused"):
                    hazard.append(model_type(machine, bank=bank).run(trace))
            assert hazard[0] == hazard[1]
            assert loop_runs == []

    @pytest.mark.parametrize(
        "case",
        ["probed", "flushed", "random", "validate", "fault", "infinite",
         "subclass"],
    )
    def test_never_served(self, traces, case, loop_runs, replays,
                          batch_runs):
        # A plain dispatch first stores this batch's run for the config
        # (RANDOM excepted); the dispatch under test must not replay it.
        config = MemoTableConfig(
            entries=8, associativity=2,
            replacement=(
                ReplacementKind.RANDOM if case == "random"
                else ReplacementKind.LRU
            ),
            seed=7,
        )

        def plain_bank():
            return MemoTableBank.paper_baseline(
                config=config, operations=ALL_OPERATIONS
            )

        def case_bank():
            if case == "infinite":
                return MemoTableBank.infinite(operations=ALL_OPERATIONS)
            bank = plain_bank()
            if case == "subclass":
                for unit in bank.units.values():
                    unit.table = _SubclassTable(unit.table.config)
                    unit.stats.table = unit.table.stats
            return bank

        def run(bank, backend="fused", validate=False):
            execution.dispatch(
                batch, bank.units, backend=backend, validate=validate
            )

        batch = _fresh(traces["memo_showcase"])
        if case == "fault":
            with faults.inject("lru_victim_off_by_one"):
                faulty = plain_bank()
                run(faulty)
            # A faulty run is never stored ...
            del loop_runs[:]
            clean, reference = plain_bank(), plain_bank()
            run(clean)
            run(reference, "scalar")
            assert loop_runs
            _assert_same_state(clean, reference)
            # ... and an armed fault never replays a clean one.
            del loop_runs[:]
            with faults.inject("lru_victim_off_by_one"):
                again = plain_bank()
                run(again)
            assert loop_runs
            assert _bank_fingerprint(again) == _bank_fingerprint(faulty)
            assert replays == []
            return
        first, reference = plain_bank(), case_bank()
        run(first)
        if case in ("probed", "flushed"):
            second = first
            run(reference, "scalar")
            if case == "flushed":
                second.flush()
                reference.flush()
        else:
            second = case_bank()
        del loop_runs[:], batch_runs[:]
        run(second, validate=case == "validate")
        if case == "validate":
            # Validation runs on the scalar loop, whatever the selection.
            assert batch_runs == []
        run(reference, "scalar", validate=case == "validate")
        assert replays == []
        if case in ("probed", "flushed", "random"):
            assert sorted(loop_runs, key=lambda op: op.name) == (
                _probed(second)
            )
        else:
            assert loop_runs == []
        _assert_same_state(second, reference)

    def test_replay_records_the_same_metrics(self, traces, loop_runs):
        batch = _fresh(traces["memo_showcase"])
        snapshots = []
        obs.set_enabled(True)
        try:
            for _ in range(2):
                del loop_runs[:]
                registry = obs.MetricsRegistry()
                with obs.use_registry(registry), (
                    execution.use_backend("fused")
                ):
                    ShadeSimulator(
                        bank=MemoTableBank.paper_baseline(
                            operations=ALL_OPERATIONS
                        ),
                    ).run(batch)
                    CycleModel(
                        FAST_DESIGN,
                        bank=MemoTableBank.paper_baseline(
                            operations=ALL_OPERATIONS,
                            latencies=FAST_DESIGN.latencies(),
                        ),
                    ).run(batch)
                snapshots.append((registry.as_dict(), list(loop_runs)))
        finally:
            obs.set_enabled(None)
        (first, first_loops), (replayed, replayed_loops) = snapshots
        assert first_loops and not replayed_loops
        assert replayed["counters"] == first["counters"]
        assert {
            name: span["count"] for name, span in replayed["spans"].items()
        } == {name: span["count"] for name, span in first["spans"].items()}
