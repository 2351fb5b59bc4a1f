"""Tests for the binary trace format and trace sampling."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.core.stats import UnitStats
from repro.errors import ConfigurationError, TraceFormatError
from repro.isa.columns import ColumnBatch
from repro.isa.binfmt import read_column_blocks, write_column_trace
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.simulator.sampling import SamplingPlan, estimate_hit_ratios
from repro.simulator.shade import ShadeSimulator


def _encode(events) -> bytes:
    buffer = io.BytesIO()
    write_column_trace(ColumnBatch.from_events(events), buffer)
    return buffer.getvalue()


def _decode(blob: bytes):
    return ColumnBatch.concat(read_column_blocks(io.BytesIO(blob))).to_events()


def _roundtrip(events):
    return _decode(_encode(events))


class TestBinaryFormat:
    def test_roundtrip_mixed_trace(self):
        events = [
            TraceEvent(Opcode.FMUL, 0.1, -2.5, -0.25),
            TraceEvent(Opcode.IMUL, -7, 2**40, -7 * 2**40),
            TraceEvent(Opcode.LOAD, address=0xDEADBEEF),
            TraceEvent(Opcode.STORE, address=0x10),
            TraceEvent(Opcode.BRANCH),
            TraceEvent(Opcode.FDIV, 1.0, 3.0, 1.0 / 3.0),
            TraceEvent(Opcode.FSQRT, 2.0, 0.0, math.sqrt(2.0)),
        ]
        assert _roundtrip(events) == events

    def test_negative_zero_and_inf_exact(self):
        events = [TraceEvent(Opcode.FMUL, -0.0, math.inf, -math.inf)]
        restored = _roundtrip(events)[0]
        assert math.copysign(1.0, restored.a) == -1.0
        assert restored.b == math.inf

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            _decode(b"NOTATRACE")

    def test_truncated_record_rejected(self):
        blob = _encode([TraceEvent(Opcode.FMUL, 1.0, 2.0, 2.0)])
        with pytest.raises(TraceFormatError, match="truncated"):
            _decode(blob[:-5])

    def test_imul_overflow_rejected(self):
        with pytest.raises(TraceFormatError, match="int64"):
            _roundtrip([TraceEvent(Opcode.IMUL, 2**70, 1, 2**70)])

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False),
                st.floats(allow_nan=False),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_float_roundtrip_property(self, pairs):
        events = [TraceEvent(Opcode.FDIV, a, b, 1.0) for a, b in pairs]
        assert _roundtrip(events) == events

    def test_statistics_preserved_through_format(self, small_image):
        from repro.workloads.khoros import run_kernel
        from repro.workloads.recorder import OperationRecorder

        recorder = OperationRecorder()
        run_kernel("vgauss", recorder, small_image)
        direct = ShadeSimulator().run(recorder.trace)
        restored = _roundtrip(recorder.trace.events)
        replayed = ShadeSimulator().run(restored)
        assert replayed.hit_ratio(Operation.FP_MUL) == direct.hit_ratio(
            Operation.FP_MUL
        )
        assert replayed.breakdown == direct.breakdown


class TestBinaryFormatV2:
    """Annotated events -- synthetic PCs and dataflow ids, what the
    retired v2 records added -- survive the format alongside operands."""

    def _annotated(self):
        return [
            TraceEvent(Opcode.FMUL, 1.5, 2.0, 3.0, dst=9, srcs=(1, 2), pc=0x40),
            TraceEvent(Opcode.IMUL, -7, 2**40, -7 * 2**40, dst=3, srcs=(3,)),
            TraceEvent(Opcode.LOAD, address=0xDEADBEEF, dst=4, pc=0x44),
            TraceEvent(Opcode.STORE, address=0x10, srcs=(4, 9)),
            TraceEvent(Opcode.BRANCH, pc=0x48),
            TraceEvent(Opcode.FDIV, 1.0, 3.0, 1.0 / 3.0),
        ]

    def test_v2_preserves_annotations(self):
        assert _roundtrip(self._annotated()) == self._annotated()

    def test_v2_preserves_non_memoizable_operands(self):
        # FADD operands matter to dual-issue style experiments; the
        # property tests never give plain events operands, so this is
        # the check that they are archived.
        event = TraceEvent(Opcode.FADD, 1.25, 2.5, 3.75)
        assert _roundtrip([event])[0] == event

    def test_v2_negative_zero_and_inf_exact(self):
        events = [TraceEvent(Opcode.FMUL, -0.0, math.inf, -math.inf,
                             dst=1, pc=8)]
        restored = _roundtrip(events)[0]
        assert math.copysign(1.0, restored.a) == -1.0
        assert restored.b == math.inf
        assert restored.pc == 8

    def test_truncated_v2_tail_rejected(self):
        # Clipping the tail cuts into the src-id column.
        blob = _encode(self._annotated())
        with pytest.raises(TraceFormatError, match="truncated"):
            _decode(blob[:-3])

    def test_statistics_preserved_through_v2(self, small_image):
        from repro.workloads.khoros import run_kernel
        from repro.workloads.recorder import OperationRecorder

        recorder = OperationRecorder(record_sites=True)
        run_kernel("vgauss", recorder, small_image)
        restored = _roundtrip(recorder.trace.events)
        assert restored == list(recorder.trace.events)
        assert any(event.pc is not None for event in restored)
        direct = ShadeSimulator().run(recorder.trace)
        replayed = ShadeSimulator().run(restored)
        assert replayed.breakdown == direct.breakdown


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplingPlan(window=0)
        with pytest.raises(ConfigurationError):
            SamplingPlan(window=900, warmup=200, interval=1000)

    def test_simulated_fraction(self):
        plan = SamplingPlan(window=100, warmup=100, interval=1000)
        assert plan.simulated_fraction == pytest.approx(0.2)


class TestSampledEstimates:
    def _long_trace(self):
        """A long periodic trace with a known steady-state hit ratio."""
        events = []
        for i in range(20_000):
            value = float(i % 20) + 1.5  # 20-pair working set, fits 32/4
            events.append(TraceEvent(Opcode.FDIV, value, 2.0, value / 2.0))
        return events

    def test_estimate_matches_full_simulation(self):
        events = self._long_trace()
        full = ShadeSimulator(MemoTableBank.paper_baseline()).run(events)
        estimate = estimate_hit_ratios(
            events,
            plan=SamplingPlan(window=500, interval=4000, warmup=250),
        )
        assert estimate.hit_ratios[Operation.FP_DIV] == pytest.approx(
            full.hit_ratio(Operation.FP_DIV), abs=0.05
        )

    def test_sampling_actually_skips_work(self):
        events = self._long_trace()
        estimate = estimate_hit_ratios(
            events, plan=SamplingPlan(window=500, interval=4000, warmup=250)
        )
        assert estimate.events_simulated < len(events) / 2
        assert estimate.speedup_factor > 2.0

    def test_kernel_trace_estimate(self, small_image):
        from repro.workloads.khoros import run_kernel
        from repro.workloads.recorder import OperationRecorder

        recorder = OperationRecorder()
        run_kernel("vgauss", recorder, small_image)
        events = recorder.trace.events
        full = ShadeSimulator(MemoTableBank.paper_baseline()).run(events)
        estimate = estimate_hit_ratios(
            events, plan=SamplingPlan(window=400, interval=1200, warmup=200)
        )
        assert estimate.hit_ratios[Operation.FP_MUL] == pytest.approx(
            full.hit_ratio(Operation.FP_MUL), abs=0.15
        )

    def test_short_trace_fully_measured(self):
        events = [TraceEvent(Opcode.FDIV, 3.0, 2.0, 1.5)] * 50
        estimate = estimate_hit_ratios(
            events, plan=SamplingPlan(window=100, interval=200, warmup=0)
        )
        assert estimate.events_measured == 50
        assert estimate.hit_ratios[Operation.FP_DIV] == pytest.approx(49 / 50)

    def test_events_measured_counts_trivial_and_non_memo_events(self):
        # Regression: events_measured used to sum per-unit table lookups,
        # so windows full of trivial hits (x*1.0 never probes the table)
        # and non-memo events (loads) reported ~0 "measured" events even
        # though hit_ratios folded the trivial hits in.  It must count
        # every event inside a measurement window, exactly like
        # events_simulated counts simulated events.
        events = []
        for i in range(400):
            if i % 2:
                events.append(TraceEvent(Opcode.FMUL, 1.0, float(i), float(i)))
            else:
                events.append(TraceEvent(Opcode.LOAD, address=8 * i))
        plan = SamplingPlan(window=100, interval=200, warmup=50)
        estimate = estimate_hit_ratios(events, plan=plan)
        # Two intervals, each contributing one full 100-event window.
        assert estimate.events_measured == 200
        assert estimate.events_simulated == 300  # + two 50-event warmups
        # Under the baseline EXCLUDE policy every one of those FP_MULs
        # bypasses the table (trivial operand), so the table saw zero
        # lookups -- the old lookup-sum would have reported 0 events
        # measured for a run that measured 200.
        assert estimate.hit_ratios[Operation.FP_MUL] == 0.0


class TestFlushBetweenSemantics:
    """`flush_between` selects persistent-bank vs strict cold-start
    warm-up (see the sampling module docstring)."""

    def _steady_trace(self, n=4000):
        return [TraceEvent(Opcode.FDIV, 3.0, 2.0, 1.5)] * n

    def test_persistent_bank_rides_through_gaps(self):
        # One repeated pair: after the very first cold miss every later
        # window starts warm because the entry survives the skips.
        estimate = estimate_hit_ratios(
            self._steady_trace(),
            plan=SamplingPlan(window=200, interval=1000, warmup=0),
        )
        assert estimate.hit_ratios[Operation.FP_DIV] == pytest.approx(799 / 800)

    def test_flush_between_recreates_cold_start_every_window(self):
        # Flushing at each boundary makes every window pay its own cold
        # miss: 4 windows x 200 events -> 4 misses exactly.
        estimate = estimate_hit_ratios(
            self._steady_trace(),
            plan=SamplingPlan(
                window=200, interval=1000, warmup=0, flush_between=True
            ),
        )
        assert estimate.hit_ratios[Operation.FP_DIV] == pytest.approx(796 / 800)

    def test_flush_between_matches_fresh_bank_oracle(self):
        # Under flush_between=True a window's state is exactly its own
        # warm-up slice.  Replaying each (warmup, window) pair through a
        # *fresh* bank must reproduce the estimate bit-for-bit.
        events = []
        for i in range(3000):
            value = float(i % 40) + 1.5  # working set with real misses
            events.append(TraceEvent(Opcode.FDIV, value, 2.0, value / 2.0))
        plan = SamplingPlan(
            window=300, interval=1000, warmup=150, flush_between=True
        )
        estimate = estimate_hit_ratios(events, plan=plan)

        oracle = UnitStats()
        position = 0
        while position < len(events):
            bank = MemoTableBank.paper_baseline()
            warm_end = min(position + plan.warmup, len(events))
            execution.dispatch(events, bank.units, start=position, stop=warm_end)
            unit = bank.units[Operation.FP_DIV]
            lookups0 = unit.table.stats.lookups
            hits0 = unit.table.stats.hits
            trivial0 = unit.stats.trivial_hits
            window_end = min(warm_end + plan.window, len(events))
            execution.dispatch(events, bank.units, start=warm_end, stop=window_end)
            oracle.table.lookups += unit.table.stats.lookups - lookups0
            oracle.table.hits += unit.table.stats.hits - hits0
            oracle.trivial_hits += unit.stats.trivial_hits - trivial0
            position += plan.interval
        assert estimate.hit_ratios[Operation.FP_DIV] == oracle.hit_ratio


class TestSamplingBackendParity:
    """Every registered backend must produce bit-identical sampled
    estimates -- including over column-backed traces, where the fused
    kernel takes its pair-id path."""

    def _mixed_events(self):
        events = []
        for i in range(2400):
            value = float(i % 30) + 0.5
            if i % 3 == 0:
                events.append(TraceEvent(Opcode.FMUL, value, 3.0, value * 3.0))
            elif i % 3 == 1:
                events.append(
                    TraceEvent(Opcode.IMUL, i % 17, 5, (i % 17) * 5)
                )
            else:
                events.append(TraceEvent(Opcode.FDIV, value, 2.0, value / 2.0))
        return events

    @pytest.mark.parametrize("backend", execution.names())
    @pytest.mark.parametrize("flush_between", [False, True])
    def test_bit_identical_across_backends(self, backend, flush_between):
        plan = SamplingPlan(
            window=250, interval=800, warmup=100, flush_between=flush_between
        )
        batch = ColumnBatch.from_events(self._mixed_events())
        reference = estimate_hit_ratios(batch, plan=plan, backend="scalar")
        estimate = estimate_hit_ratios(batch, plan=plan, backend=backend)
        assert estimate.hit_ratios == reference.hit_ratios
        assert estimate.events_measured == reference.events_measured
        assert estimate.events_simulated == reference.events_simulated

    @pytest.mark.parametrize("backend", execution.names())
    def test_list_and_column_traces_agree(self, backend):
        plan = SamplingPlan(window=250, interval=800, warmup=100)
        events = self._mixed_events()
        from_list = estimate_hit_ratios(events, plan=plan, backend=backend)
        from_columns = estimate_hit_ratios(
            ColumnBatch.from_events(events), plan=plan, backend=backend
        )
        assert from_list.hit_ratios == from_columns.hit_ratios
        assert from_list.events_measured == from_columns.events_measured
