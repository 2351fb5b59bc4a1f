"""Tests for the two-level cache hierarchy."""

import pytest

from repro.arch.latency import FAST_DESIGN
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.errors import ConfigurationError
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.simulator.cache import Cache, MemoryHierarchy, default_hierarchy
from repro.simulator.pipeline import CycleModel
from repro.verify.differential import ALL_OPERATIONS


class TestCacheGeometry:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=1000, line_bytes=32, associativity=1)
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=8192, line_bytes=33, associativity=1)
        with pytest.raises(ConfigurationError):
            Cache("bad", 1024, 32, 1, replacement="plru")

    def test_set_count(self):
        cache = Cache("L1", 8 * 1024, 32, 1)
        assert cache.n_sets == 256


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self):
        cache = Cache("L1", 1024, 32, 1)
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.access(0x11F)  # same 32-byte line

    def test_different_lines_independent(self):
        cache = Cache("L1", 1024, 32, 1)
        cache.access(0x100)
        assert not cache.access(0x200)

    def test_direct_mapped_conflict(self):
        cache = Cache("L1", 1024, 32, 1)  # 32 sets
        cache.access(0x0)
        cache.access(0x0 + 1024)  # same set, different tag -> evicts
        assert not cache.access(0x0)

    def test_two_way_avoids_that_conflict(self):
        cache = Cache("L1", 1024, 32, 2)  # 16 sets
        cache.access(0x0)
        cache.access(0x0 + 1024)
        assert cache.access(0x0)

    def test_lru_within_set(self):
        cache = Cache("L1", 128, 32, 2)  # 2 sets of 2
        stride = 128  # same set
        cache.access(0)
        cache.access(stride)
        cache.access(0)            # 0 is now MRU
        cache.access(2 * stride)   # evicts `stride`
        assert cache.access(0)
        assert not cache.access(stride)

    def test_hit_ratio(self):
        cache = Cache("L1", 1024, 32, 1)
        cache.access(0)
        cache.access(0)
        assert cache.hit_ratio == 0.5
        assert cache.misses == 1

    def test_flush(self):
        cache = Cache("L1", 1024, 32, 1)
        cache.access(0)
        cache.flush()
        assert not cache.access(0)


class TestCacheEdgeCases:
    """Audit edge cases: untouched caches, flush semantics, stats."""

    def test_zero_access_hit_ratio(self):
        # Division-by-zero guard: an untouched cache reports 0.0, not
        # NaN and not an exception.
        cache = Cache("L1", 1024, 32, 1)
        assert cache.hit_ratio == 0.0
        assert cache.misses == 0
        assert cache.accesses == 0

    def test_flush_preserves_counters(self):
        # Flush invalidates *contents* only; accesses/hits keep
        # accumulating across flushes (a flush is not a stats reset).
        cache = Cache("L1", 1024, 32, 1)
        cache.access(0)
        cache.access(0)
        cache.flush()
        assert cache.accesses == 2
        assert cache.hits == 1
        assert not cache.access(0)  # cold again after flush
        assert cache.accesses == 3

    def test_fifo_insertion_order_restarts_after_flush(self):
        # One 2-way set; post-flush the insertion clock starts over, so
        # the pre-flush age of a line must not leak into victim choice.
        cache = Cache("T", 64, 32, 2, replacement="fifo")
        cache.access(0)
        cache.access(64)
        cache.flush()
        cache.access(64)   # re-inserted first -> now the oldest
        cache.access(0)
        cache.access(128)  # evicts 64 (oldest insertion *since flush*)
        assert cache.access(0)
        assert not cache.access(64)

    def test_untouched_l2_stats(self):
        # All hits in L1 -> L2 never referenced; its ratio must stay a
        # well-defined 0.0 in the stats document.
        hierarchy = default_hierarchy()
        hierarchy.access(0)            # cold: touches both levels
        for _ in range(3):
            hierarchy.access(0)        # L1 hits: L2 untouched
        stats = hierarchy.stats()
        assert stats["l1_accesses"] == 4
        assert stats["l2_accesses"] == 1
        assert stats["l1_hit_ratio"] == 0.75
        fresh = default_hierarchy().stats()
        assert fresh == {
            "l1_accesses": 0, "l1_hit_ratio": 0.0,
            "l2_accesses": 0, "l2_hit_ratio": 0.0,
        }

    def test_hierarchy_flush_preserves_counters(self):
        hierarchy = default_hierarchy()
        hierarchy.access(0)
        hierarchy.flush()
        stats = hierarchy.stats()
        assert stats["l1_accesses"] == 1
        assert stats["l2_accesses"] == 1


class TestFifoReplacement:
    """Regression: FIFO must evict by insertion age, not recency.

    The DEW-style pattern -- re-reference a resident line, then force
    an eviction -- distinguishes the two policies in one set: LRU's hit
    renews the line's lifetime, FIFO's does not.
    """

    def _dew_pattern(self, replacement):
        # 64B / 32B lines / 2-way = one set.  Tags 0 (addr 0),
        # 2 (addr 64), 4 (addr 128) all collide there.
        cache = Cache("T", 64, 32, 2, replacement=replacement)
        assert not cache.access(0)     # insert 0
        assert not cache.access(64)    # insert 64
        assert cache.access(0)         # re-reference 0 (LRU renews it)
        assert not cache.access(128)   # overflow: someone is evicted
        return cache

    def test_lru_keeps_the_rereferenced_line(self):
        cache = self._dew_pattern("lru")
        assert cache.access(0)         # renewed -> survived
        assert not cache.access(64)    # the stale line was the victim

    def test_fifo_evicts_the_oldest_insertion(self):
        cache = self._dew_pattern("fifo")
        # 0 was inserted first, so FIFO evicts it despite the re-reference.
        assert cache.access(64)
        assert not cache.access(0)

    def test_fifo_hit_does_not_reorder(self):
        # Heavy re-reference cannot save the oldest line under FIFO.
        cache = Cache("T", 64, 32, 2, replacement="fifo")
        cache.access(0)
        cache.access(64)
        for _ in range(5):
            assert cache.access(0)
        cache.access(128)              # evicts 0: oldest insertion
        assert not cache.access(0)


class TestBackendAwareProbeAdapter:
    """The hierarchy walk is stateful and interleaved with memo probes;
    both backends must drive it identically (same cache stats, same
    cycle totals) or the fast path drifts from the cache path."""

    def _memory_trace(self):
        events = []
        for i in range(48):
            events.append(TraceEvent(Opcode.LOAD, address=(i * 40) % 4096))
            events.append(TraceEvent(Opcode.FMUL, 2.5, 3.0 + (i % 4), 0.0))
            events.append(TraceEvent(Opcode.STORE, address=(i * 72) % 4096))
        batch = ColumnBatch.from_events(
            e if e.opcode.operation is None else e._replace(result=e.a * e.b)
            for e in events
        )
        return batch

    @pytest.mark.parametrize("backend", execution.names())
    def test_hierarchy_stats_identical_across_backends(self, backend):
        batch = self._memory_trace()
        runs = []
        for chosen in (backend, "scalar"):
            hierarchy = MemoryHierarchy(
                Cache("L1", 1024, 32, 1, hit_latency=1),
                Cache("L2", 4096, 32, 2, hit_latency=6, replacement="fifo"),
                memory_latency=30,
            )
            bank = MemoTableBank.paper_baseline(
                operations=ALL_OPERATIONS, latencies=FAST_DESIGN.latencies()
            )
            model = CycleModel(FAST_DESIGN, bank=bank, hierarchy=hierarchy)
            with execution.use_backend(chosen):
                report = model.run(batch)
            runs.append((hierarchy.stats(), report))
        (stats, report), (ref_stats, ref_report) = runs
        assert stats == ref_stats
        assert report.base_cycles == ref_report.base_cycles
        assert report.memo_cycles == ref_report.memo_cycles
        assert report.cycles_by_opcode == ref_report.cycles_by_opcode


class TestHierarchy:
    def test_latency_ordering(self):
        hierarchy = default_hierarchy()
        first = hierarchy.access(0x4000)   # cold: memory
        second = hierarchy.access(0x4000)  # L1 hit
        assert first == hierarchy.memory_latency
        assert second == hierarchy.l1.hit_latency
        assert first > second

    def test_l2_catches_l1_evictions(self):
        l1 = Cache("L1", 64, 32, 1, hit_latency=1)   # 2 lines only
        l2 = Cache("L2", 4096, 32, 4, hit_latency=6)
        hierarchy = MemoryHierarchy(l1, l2, memory_latency=30)
        hierarchy.access(0x0)
        hierarchy.access(0x40)   # evicts 0x0 from tiny L1 (same set)
        latency = hierarchy.access(0x0)
        assert latency == 6      # L2 hit

    def test_stats_keys(self):
        hierarchy = default_hierarchy()
        hierarchy.access(0)
        stats = hierarchy.stats()
        assert stats["l1_accesses"] == 1
        assert 0 <= stats["l2_hit_ratio"] <= 1

    def test_flush(self):
        hierarchy = default_hierarchy()
        hierarchy.access(0)
        hierarchy.flush()
        assert hierarchy.access(0) == hierarchy.memory_latency
