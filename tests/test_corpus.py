"""Tests for the persistent trace corpus store (repro.corpus.store)."""

import gzip
import multiprocessing
import struct

import pytest

from repro.corpus.store import (
    CorpusStats,
    TraceCorpus,
    TraceKey,
    active_corpus,
    set_active_corpus,
)
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent


@pytest.fixture(autouse=True)
def no_active_corpus():
    """Keep the process-wide corpus isolated from other tests."""
    set_active_corpus(None)
    yield
    set_active_corpus(None)


def _trace(seed: int = 0, events: int = 20) -> Trace:
    return Trace(
        TraceEvent(
            Opcode.FMUL, float(i + seed), 2.0, float(i + seed) * 2.0,
            dst=i + 1, srcs=(i,), pc=0x10000 + 4 * (i % 3),
        )
        for i in range(events)
    )


def _key(n: int = 0) -> TraceKey:
    return TraceKey("mm", f"kernel{n}", "img", 0.5)


class TestTraceKey:
    def test_digest_is_stable(self):
        assert _key().digest == _key().digest

    def test_digest_distinguishes_every_field(self):
        base = TraceKey("mm", "a", "b", 1.0)
        for other in (
            TraceKey("spec", "a", "b", 1.0),
            TraceKey("mm", "x", "b", 1.0),
            TraceKey("mm", "a", "x", 1.0),
            TraceKey("mm", "a", "b", 2.0),
        ):
            assert other.digest != base.digest

    def test_describe(self):
        assert TraceKey("mm", "vgauss", "chroms", 0.15).describe() == (
            "mm:vgauss(chroms)@0.15"
        )
        assert TraceKey("perfect", "QCD", "", 1.0).describe() == "perfect:QCD@1"


class TestStoreRoundTrip:
    def test_put_get_preserves_annotations(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        original = _trace()
        corpus.put(_key(), original)
        corpus.clear_memory()  # force the disk tier
        loaded = corpus.get(_key())
        assert loaded.events == original.events
        assert loaded.events[3].pc is not None
        assert loaded.events[3].srcs == (3,)

    def test_memory_tier_returns_same_object(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        first = corpus.get(_key())
        second = corpus.get(_key())
        assert first is second
        assert corpus.stats.memory_hits >= 1

    def test_memory_tier_is_bounded(self, tmp_path):
        corpus = TraceCorpus(tmp_path, memory_entries=2)
        for n in range(3):
            corpus.put(_key(n), _trace(n))
        assert len(corpus._memory) == 2
        # Evicted from memory but still served from disk.
        assert corpus.get(_key(0)).events == _trace(0).events

    def test_get_missing_is_none(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        assert corpus.get(_key()) is None
        assert corpus.stats.misses == 1

    def test_manifest_round_trip(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(1), _trace(1))
        corpus.put(_key(2), _trace(2, events=7))
        reopened = TraceCorpus(tmp_path)
        entries = {e.key: e for e in reopened.entries()}
        assert set(entries) == {_key(1), _key(2)}
        assert entries[_key(2)].events == 7
        assert entries[_key(1)].scale == 0.5
        assert reopened.get(_key(1)).events == _trace(1).events

    def test_len_and_total_bytes(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        assert len(corpus) == 0 and corpus.total_bytes() == 0
        corpus.put(_key(), _trace())
        assert len(corpus) == 1
        assert corpus.total_bytes() > 0


class TestIntegrity:
    def _object_path(self, corpus):
        (path,) = corpus.objects_dir.rglob("*.trc.gz")
        return path

    def test_corrupted_entry_detected_and_rerecorded(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus.clear_memory()
        path = self._object_path(corpus)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert corpus.get(_key()) is None
        assert corpus.stats.corrupt_dropped == 1
        assert len(corpus) == 0  # entry dropped
        recorded = []
        trace = corpus.get_or_record(
            _key(), lambda: recorded.append(1) or _trace()
        )
        assert recorded == [1]
        assert trace.events == _trace().events

    def test_truncated_entry_detected(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus.clear_memory()
        path = self._object_path(corpus)
        path.write_bytes(path.read_bytes()[:-10])
        assert corpus.get(_key()) is None
        assert corpus.stats.corrupt_dropped == 1

    def test_missing_object_is_miss(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus.clear_memory()
        self._object_path(corpus).unlink()
        assert corpus.get(_key()) is None

    def test_verify_reports_damage(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(1), _trace(1))
        corpus.put(_key(2), _trace(2))
        report = corpus.verify()
        assert all(ok for _, ok, _ in report)
        digest = _key(1).digest
        target = corpus._object_path(digest)
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        report = {e.key: (ok, reason) for e, ok, reason in corpus.verify()}
        assert report[_key(1)][0] is False
        assert "checksum" in report[_key(1)][1]
        assert report[_key(2)][0] is True

    def test_retired_format_object_is_rerecorded(self, tmp_path):
        """An object in a retired record format (a v2 stream) with an
        intact manifest checksum is undecodable, dropped and re-recorded."""
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus.clear_memory()
        digest = _key().digest
        v2_record = struct.pack("<BBqqqq", 0, 0, 0, 0, 0, 0)
        blob = gzip.compress(b"RPROTRC2" + v2_record, mtime=0)
        corpus._object_path(digest).write_bytes(blob)
        corpus._update_manifest(
            lambda entries: entries[digest].update(
                checksum=corpus._checksum(blob), size=len(blob)
            )
        )
        [(_, ok, reason)] = corpus.verify()
        assert not ok and reason == "undecodable object"
        trace = corpus.get_or_record(_key(), _trace)
        assert corpus.stats.corrupt_dropped == 1
        assert corpus.stats.recorded == 1
        assert trace.events == _trace().events
        assert [ok for _, ok, _ in corpus.verify()] == [True]

    def test_torn_manifest_treated_as_empty(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus.manifest_path.write_text("{not json")
        corpus.clear_memory()
        assert corpus.get(_key()) is None  # unreachable, will re-record


class TestGC:
    def test_gc_respects_size_bound(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        import os
        for n in range(6):
            corpus.put(_key(n), _trace(n, events=50))
            # Distinct mtimes so LRU order is unambiguous.
            path = corpus._object_path(_key(n).digest)
            os.utime(path, (1000 + n, 1000 + n))
        per_entry = corpus.total_bytes() // 6
        bound = int(per_entry * 2.5)
        evicted = corpus.gc(bound)
        assert corpus.total_bytes() <= bound
        assert len(corpus) == 6 - len(evicted)
        # Oldest (lowest mtime) went first.
        evicted_keys = {entry.key for entry in evicted}
        assert _key(0) in evicted_keys
        assert _key(5) not in evicted_keys

    def test_gc_auto_triggered_by_put(self, tmp_path):
        corpus = TraceCorpus(tmp_path, max_bytes=1)  # absurdly small bound
        corpus.put(_key(), _trace())
        assert corpus.total_bytes() <= 1
        assert len(corpus) == 0

    def test_gc_sweeps_orphan_objects(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        # Planted where a racing put() writes: the digest's shard path.
        orphan = corpus._object_path("f" * 32)
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_bytes(b"junk")
        corpus.gc()  # within the grace window: a racing put() survives
        assert orphan.exists()
        corpus.gc(orphan_grace=0.0)
        assert not orphan.exists()
        assert len(corpus) == 1  # real entry untouched

    def test_gc_drops_manifest_rows_without_objects(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus._unlink_object(_key().digest)
        corpus.gc()
        assert len(corpus) == 0


class TestGetOrRecord:
    def test_records_exactly_once(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        calls = []

        def record():
            calls.append(1)
            return _trace()

        corpus.get_or_record(_key(), record)
        corpus.get_or_record(_key(), record)
        corpus.clear_memory()
        corpus.get_or_record(_key(), record)
        assert calls == [1]
        assert corpus.stats.recorded == 1


def _worker_same_key(root: str) -> dict:
    corpus = TraceCorpus(root, lock_timeout=60.0)
    corpus.get_or_record(_key(), lambda: _trace(events=200))
    return corpus.stats.as_dict()


def _worker_own_key(args) -> dict:
    root, n = args
    corpus = TraceCorpus(root, lock_timeout=60.0)
    corpus.get_or_record(_key(n), lambda: _trace(n))
    return corpus.stats.as_dict()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)
class TestConcurrency:
    def test_racing_writers_record_once(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            stats = pool.map(_worker_same_key, [str(tmp_path)] * 4)
        total = CorpusStats()
        for s in stats:
            total.add(s)
        assert total.recorded == 1
        assert len(TraceCorpus(tmp_path)) == 1

    def test_concurrent_writers_do_not_clobber_manifest(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            pool.map(_worker_own_key, [(str(tmp_path), n) for n in range(8)])
        corpus = TraceCorpus(tmp_path)
        assert len(corpus) == 8
        assert all(ok for _, ok, _ in corpus.verify())
        corpus.clear_memory()
        for n in range(8):
            assert corpus.get(_key(n)).events == _trace(n).events


class TestActiveCorpus:
    def test_explicit_set_and_disable(self, tmp_path):
        corpus = set_active_corpus(tmp_path)
        assert active_corpus() is corpus
        assert corpus.root == tmp_path
        set_active_corpus(None)
        assert active_corpus() is None

    def test_env_var_opens_corpus(self, tmp_path, monkeypatch):
        import repro.corpus.store as store

        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path))
        monkeypatch.setattr(store, "_active", None)
        monkeypatch.setattr(store, "_explicitly_set", False)
        corpus = active_corpus()
        assert corpus is not None
        assert corpus.root == tmp_path
