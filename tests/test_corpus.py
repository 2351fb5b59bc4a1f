"""Tests for the persistent trace corpus store (repro.corpus.store)."""

import gzip
import hashlib
import multiprocessing
import os
import struct

import pytest

from repro.corpus.cli import _fmt_size, main as corpus_main
from repro.corpus.store import (
    CorpusStats,
    TraceCorpus,
    TraceKey,
    _encode_header,
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
        loaded = corpus.get(_key())
        assert loaded.events == original.events
        assert loaded.events[3].pc is not None
        assert loaded.events[3].srcs == (3,)

    def test_get_missing_is_none(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        assert corpus.get(_key()) is None
        assert corpus.stats.misses == 1

    def test_manifest_round_trip(self, tmp_path):
        """A reopened store lists its entries from the object headers."""
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
        path = self._object_path(corpus)
        path.write_bytes(path.read_bytes()[:-10])
        assert corpus.get(_key()) is None
        assert corpus.stats.corrupt_dropped == 1

    def test_missing_object_is_miss(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        self._object_path(corpus).unlink()
        assert corpus.get(_key()) is None

    def test_verify_reports_damage(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(1), _trace(1))
        corpus.put(_key(2), _trace(2))
        assert [problem for *_, problem in corpus.verify()] == [None, None]
        target = corpus._object_path(_key(1).digest)
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        report = {entry.key: problem for _, entry, problem in corpus.verify()}
        assert report[_key(1)] == "checksum mismatch"
        assert report[_key(2)] is None

    def test_retired_format_object_is_rerecorded(self, tmp_path):
        """An object whose payload is a retired record format (a v2
        stream) behind a valid header and checksum is undecodable,
        dropped and re-recorded."""
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        v2_record = struct.pack("<BBqqqq", 0, 0, 0, 0, 0, 0)
        payload = gzip.compress(b"RPROTRC2" + v2_record, mtime=0)
        header = _encode_header(
            _key(), len(_trace()), hashlib.sha256(payload).digest()
        )
        corpus._object_path(_key().digest).write_bytes(header + payload)
        [(_, entry, problem)] = corpus.verify()
        assert entry.key == _key() and problem == "undecodable object"
        trace = corpus.get_or_record(_key(), _trace)
        assert corpus.stats.corrupt_dropped == 1
        assert corpus.stats.recorded == 1
        assert trace.events == _trace().events
        assert [problem for *_, problem in corpus.verify()] == [None]

    def test_event_count_is_checked_against_the_payload(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        payload = TraceCorpus._serialize(_trace())
        header = _encode_header(
            _key(), len(_trace()) + 1, hashlib.sha256(payload).digest()
        )
        corpus._object_path(_key().digest).write_bytes(header + payload)
        [(_, _, problem)] = corpus.verify()
        assert problem == "20 events, header says 21"
        assert corpus.get(_key()) is None
        assert corpus.stats.corrupt_dropped == 1


class TestSelfDescribingObjects:
    def test_object_is_header_then_the_gzip_payload(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        entry = corpus.put(_key(), _trace())
        blob = corpus._object_path(_key().digest).read_bytes()
        payload = TraceCorpus._serialize(_trace())
        header = _encode_header(
            _key(), len(_trace()), hashlib.sha256(payload).digest()
        )
        assert blob == header + payload
        assert entry.size == len(blob) == corpus.stats.bytes_written
        assert entry.checksum == hashlib.sha256(payload).hexdigest()
        assert corpus.entries() == [entry]

    def test_object_copied_alone_is_listed_and_served(self, tmp_path, capsys):
        TraceCorpus(tmp_path / "a").put(_key(), _trace())
        source = TraceCorpus(tmp_path / "a")._object_path(_key().digest)
        target = TraceCorpus(tmp_path / "b")._object_path(_key().digest)
        target.parent.mkdir()
        target.write_bytes(source.read_bytes())
        assert corpus_main(["ls", "--dir", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "1 traces" in out and "kernel0" in out and " 20 " in out
        corpus = TraceCorpus(tmp_path / "b")
        trace = corpus.get_or_record(_key(), _trace)
        assert trace.events == _trace().events
        assert corpus.stats.recorded == 0 and corpus.stats.disk_hits == 1

    def test_header_naming_another_key_is_unreadable(self, tmp_path):
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(1), _trace())
        misplaced = corpus._object_path(_key(2).digest)
        misplaced.parent.mkdir(exist_ok=True)
        misplaced.write_bytes(corpus._object_path(_key(1).digest).read_bytes())
        assert [entry.key for entry in corpus.entries()] == [_key(1)]
        assert corpus.get(_key(2)) is None
        assert corpus.stats.corrupt_dropped == 1


class TestParentLayout:
    """A directory the manifest-based store wrote: a ``manifest.json``
    and objects that are bare gzip payloads without a header."""

    def _parent_layout(self, root):
        corpus = TraceCorpus(root)
        for n in range(3):
            path = corpus._object_path(_key(n).digest)
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(TraceCorpus._serialize(_trace(n)))
        (root / "manifest.json").write_text(
            '{"entries": {}, "format": 1, "recorder_version": 1}\n'
        )
        return corpus

    def test_cli_lists_flags_and_collects_headerless_objects(
        self, tmp_path, capsys
    ):
        self._parent_layout(tmp_path)
        digests = [_key(n).digest for n in range(3)]
        assert corpus_main(["ls", "--dir", str(tmp_path)]) == 0
        assert "0 traces" in capsys.readouterr().out
        assert corpus_main(["verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        for digest in digests:
            assert f"BAD  {digest[:12]}" in out
        assert out.count("unreadable header") == 3
        assert "0/3 entries verified clean" in out
        assert corpus_main(["gc", "--dir", str(tmp_path)]) == 0
        assert TraceCorpus(tmp_path)._iter_objects() == {}
        assert (tmp_path / "manifest.json").exists()  # ignored, not read

    def test_cli_names_and_counts_what_it_skips_and_sweeps(
        self, tmp_path, capsys
    ):
        corpus = self._parent_layout(tmp_path)
        corpus.put(_key(7), _trace(7))
        listed = _fmt_size(corpus.entries()[0].size)
        stale = corpus._object_path(_key(7).digest).with_name(".tmp-dead-1")
        stale.write_bytes(b"half a put")
        os.utime(stale, (0, 0))
        digests = [_key(n).digest for n in range(3)]

        assert corpus_main(["ls", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # Sized by the one listed object, not by every file on disk.
        assert f"1 traces, {listed}; 3 unreadable object(s) skipped" in out

        assert corpus_main(["gc", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for digest in digests:
            assert f"removed unreadable object {digest[:12]}" in out
        assert "removed stale tmp file .tmp-dead-1" in out
        assert (
            "0 evicted, 3 unreadable object(s) and 1 stale tmp file(s) "
            "removed" in out
        )
        assert not stale.exists()
        assert [entry.key for entry in corpus.entries()] == [_key(7)]

        assert corpus_main(["ls", "--dir", str(tmp_path)]) == 0
        assert "skipped" not in capsys.readouterr().out

    def test_replay_rerecords_headerless_objects(self, tmp_path):
        corpus = self._parent_layout(tmp_path)
        for n in range(3):
            trace = corpus.get_or_record(_key(n), lambda n=n: _trace(n))
            assert trace.events == _trace(n).events
        assert corpus.stats.corrupt_dropped == 3
        assert corpus.stats.recorded == 3
        assert [problem for *_, problem in corpus.verify()] == [None] * 3


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
        """An object whose header cannot be read goes at once: a put
        only ever renames a complete file into place."""
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        junk = corpus._object_path("f" * 32)
        junk.parent.mkdir(exist_ok=True)
        junk.write_bytes(b"junk")
        assert corpus.gc() == []  # swept, not evicted
        assert not junk.exists()
        assert len(corpus) == 1  # real entry untouched

    def test_gc_drops_manifest_rows_without_objects(self, tmp_path):
        """With no index beside the objects, a removed object leaves no
        entry behind."""
        corpus = TraceCorpus(tmp_path)
        corpus.put(_key(), _trace())
        corpus._object_path(_key().digest).unlink()
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
        """Lock-free puts of distinct keys from four processes all land."""
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            pool.map(_worker_own_key, [(str(tmp_path), n) for n in range(8)])
        corpus = TraceCorpus(tmp_path)
        assert len(corpus) == 8
        assert all(problem is None for *_, problem in corpus.verify())
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
