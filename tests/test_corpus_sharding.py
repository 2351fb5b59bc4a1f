"""Sharded object layout: fan-out and shard-aware maintenance.

The store writes every object to ``objects/<dd>/<digest>.trc.gz``
(two-hex-digit prefix shards), its one path per digest, and every
maintenance path (verify/gc/ls/total_bytes) walks the shards.
"""

from repro.corpus.store import _SHARD_WIDTH, TraceCorpus, TraceKey
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent


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


def _populate(tmp_path, count=3) -> TraceCorpus:
    corpus = TraceCorpus(tmp_path)
    for n in range(count):
        corpus.put(_key(n), _trace(n))
    return corpus


class TestShardedWrites:
    def test_put_writes_into_prefix_shard(self, tmp_path):
        corpus = _populate(tmp_path)
        for n in range(3):
            digest = _key(n).digest
            path = corpus._object_path(digest)
            assert path.exists()
            assert path.parent == corpus.objects_dir / digest[:_SHARD_WIDTH]
            assert path.name == f"{digest}.trc.gz"


class TestShardAwareGC:
    def test_gc_sweeps_orphans_in_both_layouts(self, tmp_path):
        """gc walks every shard and removes an unreadable object from
        any of them, without a grace window."""
        corpus = _populate(tmp_path, count=1)
        shard_dir = corpus.objects_dir / "ff"
        shard_dir.mkdir(exist_ok=True)
        shard_junk = shard_dir / ("f" * 32 + ".trc.gz")
        shard_junk.write_bytes(b"junk")
        corpus.gc()
        assert not shard_junk.exists()
        assert len(corpus) == 1

    def test_gc_eviction_spans_layouts(self, tmp_path):
        corpus = _populate(tmp_path)
        evicted = corpus.gc(max_bytes=1)
        assert len(evicted) == 3
        assert corpus._iter_objects() == {}
        assert len(corpus) == 0

    def test_gc_drops_rows_whose_object_is_gone_in_any_layout(self, tmp_path):
        corpus = _populate(tmp_path, count=2)
        corpus._object_path(_key(0).digest).unlink()
        corpus.gc()
        remaining = {entry.key for entry in corpus.entries()}
        assert remaining == {_key(1)}
