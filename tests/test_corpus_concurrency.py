"""Multi-process hammering of one corpus directory.

Two workers record, load and garbage-collect the *same* corpus
concurrently.  The store's contract under contention: no crash in any
worker (the historical failures were an unguarded ``os.utime`` after a
concurrent eviction and an unguarded ``stat`` in ``total_bytes``), every
object on disk describes itself, and every surviving entry verifies
clean.
"""

import multiprocessing
import os
import time
import traceback

import pytest

from repro.corpus.store import TraceCorpus, TraceKey
from repro.isa.opcodes import Opcode
from repro.isa.trace import Trace, TraceEvent


def _trace(seed: int, events: int = 40) -> Trace:
    return Trace(
        TraceEvent(Opcode.FMUL, float(i + seed), 2.0, float(i + seed) * 2.0)
        for i in range(events)
    )


def _key(n: int) -> TraceKey:
    return TraceKey("mm", f"hammer{n}", "img", 1.0)


def _hammer(root, worker: int, rounds: int, errors) -> None:
    """One worker: interleave put/get/gc/total_bytes over shared keys."""
    try:
        corpus = TraceCorpus(root, lock_timeout=30.0)
        for i in range(rounds):
            n = (worker + i) % 6
            key = _key(n)
            if i % 3 == 0:
                corpus.put(key, _trace(n))
            else:
                trace = corpus.get_or_record(key, lambda n=n: _trace(n))
                assert len(trace) == 40
            if i % 4 == worker:
                # Tight bound forces evictions of entries the *other*
                # worker may be loading right now.
                corpus.gc(max_bytes=1024)
            corpus.total_bytes()
    except Exception:
        errors.put(f"worker {worker}:\n{traceback.format_exc()}")


def test_two_processes_share_one_corpus_without_corruption(tmp_path):
    ctx = multiprocessing.get_context()
    errors = ctx.Queue()
    workers = [
        ctx.Process(target=_hammer, args=(tmp_path, w, 40, errors))
        for w in range(2)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
    failures = []
    for proc in workers:
        if proc.is_alive():
            proc.terminate()
            failures.append("worker deadlocked (join timed out)")
        elif proc.exitcode != 0:
            failures.append(f"worker died with exit code {proc.exitcode}")
    while not errors.empty():
        failures.append(errors.get())
    assert not failures, "\n".join(failures)

    # Whatever survived the crossfire must be internally consistent:
    # every object on disk is listed from its own header, and verifies.
    corpus = TraceCorpus(tmp_path)
    for digest, _, problem in corpus.verify():
        assert problem is None, f"{digest}: {problem}"
    listed = {entry.key.digest for entry in corpus.entries()}
    on_disk = {p.name[: -len(".trc.gz")]
               for p in corpus.objects_dir.rglob("*.trc.gz")}
    assert on_disk == listed


@pytest.mark.slow
def test_four_processes_long_hammer(tmp_path):
    """Nightly-scale contention: more workers, more rounds."""
    ctx = multiprocessing.get_context()
    errors = ctx.Queue()
    workers = [
        ctx.Process(target=_hammer, args=(tmp_path, w, 120, errors))
        for w in range(4)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=300)
    problems = [
        f"worker exit code {proc.exitcode}"
        for proc in workers
        if proc.exitcode != 0
    ]
    while not errors.empty():
        problems.append(errors.get())
    assert not problems, "\n".join(problems)
    corpus = TraceCorpus(tmp_path)
    for digest, _, problem in corpus.verify():
        assert problem is None, f"{digest}: {problem}"


def test_orphan_grace_protects_inflight_puts(tmp_path):
    """A put's tmp file survives gc while fresh (the put may still be
    writing it) and is removed once older than the stale age (its put
    died before the rename)."""
    corpus = TraceCorpus(tmp_path)
    shard = corpus._object_path("a" * 32).parent
    shard.mkdir(exist_ok=True)
    inflight = shard / f".tmp-{'a' * 32}-1"
    inflight.write_bytes(b"half an object")
    leaked = shard / f".tmp-{'b' * 32}-2"
    leaked.write_bytes(b"half an object")
    an_hour_ago = time.time() - 3600
    os.utime(leaked, (an_hour_ago, an_hour_ago))
    assert corpus.gc() == []
    assert inflight.exists(), "gc destroyed an in-flight put"
    assert not leaked.exists(), "gc kept a dead put's tmp file"
