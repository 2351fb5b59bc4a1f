"""Trace corpus: cold-record vs warm-replay cost for an MM kernel set.

Recording dominates experiment runtime; the corpus amortises it to one
run.  This benchmark times the same trace set two ways — cold
(record + archive) and warm (replay from the on-disk store) — and
asserts the replayed traces are identical to the recorded ones.
"""

import tempfile

from _config import BENCH_IMAGES, BENCH_SCALE, run_once

from repro.corpus.store import TraceCorpus, TraceKey
from repro.experiments.common import record_mm_trace

KERNELS = ("vgauss", "vdiff", "vsqrt")


def _record_all(corpus):
    return [
        corpus.get_or_record(
            TraceKey("mm", kernel, image, BENCH_SCALE),
            lambda kernel=kernel, image=image: record_mm_trace(
                kernel, image, scale=BENCH_SCALE, cache=False
            ),
        )
        for kernel in KERNELS
        for image in BENCH_IMAGES
    ]


def test_corpus_cold_record(benchmark):
    with tempfile.TemporaryDirectory() as root:
        corpus = TraceCorpus(root)
        traces = run_once(benchmark, lambda: _record_all(corpus))
        benchmark.extra_info["traces"] = len(traces)
        benchmark.extra_info["events"] = sum(len(t) for t in traces)
        benchmark.extra_info["store_bytes"] = corpus.total_bytes()
        assert corpus.stats.recorded == len(traces)


def test_corpus_warm_replay(benchmark):
    with tempfile.TemporaryDirectory() as root:
        cold = _record_all(TraceCorpus(root))
        corpus = TraceCorpus(root)  # fresh handle, fresh counters
        warm = run_once(benchmark, lambda: _record_all(corpus))
        benchmark.extra_info["traces"] = len(warm)
        benchmark.extra_info["disk_hits"] = corpus.stats.disk_hits
        # Every trace came from disk, none was re-recorded, and the
        # replayed events are exactly what was archived.
        assert corpus.stats.recorded == 0
        assert corpus.stats.disk_hits == len(warm)
        assert [t.events for t in warm] == [t.events for t in cold]

