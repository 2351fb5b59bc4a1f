"""Tests for the parallel experiment execution engine (repro.corpus.engine)."""

import json

import pytest

from repro.corpus import set_active_corpus
from repro.corpus.engine import (
    prefetch_traces,
    run_experiments,
    trace_plan,
)
from repro.corpus.store import TraceCorpus, TraceKey
from repro.errors import CorpusError, ExperimentError
from repro.experiments.common import clear_trace_cache
from repro.experiments import run_experiment
from repro.experiments import runner


@pytest.fixture(autouse=True)
def isolated_caches():
    set_active_corpus(None)
    clear_trace_cache()
    yield
    set_active_corpus(None)
    clear_trace_cache()


class TestTracePlan:
    def test_table5_covers_the_perfect_suite(self):
        from repro.workloads.perfect import perfect_names

        plan = trace_plan(["table5"])
        assert len(plan) == len(perfect_names())
        assert all(k.suite == "perfect" and k.scale == 1.0 for k in plan)

    def test_table7_covers_kernels_times_images(self):
        from repro.experiments.common import DEFAULT_IMAGE_SET
        from repro.workloads.khoros import TABLE7_ORDER

        plan = trace_plan(["table7"])
        assert len(plan) == len(TABLE7_ORDER) * len(DEFAULT_IMAGE_SET)
        assert all(k.suite == "mm" and k.scale == 0.15 for k in plan)

    def test_scale_override(self):
        plan = trace_plan(["table7", "table5"], scale=0.07)
        assert all(k.scale == 0.07 for k in plan)

    def test_duplicate_keys_collapsed(self):
        # Tables 11-13 replay the identical (app, image) set.
        single = trace_plan(["table11"])
        combined = trace_plan(["table11", "table12", "table13"])
        assert len(combined) == len(single)

    def test_self_recording_experiments_contribute_nothing(self):
        assert trace_plan(["table1"]) == []
        assert trace_plan(["ext-future-ops", "ext-reuse-buffer"]) == []

    def test_unknown_names_ignored(self):
        assert trace_plan(["nonesuch"]) == []


class TestRecordForKey:
    def test_unknown_suite_rejected(self):
        from repro.corpus.engine import record_trace_for_key

        with pytest.raises(CorpusError):
            record_trace_for_key(TraceKey("martian", "x", "", 1.0))


class TestPrefetch:
    def test_serial_prefetch_records_and_reuses(self, tmp_path):
        keys = trace_plan(["figure4"], scale=0.05)
        stats = prefetch_traces(keys, jobs=1, corpus_dir=str(tmp_path))
        assert stats.recorded == len(keys)
        clear_trace_cache()
        set_active_corpus(None)
        again = prefetch_traces(keys, jobs=1, corpus_dir=str(tmp_path))
        assert again.recorded == 0
        assert again.disk_hits == len(keys)

    def test_empty_plan_is_noop(self):
        stats = prefetch_traces([], jobs=4)
        assert stats.as_dict() == {k: 0 for k in stats.as_dict()}


class TestRunExperiments:
    def _dicts(self, batch):
        return [
            (name, json.dumps(result.to_dict(), sort_keys=True))
            for name, result in batch.results
        ]

    def test_serial_matches_run_experiment(self):
        batch = run_experiments(["table1"], jobs=1)
        assert batch.jobs == 1
        (pair,) = batch.results
        assert pair[0] == "table1"
        direct = run_experiment("table1")
        assert json.dumps(pair[1].to_dict(), sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )

    def test_parallel_identical_to_serial_and_warm_run_records_nothing(
        self, tmp_path
    ):
        names = ["figure4", "table1"]
        serial = run_experiments(names, jobs=1, scale=0.05)
        clear_trace_cache()
        set_active_corpus(None)
        parallel = run_experiments(
            names, jobs=2, corpus_dir=str(tmp_path), scale=0.05
        )
        assert parallel.jobs == 2
        assert self._dicts(serial) == self._dicts(parallel)
        # Second (warm) invocation: every trace comes from the store.
        clear_trace_cache()
        set_active_corpus(None)
        warm = run_experiments(
            names, jobs=2, corpus_dir=str(tmp_path), scale=0.05
        )
        assert warm.recorded == 0
        assert warm.corpus_stats["disk_hits"] > 0
        assert self._dicts(warm) == self._dicts(serial)

    def test_results_preserve_request_order(self, tmp_path):
        names = ["table1", "figure4"]
        batch = run_experiments(
            names, jobs=2, corpus_dir=str(tmp_path), scale=0.05
        )
        assert [name for name, _ in batch.results] == names

    def test_runner_facade_validates_names(self):
        with pytest.raises(ExperimentError):
            runner.run_experiments(["table99"])

    def test_serial_uses_active_corpus(self, tmp_path):
        corpus = set_active_corpus(str(tmp_path))
        run_experiments(["figure4"], jobs=1, scale=0.05)
        assert len(TraceCorpus(tmp_path)) > 0
        assert corpus.stats.recorded > 0
