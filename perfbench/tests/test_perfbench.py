"""Tests of the benchmark's own logic (not of the program it measures)."""

import json
from collections import Counter
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.batch import (
    check_report,
    digest_failures,
    experiment_order,
    load_reference,
)
from perfbench.env import Run
from perfbench.layers import LayerProbe
from perfbench.serveload import (
    CYCLE_ROUNDS,
    PROGRAMS,
    ROUND_JOBS,
    ROUND_MIX,
    _Round,
    job_stream,
)
from perfbench.tracer import Span, Tracer, self_time_by_name, self_times, unattributed

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: covered once
        _span("c", 8.0, 12.0, 0),  # clipped to the parent
        _span("grandchild", 1.5, 2.5, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)
    assert unattributed(spans, -1.0, 11.0) == pytest.approx(2.0)


def test_columnize_under_dispatch_and_put_is_charged_once(tmp_path):
    """On a cold run ``Trace.columns`` runs inside both ``dispatch`` and
    ``TraceCorpus.put``; its time must leave both parents' self time."""
    from repro.core.bank import MemoTableBank
    from repro.corpus.store import TraceCorpus, TraceKey
    from repro.simulator.shade import ShadeSimulator
    from repro.workloads.recorder import OperationRecorder

    def record():
        recorder = OperationRecorder()
        for i in range(1, 400):
            recorder.fmul(float(i % 7), 1.5)
            recorder.fdiv(float(i % 5) + 1.0, 3.0)
        return recorder.trace

    tracer = Tracer()
    probe = LayerProbe(tracer).install()
    try:
        TraceCorpus(tmp_path).put(TraceKey("mm", "k", "img", 0.01), record())
        ShadeSimulator(MemoTableBank.paper_baseline()).run(record())
    finally:
        probe.uninstall()
    spans = tracer.spans
    parents = {
        spans[s.parent].name for s in spans
        if s.name == "isa.columnize" and s.parent is not None
    }
    assert parents == {"isa.encode", "core.dispatch.stats"}
    own = self_time_by_name(spans)
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    assert sum(own.values()) == pytest.approx(roots)
    assert probe.counts["corpus.puts"] == 1
    assert probe.counts["core.dispatches"] == 1
    assert probe.counts["core.events"] == 798


def test_probe_uninstall_restores_every_binding():
    from repro.core import backend
    from repro.isa.trace import Trace

    before = (backend.dispatch, Trace.columns)
    LayerProbe(Tracer()).install().uninstall()
    assert (backend.dispatch, Trace.columns) == before


def test_percentile_rule_needs_ten_samples_beyond_p90():
    assert stats.tail_count(100, 90) == 10
    assert stats.tail_count(99, 90) == 9
    assert stats.tail_count(120, 90) == 12


def test_quantile_tracks_the_percentile_and_moves_smoothly():
    assert stats.quantile([0.3] * 50, 50) == pytest.approx(0.3)
    uniform = [i / 999 for i in range(1000)]
    assert stats.quantile(uniform, 90) == pytest.approx(0.9, abs=0.01)
    # Latencies on a 0.1 s polling grid: moving one job from the 0.2 s
    # step to the 0.3 s step flips the nearest-rank median by a whole
    # step, and the estimate by a small fraction of it.
    low = [0.2] * 60 + [0.3] * 60
    high = [0.2] * 59 + [0.3] * 61
    ordered = sorted(high)
    assert ordered[stats.percentile_rank(120, 50) - 1] - sorted(low)[
        stats.percentile_rank(120, 50) - 1
    ] == pytest.approx(0.1)
    assert 0 < stats.quantile(high, 50) - stats.quantile(low, 50) < 0.02


def _run(tmp_path, seed=0, workload="cold"):
    (tmp_path / "src").mkdir(exist_ok=True)
    return Run(tmp_path, workload, seed, 10, False)


def _report(reference):
    return {
        "digests": dict(reference["digests"]),
        "trace_set": dict(reference["trace_set"]),
        "corpus_stats": {"recorded": 163, "disk_hits": 45},
    }


def test_a_changed_result_digest_counts_as_failed(tmp_path):
    reference = load_reference()
    run = _run(tmp_path)
    assert check_report(run, _report(reference), reference, False, "ok")
    assert (run.attempted, run.failed) == (18, 0)

    report = _report(reference)
    report["digests"]["table7"] = "0" * 64
    assert digest_failures(report["digests"], reference["digests"]) == ["table7"]
    check_report(run, report, reference, False, "changed")
    assert (run.attempted, run.failed) == (36, 1)

    broken = {"error": "ExperimentError: boom"}
    assert not check_report(run, broken, reference, False, "crashed")
    assert (run.attempted, run.failed) == (54, 19)


def test_cold_trace_set_and_counts_are_held_exactly(tmp_path):
    reference = load_reference()
    run = _run(tmp_path)
    report = _report(reference)
    report["trace_set"]["events"] -= 1
    check_report(run, report, reference, False, "short")
    assert run.failed == 1

    run = _run(tmp_path)
    check_report(run, _report(reference), reference, False, "first")
    report = _report(reference)
    report["corpus_stats"]["disk_hits"] += 1
    check_report(run, report, reference, False, "second")
    assert run.failed == 1


def test_counts_must_repeat_across_runs_of_one_seed(tmp_path):
    first = _run(tmp_path, seed=4)
    first.guard_counts("corpus", {"gets": 328})
    first.check_stored_counts()
    assert first.failed == 0

    second = _run(tmp_path, seed=4)
    second.guard_counts("corpus", {"gets": 327})
    second.check_stored_counts()
    assert second.failed == 1

    other_seed = _run(tmp_path, seed=5)
    other_seed.guard_counts("corpus", {"gets": 327})
    other_seed.check_stored_counts()
    assert other_seed.failed == 0


def test_one_seed_always_yields_the_same_experiment_order():
    names = load_reference()["experiments"]
    assert experiment_order(names, 0) == names  # registry order, as `repro all`
    assert experiment_order(names, 7) == experiment_order(names, 7)
    assert sorted(experiment_order(names, 7)) == sorted(names)
    assert experiment_order(names, 7) != experiment_order(names, 8)


def test_one_seed_always_yields_the_same_job_stream_of_distinct_rounds():
    def first(seed, rounds=2 * CYCLE_ROUNDS):
        stream = job_stream(seed)
        return [next(stream) for _ in range(rounds * ROUND_JOBS)]

    jobs = first(3)
    assert jobs == first(3)
    assert jobs != first(4)
    rounds = [jobs[i:i + ROUND_JOBS] for i in range(0, len(jobs), ROUND_JOBS)]
    for block in rounds:
        assert len({json.dumps(spec, sort_keys=True) for spec in block}) == ROUND_JOBS
        assert Counter(spec["type"] for spec in block) == ROUND_MIX
    for start in range(0, len(rounds), CYCLE_ROUNDS):
        sampled = [
            spec["program"] for block in rounds[start:start + CYCLE_ROUNDS]
            for spec in block if spec["type"] == "sample"
        ]
        assert Counter(sampled) == {program: 2 for program in PROGRAMS}


def test_job_specs_are_valid_service_jobs():
    from repro.serve.protocol import normalize_spec

    stream = job_stream(0)
    for _ in range(CYCLE_ROUNDS * ROUND_JOBS):
        normalize_spec(next(stream))


def test_a_served_result_that_differs_or_cannot_be_rerun_fails_its_job(tmp_path):
    from repro.serve.jobs import run_job

    run = _run(tmp_path, workload="serve")
    specs = [
        {"type": "program", "program": "saxpy", "n": 8},
        {"type": "program", "program": "gamma_lut", "n": 9},
        {"type": "program", "program": "no_such_program", "n": 10},
    ]
    current = _Round(run, 0, specs, None)
    record = {"state": "done", "attempts": 1, "requeues": 0}
    current.outcomes = [
        {"spec": spec, "id": str(i), "record": record} for i, spec in enumerate(specs)
    ]
    served = [run_job(dict(specs[0])), {"schema": "changed"}, {}]
    current._check([dict(o, served=s) for o, s in zip(current.outcomes, served)])
    assert run.failed == 2
    assert "differs" in run.problems[0] and "raised" in run.problems[1]


def test_metric_names_and_units_match_benchmark_json():
    from perfbench.run import E2E_UNITS, layer_units

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layer_units()
    assert [w["name"] for w in declared["workloads"]] == ["cold", "warm", "serve"]
