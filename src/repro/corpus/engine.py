"""Parallel experiment execution over the trace corpus.

Two fan-out layers, both feeding the persistent store:

1. :func:`trace_plan` enumerates every :class:`TraceKey` an experiment
   selection will replay -- the (suite x application x input x scale)
   work items of the paper's methodology -- and
   :func:`prefetch_traces` records the cache-missing ones across a
   ``multiprocessing`` worker pool.  The store's per-entry locks make
   each recording happen exactly once no matter how many workers race.
2. :func:`run_experiments` then fans the experiments themselves out
   across the same pool.  Every worker replays from the (now warm)
   corpus, results come back as the ordinary :class:`ExperimentResult`
   objects in the order requested, and per-worker corpus counters are
   merged so a warm run can prove it re-recorded nothing.

Everything degrades gracefully: ``jobs=1`` (or a pool that cannot be
created) runs serially through the exact same code paths.

Traces flow through this engine in columnar form end to end: the store
serializes v3 column blocks and deserializes straight into
column-backed :class:`~repro.isa.trace.Trace` objects, so every replay
a worker performs enters the simulators through
:func:`repro.core.backend.dispatch` without materializing per-event
tuples.  ``repro --backend NAME`` (propagated to workers via
``REPRO_BACKEND``) selects which kernel serves the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .store import (
    CorpusStats,
    TraceCorpus,
    TraceKey,
    active_corpus,
    default_corpus_dir,
    set_active_corpus,
)
from .. import obs
from ..errors import CorpusError

__all__ = [
    "ExperimentBatch",
    "ExperimentTiming",
    "trace_plan",
    "record_trace_for_key",
    "prefetch_traces",
    "run_experiments",
]

#: Default workload scales of the experiment drivers (mirrors each
#: ``run()`` signature); used when the caller does not pass ``--scale``.
_MM_SCALE = 0.15
_SUITE_SCALE = 1.0


@dataclass(frozen=True)
class ExperimentTiming:
    """Worker-side timing of one experiment.

    Measured *inside* the worker with monotonic clocks
    (``time.perf_counter`` / ``time.process_time``), so a serial run and
    a ``--jobs N`` run report the same quantity: the time the experiment
    itself took, never pool scheduling or result-pickling overhead.
    """

    wall: float = 0.0
    cpu: float = 0.0


@dataclass
class ExperimentBatch:
    """Outcome of one (possibly parallel) multi-experiment run."""

    #: (name, result) pairs in the order requested -- identical to what
    #: a serial loop over :func:`repro.experiments.run_experiment` yields.
    results: List[Tuple[str, Any]] = field(default_factory=list)
    #: Corpus counters summed over the prefetch phase and every worker.
    corpus_stats: Dict[str, int] = field(default_factory=dict)
    #: Worker processes used (1 = serial).
    jobs: int = 1
    #: Trace keys the plan covered.
    planned: int = 0
    #: Traces actually recorded this run (0 on a fully warm corpus).
    recorded: int = 0
    elapsed: float = 0.0
    #: Per-experiment wall seconds (worker-side ``perf_counter`` spans),
    #: keyed by experiment name in the order requested.  Kept as the
    #: compact view of :attr:`timings`.
    durations: Dict[str, float] = field(default_factory=dict)
    #: Per-experiment worker-side wall/CPU timings, keyed by name.
    timings: Dict[str, ExperimentTiming] = field(default_factory=dict)


def _mm_keys(
    apps: Iterable[str], images: Iterable[str], scale: float
) -> List[TraceKey]:
    return [
        TraceKey("mm", app, image, scale) for app in apps for image in images
    ]


def trace_plan(
    names: Sequence[str], scale: Optional[float] = None
) -> List[TraceKey]:
    """Every trace key the named experiments will replay, deduplicated.

    ``scale`` overrides each driver's default workload scale, exactly as
    the CLI's ``--scale`` flag does.  Experiments that record through
    their own specialized recorders (table1, ext-future-ops,
    ext-reuse-buffer) contribute nothing: they never hit the store.
    """
    from ..experiments.common import DEFAULT_IMAGE_SET
    from ..experiments.table8 import DEFAULT_KERNEL_SET
    from ..images import IMAGE_CATALOG
    from ..workloads.khoros import (
        SAMPLE_APPS,
        SPEEDUP_APPS,
        TABLE7_ORDER,
        TABLE9_APPS,
    )
    from ..workloads.perfect import perfect_names
    from ..workloads.speccfp import speccfp_names

    mm = _MM_SCALE if scale is None else scale
    suite = _SUITE_SCALE if scale is None else scale
    sweep_images = ("Muppet1", "chroms", "fractal")
    catalogue = tuple(img.name for img in IMAGE_CATALOG)
    nonfloat = tuple(
        img.name for img in IMAGE_CATALOG if img.pixel_type != "FLOAT"
    )
    plans: Dict[str, List[TraceKey]] = {
        "table5": [TraceKey("perfect", app, "", suite) for app in perfect_names()],
        "table6": [TraceKey("spec", app, "", suite) for app in speccfp_names()],
        "table7": _mm_keys(TABLE7_ORDER, DEFAULT_IMAGE_SET, mm),
        "table8": _mm_keys(DEFAULT_KERNEL_SET, catalogue, mm),
        "table9": _mm_keys(TABLE9_APPS, DEFAULT_IMAGE_SET, mm),
        # table10 always records the Perfect suite at its default scale.
        "table10": [
            TraceKey("perfect", app, "", _SUITE_SCALE) for app in perfect_names()
        ]
        + _mm_keys(TABLE7_ORDER[:8], DEFAULT_IMAGE_SET[:3], mm),
        "table11": _mm_keys(SPEEDUP_APPS, DEFAULT_IMAGE_SET, mm),
        "table12": _mm_keys(SPEEDUP_APPS, DEFAULT_IMAGE_SET, mm),
        "table13": _mm_keys(SPEEDUP_APPS, DEFAULT_IMAGE_SET, mm),
        "figure2": _mm_keys(DEFAULT_KERNEL_SET, nonfloat, mm),
        "figure3": _mm_keys(SAMPLE_APPS, sweep_images, mm),
        "figure4": _mm_keys(SAMPLE_APPS, sweep_images, mm),
        "ext-dual-issue": _mm_keys(SPEEDUP_APPS, DEFAULT_IMAGE_SET[:3], mm),
        "ext-hazard": _mm_keys(
            SPEEDUP_APPS,
            DEFAULT_IMAGE_SET[:3],
            0.12 if scale is None else scale,
        ),
        "ext-matrix": _mm_keys(
            TABLE7_ORDER,
            DEFAULT_IMAGE_SET,
            0.12 if scale is None else scale,
        ),
    }
    seen = set()
    keys: List[TraceKey] = []
    for name in names:
        for key in plans.get(name, ()):
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def record_trace_for_key(key: TraceKey):
    """Record (or fetch, via the active corpus) the trace behind ``key``."""
    from ..experiments import common

    if key.suite == "mm":
        return common.record_mm_trace(key.name, key.variant, scale=key.scale)
    if key.suite == "perfect":
        return common.record_perfect_trace(key.name, scale=key.scale)
    if key.suite == "spec":
        return common.record_speccfp_trace(key.name, scale=key.scale)
    raise CorpusError(f"no recorder for suite {key.suite!r}")


# -- worker-pool plumbing --------------------------------------------------
#
# Top-level functions (spawn-safe); each worker opens its own view of the
# shared corpus directory in the initializer.


def _pool_init(corpus_dir: Optional[str], max_bytes: Optional[int]) -> None:
    if corpus_dir is not None:
        set_active_corpus(TraceCorpus(corpus_dir, max_bytes=max_bytes))


def _stats_snapshot() -> Optional[CorpusStats]:
    corpus = active_corpus()
    if corpus is None:
        return None
    return CorpusStats(**corpus.stats.as_dict())


def _stats_delta(before: Optional[CorpusStats]) -> Dict[str, int]:
    corpus = active_corpus()
    if corpus is None or before is None:
        return {}
    return corpus.stats.diff(before)


def _prefetch_one(key: TraceKey) -> Dict[str, int]:
    before = _stats_snapshot()
    record_trace_for_key(key)
    return _stats_delta(before)


def _run_one(item: Tuple[str, Dict[str, Any]]):
    """Run one experiment; returns ``(name, result, corpus-delta,
    timing, metrics-snapshot)``.

    The timing is measured here, inside the worker, so serial and pooled
    runs account durations identically.  When metrics are enabled the
    experiment executes under its own scoped registry (the same code
    path in-process and in a pool worker); the snapshot rides back with
    the result for the parent to merge.
    """
    from ..experiments import run_experiment

    name, kwargs = item
    before = _stats_snapshot()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    snapshot = None
    if obs.enabled():
        local = obs.MetricsRegistry()
        with obs.use_registry(local):
            with local.span(f"experiment.{name}"):
                result = run_experiment(name, **kwargs)
        snapshot = local.as_dict()
    else:
        result = run_experiment(name, **kwargs)
    timing = ExperimentTiming(
        wall=time.perf_counter() - wall0,
        cpu=time.process_time() - cpu0,
    )
    return name, result, _stats_delta(before), timing, snapshot


def _make_pool(jobs: int, corpus_dir: Optional[str], max_bytes: Optional[int]):
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    return context.Pool(
        processes=jobs,
        initializer=_pool_init,
        initargs=(corpus_dir, max_bytes),
    )


def prefetch_traces(
    keys: Sequence[TraceKey],
    jobs: int = 1,
    corpus_dir: Union[str, None] = None,
    max_bytes: Optional[int] = None,
) -> CorpusStats:
    """Ensure every key is in the corpus, recording misses in parallel.

    Returns the summed corpus counters of the phase (``recorded`` says
    how many traces were actually cold).
    """
    total = CorpusStats()
    keys = list(keys)
    if not keys:
        return total
    if corpus_dir is not None:
        set_active_corpus(TraceCorpus(corpus_dir, max_bytes=max_bytes))
    if jobs <= 1 or len(keys) == 1:
        for key in keys:
            total.add(_prefetch_one(key))
        return total
    corpus = active_corpus()
    root = str(corpus.root) if corpus is not None else None
    try:
        pool = _make_pool(min(jobs, len(keys)), root, max_bytes)
    except (OSError, ImportError, ValueError):
        for key in keys:
            total.add(_prefetch_one(key))
        return total
    with pool:
        for delta in pool.imap_unordered(_prefetch_one, keys, chunksize=1):
            total.add(delta)
    return total


def _absorb(
    batch: ExperimentBatch,
    total: CorpusStats,
    outcome: Tuple[str, Any, Dict[str, int], ExperimentTiming, Optional[dict]],
) -> None:
    """Fold one :func:`_run_one` outcome into the batch (shared by the
    serial and pooled branches, so both report identically)."""
    name, result, delta, timing, snapshot = outcome
    total.add(delta)
    batch.results.append((name, result))
    batch.timings[name] = timing
    batch.durations[name] = timing.wall
    if snapshot is not None and obs.enabled():
        obs.registry().merge(snapshot)


def _count(name: str, delta: int = 1) -> None:
    """Bump an obs counter iff the metrics layer is enabled."""
    if obs.enabled():
        obs.registry().counter_add(name, delta)


def _run_pool_with_timeouts(
    pool,
    items: Sequence[Tuple[str, Dict[str, Any]]],
    jobs: int,
    corpus_dir: Optional[str],
    max_bytes: Optional[int],
    job_timeout: float,
    job_retries: int,
    retry_backoff: float,
):
    """Drain ``items`` through worker pools under a per-job timeout.

    Every outstanding item is submitted with ``apply_async`` and results
    are awaited in request order, each wait bounded by ``job_timeout``.
    A job that blows its bound stalls exactly one wait: already-finished
    siblings are harvested, the (possibly hung) pool is torn down with
    ``terminate()``, and a fresh pool re-runs everything still missing.
    The timed-out job itself is retried up to ``job_retries`` times with
    exponential backoff (``retry_backoff * 2**attempt`` seconds) before
    :class:`~repro.errors.ExperimentError` is raised.

    Counters ``engine.jobs_timed_out`` / ``engine.jobs_retried`` stream
    into :mod:`repro.obs` (rendered ``repro_engine_jobs_timed_out_total``
    / ``repro_engine_jobs_retried_total``) when metrics are enabled.

    Returns ``(pool, outcomes)``: the pool now owning the workers (the
    caller closes it) and the per-index :func:`_run_one` outcomes.
    """
    import multiprocessing

    from ..errors import ExperimentError

    outcomes: Dict[int, Any] = {}
    attempts: Dict[int, int] = {index: 0 for index in range(len(items))}
    try:
        while True:
            remaining = sorted(
                index for index in attempts if index not in outcomes
            )
            if not remaining:
                return pool, outcomes
            asyncs = {
                index: pool.apply_async(_run_one, (items[index],))
                for index in remaining
            }
            timed_out = None
            for index in remaining:
                try:
                    outcomes[index] = asyncs[index].get(job_timeout)
                except multiprocessing.TimeoutError:
                    timed_out = index
                    break
            if timed_out is None:
                return pool, outcomes
            # Harvest siblings that finished before the hang was
            # noticed, so their work survives the pool teardown.
            for index in remaining:
                if index not in outcomes and asyncs[index].ready():
                    try:
                        outcomes[index] = asyncs[index].get(0)
                    except Exception:
                        pass  # re-run it on the fresh pool
            pool.terminate()
            pool.join()
            attempts[timed_out] += 1
            _count("engine.jobs_timed_out")
            name = items[timed_out][0]
            if attempts[timed_out] > job_retries:
                raise ExperimentError(
                    f"experiment {name!r} timed out "
                    f"({job_timeout:g}s x {attempts[timed_out]} attempt(s))"
                )
            _count("engine.jobs_retried")
            time.sleep(retry_backoff * (2 ** (attempts[timed_out] - 1)))
            pool = _make_pool(jobs, corpus_dir, max_bytes)
    except BaseException:
        # The caller's ``finally`` only sees the pool object it passed
        # in; after a rebuild that object is already dead and the live
        # replacement would leak its workers.  Tear down whichever pool
        # is current before propagating (double-terminate is harmless).
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass
        raise


def run_experiments(
    names: Sequence[str],
    jobs: int = 1,
    corpus_dir: Union[str, None] = None,
    max_bytes: Optional[int] = None,
    prefetch: bool = True,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    job_timeout: Optional[float] = None,
    job_retries: int = 2,
    retry_backoff: float = 0.5,
    **kwargs,
) -> ExperimentBatch:
    """Run experiments, optionally across a worker pool.

    Results are merged deterministically: ``batch.results`` holds the
    usual :class:`ExperimentResult` objects in the order ``names`` was
    given, so ``--jobs 4`` output is byte-identical to a serial run.
    With ``jobs > 1`` and no explicit ``corpus_dir``, the active corpus
    (or the default corpus directory) is used so workers share traces.

    ``overrides`` maps experiment names to *replacement* keyword
    dictionaries: an experiment listed there receives exactly those
    keywords instead of ``**kwargs`` (the CLI uses this to keep
    ``--scale`` away from table1, which takes no workload).

    ``job_timeout`` bounds each pooled experiment's wall time: a job
    that exceeds it is abandoned (the hung pool is torn down so no
    other job stalls behind it) and retried up to ``job_retries`` times
    with ``retry_backoff``-seconds exponential backoff, after which
    :class:`~repro.errors.ExperimentError` is raised.  The serial path
    cannot preempt an in-process experiment, so ``job_timeout`` only
    applies when a worker pool is actually in use.
    """
    names = list(names)
    jobs = max(1, int(jobs))
    overrides = overrides or {}
    started = time.perf_counter()
    batch = ExperimentBatch(jobs=jobs)
    total = CorpusStats()

    if corpus_dir is None and jobs > 1:
        corpus = active_corpus()
        corpus_dir = str(corpus.root) if corpus else str(default_corpus_dir())
    if corpus_dir is not None:
        set_active_corpus(TraceCorpus(str(corpus_dir), max_bytes=max_bytes))

    plan = trace_plan(
        names, scale=kwargs.get("scale")
    ) if prefetch and jobs > 1 else []
    batch.planned = len(plan)
    items = [
        (name, dict(overrides[name]) if name in overrides else dict(kwargs))
        for name in names
    ]

    pool = None
    if jobs > 1:
        try:
            pool = _make_pool(jobs, corpus_dir, max_bytes)
        except (OSError, ImportError, ValueError):
            pool = None  # no worker pool available: degrade to serial

    if pool is None:
        for item in items:
            _absorb(batch, total, _run_one(item))
    else:
        try:
            if plan:
                for delta in pool.imap_unordered(
                    _prefetch_one, plan, chunksize=1
                ):
                    total.add(delta)
            if job_timeout is None:
                for outcome in pool.map(_run_one, items, chunksize=1):
                    _absorb(batch, total, outcome)
            else:
                pool, outcomes = _run_pool_with_timeouts(
                    pool, items, jobs, corpus_dir, max_bytes,
                    job_timeout, job_retries, retry_backoff,
                )
                for index in range(len(items)):
                    _absorb(batch, total, outcomes[index])
        finally:
            pool.terminate()
            pool.join()

    batch.corpus_stats = total.as_dict()
    batch.recorded = total.recorded
    batch.elapsed = time.perf_counter() - started
    return batch
