"""Shared machinery for the experiment drivers.

The pattern every hit-ratio experiment follows:

1. record a trace per (application, input) with a fresh
   :class:`OperationRecorder` (the paper runs each application on 8-14
   inputs and averages);
2. replay the same trace through however many MEMO-TABLE configurations
   the experiment sweeps (finite/infinite, sizes, associativities,
   policies) -- replaying one recorded trace is much cheaper than
   re-running the kernel;
3. average the per-input hit ratios.

Step 1 is cached in two tiers.  A bounded in-process LRU keeps the hot
traces of the current run; when a corpus is active (see
:mod:`repro.corpus`), traces are also persisted to the on-disk store,
so a second invocation -- or a whole pool of worker processes --
replays them without paying the recording cost again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.bank import MemoTableBank, PAPER_OPERATIONS
from ..core.config import MemoTableConfig, TrivialPolicy
from ..core.operations import Operation
from ..corpus.store import TraceKey, active_corpus
from ..images import generate
from ..isa.trace import Trace
from ..simulator.shade import ShadeSimulator, SimulationReport
from ..workloads.khoros import run_kernel
from ..workloads.perfect import run_perfect
from ..workloads.recorder import OperationRecorder
from ..workloads.speccfp import run_speccfp

__all__ = [
    "DEFAULT_IMAGE_SET",
    "SPEEDUP_IMAGE",
    "record_mm_trace",
    "record_perfect_trace",
    "record_speccfp_trace",
    "clear_trace_cache",
    "set_trace_cache_limit",
    "trace_cache_len",
    "replay",
    "hit_ratio_or_none",
    "average_ratios",
]

#: Default inputs for MM experiments: five images spanning the paper's
#: entropy range (7.3 bits down to 1.4).
DEFAULT_IMAGE_SET: Tuple[str, ...] = (
    "mandrill",
    "Muppet1",
    "chroms",
    "lablabel",
    "fractal",
)

#: Single representative input for the (expensive) cycle-level speedup
#: experiments.
SPEEDUP_IMAGE = "Muppet1"

#: Entry bound of the in-process trace LRU.  Long-lived processes (the
#: parallel workers, the test suite) would otherwise hold every trace
#: they ever recorded.
_DEFAULT_CACHE_ENTRIES = 128

_trace_cache: "OrderedDict[TraceKey, Trace]" = OrderedDict()
_trace_cache_limit = _DEFAULT_CACHE_ENTRIES


def clear_trace_cache() -> None:
    """Drop every trace held by the in-process LRU."""
    _trace_cache.clear()


def set_trace_cache_limit(entries: int) -> None:
    """Bound the in-process trace LRU to ``entries`` traces (>= 0)."""
    global _trace_cache_limit
    _trace_cache_limit = max(0, int(entries))
    while len(_trace_cache) > _trace_cache_limit:
        _trace_cache.popitem(last=False)


def trace_cache_len() -> int:
    return len(_trace_cache)


def _cached_record(
    key: TraceKey, record: Callable[[], Trace], cache: bool
) -> Trace:
    """Two-tier trace lookup: in-process LRU, then the active corpus.

    ``cache=False`` bypasses both tiers and records fresh.  Freshly
    recorded traces are pushed to the corpus so later processes replay
    them from disk.
    """
    if not cache:
        return record()
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache.move_to_end(key)
        return trace
    corpus = active_corpus()
    if corpus is not None:
        trace = corpus.get_or_record(key, record)
    else:
        trace = record()
    if _trace_cache_limit > 0:
        _trace_cache[key] = trace
        while len(_trace_cache) > _trace_cache_limit:
            _trace_cache.popitem(last=False)
    return trace


def record_mm_trace(
    kernel: str, image_name: str, scale: float = 0.15, cache: bool = True
) -> Trace:
    """Trace of one MM kernel on one catalogue image."""

    def record() -> Trace:
        recorder = OperationRecorder()
        run_kernel(kernel, recorder, generate(image_name, scale=scale))
        return recorder.trace

    return _cached_record(
        TraceKey("mm", kernel, image_name, scale), record, cache
    )


def record_perfect_trace(app: str, scale: float = 1.0, cache: bool = True) -> Trace:
    def record() -> Trace:
        recorder = OperationRecorder()
        run_perfect(app, recorder, scale=scale)
        return recorder.trace

    return _cached_record(TraceKey("perfect", app, "", scale), record, cache)


def record_speccfp_trace(app: str, scale: float = 1.0, cache: bool = True) -> Trace:
    def record() -> Trace:
        recorder = OperationRecorder()
        run_speccfp(app, recorder, scale=scale)
        return recorder.trace

    return _cached_record(TraceKey("spec", app, "", scale), record, cache)


BankSpec = Union[str, MemoTableConfig, None]


def _build_bank(spec: BankSpec, trivial_policy: TrivialPolicy) -> MemoTableBank:
    if spec == "infinite":
        return MemoTableBank.infinite(trivial_policy=trivial_policy)
    if spec is None or isinstance(spec, MemoTableConfig):
        return MemoTableBank.paper_baseline(
            config=spec, trivial_policy=trivial_policy
        )
    raise ValueError(f"unknown bank spec {spec!r}")


def replay(
    trace: Trace,
    spec: BankSpec = None,
    trivial_policy: TrivialPolicy = TrivialPolicy.EXCLUDE,
) -> SimulationReport:
    """Run one recorded trace through a fresh bank built from ``spec``.

    ``spec`` is ``None`` (paper 32/4 baseline), ``"infinite"`` or an
    explicit :class:`MemoTableConfig`.
    """
    bank = _build_bank(spec, trivial_policy)
    return ShadeSimulator(bank).run(trace)


def hit_ratio_or_none(report: SimulationReport, op: Operation) -> Optional[float]:
    """Hit ratio, or None when the operation never occurred (paper's '-')."""
    stats = report.unit_stats.get(op)
    if stats is None or (stats.table.lookups == 0 and stats.trivial == 0):
        return None
    return stats.hit_ratio


def average_ratios(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean of the non-None entries (None when all are absent)."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))
