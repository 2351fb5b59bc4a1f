"""Per-layer spans and counts for traced ``cold``/``warm`` iterations.

:class:`LayerProbe` wraps the calls at each layer boundary of the
experiment path, patching the name each caller binds, so the program
itself runs unmodified.  Self time is what the layer metrics report:
``Trace.columns`` runs inside both ``dispatch`` and ``TraceCorpus.put``
on a cold run, and its time must be charged once, to ``isa``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

from .tracer import Tracer, self_time_by_name, unattributed

#: Layer metric -> span name whose summed self time it reports.
SPAN_METRICS: Dict[str, str] = {
    "images.generate_s": "images.generate",
    "workloads.record_s": "workloads.record",
    "isa.columnize_s": "isa.columnize",
    "isa.encode_s": "isa.encode",
    "isa.decode_s": "isa.decode",
    "isa.to_events_s": "isa.to_events",
    "corpus.put_s": "corpus.put",
    "corpus.get_s": "corpus.get",
    "core.dispatch_s.stats": "core.dispatch.stats",
    "core.dispatch_s.cycle": "core.dispatch.cycle",
    "simulator.hazard_s": "simulator.hazard",
    "experiments.aggregate_s": "experiments.run",
}

#: Counts taken by the wrappers.
PROBE_COUNTS = (
    "workloads.traces_recorded",
    "workloads.events_recorded",
    "corpus.puts",
    "corpus.gets",
    "core.dispatches",
    "core.events",
    "simulator.hazard_events",
)

#: Counts read from the corpus's own counters after the run.
CORPUS_COUNTS = ("corpus.bytes_read", "corpus.bytes_written")

#: Every per-layer metric of the experiment path, with its unit.
BATCH_LAYER_UNITS: Dict[str, str] = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in PROBE_COUNTS},
    "corpus.hit_ratio": "ratio",
    "corpus.bytes_read": "bytes",
    "corpus.bytes_written": "bytes",
    "core.events_per_s": "1/s",
}


class LayerProbe:
    """Installs span-recording wrappers; :meth:`uninstall` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter({name: 0 for name in PROBE_COUNTS})
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _timed(self, name: str) -> Callable:
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def _counted(self, name: str, count: str) -> Callable:
        tracer, counts = self.tracer, self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                counts[count] += 1
                return result

            return wrapper

        return make

    def install(self) -> "LayerProbe":
        import repro.experiments as experiments
        from repro.core import backend
        from repro.corpus import store
        from repro.experiments import common
        from repro.isa.columns import ColumnBatch
        from repro.isa.trace import Trace
        from repro.simulator.hazard import HazardModel

        tracer, counts = self.tracer, self.counts

        def run_experiment(original):
            def wrapper(name, **kwargs):
                with tracer.span("experiments.run", request=name):
                    return original(name, **kwargs)

            return wrapper

        def record(original):
            # run_kernel(kernel, recorder, image), run_perfect(app,
            # recorder, ...), run_speccfp(app, recorder, ...)
            def wrapper(*args, **kwargs):
                recorder = args[1]
                before = recorder.events_recorded
                with tracer.span("workloads.record"):
                    result = original(*args, **kwargs)
                counts["workloads.traces_recorded"] += 1
                counts["workloads.events_recorded"] += (
                    recorder.events_recorded - before
                )
                return result

            return wrapper

        def decode(original):
            # A generator does its work while drained: drain it here.
            def wrapper(*args, **kwargs):
                with tracer.span("isa.decode"):
                    blocks = list(original(*args, **kwargs))
                return iter(blocks)

            return wrapper

        def dispatch(original):
            def wrapper(events, units, **kwargs):
                mode = "cycle" if kwargs.get("machine") is not None else "stats"
                with tracer.span(f"core.dispatch.{mode}"):
                    result = original(events, units, **kwargs)
                counts["core.dispatches"] += 1
                counts["core.events"] += result.instructions
                return result

            return wrapper

        def hazard(original):
            def wrapper(self, events):
                with tracer.span("simulator.hazard"):
                    report = original(self, events)
                counts["simulator.hazard_events"] += report.instructions
                return report

            return wrapper

        self._patch(experiments, "run_experiment", run_experiment)
        self._patch(common, "generate", self._timed("images.generate"))
        for name in ("run_kernel", "run_perfect", "run_speccfp"):
            self._patch(common, name, record)
        self._patch(Trace, "columns", self._timed("isa.columnize"))
        self._patch(store, "write_column_trace", self._timed("isa.encode"))
        self._patch(store, "read_column_blocks", decode)
        self._patch(ColumnBatch, "to_events", self._timed("isa.to_events"))
        self._patch(store.TraceCorpus, "put", self._counted("corpus.put", "corpus.puts"))
        self._patch(store.TraceCorpus, "get", self._counted("corpus.get", "corpus.gets"))
        self._patch(backend, "dispatch", dispatch)
        self._patch(HazardModel, "run", hazard)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def batch_layers(
    tracer: Tracer,
    counts: Dict[str, int],
    corpus_stats: Dict[str, int],
    start: float,
    end: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration spanning ``[start, end]``."""
    own = self_time_by_name(tracer.spans)
    metrics: Dict[str, float] = {
        metric: own.get(span, 0.0) for metric, span in SPAN_METRICS.items()
    }
    metrics.update({name: counts[name] for name in PROBE_COUNTS})
    hits = corpus_stats.get("memory_hits", 0) + corpus_stats.get("disk_hits", 0)
    lookups = hits + corpus_stats.get("misses", 0)
    metrics["corpus.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["corpus.bytes_read"] = corpus_stats.get("bytes_read", 0)
    metrics["corpus.bytes_written"] = corpus_stats.get("bytes_written", 0)
    busy = metrics["core.dispatch_s.stats"] + metrics["core.dispatch_s.cycle"]
    metrics["core.events_per_s"] = counts["core.events"] / busy if busy else 0.0
    metrics["trace.unattributed_s"] = unattributed(tracer.spans, start, end)
    return metrics
