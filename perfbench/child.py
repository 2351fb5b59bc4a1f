"""One ``cold``/``warm`` iteration: a fresh process running ``repro all``.

``python -m perfbench.child --corpus-dir DIR --order a,b,... [--corpus-source
SRC] [--trace-out FILE]`` imports the program, copies ``SRC`` (the
pre-recorded corpus of ``warm``) to ``DIR``, prints ``ready``, then runs
the experiments through the call the CLI makes.  Its last stdout line is
a JSON report: result digests, wall, corpus counters, the corpus trace
set, peak RSS and, when traced, the layer metrics.  A fresh
process per iteration means no trace survives in memory from an earlier
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict

#: ``repro all --scale`` of both batch workloads.
SCALE = 0.05


def result_digest(document: Dict[str, Any]) -> str:
    """Digest of one ``ExperimentResult.to_dict()`` document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.corpus.store import TraceCorpus
    from repro.experiments import run_experiments

    from .layers import LayerProbe, batch_layers
    from .tracer import Tracer

    if args.corpus_source:
        shutil.copytree(args.corpus_source, args.corpus_dir)
    print("ready", flush=True)

    names = args.order.split(",")
    tracer = probe = None
    if args.trace_out:
        tracer = Tracer()
        probe = LayerProbe(tracer).install()
    start = time.perf_counter()
    try:
        batch = run_experiments(
            names,
            jobs=1,
            corpus_dir=args.corpus_dir,
            overrides={"table1": {}},
            scale=SCALE,
        )
    finally:
        end = time.perf_counter()
        if probe is not None:
            probe.uninstall()
    report: Dict[str, Any] = {
        "wall": end - start,
        "digests": {
            name: result_digest(result.to_dict()) for name, result in batch.results
        },
        "corpus_stats": dict(batch.corpus_stats),
    }
    entries = TraceCorpus(args.corpus_dir).entries()
    report["trace_set"] = {
        "traces": len(entries),
        "events": sum(entry.events for entry in entries),
    }
    if tracer is not None:
        report["layers"] = batch_layers(
            tracer, probe.counts, batch.corpus_stats, start, end
        )
        tracer.dump(Path(args.trace_out))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--corpus-dir", required=True)
    parser.add_argument("--corpus-source", default=None)
    parser.add_argument("--order", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    try:
        report = _run(args)
    except Exception as exc:  # noqa: BLE001 -- reported as failed operations
        traceback.print_exc()
        report = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
