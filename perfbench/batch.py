"""The ``cold`` and ``warm`` workloads: ``repro all --scale 0.05``.

Each iteration is a fresh child process (:mod:`perfbench.child`);
iterations repeat until the run's seconds are used.  Every iteration's
18 result digests are compared with ``reference.json``; a mismatch fails
that experiment.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import stats
from .env import Run, child_env
from .layers import BATCH_LAYER_UNITS

REFERENCE = Path(__file__).with_name("reference.json")

#: A child that has not finished by then is killed and its
#: experiments count as failed.
ITERATION_LIMIT = 150.0


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def experiment_order(names: Sequence[str], seed: int) -> List[str]:
    """Registry order for seed 0 (as ``repro all``); a seeded shuffle otherwise."""
    order = list(names)
    if seed != 0:
        random.Random(seed).shuffle(order)
    return order


def digest_failures(
    digests: Dict[str, str], reference: Dict[str, str]
) -> List[str]:
    """Experiments whose result digest is missing or differs."""
    return [
        name for name in reference if digests.get(name) != reference[name]
    ]


def check_report(
    run: Run,
    report: Dict[str, Any],
    reference: Dict[str, Any],
    warm: bool,
    label: str,
) -> bool:
    """Count one iteration's operations and failures; False when it
    produced no results."""
    run.attempted += len(reference["experiments"])
    if "error" in report:
        run.fail(len(reference["experiments"]), f"{label}: {report['error']}")
        return False
    bad = digest_failures(report["digests"], reference["digests"])
    if bad:
        run.fail(len(bad), f"{label}: result digests differ: {bad}")
    if not warm and report["trace_set"] != reference["trace_set"]:
        run.fail(1, f"{label}: cold trace set {report['trace_set']} != "
                    f"{reference['trace_set']}")
    if warm and report["corpus_stats"].get("recorded", 0):
        run.fail(1, f"{label}: warm run recorded "
                    f"{report['corpus_stats']['recorded']} traces")
    run.guard_counts("corpus", report["corpus_stats"])
    if "layers" in report:
        run.guard_counts("layers", {
            name: value for name, value in report["layers"].items()
            if BATCH_LAYER_UNITS.get(name) in ("count", "bytes", "ratio")
        })
    return True


def run_child(
    run: Run,
    corpus_dir: Path,
    order: Sequence[str],
    corpus_source: Optional[Path] = None,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """One iteration; adds ``setup`` (spawn until ready) to the report."""
    command = [
        sys.executable, "-m", "perfbench.child",
        "--corpus-dir", str(corpus_dir), "--order", ",".join(order),
    ]
    if corpus_source is not None:
        command += ["--corpus-source", str(corpus_source)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    with (run.workdir / "child.log").open("ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=run.root, env=child_env(run.root),
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        watchdog = threading.Timer(ITERATION_LIMIT, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - started
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    lines = (rest if first.strip() == "ready" else first + rest).strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"error": f"child exited {proc.returncode} without a report"}
    report["setup"] = setup
    return report


def ensure_warm_corpus(run: Run, reference: Dict[str, Any]) -> Path:
    """The corpus ``warm`` replays: recorded once per source tree and
    checked like a ``cold`` iteration before it is kept."""
    cached = run.cache_dir / f"corpus-{run.source_hash}"
    if cached.is_dir():
        return cached
    staging = run.workdir / "recording"
    report = run_child(run, staging, reference["experiments"])
    if "error" in report:
        raise RuntimeError(f"recording the warm corpus failed: {report['error']}")
    bad = digest_failures(report["digests"], reference["digests"])
    if bad or report["trace_set"] != reference["trace_set"]:
        raise RuntimeError(
            f"recording the warm corpus gave wrong results: {bad} "
            f"{report['trace_set']}"
        )
    try:
        staging.rename(cached)
    except OSError:
        if not cached.is_dir():
            raise
    return cached


def run_batch(run: Run, warm: bool) -> Dict[str, Any]:
    reference = load_reference()
    order = experiment_order(reference["experiments"], run.seed)
    source = ensure_warm_corpus(run, reference) if warm else None

    setups: List[float] = []
    walls: List[float] = []
    rss: List[float] = []
    untraced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    begin = time.perf_counter()
    iteration = 0
    while True:
        # A traced run times one untraced iteration first, for the
        # tracing overhead, then traces every later one.
        traced = run.trace and iteration > 0
        corpus_dir = run.workdir / f"corpus-{iteration}"
        trace_out = (
            run.trace_dir / f"{run.workload}-seed{run.seed}-{os.getpid()}-{iteration}.json"
            if traced else None
        )
        report = run_child(run, corpus_dir, order, source, trace_out)
        iteration += 1
        if not check_report(run, report, reference, warm, f"iteration {iteration}"):
            break
        setups.append(report["setup"])
        walls.append(report["wall"])
        rss.append(report["peak_rss_mb"])
        if traced:
            layers.append(report["layers"])
        else:
            untraced_walls.append(report["wall"])
        shutil.rmtree(corpus_dir, ignore_errors=True)
        elapsed = time.perf_counter() - begin
        enough = iteration >= (2 if run.trace else 1)
        if enough and elapsed + elapsed / iteration > run.seconds:
            break

    if not walls:
        return {}
    if not run.trace:
        # A batch user waits for the whole run: its latency is the
        # iteration's wall, and its operations are the experiments.
        return {
            "setup_s": stats.median(setups),
            "wall_s": stats.median(walls),
            "peak_rss_mb": stats.median(rss),
            "jobs_per_s": len(order) * len(walls) / sum(walls),
            "latency_p50_s": stats.quantile(walls, 50),
            "latency_p90_s": stats.quantile(walls, 90),
        }
    if not layers:
        return {}
    merged: Dict[str, float] = {}
    for name in layers[0]:
        values = [sample[name] for sample in layers]
        # Counts are identical in every iteration (guarded above).
        merged[name] = values[0] if len(set(values)) == 1 else stats.median(values)
    traced_walls = walls[len(untraced_walls):]
    merged["trace.overhead_s"] = stats.median(traced_walls) - stats.median(
        untraced_walls
    )
    return merged
