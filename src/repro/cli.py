"""Command line interface: ``repro <experiment> [--scale S]``.

Regenerates any table or figure of the paper on the terminal::

    repro table7 --scale 0.2
    repro figure3
    repro all
    repro all --jobs 4 --corpus-dir ~/.cache/repro/corpus

``--jobs N`` fans the experiments (and the traces they need) out across
a worker pool; ``--corpus-dir`` persists recorded traces so later runs
replay them from disk.  ``--backend NAME`` pins the execution backend
(``scalar`` | ``fused``, see :mod:`repro.core.backend`) for the whole
run including workers.  ``repro corpus record|ls|verify|gc`` maintains
the store (see :mod:`repro.corpus.cli`).  ``repro analyze`` runs the
static dataflow passes that bound memo-table hit ratios, and ``repro
lint`` checks the repo's determinism invariants (see
:mod:`repro.analysis.cli`).  ``repro stats`` renders/validates metrics
snapshots (see :mod:`repro.obs.cli`); ``--metrics-out PATH`` on an
experiment run enables the observability layer and writes its snapshot.
``repro sample`` estimates memo hit ratios from phase-representative
trace intervals instead of full simulation (see
:mod:`repro.simulator.sampling.cli`).
``repro serve`` runs the long-lived experiment service (durable leased
job queue + worker pool + HTTP API), and ``repro submit`` / ``repro
jobs`` / ``repro result`` are its client commands (see
:mod:`repro.serve.cli`).

Serial and ``--jobs N`` runs share one code path
(:func:`repro.corpus.engine.run_experiments`): durations are measured
inside the worker in both cases, so the ``[per experiment: ...]``
report line has an identical shape either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .experiments import experiment_names, run_experiments
from .experiments.plots import render_plot
from .experiments.reference import compare_to_paper

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures of 'Accelerating Multi-Media "
            "Processing by Implementing Memoing in Multiplication and "
            "Division Units' (ASPLOS 1998)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=list(experiment_names()) + ["all", "list"],
        help="experiment id, 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor (bigger = slower, closer to paper sizes)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render figure experiments as terminal charts",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="print paper-vs-measured comparison where reference data exists",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for multi-experiment runs (1 = serial)",
    )
    parser.add_argument(
        "--corpus-dir",
        metavar="PATH",
        default=None,
        help="persist/replay traces through an on-disk corpus at PATH",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help=(
            "per-experiment wall-time bound for --jobs N runs; a hung "
            "worker is replaced and the experiment retried with backoff"
        ),
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=2,
        help="retries after a --job-timeout expiry before failing (default 2)",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help=(
            "execution backend for every simulation in this run "
            "(scalar | fused; default fused, or REPRO_BACKEND; "
            "propagates to worker processes)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "enable the metrics registry (REPRO_METRICS) for this run and "
            "write its JSON snapshot to PATH ('-' for stdout)"
        ),
    )
    return parser


def _format_durations(durations) -> str:
    return ", ".join(
        f"{name} {seconds:.1f}s" for name, seconds in durations.items()
    )


def _print_result(result, args) -> None:
    print(result.render())
    if args.plot:
        chart = render_plot(result)
        if chart is not None:
            print()
            print(chart)
    if args.compare:
        comparison = compare_to_paper(result)
        if comparison is not None:
            print()
            print(comparison.render())


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "corpus":
        from .corpus.cli import main as corpus_main

        return corpus_main(argv[1:])
    if argv and argv[0] == "analyze":
        from .analysis.cli import main_analyze

        return main_analyze(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import main_lint

        return main_lint(argv[1:])
    if argv and argv[0] == "verify":
        from .verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "stats":
        from .obs.cli import main as stats_main

        return stats_main(argv[1:])
    if argv and argv[0] == "sample":
        from .simulator.sampling.cli import main_sample

        return main_sample(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.cli import main_serve

        return main_serve(argv[1:])
    if argv and argv[0] == "submit":
        from .serve.cli import main_submit

        return main_submit(argv[1:])
    if argv and argv[0] == "jobs":
        from .serve.cli import main_jobs

        return main_jobs(argv[1:])
    if argv and argv[0] == "result":
        from .serve.cli import main_result

        return main_result(argv[1:])
    args = _build_parser().parse_args(argv)
    from .core import backend as execution

    try:
        if args.backend is not None:
            # Sets REPRO_BACKEND too, so --jobs worker processes inherit it.
            execution.set_backend(args.backend)
        # Validate the selection once, here, whatever it came from: an
        # unknown REPRO_BACKEND must not surface as a traceback mid-run.
        execution.resolve()
    except execution.UnknownBackendError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.experiment == "list":
        for name in experiment_names():
            print(name)
        return 0
    names = list(experiment_names()) if args.experiment == "all" else [args.experiment]
    if args.corpus_dir is not None:
        from .corpus import set_active_corpus

        set_active_corpus(args.corpus_dir)
    metrics_enabled = args.metrics_out is not None
    if metrics_enabled:
        from . import obs

        # Sets REPRO_METRICS too, so --jobs worker processes inherit it.
        obs.set_enabled(True)
        obs.registry().clear()
    try:
        documents = []
        kwargs = {}
        if args.scale is not None:
            kwargs["scale"] = args.scale
        # table1 reproduces a static latency table; no workload to scale.
        overrides = {"table1": {}} if "scale" in kwargs else {}
        batch = run_experiments(
            names,
            jobs=args.jobs,
            corpus_dir=args.corpus_dir,
            overrides=overrides,
            job_timeout=args.job_timeout,
            job_retries=args.job_retries,
            **kwargs,
        )
        for name, result in batch.results:
            _print_result(result, args)
            duration = batch.durations.get(name)
            if duration is not None:
                print(f"[{name} in {duration:.1f}s]")
            else:
                print(f"[{name}]")
            print()
            documents.append(result.to_dict())
        if len(names) > 1 or batch.jobs > 1:
            stats = batch.corpus_stats
            print(
                f"[{len(names)} experiment(s) in {batch.elapsed:.1f}s with "
                f"{batch.jobs} jobs; corpus: {batch.recorded} recorded, "
                f"{stats.get('disk_hits', 0)} disk hits, "
                f"{stats.get('memory_hits', 0)} memory hits]"
            )
            if batch.durations:
                print(
                    f"[per experiment: {_format_durations(batch.durations)}]"
                )
            print()
        if metrics_enabled:
            from . import obs
            from .obs.cli import write_snapshot

            write_snapshot(obs.registry().as_dict(), args.metrics_out)
    finally:
        if metrics_enabled:
            obs.set_enabled(None)
    if args.json is not None:
        payload = json.dumps(
            documents[0] if len(documents) == 1 else documents, indent=2
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as stream:
                stream.write(payload + "\n")
            print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
