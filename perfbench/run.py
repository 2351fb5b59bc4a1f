"""Benchmark entry point.

    python3 perfbench/run.py --workload cold|warm|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in; without it the benchmark exits 2 and
prints no result.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  Scratch
files live under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics, reported by every workload (see README.md).
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}

WORKLOADS = ("cold", "warm", "serve")


def layer_units():
    from perfbench.layers import BATCH_LAYER_UNITS
    from perfbench.serveload import SERVE_LAYER_UNITS

    return {
        **BATCH_LAYER_UNITS,
        **SERVE_LAYER_UNITS,
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    }


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # Import the checkout's program and benchmark, never an installed
    # copy, and let no inherited REPRO_* setting reach the program.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.batch import run_batch
    from perfbench.env import Run
    from perfbench.serveload import run_serve

    run = Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "serve":
            measured = run_serve(run)
        else:
            measured = run_batch(run, warm=args.workload == "warm")
        run.check_stored_counts()
    except RuntimeError as exc:
        run.attempted = max(run.attempted, 1)
        run.fail(1, str(exc))
        measured = {}
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    units = layer_units() if args.trace else E2E_UNITS
    # A layer the workload does not reach reports 0.
    values = {name: measured.get(name, 0.0 if args.trace else None) for name in units}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
            if value is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
