"""``repro sample`` -- phase-aware sampled estimation from the terminal.

Runs a bundled program on the deterministic reference harness, then
estimates its per-unit MEMO-TABLE hit ratios from a handful of
phase-representative intervals (:func:`~repro.simulator.sampling.
estimate_phases`) instead of simulating the whole trace::

    repro sample --program sobel_gx --n 65536 --phases 16
    repro sample --program saxpy --backend scalar --json -
    repro sample --program gamma_lut --compare-full

``--compare-full`` additionally simulates the full trace and prints the
per-unit absolute error of the sampled estimate -- the same check the
``bench-sampling`` CI gate enforces across every bundled program.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ... import cliargs

__all__ = ["main_sample"]


def _build_parser() -> argparse.ArgumentParser:
    from ..sampling.estimator import PhasePlan

    defaults = PhasePlan()
    parser = argparse.ArgumentParser(
        prog="repro sample",
        description=(
            "Estimate per-unit memo hit ratios from phase-representative "
            "intervals instead of simulating the whole trace."
        ),
    )
    parser.add_argument(
        "--program",
        required=True,
        metavar="NAME",
        help="bundled ISA program to trace (see 'repro corpus ls' programs)",
    )
    parser.add_argument(
        "--n",
        type=cliargs.positive_int,
        default=65536,
        help="workload size handed to the program (default 65536)",
    )
    parser.add_argument(
        "--phases",
        type=int,
        default=defaults.phases,
        help="target phase count for k-means (default %(default)s)",
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=defaults.interval,
        help="interval length in events (default %(default)s)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=defaults.warmup,
        help="functional-warming events before each window (default "
             "%(default)s)",
    )
    parser.add_argument(
        "--samples-per-phase",
        type=int,
        default=defaults.samples_per_phase,
        help="measured windows per phase (default %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seeds clustering, window sampling, and signatures (default 0)",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help=(
            "execution backend for the simulated windows (scalar | "
            "fused; default fused)"
        ),
    )
    parser.add_argument(
        "--no-bound",
        action="store_true",
        help=(
            "skip the infinite-table replay (no warm-up error bound, less "
            "work)"
        ),
    )
    parser.add_argument(
        "--compare-full",
        action="store_true",
        help="also simulate the full trace and report per-unit abs error",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the estimate document as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "enable the metrics registry for this run and write its "
            "snapshot to PATH ('-' for stdout)"
        ),
    )
    return parser


def main_sample(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from ... import obs
    from ...analysis.static.memo import reference_machine
    from ...core import backend as execution
    from ...core.bank import MemoTableBank
    from ...errors import ReproError
    from ...isa.programs import SAMPLE_STEP_BUDGET
    from .estimator import PhasePlan, estimate_phases

    metrics_enabled = args.metrics_out is not None
    if metrics_enabled:
        obs.set_enabled(True)
        obs.registry().clear()
    try:
        try:
            plan = PhasePlan(
                phases=args.phases,
                interval=args.interval,
                warmup=args.warmup,
                seed=args.seed,
                samples_per_phase=args.samples_per_phase,
            )
            # use_backend rejects an unknown name before the run.
            with execution.use_backend(args.backend):
                machine = reference_machine(args.program, args.n)
                machine.run(max_steps=SAMPLE_STEP_BUDGET)
                estimate = estimate_phases(
                    machine.trace,
                    plan=plan,
                    bound_warmup=not args.no_bound,
                )
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2

        document = estimate.as_dict()
        document["program"] = args.program
        document["n"] = args.n
        print(
            f"sample {args.program} (n={args.n}): "
            f"{estimate.events_total} events, {estimate.intervals} "
            f"intervals, {estimate.phases} phases, "
            f"{len(estimate.representatives)} windows "
            f"[backend={estimate.backend}]"
        )
        print(
            f"  simulated {estimate.events_simulated} + bound "
            f"{estimate.oracle_events} events "
            f"-> work reduction {estimate.work_reduction:.1f}x"
        )
        full = None
        if args.compare_full:
            bank = MemoTableBank.paper_baseline()
            execution.dispatch(machine.trace, bank.units, backend=estimate.backend)
            full = {}
            for op, unit in bank.units.items():
                eligible = unit.stats.table.lookups + unit.stats.trivial_hits
                if eligible:
                    full[op] = unit.stats.hit_ratio
            document["full_hit_ratios"] = {
                op.name: ratio for op, ratio in sorted(
                    full.items(), key=lambda pair: pair[0].name
                )
            }
        worst = 0.0
        for op in sorted(estimate.hit_ratios, key=lambda op: op.name):
            ratio = estimate.hit_ratios[op]
            bound = estimate.warmup_error_bound.get(op)
            line = f"  {op.name:10s} est={ratio:.4f}"
            if bound is not None:
                line += f" warmup_bound={bound:.4f}"
            if full is not None and op in full:
                error = abs(ratio - full[op])
                worst = max(worst, error)
                line += f" full={full[op]:.4f} abs_err={error:.4f}"
            print(line)
        if full is not None:
            print(f"  worst abs error {worst:.4f}")

        if args.json is not None:
            payload = json.dumps(document, indent=2)
            if args.json == "-":
                print(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as stream:
                    stream.write(payload + "\n")
                print(f"wrote {args.json}")
        if metrics_enabled:
            from ...obs.cli import write_snapshot

            write_snapshot(obs.registry().as_dict(), args.metrics_out)
    finally:
        if metrics_enabled:
            obs.set_enabled(None)
    return 0


if __name__ == "__main__":
    sys.exit(main_sample())
