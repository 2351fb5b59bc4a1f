"""Phase-aware sampling accuracy gate (2% absolute at >10x less work).

For every bundled ISA program this benchmark simulates the full trace
once (the reference), then estimates the same per-unit hit ratios from
phase-representative intervals only
(:func:`repro.simulator.sampling.estimate_phases`), and writes
``BENCH_sampling.json`` with each program's worst absolute per-unit
error and achieved work reduction.  CI's sampling-accuracy job runs
this as a script and fails the build (exit 1) unless **every** program
lands within ``ERROR_GATE`` absolute hit ratio of the full run while
touching at least ``WORK_REDUCTION_GATE`` times fewer events.  The
estimator simulates only through the kernel: its residency model is
one pass over the whole trace, the windows and their warm-up slices
are dispatched, and the warm-up bound is an infinite-table replay of
each primary window.  ``work_reduction`` counts the window and bound
events only: neither the whole-trace residency pass nor the
vectorized fingerprinting is in its denominator.

Everything is seeded, so the gate is deterministic: same trace, same
plan, same estimate.

Also runnable under pytest-benchmark alongside the other benchmarks
(``make bench-sampling``).
"""

import json
import sys
from pathlib import Path

from repro.analysis.static.memo import PROGRAMS, reference_machine
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.isa.programs import SAMPLE_STEP_BUDGET
from repro.simulator.sampling import PhasePlan, estimate_phases

#: Where the accuracy numbers land (repo root, next to CHANGES.md).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"

#: Workload size: big enough that every program's trace dwarfs the
#: sampled windows (sampling is for long traces by construction).
WORKLOAD_N = 65536

#: Absolute per-unit hit-ratio error ceiling, per program.
ERROR_GATE = 0.02

#: Floor on full-trace events over window and bound events.
WORK_REDUCTION_GATE = 10.0

#: The locked estimation plan the gate certifies (seeded, deterministic).
PLAN = PhasePlan(phases=16, interval=250, warmup=500, samples_per_phase=4)


def _full_ratios(events):
    """Reference per-unit hit ratios from one full-trace simulation."""
    bank = MemoTableBank.paper_baseline()
    execution.dispatch(events, bank.units)
    ratios = {}
    for op, unit in bank.units.items():
        eligible = unit.stats.table.lookups + unit.stats.trivial_hits
        if eligible:
            ratios[op] = unit.stats.hit_ratio
    return ratios


def _one_program(name):
    machine = reference_machine(name, WORKLOAD_N)
    machine.run(max_steps=SAMPLE_STEP_BUDGET)
    events = machine.trace
    full = _full_ratios(events)
    estimate = estimate_phases(events, plan=PLAN)
    errors = {
        op.name: abs(estimate.hit_ratios[op] - ratio)
        for op, ratio in full.items()
    }
    worst = max(errors.values()) if errors else 0.0
    return {
        "events": estimate.events_total,
        "events_simulated": estimate.events_simulated,
        "oracle_events": estimate.oracle_events,
        "phases": estimate.phases,
        "windows": len(estimate.representatives),
        "work_reduction": round(estimate.work_reduction, 2),
        "max_warmup_error_bound": round(
            estimate.max_warmup_error_bound, 4
        ),
        "abs_errors": {op: round(err, 5) for op, err in sorted(errors.items())},
        "worst_abs_error": round(worst, 5),
        "ok": worst <= ERROR_GATE
        and estimate.work_reduction > WORK_REDUCTION_GATE,
    }


def measure():
    """Gate every bundled program; returns the JSON result dict."""
    programs = {name: _one_program(name) for name in sorted(PROGRAMS)}
    return {
        "n": WORKLOAD_N,
        "plan": {
            "phases": PLAN.phases,
            "interval": PLAN.interval,
            "warmup": PLAN.warmup,
            "seed": PLAN.seed,
            "samples_per_phase": PLAN.samples_per_phase,
        },
        "error_gate": ERROR_GATE,
        "work_reduction_gate": WORK_REDUCTION_GATE,
        "programs": programs,
        "ok": all(entry["ok"] for entry in programs.values()),
    }


def test_sampling_accuracy_gate(benchmark):
    """pytest-benchmark entry: 2%-at->10x on every bundled program."""
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    failing = {
        name: entry
        for name, entry in result["programs"].items()
        if not entry["ok"]
    }
    assert not failing, f"sampling accuracy gate failed: {failing}"


def main():
    result = measure()
    REPORT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not result["ok"]:
        failing = sorted(
            name
            for name, entry in result["programs"].items()
            if not entry["ok"]
        )
        print(
            "FAIL: sampling accuracy gate missed on: " + ", ".join(failing),
            file=sys.stderr,
        )
        return 1
    worst = max(
        entry["worst_abs_error"] for entry in result["programs"].values()
    )
    lowest = min(
        entry["work_reduction"] for entry in result["programs"].values()
    )
    print(
        f"all {len(result['programs'])} programs within {ERROR_GATE:.0%} "
        f"(worst {worst:.4f}) at >{WORK_REDUCTION_GATE:.0f}x less work "
        f"(lowest {lowest:.1f}x) -> {REPORT_PATH.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
