"""Job-type executors: what a worker does with a claimed spec.

Every job type routes through the *existing* batch code paths (the
experiment registry, the reference-harness simulator, the differential
fuzzer), so a result served over HTTP is bit-identical to what the same
work produces in a direct ``repro`` invocation -- the serve-smoke gate
and the worker-kill test both assert exactly that.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ..isa.programs import PROGRAM_STEP_BUDGET, SAMPLE_STEP_BUDGET
from .protocol import ServeProtocolError, normalize_spec

__all__ = ["run_job"]

#: Result document schema identifier.
RESULT_SCHEMA = "repro.serve/v1"


def _run_experiment_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    from ..experiments import run_experiment

    result = run_experiment(spec["experiment"], **spec.get("kwargs", {}))
    return {"experiment": spec["experiment"], "result": result.to_dict()}


def _run_program_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    from ..analysis.static.memo import reference_machine
    from ..core.bank import MemoTableBank
    from ..core.config import MemoTableConfig, TagMode
    from ..simulator.shade import ShadeSimulator

    machine = reference_machine(spec["program"], spec["n"])
    steps = machine.run(max_steps=PROGRAM_STEP_BUDGET)
    config = MemoTableConfig(
        entries=spec["entries"],
        associativity=spec["ways"],
        tag_mode=TagMode.MANTISSA if spec["mantissa"] else TagMode.FULL,
    )
    bank = MemoTableBank.paper_baseline(config=config)
    report = ShadeSimulator(bank).run(machine.trace)
    units = {}
    for op, stats in sorted(
        report.unit_stats.items(), key=lambda pair: pair[0].name
    ):
        if stats.operations == 0:
            continue
        units[op.name] = {
            "counters": stats.counters(),
            "hit_ratio": stats.hit_ratio,
            "cycles_saved": stats.cycles_saved,
        }
    return {
        "program": spec["program"],
        "n": spec["n"],
        "steps": steps,
        "instructions": report.instructions,
        "mismatches": report.mismatches,
        "units": units,
    }


def _run_fuzz_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    from ..verify.fuzz import fuzz_run

    report = fuzz_run(
        spec["budget"],
        seed=spec["seed"],
        max_events=spec["max_events"],
        stop_after=1,
    )
    divergences = [
        {"case": result.case.describe(), "divergences": list(result.divergences)}
        for result in report.divergent
    ]
    return {
        "budget": spec["budget"],
        "seed": spec["seed"],
        "cases": report.cases,
        "events": report.events,
        "features": report.features,
        "ok": not divergences,
        "divergent": divergences,
    }


def _run_sample_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    from ..analysis.static.memo import reference_machine
    from ..simulator.sampling import PhasePlan, estimate_phases

    machine = reference_machine(spec["program"], spec["n"])
    machine.run(max_steps=SAMPLE_STEP_BUDGET)
    plan = PhasePlan(
        phases=spec["phases"],
        interval=spec["interval"],
        warmup=spec["warmup"],
        seed=spec["seed"],
        samples_per_phase=spec["samples_per_phase"],
    )
    estimate = estimate_phases(
        machine.trace, plan=plan, bound_warmup=spec["bound"]
    )
    document = estimate.as_dict()
    document["program"] = spec["program"]
    document["n"] = spec["n"]
    return document


_EXECUTORS = {
    "experiment": _run_experiment_job,
    "program": _run_program_job,
    "fuzz": _run_fuzz_job,
    "sample": _run_sample_job,
}


def run_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job spec; returns the result document.

    Raises :class:`~repro.errors.ReproError` subclasses on failure --
    the worker turns those into ``failed``/retried queue states.
    """
    spec = normalize_spec(spec)
    delay = spec.get("delay", 0.0)
    if delay:
        time.sleep(delay)
    executor = _EXECUTORS.get(spec["type"])
    if executor is None:  # unreachable after normalize_spec
        raise ServeProtocolError(f"no executor for job type {spec['type']!r}")
    from ..core import backend as execution

    # A spec's optional ``backend`` field scopes the execution backend
    # around just this job (and restores the worker's selection after),
    # the same way REPRO_BACKEND scopes a whole process.
    with execution.use_backend(spec.get("backend")):
        payload = executor(spec)
    result = {"schema": RESULT_SCHEMA, "type": spec["type"], **payload}
    if "backend" in spec:
        result["backend"] = spec["backend"]
    return result
