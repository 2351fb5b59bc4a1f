"""Job model and wire protocol of the experiment service.

A *job spec* is a plain JSON object describing one unit of work.  Three
job types cover every workload the repository already knows how to run:

``experiment``
    One registered experiment driver (``table7``, ``figure3``, ...)
    executed through :func:`repro.experiments.run_experiment`; the
    result document is :meth:`ExperimentResult.to_dict`.

``program``
    One bundled ISA program on the deterministic reference harness
    (:func:`repro.analysis.static.memo.reference_machine`) replayed
    through MEMO-TABLES; the result document carries the instruction
    count and per-unit memo statistics.  Cheap (milliseconds), which is
    what the load benchmark and the serve-smoke gate submit by the
    thousand.

``fuzz``
    One differential fuzz campaign (:func:`repro.verify.fuzz.fuzz_run`);
    the result document reports cases/coverage/divergences, so the
    nightly fuzz workflow can run through the service path.

``sample``
    One phase-aware sampled estimation
    (:func:`repro.simulator.sampling.estimate_phases`) of a bundled
    program's memo hit ratios: feature extraction, k-means phase
    clustering, and simulation of representative intervals only.  The
    result document is the estimate's ``as_dict()`` -- per-unit
    ratios, infinite-table warm-up bounds, and the achieved work
    reduction.

Jobs are **content-hash keyed**: :func:`job_id_for` digests the
canonicalized spec, so submitting the same spec twice yields the same
job id and the queue deduplicates it (idempotent submission).  Specs are
canonicalized by :func:`normalize_spec`, which also validates the job
type and fills defaults, so two spellings of the same work hash alike.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..isa.programs import (
    PROGRAM_STEP_BUDGET,
    PROGRAMS,
    SAMPLE_STEP_BUDGET,
    STEPS_PER_ELEMENT,
)

__all__ = [
    "JOB_STATES",
    "JobSpec",
    "JobRecord",
    "MAX_TABLE_ENTRIES",
    "ServeProtocolError",
    "job_id_for",
    "normalize_spec",
]

#: Every state a job record can be in.  Transitions::
#:
#:     queued -> leased -> done
#:                      -> queued     (lease expired / worker died; requeue)
#:                      -> failed     (attempts exhausted or fatal error)
#:     queued -> cancelled
#:     leased -> cancelled            (cancel honoured before execution)
JOB_STATES = ("queued", "leased", "done", "failed", "cancelled")

#: Known job types and their required/allowed parameters.
JOB_TYPES = ("experiment", "program", "fuzz", "sample")

#: Default lease duration: a worker must heartbeat within this window or
#: the reaper hands the job to someone else.
DEFAULT_LEASE_TTL = 30.0

#: Default cap on executions of one job (first attempt + requeues).
DEFAULT_MAX_ATTEMPTS = 3

#: Largest memo table a ``program`` job may ask for (figure3's largest
#: table).  The worker builds one list per set up front, so without a
#: cap a spec could make it allocate without bound.
MAX_TABLE_ENTRIES = 8192


class ServeProtocolError(ReproError):
    """A malformed job spec or protocol message."""


def _require_str(spec: Dict[str, Any], key: str) -> str:
    value = spec.get(key)
    if not isinstance(value, str) or not value:
        raise ServeProtocolError(f"job spec field {key!r} must be a non-empty string")
    return value


def _optional_number(
    spec: Dict[str, Any], key: str, default: Optional[float] = None
) -> Optional[float]:
    value = spec.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeProtocolError(f"job spec field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ServeProtocolError(
            f"job spec field {key!r} must be a finite number"
        )
    return number


def _int_field(
    spec: Dict[str, Any], key: str, default: int, floor: Optional[int] = None,
    ceiling: Optional[int] = None,
) -> int:
    """An integer field with an explicit default.

    Unlike ``value or default``, a present-but-zero value is *kept* (and
    then rejected by ``floor`` where zero is meaningless) -- silently
    replacing 0 with the default would hash the spec to the default
    job's identity.  An integral float (``2.0``) is taken as its int;
    any other float, NaN and the infinities included, is rejected.
    """
    value = spec.get(key, default)
    if value is None:
        value = default
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeProtocolError(f"job spec field {key!r} must be an integer")
    if floor is not None and value < floor:
        raise ServeProtocolError(f"job spec field {key!r} must be >= {floor}")
    if ceiling is not None and value > ceiling:
        raise ServeProtocolError(
            f"job spec field {key!r} must be <= {ceiling}"
        )
    return value


def _program(spec: Dict[str, Any]) -> str:
    """The spec's ``program`` field, checked against the bundled ones."""
    name = _require_str(spec, "program")
    if name not in PROGRAMS:
        raise ServeProtocolError(
            f"unknown program {name!r}; available: " + ", ".join(PROGRAMS)
        )
    return name


def _n_ceiling(program: str, budget: int) -> int:
    """The largest ``n`` whose run could fit ``budget`` machine steps:
    ``program`` spends at least its floor of steps on every element, so
    any larger ``n`` could only end in 'step budget exhausted', after
    building its inputs."""
    return budget // STEPS_PER_ELEMENT[program]


def _check_table(out: Dict[str, Any]) -> None:
    """Reject a ``program`` job whose table the worker could not build
    (entries not a power of two, ways not dividing them into a power
    of two of sets), naming the offending field."""
    from ..core.config import MemoTableConfig
    from ..errors import ConfigurationError

    entries = out["entries"]
    try:
        MemoTableConfig(entries=entries, associativity=out["ways"])
    except ConfigurationError as exc:
        field = "entries" if entries & (entries - 1) else "ways"
        raise ServeProtocolError(
            f"job spec field {field!r} does not describe a memo table: {exc}"
        ) from None


def normalize_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a job spec and return its canonical form.

    The canonical form is what gets hashed into the job id, so defaults
    are made explicit and key order is irrelevant (hashing sorts keys).
    Unknown top-level keys are rejected: a typo must not silently create
    a *different* job.
    """
    if not isinstance(spec, dict):
        raise ServeProtocolError("job spec must be a JSON object")
    kind = _require_str(spec, "type")
    if kind not in JOB_TYPES:
        raise ServeProtocolError(
            f"unknown job type {kind!r}; expected one of: {', '.join(JOB_TYPES)}"
        )
    out: Dict[str, Any] = {"type": kind}
    allowed = {"type", "delay", "timeout", "backend"}
    delay = _optional_number(spec, "delay", 0.0) or 0.0
    if delay < 0:
        raise ServeProtocolError("job spec field 'delay' must be >= 0")
    if delay:
        # Pacing/testing hook: the worker sleeps this long before
        # executing (lets tests kill a worker mid-job deterministically).
        out["delay"] = delay
    timeout = _optional_number(spec, "timeout")
    if timeout is not None:
        if timeout <= 0:
            raise ServeProtocolError("job spec field 'timeout' must be > 0")
        out["timeout"] = timeout
    backend = spec.get("backend")
    if backend is not None:
        # Execution backend the worker scopes around the job (see
        # repro.core.backend); absent means the worker's default.
        if not isinstance(backend, str) or not backend:
            raise ServeProtocolError(
                "job spec field 'backend' must be a non-empty string"
            )
        from ..core import backend as execution

        if backend not in execution.names():
            raise ServeProtocolError(
                f"unknown execution backend {backend!r}; known: "
                + ", ".join(execution.names())
            )
        out["backend"] = backend

    if kind == "experiment":
        allowed |= {"experiment", "kwargs"}
        name = _require_str(spec, "experiment")
        from ..experiments import experiment_names

        if name not in experiment_names():
            raise ServeProtocolError(
                f"unknown experiment {name!r}; available: "
                + ", ".join(experiment_names())
            )
        kwargs = spec.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise ServeProtocolError("experiment job 'kwargs' must be an object")
        out["experiment"] = name
        out["kwargs"] = {str(k): kwargs[k] for k in sorted(kwargs)}
    elif kind == "program":
        allowed |= {"program", "n", "entries", "ways", "mantissa"}
        out["program"] = _program(spec)
        out["n"] = _int_field(
            spec, "n", 64, floor=1,
            ceiling=_n_ceiling(out["program"], PROGRAM_STEP_BUDGET),
        )
        out["entries"] = _int_field(
            spec, "entries", 32, floor=1, ceiling=MAX_TABLE_ENTRIES
        )
        out["ways"] = _int_field(spec, "ways", 4, floor=1)
        out["mantissa"] = bool(spec.get("mantissa", False))
        _check_table(out)
    elif kind == "fuzz":
        allowed |= {"budget", "seed", "max_events"}
        out["budget"] = _int_field(spec, "budget", 200, floor=1)
        out["seed"] = _int_field(spec, "seed", 0)
        # The fuzzer's fresh-trace generator draws at least 48 events
        # per case; smaller caps would fault mid-campaign.
        out["max_events"] = _int_field(spec, "max_events", 96, floor=48)
    else:  # sample
        allowed |= {
            "program", "n", "phases", "interval", "warmup",
            "samples_per_phase", "seed", "bound",
        }
        from ..simulator.sampling import PhasePlan

        plan = PhasePlan()
        out["program"] = _program(spec)
        out["n"] = _int_field(
            spec, "n", 16384, floor=1,
            ceiling=_n_ceiling(out["program"], SAMPLE_STEP_BUDGET),
        )
        out["phases"] = _int_field(spec, "phases", plan.phases, floor=1)
        out["interval"] = _int_field(
            spec, "interval", plan.interval, floor=1
        )
        out["warmup"] = _int_field(spec, "warmup", plan.warmup, floor=0)
        out["samples_per_phase"] = _int_field(
            spec, "samples_per_phase", plan.samples_per_phase, floor=1
        )
        out["seed"] = _int_field(spec, "seed", 0)
        out["bound"] = bool(spec.get("bound", True))

    unknown = set(spec) - allowed
    if unknown:
        raise ServeProtocolError(
            f"unknown job spec field(s): {', '.join(sorted(unknown))}"
        )
    return out


def job_id_for(spec: Dict[str, Any]) -> str:
    """Content-hash id of a canonical spec (16 hex chars)."""
    material = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobSpec:
    """A validated spec plus its content-hash identity."""

    spec: Dict[str, Any]
    id: str = ""

    def __post_init__(self) -> None:
        self.spec = normalize_spec(self.spec)
        if not self.id:
            self.id = job_id_for(self.spec)

    def describe(self) -> str:
        kind = self.spec["type"]
        if kind == "experiment":
            return f"experiment:{self.spec['experiment']}"
        if kind == "program":
            return f"program:{self.spec['program']}(n={self.spec['n']})"
        if kind == "sample":
            return (
                f"sample:{self.spec['program']}"
                f"(n={self.spec['n']},phases={self.spec['phases']})"
            )
        return f"fuzz(budget={self.spec['budget']},seed={self.spec['seed']})"


@dataclass
class JobRecord:
    """Durable bookkeeping for one job (the ``jobs/<id>.json`` document).

    Timestamps are wall-clock epoch seconds written by the queue (the
    one service module sanctioned to read the wall clock, like the
    corpus store's lock staleness): lease deadlines must survive
    process restarts, which rules out per-process monotonic clocks.
    """

    id: str
    spec: Dict[str, Any]
    state: str = "queued"
    submitted: float = 0.0
    #: Worker currently holding the lease (empty when not leased).
    worker: str = ""
    #: Epoch seconds the current lease expires (0 when not leased).
    lease_deadline: float = 0.0
    lease_ttl: float = DEFAULT_LEASE_TTL
    #: Executions started (first claim sets it to 1).
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    #: Times the job went back to ``queued`` after a lost lease.
    requeues: int = 0
    #: Seconds between submission and first claim.
    queue_latency: float = 0.0
    #: Worker-side execution timing of the completing attempt.
    wall: float = 0.0
    cpu: float = 0.0
    #: Set when a cancel arrived while the job was leased; the worker
    #: drops the job before execution if it sees the flag in time.
    cancel_requested: bool = False
    error: str = ""
    finished: float = 0.0

    def summary(self) -> Dict[str, Any]:
        """The compact row ``GET /jobs`` returns."""
        return {
            "id": self.id,
            "type": self.spec.get("type", "?"),
            "describe": JobSpec(dict(self.spec), id=self.id).describe(),
            "state": self.state,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "worker": self.worker,
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "spec": self.spec,
            "state": self.state,
            "submitted": self.submitted,
            "worker": self.worker,
            "lease_deadline": self.lease_deadline,
            "lease_ttl": self.lease_ttl,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "requeues": self.requeues,
            "queue_latency": self.queue_latency,
            "wall": self.wall,
            "cpu": self.cpu,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "finished": self.finished,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        fields: Tuple[str, ...] = (
            "id", "spec", "state", "submitted", "worker", "lease_deadline",
            "lease_ttl", "attempts", "max_attempts", "requeues",
            "queue_latency", "wall", "cpu", "cancel_requested", "error",
            "finished",
        )
        kwargs = {name: data[name] for name in fields if name in data}
        return cls(**kwargs)
