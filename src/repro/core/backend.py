"""The two execution backends and the one entry point that picks one.

The kernel module owns *how* a batch is probed; this module owns
*which* of its two loops runs.  Every front-end (Shade statistics, the
cycle model, the sampling estimator, the corpus engine, serve workers)
funnels through :func:`dispatch`, which converts its input to a
:class:`~repro.isa.columns.ColumnBatch` once (:func:`as_batch`),
resolves a backend name and hands the batch to the kernel:

``scalar``
    The event-at-a-time reference loop
    (:func:`repro.core.kernel.run_events_scalar`) -- ground truth,
    several times slower than ``fused``.

``fused``
    The opcode-partitioned columnar kernel
    (:func:`repro.core.kernel._run_batch`) -- the default.  Per opcode
    partition, operand pairs are deduplicated up front with
    ``np.unique`` so tag compare, value compute and victim selection
    all run over small dense integer tables instead of per-event
    tuples (the pLUTo "table as precomputed LUT" move).

Selection precedence (first match wins):

1. ``dispatch(..., backend=NAME)``, for that one call;
2. a process-wide override installed by :func:`set_backend` or scoped
   by :func:`use_backend` (``--backend NAME`` on the CLIs, the
   ``backend`` field of a serve job spec);
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``fused``.

:func:`set_backend` mirrors the choice into ``REPRO_BACKEND`` so
fork/spawn worker pools inherit it.  Unknown names raise
:class:`UnknownBackendError`.

Models that need each event's outcome (the hazard model, the sampling
estimator's residency model, ext-dual-issue's table port) get the
per-event outcome column from :func:`probe_outcomes`, which follows the
same selection, so no simulator probes a table outside the kernel.

This module is also the sanctioned facade over the kernel: lint rule
REPRO009 forbids importing :mod:`repro.core.kernel` from outside
``repro.core``, so the kernel helpers front-ends legitimately need
(:func:`probe_one`, the outcome codes, :func:`values_match`,
:func:`replay_infinite`, the fault-injection seam) are re-exported
here.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import ConfigurationError, ReproError
from . import kernel
from .kernel import (  # noqa: F401  (facade re-exports; see REPRO009)
    KERNEL_FAULTS,
    OUTCOME_BYPASS,
    OUTCOME_HIT,
    OUTCOME_MISS,
    KernelReport,
    as_batch,
    probe_one,
    replay_infinite,
    values_match,
)

__all__ = [
    "UnknownBackendError",
    "names",
    "selected_name",
    "set_backend",
    "use_backend",
    "resolve",
    "dispatch",
    # kernel facade
    "KERNEL_FAULTS",
    "KernelReport",
    "OUTCOME_BYPASS",
    "OUTCOME_HIT",
    "OUTCOME_MISS",
    "as_batch",
    "probe_one",
    "probe_outcomes",
    "replay_infinite",
    "trivial_mask",
    "values_match",
    "active_fault",
    "set_active_fault",
]

#: Environment variable carrying the selected backend into worker pools.
ENV_VAR = "REPRO_BACKEND"

DEFAULT_BACKEND = "fused"

#: The backend names, reference first.
_NAMES = ("scalar", "fused")


class UnknownBackendError(ReproError):
    """A backend name that is neither ``scalar`` nor ``fused``."""


_override: Optional[str] = None


def names() -> Tuple[str, ...]:
    """The backend names ``--backend`` / ``REPRO_BACKEND`` accept."""
    return _NAMES


def selected_name() -> str:
    """The backend name the precedence chain currently selects (not yet
    validated; :func:`resolve` raises for an unknown name)."""
    if _override is not None:
        return _override
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        return env
    return DEFAULT_BACKEND


def set_backend(name: Optional[str]) -> None:
    """Force (or, with None, release) a backend process-wide.

    The choice is mirrored into ``REPRO_BACKEND`` so worker processes
    started after this call inherit it.  Unknown names raise
    eagerly."""
    global _override
    if name is None:
        _override = None
        os.environ.pop(ENV_VAR, None)
        return
    _override = resolve(name)
    os.environ[ENV_VAR] = name


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Temporarily force a backend (serve jobs scope their spec's
    ``backend`` field with this); restores both the override and the
    environment variable on exit."""
    global _override
    prev_override = _override
    prev_env = os.environ.get(ENV_VAR)
    try:
        if name is not None:
            set_backend(name)
        yield
    finally:
        _override = prev_override
        if prev_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prev_env


def resolve(name: Optional[str] = None) -> str:
    """The backend to run, validated: ``name``, or the precedence-chain
    selection."""
    chosen = name if name is not None else selected_name()
    if chosen not in _NAMES:
        raise UnknownBackendError(
            f"unknown execution backend {chosen!r}; known: "
            + ", ".join(_NAMES)
        )
    return chosen


# -- the one entry point front-ends call ------------------------------------


def dispatch(
    events,
    units,
    *,
    backend: Optional[str] = None,
    machine=None,
    hierarchy=None,
    fp_add_latency: int = 3,
    validate: bool = False,
    start: int = 0,
    stop: Optional[int] = None,
) -> KernelReport:
    """Run ``events`` through ``units`` on the selected backend.

    ``events`` is converted to a batch once (:func:`as_batch`), and
    ``backend`` overrides the selection for this call only.  With
    ``machine`` (a :class:`~repro.arch.latency.ProcessorModel`)
    the pass also charges cycles: uncovered memoizable operations cost
    the machine latency, loads/stores go through ``hierarchy``, FADD
    costs ``fp_add_latency`` and everything else one cycle -- the
    section 3.3 accounting.  Without it, only statistics accumulate
    (the Shade-style run).  ``start``/``stop`` select an index slice
    of the trace; ``0 <= start <= stop <= len(trace)``, else
    :class:`~repro.errors.ConfigurationError`.  With metrics enabled,
    the run is attributed to its backend: a ``backend.selected`` gauge
    keyed by name, a ``backend.<name>.dispatches`` counter and a
    ``backend.<name>.run`` span, so ``repro stats`` shows which
    backend served a run.
    """
    name = resolve(backend)
    batch = as_batch(events)
    if stop is None:
        stop = len(batch)
    if not 0 <= start <= stop <= len(batch):
        raise ConfigurationError(
            f"slice [{start}:{stop}] is not within the {len(batch)}-event "
            "trace"
        )
    instrumented = obs.enabled()
    if instrumented:
        reg = obs.registry()
        reg.gauge_set(f"backend.{name}.selected", 1.0)
        reg.counter_add(f"backend.{name}.dispatches")
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
    with obs.span("kernel.run"):
        if name == "scalar":
            report = kernel.run_events_scalar(
                batch,
                units,
                machine=machine,
                hierarchy=hierarchy,
                fp_add_latency=fp_add_latency,
                validate=validate,
                start=start,
                stop=stop,
            )
        else:
            report = kernel._run_batch(
                batch,
                units,
                machine,
                hierarchy,
                fp_add_latency,
                validate,
                start,
                stop,
            )
    if instrumented:
        reg.record_span(
            f"backend.{name}.run",
            time.perf_counter() - wall0,
            time.process_time() - cpu0,
        )
        reg.counter_add("kernel.instructions", report.instructions)
    return report


def probe_outcomes(batch, units) -> np.ndarray:
    """Probe every memoized opcode partition of ``batch`` through its
    unit in ``units`` on the selected backend and return one outcome
    code per event (uint8; :data:`OUTCOME_MISS` for events no unit
    serves).

    Statistics land on the units exactly as a statistics-only dispatch
    would put them; since each unit sees its own subsequence in trace
    order, every event's outcome equals what ``unit.execute`` returns
    for it in an event-at-a-time walk, which is what ``scalar`` runs."""
    outcomes = np.zeros(len(batch), dtype=np.uint8)
    if resolve() == "scalar":
        kernel.run_events_scalar(batch, units, outcomes=outcomes)
    else:
        kernel._run_batch(
            batch, units, None, None, 3, False, 0, len(batch), outcomes
        )
    return outcomes


# -- kernel facade (REPRO009: outside repro.core, import *this* module) -----


def active_fault() -> Optional[str]:
    """The currently injected kernel fault name (None in production)."""
    return kernel._active_fault


def set_active_fault(name: Optional[str]) -> None:
    """Arm (or, with None, disarm) a named kernel fault.  Only
    :func:`repro.verify.faults.inject` should call this."""
    kernel._active_fault = name


def trivial_mask(operation, a, b):
    """Public face of the kernel's vectorized trivial-operand detector.

    Value comparisons, exactly like :mod:`repro.core.trivial`: ``-0.0``
    is zero, ``NaN`` is never trivial.  Analysis layers (sampling,
    verification) use this instead of importing the kernel directly
    (REPRO009)."""
    return kernel._trivial_mask(operation, a, b)
