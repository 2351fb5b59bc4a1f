"""Named execution backends behind one probe interface.

The kernel module owns *how* a batch is probed; this module owns
*which* implementation does it.  Every front-end (Shade statistics,
the cycle model, the sampling estimator, the corpus engine, serve
workers) funnels through :func:`dispatch`, which resolves a backend by
name and hands it the batch:

``scalar``
    The event-at-a-time reference loop
    (:func:`repro.core.kernel.run_events_scalar`) -- ground truth,
    several times slower than ``fused`` on columnar traces.

``fused``
    The opcode-partitioned pair-id kernel
    (:func:`repro.core.kernel.probe_batch`) -- the default.  Operand
    pairs are deduplicated up front with ``np.unique`` so tag compare,
    value compute and victim selection all run over small dense
    integer tables instead of per-event tuples (the pLUTo "table as
    precomputed LUT" move).

Selection precedence (first match wins):

1. an explicit ``backend=`` argument (``--backend NAME`` on the CLIs,
   the ``backend`` field of a serve job spec);
2. a process-wide override installed by :func:`set_backend`;
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``fused``.

:func:`set_backend` mirrors the choice into ``REPRO_BACKEND`` so
fork/spawn worker pools inherit it.  Unknown names raise
:class:`UnknownBackendError`.

This module is also the sanctioned facade over the kernel: lint rule
REPRO009 forbids importing :mod:`repro.core.kernel` from outside
``repro.core``, so the kernel helpers front-ends legitimately need
(:func:`probe_one`, :func:`values_match`, :func:`replay_infinite`,
the fault-injection seam) are re-exported here.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .. import obs
from ..errors import ReproError
from . import kernel
from .kernel import (  # noqa: F401  (facade re-exports; see REPRO009)
    KERNEL_FAULTS,
    KernelReport,
    as_batch,
    probe_one,
    replay_infinite,
    values_match,
)

__all__ = [
    "BackendError",
    "UnknownBackendError",
    "KernelConfig",
    "KernelResult",
    "ExecutionBackend",
    "ScalarBackend",
    "FusedBackend",
    "register",
    "get",
    "names",
    "describe",
    "selected_name",
    "set_backend",
    "use_backend",
    "resolve",
    "dispatch",
    # kernel facade
    "KERNEL_FAULTS",
    "KernelReport",
    "as_batch",
    "probe_one",
    "replay_infinite",
    "trivial_mask",
    "set_indices",
    "values_match",
    "active_fault",
    "set_active_fault",
]

#: Environment variable carrying the selected backend into worker pools.
ENV_VAR = "REPRO_BACKEND"

DEFAULT_BACKEND = "fused"

#: Alias: a backend run produces exactly a kernel report.
KernelResult = KernelReport


class BackendError(ReproError):
    """Backend registration or selection failed."""


class UnknownBackendError(BackendError):
    """A backend name that is not in the registry."""


@dataclass(frozen=True)
class KernelConfig:
    """Everything a backend needs besides the batch and the units.

    Mirrors the keyword surface of :func:`dispatch`:
    ``machine``/``hierarchy``/``fp_add_latency`` switch on cycle
    accounting, ``validate`` compares delivered values against traced
    results, ``start``/``stop`` select an index slice of the trace.
    """

    machine: Optional[object] = None
    hierarchy: Optional[object] = None
    fp_add_latency: int = 3
    validate: bool = False
    start: int = 0
    stop: Optional[int] = None


class ExecutionBackend:
    """One named way of running a batch through the memo units.

    Subclasses implement :meth:`probe_batch` -- the whole contract.
    Correctness bar: bit-identical :class:`~repro.core.stats.MemoStats`,
    table contents and delivered values to the ``scalar`` reference on
    any input (the parity suite and ``repro verify fuzz`` enforce this
    for every registered backend).
    """

    #: Registry key; also the value ``--backend`` / ``REPRO_BACKEND`` take.
    name: str = ""
    description: str = ""

    def probe_batch(self, batch, units, config: KernelConfig) -> KernelResult:
        """Run ``batch[config.start:config.stop]`` through ``units``.

        ``batch`` is anything :func:`repro.core.kernel.as_batch`
        understands (a ColumnBatch, a Trace, or a plain event
        sequence); ``units`` maps
        :class:`~repro.core.operations.Operation` to memoized units.
        Statistics must land on the units/tables exactly as the scalar
        protocol would put them."""
        raise NotImplementedError


class ScalarBackend(ExecutionBackend):
    """The retained event-at-a-time reference loop (``unit.execute``)."""

    name = "scalar"
    description = "event-at-a-time reference loop (ground truth)"

    def probe_batch(self, batch, units, config: KernelConfig) -> KernelResult:
        events = batch
        if config.start or config.stop is not None:
            end = len(events) if config.stop is None else config.stop
            indexed = events
            events = (indexed[i] for i in range(config.start, end))
        return kernel.run_events_scalar(
            events,
            units,
            machine=config.machine,
            hierarchy=config.hierarchy,
            fp_add_latency=config.fp_add_latency,
            validate=config.validate,
        )


class FusedBackend(ExecutionBackend):
    """The opcode-partitioned pair-id kernel (the default)."""

    name = "fused"
    description = "pair-id LUT kernel (np.unique dedup + integer probe loop)"

    def probe_batch(self, batch, units, config: KernelConfig) -> KernelResult:
        columns = as_batch(batch)
        if columns is None:
            # Plain event iterables have no columnar view; the scalar
            # loop is the documented degrade.
            return _SCALAR.probe_batch(batch, units, config)
        stop = len(columns) if config.stop is None else config.stop
        return kernel._run_batch(
            columns,
            units,
            config.machine,
            config.hierarchy,
            config.fp_add_latency,
            config.validate,
            config.start,
            stop,
        )


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, ExecutionBackend] = {}
_override: Optional[str] = None


def register(backend: ExecutionBackend, replace: bool = False) -> ExecutionBackend:
    """Add a backend to the registry (``replace=True`` to overwrite)."""
    if not backend.name:
        raise BackendError("execution backend must declare a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise BackendError(
            f"execution backend {backend.name!r} is already registered"
        )
    _REGISTRY[backend.name] = backend
    return backend


def names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get(name: str) -> ExecutionBackend:
    """The registered backend called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown execution backend {name!r}; registered: "
            + ", ".join(_REGISTRY)
        ) from None


def describe() -> Dict[str, str]:
    """``{name: description}`` for every registered backend."""
    return {name: impl.description for name, impl in _REGISTRY.items()}


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
    get(name)  # validate before installing
    _override = name
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


def resolve(name: Optional[str] = None) -> ExecutionBackend:
    """The backend to run: ``name``, or the precedence-chain selection."""
    return get(name if name is not None else selected_name())


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
) -> KernelResult:
    """Resolve a backend and run ``events`` through it.

    With ``machine`` (a :class:`~repro.arch.latency.ProcessorModel`)
    the pass also charges cycles: uncovered memoizable operations cost
    the machine latency, loads/stores go through ``hierarchy``, FADD
    costs ``fp_add_latency`` and everything else one cycle -- the
    section 3.3 accounting.  Without it, only statistics accumulate
    (the Shade-style run).  ``start``/``stop`` select an index slice
    of the trace.  With metrics enabled, the run is
    attributed to its backend: a ``backend.selected`` gauge keyed by
    name, a ``backend.<name>.dispatches`` counter and a
    ``backend.<name>.run`` span, so ``repro stats`` shows which
    backend served a run.
    """
    impl = resolve(backend)
    config = KernelConfig(
        machine=machine,
        hierarchy=hierarchy,
        fp_add_latency=fp_add_latency,
        validate=validate,
        start=start,
        stop=stop,
    )
    if not obs.enabled():
        return impl.probe_batch(events, units, config)
    reg = obs.registry()
    reg.gauge_set(f"backend.{impl.name}.selected", 1.0)
    reg.counter_add(f"backend.{impl.name}.dispatches")
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with obs.span("kernel.run"):
        report = impl.probe_batch(events, units, config)
    reg.record_span(
        f"backend.{impl.name}.run",
        time.perf_counter() - wall0,
        time.process_time() - cpu0,
    )
    reg.counter_add("kernel.instructions", report.instructions)
    return report


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


def set_indices(config, a, b):
    """Public face of the kernel's vectorized set-index computation.

    ``config`` is a :class:`~repro.core.config.MemoTableConfig`; ``a``
    and ``b`` are operand arrays of the config's kind (int64 values for
    INT units, float64 values for FLOAT units).  Returns each pair's
    table set index under the production mapping -- the same formula
    the probe fast path uses, so placement models in analysis layers
    (sampling residency screens, conflict studies) can never drift from
    the simulator (REPRO009)."""
    return kernel._set_indices(config, a, b)


_SCALAR = register(ScalarBackend())
register(FusedBackend())
