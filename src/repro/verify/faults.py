"""Known-fault injection for the mutation smoke mode.

A verification harness that has never caught a bug proves nothing, so
``repro verify smoke`` plants real bugs: each named fault below flips
one decision inside the kernel's pair-id probe loop
(:func:`repro.core.kernel._probe_fused`) the way a plausible
regression would, and the differential fuzzer must detect the
divergence within its budget.  The seam is the kernel's active-fault
latch, reached through the backend facade
(:func:`repro.core.backend.set_active_fault`); it is only ever set
through the :func:`inject` context manager and therefore never leaks
into production runs.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator

from ..core import backend as execution

__all__ = ["KERNEL_FAULTS", "inject"]

#: fault name -> what the planted bug does to the fast path.
KERNEL_FAULTS: Dict[str, str] = {
    "lru_victim_off_by_one": (
        "the inlined LRU scan evicts the way AFTER the least recently "
        "used one"
    ),
    "dropped_trivial_mask": (
        "the vectorized trivial-operand mask is discarded, so trivial "
        "operations flow into the table under EXCLUDE"
    ),
    "wrong_set_index_mask": (
        "the set-index mask loses its top bit, aliasing half the sets"
    ),
    "stale_tag_on_abort": (
        "a miss inserts under the previous probe's tag (a stale tag "
        "latch), corrupting future lookups"
    ),
}

assert tuple(KERNEL_FAULTS) == execution.KERNEL_FAULTS


@contextlib.contextmanager
def inject(name: str) -> Iterator[None]:
    """Activate one named kernel fault for the duration of the block."""
    if name not in KERNEL_FAULTS:
        raise ValueError(
            f"unknown fault {name!r}; known: {', '.join(KERNEL_FAULTS)}"
        )
    previous = execution.active_fault()
    execution.set_active_fault(name)
    try:
        yield
    finally:
        execution.set_active_fault(previous)
