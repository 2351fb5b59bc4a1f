"""Divergence shrinking: delta-debug a failing case to a minimal one.

A fuzz divergence is only useful if a human can stare at it, so any
failing :class:`~repro.verify.differential.FuzzCase` is reduced before
it is reported or written to the regression corpus:

1. **Event minimization** -- classic ddmin: remove ever-smaller chunks
   of the trace, keeping each removal that still diverges;
2. **Value simplification** -- try replacing each operand with a small
   "obvious" value of the same kind, and strip annotations;
3. **Config simplification** -- try the plainest table that still
   diverges (fewer entries, LRU, full tags, EXCLUDE, finite).

Every candidate is re-run through the full differential check **and
must reproduce the original divergence**: a candidate is accepted only
if its divergence signature (kind of report line; for crashes, the
crashing path and exception class) intersects the signature of the case
being shrunk.  Without this, ddmin happily walks from a genuine stats
divergence to any unrelated crash a truncated trace happens to trigger
-- the "decoy" bug this module's regression test pins down.

The total number of re-runs is bounded, and the original case is
returned unshrunk if reduction stalls.  Deterministic: no randomness.
"""

from __future__ import annotations

import re
from dataclasses import replace as dc_replace
from typing import FrozenSet, Iterable, List, Optional

from ..core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from ..isa.trace import TraceEvent
from .differential import CaseResult, FuzzCase, canonicalize, run_case

__all__ = ["divergence_signature", "shrink_case"]

#: ``crash: <path> raised <ExcClass>(...)`` -- the shape every crash
#: divergence line of :mod:`repro.verify.differential` has.
_CRASH_LINE = re.compile(
    r"^crash: (?P<path>.+?) raised (?P<exc>[A-Za-z_][A-Za-z0-9_.]*)\("
)

#: Replacement candidates per operand kind, plainest first.
_SIMPLE_FLOATS = (2.0, 1.5, 3.0, 0.5)
_SIMPLE_INTS = (2, 3, 5, 7)


class _Budget:
    """Caps the number of differential re-runs a shrink may spend."""

    def __init__(self, limit: int) -> None:
        self.left = limit

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _with_events(case: FuzzCase, events) -> FuzzCase:
    return dc_replace(case, events=canonicalize(events))


def divergence_signature(divergences: Iterable[str]) -> FrozenSet[str]:
    """The *kinds* of divergence in a report, as a comparable set.

    Non-crash lines contribute their report kind (``stats``,
    ``table contents``, ``table clocks``, ``delivered value``,
    ``report``, ``reuse bound``); crash lines contribute ``crash:<path>:<ExcClass>`` so a
    ``ZeroDivisionError`` from the oracle is never confused with, say, a
    ``ValueError`` out of the fused kernel.
    """
    kinds = set()
    for line in divergences:
        match = _CRASH_LINE.match(line)
        if match is not None:
            kinds.add(f"crash:{match.group('path')}:{match.group('exc')}")
        else:
            kinds.add(line.split(":", 1)[0])
    return frozenset(kinds)


def _diverges(
    case: FuzzCase,
    budget: _Budget,
    signature: Optional[FrozenSet[str]] = None,
) -> bool:
    """Does ``case`` still reproduce the divergence being shrunk?

    With a ``signature``, a candidate only counts if at least one of its
    divergence kinds matches the original's -- *any* divergence is not
    good enough (a truncated trace can crash in ways the original case
    never did).
    """
    if not case.events or not budget.spend():
        return False
    divergences = run_case(case).divergences
    if not divergences:
        return False
    if signature is None:
        return True
    return bool(divergence_signature(divergences) & signature)


def _shrink_events(
    case: FuzzCase,
    budget: _Budget,
    signature: Optional[FrozenSet[str]] = None,
) -> FuzzCase:
    events = list(case.events)
    chunk = max(1, len(events) // 2)
    while chunk >= 1:
        i = 0
        while i < len(events):
            candidate = events[:i] + events[i + chunk:]
            if candidate:
                smaller = _with_events(case, candidate)
                if _diverges(smaller, budget, signature):
                    events = candidate
                    case = smaller
                    continue  # retry the same position
            i += chunk
        chunk //= 2
    return case


def _simplify_values(
    case: FuzzCase,
    budget: _Budget,
    signature: Optional[FrozenSet[str]] = None,
) -> FuzzCase:
    events: List[TraceEvent] = list(case.events)
    for i, event in enumerate(events):
        if event.opcode.operation is None:
            continue
        is_int = isinstance(event.a, int)
        pool = _SIMPLE_INTS if is_int else _SIMPLE_FLOATS
        for which in ("a", "b"):
            current = getattr(event, which)
            for value in pool:
                if current == value:
                    break
                trial = list(events)
                trial[i] = event._replace(**{which: value})
                candidate = _with_events(case, trial)
                if _diverges(candidate, budget, signature):
                    events = trial
                    event = trial[i]
                    case = candidate
                    break
        # Annotations never affect probing; drop them if they are set.
        if event.address is not None or event.dst is not None or event.srcs:
            trial = list(events)
            trial[i] = event._replace(address=None, dst=None, srcs=(), pc=None)
            candidate = _with_events(case, trial)
            if _diverges(candidate, budget, signature):
                events = trial
                case = candidate
    return case


def _simplify_config(
    case: FuzzCase,
    budget: _Budget,
    signature: Optional[FrozenSet[str]] = None,
) -> FuzzCase:
    cfg = case.config
    candidates = []
    if case.infinite:
        candidates.append(dc_replace(case, infinite=False))
    if case.trivial_policy is not TrivialPolicy.EXCLUDE:
        candidates.append(
            dc_replace(case, trivial_policy=TrivialPolicy.EXCLUDE)
        )
    if cfg.tag_mode is not TagMode.FULL:
        candidates.append(dc_replace(
            case, config=dc_replace(cfg, tag_mode=TagMode.FULL)
        ))
    if cfg.replacement is not ReplacementKind.LRU:
        candidates.append(dc_replace(
            case, config=dc_replace(cfg, replacement=ReplacementKind.LRU)
        ))
    for candidate in candidates:
        if _diverges(candidate, budget, signature):
            case = candidate
            cfg = case.config
    # Smallest geometry that still diverges.
    entries = cfg.entries
    while entries > 2:
        entries //= 2
        assoc = min(cfg.associativity, entries)
        while entries % assoc:
            assoc //= 2
        try:
            smaller_cfg = MemoTableConfig(
                entries=entries,
                associativity=assoc,
                operand_kind=cfg.operand_kind,
                tag_mode=cfg.tag_mode,
                commutative=cfg.commutative,
                replacement=cfg.replacement,
                seed=cfg.seed,
            )
        except Exception:
            break
        candidate = dc_replace(case, config=smaller_cfg)
        if not _diverges(candidate, budget, signature):
            break
        case = candidate
        cfg = smaller_cfg
    return case


def shrink_case(
    case: FuzzCase,
    max_runs: int = 600,
    result: Optional[CaseResult] = None,
) -> FuzzCase:
    """Reduce a diverging case; returns a (usually much) smaller one.

    ``result`` is the original differential outcome, if the caller
    already has it (the fuzz loop does); otherwise one re-run records
    the divergence signature.  Every accepted reduction reproduces a
    divergence of the *same kind* -- the result is never a smaller case
    that fails differently from the one reported.
    """
    budget = _Budget(max_runs)
    if result is None:
        budget.spend()
        result = run_case(case)
    signature: Optional[FrozenSet[str]] = (
        divergence_signature(result.divergences) or None
    )
    case = _shrink_events(case, budget, signature)
    case = _simplify_config(case, budget, signature)
    case = _simplify_values(case, budget, signature)
    # One more event pass: simplified values often unlock more removal.
    case = _shrink_events(case, budget, signature)
    return dc_replace(case, label=f"{case.label}-shrunk")
