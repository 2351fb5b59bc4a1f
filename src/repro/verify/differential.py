"""Differential driver: oracle vs. scalar vs. fused.

One fuzz case is a (trace, table configuration, trivial policy) triple.
:func:`run_case` executes it three ways --

* the pure-Python golden oracle (:mod:`repro.verify.oracle`),
* the scalar reference path (event-at-a-time
  :func:`repro.core.backend.probe_one`, which is ``unit.execute``),
* the pair-id columnar kernel (the ``fused`` execution backend over a
  :class:`~repro.isa.columns.ColumnBatch`, pinned explicitly through
  the registry so a process-wide ``REPRO_BACKEND`` can never alias two
  parties onto the same code path)

-- and demands bit-exact agreement on every unit/table counter, the
final table contents (tags, values, stored operands, recency), and the
per-event delivered values (oracle vs. scalar).  It additionally checks
two sound cross-invariants: the fused report's opcode accounting
matches the column breakdown, and no finite full-tag table ever hits
more often than the infinite-table replay upper bound
(:func:`repro.core.backend.replay_infinite` -- the same quantity the
static analyzer's bounds are validated against).

Any violated comparison becomes a human-readable divergence string; an
empty list means the three implementations agree exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core import backend as execution
from ..core.bank import MemoTableBank
from ..core.config import MemoTableConfig, TagMode, TrivialPolicy
from ..core.operations import Operation
from ..isa.columns import ColumnBatch
from ..isa.trace import TraceEvent
from .oracle import OracleBank

__all__ = [
    "ALL_OPERATIONS",
    "FuzzCase",
    "CaseResult",
    "canonicalize",
    "make_bank",
    "run_case",
]

ALL_OPERATIONS = tuple(Operation)

_PACK = struct.Struct("<d").pack
_UNPACK = struct.Struct("<Q").unpack


def _bits(value) -> tuple:
    """Bit-exact comparison key (NaN payloads and -0.0 must survive)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return ("i", value)
    if value is None:
        return ("n",)
    return ("f", _UNPACK(_PACK(float(value)))[0])


@dataclass(frozen=True)
class FuzzCase:
    """One differential test case: a trace plus a table configuration."""

    events: Tuple[TraceEvent, ...]
    config: MemoTableConfig
    trivial_policy: TrivialPolicy = TrivialPolicy.EXCLUDE
    infinite: bool = False
    label: str = ""

    def describe(self) -> str:
        cfg = self.config
        table = (
            "infinite"
            if self.infinite
            else f"{cfg.entries}e/{cfg.associativity}w"
            f"/{cfg.replacement.value}/{cfg.tag_mode.value}"
        )
        return (
            f"{len(self.events)} events, {table}, "
            f"trivial={self.trivial_policy.value}"
            + (f" [{self.label}]" if self.label else "")
        )


@dataclass
class CaseResult:
    """What one differential run observed."""

    case: FuzzCase
    divergences: List[str] = field(default_factory=list)
    features: frozenset = frozenset()
    memoizable_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def canonicalize(events) -> Tuple[TraceEvent, ...]:
    """Round-trip events through the columnar encoding.

    The production pipeline always flows through columns, which
    canonicalize operand typing (e.g. an int-typed operand of a float
    opcode decodes as its float64 coercion).  Comparing against raw
    events would flag those re-typings as false divergences, so every
    path consumes the same canonical view.
    """
    return tuple(ColumnBatch.from_events(events).to_events())


def make_bank(case: FuzzCase) -> MemoTableBank:
    """A fresh production bank for one case (all operations covered)."""
    if case.infinite:
        return MemoTableBank.infinite(
            operations=ALL_OPERATIONS, trivial_policy=case.trivial_policy
        )
    return MemoTableBank.paper_baseline(
        config=case.config,
        operations=ALL_OPERATIONS,
        trivial_policy=case.trivial_policy,
    )


def _unit_key(stats) -> tuple:
    t = stats.table
    return (
        stats.operations,
        stats.trivial,
        stats.trivial_hits,
        stats.cycles_base,
        stats.cycles_memo,
        t.lookups,
        t.hits,
        t.insertions,
        t.evictions,
        t.commutative_hits,
    )


def _bank_fingerprint(bank: MemoTableBank) -> Dict[Operation, tuple]:
    return {op: _unit_key(unit.stats) for op, unit in bank.units.items()}


def _bank_contents(bank: MemoTableBank):
    """Final table contents of a production bank, bit-exact."""
    contents = {}
    for op, unit in bank.units.items():
        table = unit.table
        if hasattr(table, "_sets"):
            contents[op] = [
                [
                    (e.tag, _bits(e.value), tuple(map(_bits, e.operands)),
                     e.last_used)
                    for e in ways
                ]
                for ways in table._sets
            ]
        else:  # InfiniteMemoTable
            contents[op] = {
                tag: (_bits(value), tuple(map(_bits, operands)))
                for tag, (value, operands) in table._entries.items()
            }
    return contents


def _oracle_contents(oracle: OracleBank):
    contents = {}
    for op, unit in oracle.units.items():
        snap = unit.table.snapshot()
        if isinstance(snap, dict):
            contents[op] = {
                tag: (_bits(value), tuple(map(_bits, operands)))
                for tag, (value, operands) in snap.items()
            }
        else:
            contents[op] = [
                [
                    (tag, _bits(value), tuple(map(_bits, operands)), used)
                    for tag, value, operands, used in ways
                ]
                for ways in snap
            ]
    return contents


def _first_diff(left: dict, right: dict) -> str:
    """Short description of the first differing key between two dicts."""
    for key in left:
        if left[key] != right[key]:
            return f"{getattr(key, 'name', key)}"
    return "?"


def _features(case: FuzzCase, oracle: OracleBank) -> frozenset:
    """Coverage signature: which behaviours this case exercised."""
    cfg = case.config
    shape = (
        "inf" if case.infinite
        else f"{cfg.entries}/{cfg.associativity}"
        f"/{cfg.replacement.value}/{cfg.tag_mode.value}"
    )
    feats = {("policy", case.trivial_policy.value, shape)}
    for op, unit in oracle.units.items():
        if not unit.operations:
            continue
        t = unit.table
        feats.add((
            op.name,
            shape,
            case.trivial_policy.value,
            t.hits > 0,
            t.evictions > 0,
            t.commutative_hits > 0,
            unit.trivial > 0,
        ))
    return frozenset(feats)


def run_case(case: FuzzCase) -> CaseResult:
    """Execute one case three ways and cross-check everything.

    A crash in any path is itself a divergence (reported, not raised),
    so the campaign survives it and the shrinker can minimize it.
    """
    result = CaseResult(case=case)
    diverge = result.divergences.append
    events = case.events
    batch = ColumnBatch.from_events(events)

    # Path 1: golden oracle, collecting per-event delivered values.
    oracle = OracleBank(
        config=case.config,
        trivial_policy=case.trivial_policy,
        infinite=case.infinite,
    )
    oracle_values = []
    memoizable = []
    try:
        for event in events:
            operation = event.opcode.operation
            if operation is None:
                continue
            memoizable.append(event)
            oracle_values.append(oracle.step(operation, event.a, event.b))
    except Exception as exc:
        diverge(f"crash: oracle raised {exc!r}")
        return result
    result.memoizable_events = len(memoizable)

    # Path 2: scalar reference (event-at-a-time unit probes).
    scalar_bank = make_bank(case)
    scalar_values = []
    try:
        for event in memoizable:
            unit = scalar_bank.units[event.opcode.operation]
            scalar_values.append(
                execution.probe_one(unit, event.a, event.b).value
            )
    except Exception as exc:
        diverge(f"crash: scalar path raised {exc!r}")
        return result

    # Path 3: fused kernel over the columnar view (pinned by name so
    # the environment cannot redirect this leg onto another backend).
    fused_bank = make_bank(case)
    try:
        report = execution.get("fused").probe_batch(
            batch, fused_bank.units, execution.KernelConfig()
        )
    except Exception as exc:
        diverge(f"crash: fused kernel raised {exc!r}")
        return result

    # -- comparisons ------------------------------------------------------

    oracle_fp = oracle.fingerprint()
    scalar_fp = _bank_fingerprint(scalar_bank)
    fused_fp = _bank_fingerprint(fused_bank)
    if fused_fp != scalar_fp:
        diverge(
            "stats: fused != scalar for unit "
            f"{_first_diff(fused_fp, scalar_fp)}"
        )
    if oracle_fp != scalar_fp:
        diverge(
            "stats: oracle != scalar for unit "
            f"{_first_diff(oracle_fp, scalar_fp)}"
        )

    scalar_contents = _bank_contents(scalar_bank)
    fused_contents = _bank_contents(fused_bank)
    oracle_contents = _oracle_contents(oracle)
    if fused_contents != scalar_contents:
        diverge(
            "table contents: fused != scalar for unit "
            f"{_first_diff(fused_contents, scalar_contents)}"
        )
    if oracle_contents != scalar_contents:
        diverge(
            "table contents: oracle != scalar for unit "
            f"{_first_diff(oracle_contents, scalar_contents)}"
        )

    for i, (ours, theirs) in enumerate(zip(oracle_values, scalar_values)):
        if _bits(ours) != _bits(theirs):
            diverge(
                f"delivered value: oracle {ours!r} != scalar {theirs!r} "
                f"at memoizable event {i} "
                f"({memoizable[i].opcode.name})"
            )
            break

    if report.instructions != len(events):
        diverge(
            f"report: fused saw {report.instructions} instructions, "
            f"trace has {len(events)}"
        )
    if report.counts != batch.breakdown():
        diverge("report: fused opcode counts != column breakdown")

    # Sound reuse bound: a finite full-tag table can never out-hit the
    # infinite-table replay of the same trace (mantissa tags can, by
    # matching across exponents, so they are exempt).
    if case.config.tag_mode is TagMode.FULL or case.infinite:
        _, infinite_hits, _ = execution.replay_infinite(batch)
        finite_hits = sum(
            unit.stats.table.hits for unit in scalar_bank.units.values()
        )
        if finite_hits > infinite_hits:
            diverge(
                f"reuse bound: finite tables hit {finite_hits} times, "
                f"infinite replay bound is {infinite_hits}"
            )

    result.features = _features(case, oracle)
    return result
