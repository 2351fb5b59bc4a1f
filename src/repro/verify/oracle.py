"""A golden oracle for the memo-table hierarchy.

This is the trivially-correct model the differential fuzzer compares the
production paths against.  It re-implements the complete observable
semantics of :class:`repro.core.memo_table.MemoTable` /
:class:`InfiniteMemoTable` / :class:`repro.core.unit.MemoizedUnit` --
set indexing, full and mantissa-only tags, commutative double-order
compare, LRU/FIFO/RANDOM replacement, the table clock, trivial-operand
policies, the mantissa-hit exponent fix-up, and cycle accounting -- in
the most obvious way possible: plain lists of dict-like entries, one
small step method per event, no numpy, no batching, no shared probe
machinery.

What it deliberately *shares* with production code is the semantic
ground truth that is not under test: :func:`repro.core.operations.compute`
(what a multiply/divide produces) and the configuration vocabulary
(:mod:`repro.core.config` enums).  Everything the kernel could get wrong
-- who hits, who is evicted, what the counters say -- is independent.

Speed is explicitly a non-goal; if a line here is not obviously correct
against the paper's section 2 description, that is a bug.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Dict, List, Optional, Tuple

from ..core.config import (
    MemoTableConfig,
    OperandKind,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from ..core.operations import Operation, compute
from ..core.unit import DEFAULT_LATENCIES

__all__ = ["OracleEntry", "OracleTable", "OracleInfiniteTable",
           "OracleUnit", "OracleBank"]

_MANT_MASK = (1 << 52) - 1
_PACK = struct.Struct("<d").pack
_UNPACK = struct.Struct("<Q").unpack


def _float_bits(value: float) -> int:
    """The 64 raw bits of ``value`` (NaN payloads, -0.0 preserved)."""
    return _UNPACK(_PACK(value))[0]


class OracleEntry:
    """One stored way: a tag guarding a value, with recency timestamps."""

    __slots__ = ("tag", "value", "operands", "last_used", "inserted")

    def __init__(self, tag, value, operands, now: int) -> None:
        self.tag = tag
        self.value = value
        self.operands = operands
        self.last_used = now
        self.inserted = now


class OracleTable:
    """Obvious set-associative MEMO-TABLE model.

    The protocol is two calls per miss: :meth:`probe` (advances the
    clock, updates hit statistics) and, on a miss, :meth:`store`
    (advances the clock again, inserts, evicting per policy).  That is
    exactly the lookup/insert cadence of the production table.
    """

    def __init__(self, config: MemoTableConfig) -> None:
        self.config = config
        self.sets: List[List[OracleEntry]] = [
            [] for _ in range(config.n_sets)
        ]
        self.clock = 0
        self.rng = random.Random(config.seed)  # RANDOM replacement draws
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0
        self.commutative_hits = 0

    # -- indexing and tagging --------------------------------------------

    def index_and_tag(self, a, b) -> Tuple[int, tuple]:
        mask = self.config.n_sets - 1
        if self.config.operand_kind is OperandKind.INT:
            ia, ib = int(a), int(b)
            return (ia ^ ib) & mask, (ia, ib)
        bits_a = _float_bits(float(a))
        bits_b = _float_bits(float(b))
        mant_a = bits_a & _MANT_MASK
        mant_b = bits_b & _MANT_MASK
        shift = 52 - mask.bit_length()
        index = ((mant_a >> shift) ^ (mant_b >> shift)) & mask
        if self.config.tag_mode is TagMode.MANTISSA:
            return index, (mant_a, mant_b)
        return index, (bits_a, bits_b)

    # -- the probe/store protocol ----------------------------------------

    def probe(self, a, b) -> Optional[OracleEntry]:
        """One lookup: the matching entry (recency refreshed) or None."""
        self.clock += 1
        self.lookups += 1
        index, tag = self.index_and_tag(a, b)
        ways = self.sets[index]
        # Forward order first, then (for commutative units) the swapped
        # order -- both full scans, in way order, like the hardware
        # comparator tree.
        for entry in ways:
            if entry.tag == tag:
                entry.last_used = self.clock
                self.hits += 1
                return entry
        if self.config.commutative:
            swapped = (tag[1], tag[0])
            for entry in ways:
                if entry.tag == swapped:
                    entry.last_used = self.clock
                    self.hits += 1
                    self.commutative_hits += 1
                    return entry
        return None

    def store(self, a, b, value) -> None:
        """Insert after a miss, evicting per the replacement policy."""
        self.clock += 1
        self.insertions += 1
        index, tag = self.index_and_tag(a, b)
        ways = self.sets[index]
        entry = OracleEntry(tag, value, (a, b), self.clock)
        if len(ways) < self.config.associativity:
            ways.append(entry)
            return
        kind = self.config.replacement
        if kind is ReplacementKind.LRU:
            victim = 0
            for i in range(1, len(ways)):
                if ways[i].last_used < ways[victim].last_used:
                    victim = i
        elif kind is ReplacementKind.FIFO:
            victim = 0
            for i in range(1, len(ways)):
                if ways[i].inserted < ways[victim].inserted:
                    victim = i
        else:  # RANDOM: one seeded draw per eviction
            victim = self.rng.randrange(len(ways))
        ways[victim] = entry
        self.evictions += 1

    # -- inspection -------------------------------------------------------

    def snapshot(self):
        """Final contents in the production comparison shape."""
        return [
            [(e.tag, e.value, e.operands, e.last_used, e.inserted)
             for e in ways]
            for ways in self.sets
        ]


class OracleInfiniteTable:
    """Obvious unbounded fully-associative MEMO-TABLE model."""

    def __init__(self, operand_kind: OperandKind, commutative: bool) -> None:
        # Geometry is irrelevant; one set holds the tag machinery.
        self.config = MemoTableConfig(
            entries=1,
            associativity=1,
            operand_kind=operand_kind,
            commutative=commutative,
        )
        self.entries: Dict[tuple, Tuple[object, tuple]] = {}
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0
        self.commutative_hits = 0

    def _tag(self, a, b) -> tuple:
        if self.config.operand_kind is OperandKind.INT:
            return (int(a), int(b))
        return (_float_bits(float(a)), _float_bits(float(b)))

    def probe(self, a, b):
        self.lookups += 1
        tag = self._tag(a, b)
        found = self.entries.get(tag)
        if found is None and self.config.commutative:
            found = self.entries.get((tag[1], tag[0]))
            if found is not None:
                self.commutative_hits += 1
        if found is None:
            return None
        self.hits += 1
        value, operands = found
        entry = OracleEntry(tag, value, operands, 0)
        return entry

    def store(self, a, b, value) -> None:
        tag = self._tag(a, b)
        if tag not in self.entries:
            self.insertions += 1
        self.entries[tag] = (value, (a, b))

    def snapshot(self):
        return dict(self.entries)


# -- trivial-operand detection (independent re-statement of Table 9) -------


def _is_trivial(op: Operation, a, b) -> bool:
    if op is Operation.FP_MUL or op is Operation.INT_MUL:
        return a == 0 or b == 0 or a == 1 or b == 1 or a == -1 or b == -1
    if op is Operation.FP_DIV or op is Operation.INT_DIV:
        # 0/0 is NOT trivial: it must produce NaN like the divider would.
        return b == 1 or b == -1 or (a == 0 and b != 0)
    if op is Operation.FP_SQRT:
        return a == 0 or a == 1
    if op is Operation.FP_RECIP:
        return a == 1 or a == -1
    if op is Operation.FP_LOG:
        return a == 1
    if op is Operation.FP_SIN or op is Operation.FP_COS:
        return a == 0
    return False


def _trivial_value(op: Operation, a, b):
    """What the trivial detector forwards (signed zeros preserved)."""
    if op is Operation.FP_MUL or op is Operation.INT_MUL:
        if a == 0 or b == 0:
            return a * b
        if a == 1:
            return b
        if b == 1:
            return a
        if a == -1:
            return -b
        return -a  # b == -1
    if op is Operation.FP_DIV or op is Operation.INT_DIV:
        if b == 1:
            return a
        if b == -1:
            return -a
        return a / b  # a == 0, b != 0: keeps the correct signed zero
    if op is Operation.FP_SQRT:
        return a  # sqrt(0) == 0, sqrt(1) == 1
    if op is Operation.FP_RECIP:
        return a  # 1/1 == 1, 1/-1 == -1
    if op is Operation.FP_LOG:
        return 0.0  # log(1)
    if op is Operation.FP_SIN:
        return a  # sin(0) == 0 (signed zero preserved)
    return 1.0  # FP_COS: cos(0)


class OracleUnit:
    """Obvious model of one memoized unit (table + trivial detector)."""

    def __init__(
        self,
        operation: Operation,
        config: Optional[MemoTableConfig] = None,
        trivial_policy: TrivialPolicy = TrivialPolicy.EXCLUDE,
        latency: Optional[int] = None,
        hit_latency: int = 1,
        trivial_latency: int = 2,
        infinite: bool = False,
    ) -> None:
        self.operation = operation
        if infinite:
            self.table = OracleInfiniteTable(
                operation.operand_kind, operation.commutative
            )
        else:
            base = config if config is not None else MemoTableConfig()
            tag_mode = base.tag_mode
            if operation.operand_kind is OperandKind.INT:
                tag_mode = TagMode.FULL  # mantissa tags are a float concept
            from dataclasses import replace as dc_replace

            self.table = OracleTable(dc_replace(
                base,
                operand_kind=operation.operand_kind,
                commutative=operation.commutative,
                tag_mode=tag_mode,
            ))
        self.trivial_policy = trivial_policy
        self.latency = (
            latency if latency is not None else DEFAULT_LATENCIES[operation]
        )
        self.hit_latency = hit_latency
        self.trivial_latency = trivial_latency
        self.operations = 0
        self.trivial = 0
        self.trivial_hits = 0
        self.cycles_base = 0
        self.cycles_memo = 0

    # -- mantissa-hit exponent fix-up -------------------------------------

    def _mantissa_fixup(self, entry: OracleEntry, a, b):
        """Rebuild a mantissa-only hit's result (Table 10 fix-up rule).

        The production unit scales the stored value by the exact
        power-of-two operand ratios when everything is finite and
        nonzero, and recomputes exactly otherwise; the oracle states the
        same rule so the comparison checks the *kernel's plumbing*, not
        two different roundings of the fix-up itself.
        """
        sa, sb = entry.operands
        if (sa, sb) == (a, b):
            return entry.value
        finite = all(
            math.isfinite(x) and x != 0 for x in (sa, sb, a, b)
        )
        if (
            not finite
            or not math.isfinite(entry.value)
            or entry.value == 0
        ):
            return compute(self.operation, a, b)
        ra, rb = a / sa, b / sb
        if self.operation is Operation.FP_MUL:
            scale = ra * rb
        elif self.operation is Operation.FP_DIV:
            scale = ra / rb if rb else math.inf
        else:
            return compute(self.operation, a, b)
        if not math.isfinite(scale) or scale == 0:
            # Exponent adder over/underflow: full-path recompute.
            return compute(self.operation, a, b)
        return entry.value * scale

    # -- one event --------------------------------------------------------

    def step(self, a, b=0.0):
        """Present one operation; returns the delivered value."""
        self.operations += 1
        latency = self.latency

        if _is_trivial(self.operation, a, b):
            self.trivial += 1
            policy = self.trivial_policy
            if policy is TrivialPolicy.EXCLUDE:
                # Bypasses the table; short early-out on both machines.
                cost = min(self.trivial_latency, latency)
                self.cycles_base += cost
                self.cycles_memo += cost
                return _trivial_value(self.operation, a, b)
            if policy is TrivialPolicy.INTEGRATED:
                # Detector in front of the table: a one-cycle "hit".
                self.trivial_hits += 1
                self.cycles_base += min(self.trivial_latency, latency)
                self.cycles_memo += self.hit_latency
                return _trivial_value(self.operation, a, b)
            # CACHE_ALL: falls through to the table like any operation.

        entry = self.table.probe(a, b)
        if entry is not None:
            value = entry.value
            if (
                isinstance(self.table, OracleTable)
                and self.table.config.tag_mode is TagMode.MANTISSA
            ):
                value = self._mantissa_fixup(entry, a, b)
            self.cycles_base += latency
            self.cycles_memo += self.hit_latency
            return value
        value = compute(self.operation, a, b)
        self.table.store(a, b, value)
        self.cycles_base += latency
        self.cycles_memo += latency
        return value

    def stats_key(self) -> tuple:
        """Counters in the shape of the production fingerprint."""
        t = self.table
        return (
            self.operations,
            self.trivial,
            self.trivial_hits,
            self.cycles_base,
            self.cycles_memo,
            t.lookups,
            t.hits,
            t.insertions,
            t.evictions,
            t.commutative_hits,
        )


class OracleBank:
    """Per-operation oracle units behind one step call."""

    def __init__(
        self,
        config: Optional[MemoTableConfig] = None,
        trivial_policy: TrivialPolicy = TrivialPolicy.EXCLUDE,
        operations=tuple(Operation),
        infinite: bool = False,
    ) -> None:
        self.units: Dict[Operation, OracleUnit] = {
            op: OracleUnit(
                op,
                config=config,
                trivial_policy=trivial_policy,
                infinite=infinite,
            )
            for op in operations
        }

    def step(self, operation: Operation, a, b=0.0):
        return self.units[operation].step(a, b)

    def fingerprint(self) -> Dict[Operation, tuple]:
        return {op: unit.stats_key() for op, unit in self.units.items()}
