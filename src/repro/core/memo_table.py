"""The MEMO-TABLE: a cache-like lookup table for operand/result pairs.

Section 2.1 of the paper.  A MEMO-TABLE receives a pair of operands,
hashes a subset of their bits into a set index, and compares the
remaining bits against the tags stored in that set.  A match ("hit")
returns the stored result; a mismatch ("miss") returns nothing and the
conventional computation's result is inserted, evicting an entry if the
set is full.

Two implementations are provided:

* :class:`MemoTable` -- the realizable set-associative design (the
  paper's baseline is 32 entries, 4-way);
* :class:`InfiniteMemoTable` -- the "infinitely large fully associative"
  reference used in Tables 5-7 to bound the available reuse.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .. import obs
from .config import MemoTableConfig, OperandKind, TagMode
from .replacement import ReplacementPolicy, make_policy
from .stats import MemoStats
from .tags import Tag

__all__ = ["LookupResult", "MemoTable", "InfiniteMemoTable", "BaseMemoTable"]


class LookupResult(NamedTuple):
    """Outcome of a MEMO-TABLE probe.

    ``value`` is the stored result on a hit (``None`` on a miss);
    ``operands`` are the operand values that created the matching entry,
    which mantissa-only tables need in order to fix up the result
    exponent; ``reversed_match`` flags hits found only under the swapped
    operand order (commutative tables).
    """

    hit: bool
    value: Optional[float] = None
    operands: Optional[Tuple[float, float]] = None
    reversed_match: bool = False


#: Shared sentinel for the (very common) miss outcome.  A NamedTuple
#: instance, so immutable by construction: field assignment raises and
#: every miss can safely alias this one object.  Callers must branch on
#: ``result.hit``, never on identity against this sentinel (``repro``'s
#: regression tests scan for both mutation and identity comparison).
LookupResult.MISS = LookupResult(hit=False)


class _Entry:
    """One way of one set: a tag guarding a result."""

    __slots__ = ("tag", "value", "operands", "last_used", "inserted")

    def __init__(
        self,
        tag: Tag,
        value: float,
        operands: Tuple[float, float],
        now: int,
    ) -> None:
        self.tag = tag
        self.value = value
        self.operands = operands
        self.last_used = now
        self.inserted = now


class BaseMemoTable(abc.ABC):
    """Interface shared by finite and infinite MEMO-TABLES."""

    stats: MemoStats

    @abc.abstractmethod
    def lookup(self, a: float, b: float) -> LookupResult:
        """Probe the table; updates hit/miss statistics."""

    @abc.abstractmethod
    def insert(self, a: float, b: float, value: float) -> None:
        """Store ``value`` under the operand pair ``(a, b)``."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Invalidate every entry (statistics are preserved)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of valid entries currently stored."""

    def access(
        self,
        a: float,
        b: float,
        compute: Callable[[float, float], float],
    ) -> Tuple[float, bool]:
        """Lookup ``(a, b)``; on a miss run ``compute`` and insert its result.

        Returns ``(value, hit)``.  This is the complete per-operation
        protocol of section 2.2: lookup in parallel with computation, and
        table update on a miss.
        """
        found = self.lookup(a, b)
        if found.hit:
            assert found.value is not None
            return found.value, True
        value = compute(a, b)
        self.insert(a, b, value)
        return value, False


def _key_function(config: MemoTableConfig) -> Callable[[float, float], Tuple[int, Tag]]:
    """Fused (set index, tag) extraction -- the lookup hot path.

    Semantically identical to composing
    :func:`~repro.core.indexing.index_function` and
    :func:`~repro.core.tags.tag_function` (the tests' references), but
    decodes each operand's bit pattern once.
    """
    import struct

    n_sets = config.n_sets
    mask = n_sets - 1
    bits = mask.bit_length()
    pack = struct.Struct("<d").pack
    unpack_q = struct.Struct("<Q").unpack
    mant_mask = (1 << 52) - 1
    shift = 52 - bits

    if config.operand_kind is OperandKind.INT:
        def key(a, b, _mask=mask):
            a = int(a)
            b = int(b)
            return (a ^ b) & _mask, (a, b)
        return key

    full = config.tag_mode is TagMode.FULL

    def key(a, b):
        bits_a = unpack_q(pack(a))[0]
        bits_b = unpack_q(pack(b))[0]
        mant_a = bits_a & mant_mask
        mant_b = bits_b & mant_mask
        index = ((mant_a >> shift) ^ (mant_b >> shift)) & mask
        if full:
            return index, (bits_a, bits_b)
        return index, (mant_a, mant_b)

    return key


class MemoTable(BaseMemoTable):
    """Set-associative MEMO-TABLE (the realizable hardware design)."""

    def __init__(self, config: Optional[MemoTableConfig] = None) -> None:
        self.config = config if config is not None else MemoTableConfig()
        self._key = _key_function(self.config)
        self._policy: ReplacementPolicy = make_policy(
            self.config.replacement, self.config.seed
        )
        self._sets: List[List[_Entry]] = [[] for _ in range(self.config.n_sets)]
        self._clock = 0
        self.stats = MemoStats()

    # -- probing ---------------------------------------------------------

    @staticmethod
    def _find(ways: List[_Entry], tag: Tag) -> Optional[_Entry]:
        for entry in ways:
            if entry.tag == tag:
                return entry
        return None

    def lookup(self, a: float, b: float) -> LookupResult:
        self._clock += 1
        stats = self.stats
        stats.lookups += 1
        set_index, tag = self._key(a, b)
        ways = self._sets[set_index]
        entry = self._find(ways, tag)
        reversed_match = False
        if entry is None and self.config.commutative:
            # The comparator checks both operand orders in parallel
            # (section 2.2); XOR indexing guarantees the same set.
            entry = self._find(ways, (tag[1], tag[0]))
            reversed_match = entry is not None
        if entry is None:
            return LookupResult.MISS
        entry.last_used = self._clock
        stats.hits += 1
        if reversed_match:
            stats.commutative_hits += 1
        return LookupResult(True, entry.value, entry.operands, reversed_match)

    # -- update ----------------------------------------------------------

    def insert(self, a: float, b: float, value: float) -> None:
        self._clock += 1
        set_index, tag = self._key(a, b)
        ways = self._sets[set_index]
        existing = self._find(ways, tag)
        if existing is not None:
            existing.value = value
            existing.operands = (a, b)
            existing.last_used = self._clock
            return
        self.stats.insertions += 1
        entry = _Entry(tag, value, (a, b), self._clock)
        if len(ways) < self.config.associativity:
            ways.append(entry)
            return
        victim = self._policy.victim(
            [w.last_used for w in ways], [w.inserted for w in ways]
        )
        ways[victim] = entry
        self.stats.evictions += 1

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]
        if obs.enabled():
            obs.registry().counter_add("memo_table.flush")

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def entries(self) -> Iterator[Tuple[int, Tag, float]]:
        """Yield ``(set_index, tag, value)`` for every valid entry."""
        for set_index, ways in enumerate(self._sets):
            for entry in ways:
                yield set_index, entry.tag, entry.value

    def set_occupancy(self) -> List[int]:
        """Valid entries per set -- useful for hash-quality diagnostics."""
        return [len(ways) for ways in self._sets]


class InfiniteMemoTable(BaseMemoTable):
    """Unbounded fully associative MEMO-TABLE.

    Used as the reuse upper bound ("infinite" columns of Tables 5-7):
    every distinct operand pair ever seen stays resident, so the hit
    ratio measures total value reuse rather than what a finite table can
    capture.
    """

    def __init__(
        self,
        operand_kind: OperandKind = OperandKind.FLOAT,
        tag_mode: TagMode = TagMode.FULL,
        commutative: bool = False,
    ) -> None:
        # Geometry fields are irrelevant; reuse the config machinery for
        # tag construction only.
        self.config = MemoTableConfig(
            entries=1,
            associativity=1,
            operand_kind=operand_kind,
            tag_mode=tag_mode,
            commutative=commutative,
        )
        self._key = _key_function(self.config)
        self._entries: Dict[Tag, Tuple[float, Tuple[float, float]]] = {}
        self.stats = MemoStats()

    def lookup(self, a: float, b: float) -> LookupResult:
        self.stats.lookups += 1
        __, tag = self._key(a, b)
        found = self._entries.get(tag)
        reversed_match = False
        if found is None and self.config.commutative:
            found = self._entries.get((tag[1], tag[0]))
            reversed_match = found is not None
        if found is None:
            return LookupResult.MISS
        self.stats.hits += 1
        if reversed_match:
            self.stats.commutative_hits += 1
        value, operands = found
        return LookupResult(
            hit=True, value=value, operands=operands, reversed_match=reversed_match
        )

    def insert(self, a: float, b: float, value: float) -> None:
        __, tag = self._key(a, b)
        if tag not in self._entries:
            self.stats.insertions += 1
        self._entries[tag] = (value, (a, b))

    def flush(self) -> None:
        self._entries.clear()
        if obs.enabled():
            obs.registry().counter_add("memo_table.flush")

    def __len__(self) -> int:
        return len(self._entries)
