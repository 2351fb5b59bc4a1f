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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
    """Set-associative MEMO-TABLE (the realizable hardware design).

    Its only state is flat per-slot lists (slot = set * associativity +
    way, so slot order is way order: tag, value, operands, last-used
    and inserted clocks), ``_fill`` (each set's filled ways, always its
    first slots) and ``_clock``.  The pair-id loop
    (:mod:`repro.core.kernel`) works on these same lists; everyone else
    reads :meth:`snapshot`.
    """

    def __init__(self, config: Optional[MemoTableConfig] = None) -> None:
        self.config = config if config is not None else MemoTableConfig()
        self._key = _key_function(self.config)
        self._policy: ReplacementPolicy = make_policy(
            self.config.replacement, self.config.seed
        )
        self._clock = 0
        size = self.config.entries
        self._tags: List[Optional[Tag]] = [None] * size
        self._values: List[Optional[float]] = [None] * size
        self._operands: List[Optional[Tuple[float, float]]] = [None] * size
        self._last_used: List[int] = [0] * size
        self._inserted: List[int] = [0] * size
        self._fill: List[int] = [0] * self.config.n_sets
        self.stats = MemoStats()

    # -- probing ---------------------------------------------------------

    def lookup(self, a: float, b: float) -> LookupResult:
        self._clock += 1
        stats = self.stats
        stats.lookups += 1
        set_index, tag = self._key(a, b)
        base = set_index * self.config.associativity
        ways = self._tags[base:base + self._fill[set_index]]
        reversed_match = False
        if tag in ways:
            pos = base + ways.index(tag)
        elif self.config.commutative and (tag[1], tag[0]) in ways:
            # The comparator checks both operand orders in parallel
            # (section 2.2); XOR indexing guarantees the same set.
            pos = base + ways.index((tag[1], tag[0]))
            reversed_match = True
        else:
            return LookupResult.MISS
        self._last_used[pos] = self._clock
        stats.hits += 1
        if reversed_match:
            stats.commutative_hits += 1
        return LookupResult(
            True, self._values[pos], self._operands[pos], reversed_match
        )

    # -- update ----------------------------------------------------------

    def insert(self, a: float, b: float, value: float) -> None:
        self._clock += 1
        set_index, tag = self._key(a, b)
        assoc = self.config.associativity
        base = set_index * assoc
        fill = self._fill[set_index]
        ways = self._tags[base:base + fill]
        if tag in ways:
            pos = base + ways.index(tag)
            self._values[pos] = value
            self._operands[pos] = (a, b)
            self._last_used[pos] = self._clock
            return
        self.stats.insertions += 1
        if fill < assoc:
            pos = base + fill
            self._fill[set_index] = fill + 1
        else:
            end = base + assoc
            pos = base + self._policy.victim(
                self._last_used[base:end], self._inserted[base:end]
            )
            self.stats.evictions += 1
        self._tags[pos] = tag
        self._values[pos] = value
        self._operands[pos] = (a, b)
        self._last_used[pos] = self._clock
        self._inserted[pos] = self._clock

    def flush(self) -> None:
        # Slots past a set's fill are never read, so emptying the sets
        # empties the table.
        self._fill = [0] * self.config.n_sets
        if obs.enabled():
            obs.registry().counter_add("memo_table.flush")

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return sum(self._fill)

    def snapshot(self) -> List[List[tuple]]:
        """Each set's ways in way order, one
        ``(tag, value, operands, last_used, inserted)`` tuple per way."""
        assoc = self.config.associativity
        return [
            [
                (self._tags[pos], self._values[pos], self._operands[pos],
                 self._last_used[pos], self._inserted[pos])
                for pos in range(s * assoc, s * assoc + fill)
            ]
            for s, fill in enumerate(self._fill)
        ]


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

    def snapshot(self) -> Dict[Tag, Tuple[float, Tuple[float, float]]]:
        """Every entry, ``tag -> (value, operands)``."""
        return dict(self._entries)
