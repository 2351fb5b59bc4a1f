"""The memo-probe kernel: one inner loop for every simulator.

Every paper experiment boils down to "replay an operand stream through a
MEMO-TABLE and count" (sections 2-4).  Historically that probe sequence
was re-implemented as a per-record Python loop in each front-end
(``simulator/shade.py``, ``simulator/cpu.py``, ``simulator/pipeline.py``
and the corpus replay path); this module is the single shared
implementation, with two entry points over one input, a columnar
:class:`~repro.isa.columns.ColumnBatch` (:func:`as_batch` is the one
converter: a batch as-is, a Trace's columns, any other event iterable
converted once):

* :func:`_run_batch` -- the **fused** path.  The batch is partitioned
  by opcode with numpy, and :func:`_probe_partition` picks each
  partition's loop from its table's class.  In
  the pair-id loop, ``np.unique`` maps every event to a dense **pair
  id** (one integer per distinct tag pair, the pLUTo "table as
  precomputed lookup structure" move), so set index and commutative
  twin are resolved once per id and the probe loop runs over small
  integer lists -- replicating :class:`~repro.core.memo_table.MemoTable`
  semantics (clock, recency, replacement, every counter) exactly, under
  every trivial-operation policy (Table 9) and both tag modes
  (Table 10).
  A partition probed into a never-probed LRU or FIFO table is
  remembered on its batch (:class:`_ProbeMemo`): the next dispatch of
  the same partition into an equally configured fresh table -- another
  experiment, another machine's latencies, the hazard pass -- rebuilds
  the final table and charges the counts without decoding the
  partition or running the loop.  An
  :class:`~repro.core.memo_table.InfiniteMemoTable` takes the tag dict
  loop instead, under the same policy and tag rules.
* :func:`run_events_scalar` -- the **scalar reference** path: the
  classic event-at-a-time loop over ``unit.execute``, walking the
  batch's event view.  CI asserts the two produce bit-identical
  :class:`~repro.core.stats.MemoStats` on every bundled program.  It
  is also the one validating loop: with ``validate`` it compares each
  delivered value with the traced result.

:func:`repro.core.backend.dispatch` calls one or the other, as the
``fused`` and ``scalar`` backends; ``repro <experiment> --backend
NAME`` or the ``REPRO_BACKEND`` environment variable picks one at
runtime, and a validating dispatch always runs the scalar one.
Models that need each event's outcome (the hazard-aware pipeline, the
sampling estimator's residency model, ext-dual-issue's table port) get
a per-event outcome column from either entry point's ``outcomes``
argument, through :func:`repro.core.backend.probe_outcomes`.

Batching by opcode is sound because each operation class owns a private
MEMO-TABLE: per-table outcomes depend only on that operation's
subsequence, which partitioning preserves in order.  The one stateful
resource shared *across* opcodes -- the cache hierarchy -- is walked in
original interleaved order.

This is deliberately the only module allowed to contain a per-record
probe loop; ``repro lint`` rule REPRO006 flags new ones anywhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import obs
from ..isa.columns import ColumnBatch
from ..isa.opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from .config import OperandKind, TagMode, TrivialPolicy
from .memo_table import InfiniteMemoTable, MemoTable
from .operations import Operation, compute_function
from .replacement import FIFOPolicy, LRUPolicy

__all__ = [
    "KERNEL_FAULTS",
    "KernelReport",
    "OUTCOME_BYPASS",
    "OUTCOME_HIT",
    "OUTCOME_MISS",
    "run_events_scalar",
    "probe_one",
    "as_batch",
]

# Flag bits mirrored from repro.isa.columns (kept numeric to avoid
# importing private names in the hot path).
_F_INT = 1
_F_ADDRESS = 2
_F_PC = 4
_F_DST = 8
_F_WIDE = 16

_MANT_MASK = (1 << 52) - 1

#: Per-event outcome codes (the ``outcomes`` column of both entry points):
#: a table miss, a hit (INTEGRATED's trivial "hits" included), and a
#: trivial operation that took the unit's early-out path without
#: touching the table (EXCLUDE).
OUTCOME_MISS = 0
OUTCOME_HIT = 1
OUTCOME_BYPASS = 2


# -- fault injection seam (mutation smoke) ----------------------------------
#
# ``repro verify smoke`` proves the differential harness can catch real
# kernel regressions: each named fault below perturbs the pair-id probe
# loop the way a plausible bug would, and the harness must flag the
# divergence within its default budget.  The seam is a single module
# global read once per partition; it is only ever set (briefly) by
# ``repro.verify.faults.inject`` and is never active in production runs.

KERNEL_FAULTS = (
    "lru_victim_off_by_one",
    "dropped_trivial_mask",
    "wrong_set_index_mask",
    "stale_tag_on_abort",
)

_active_fault: Optional[str] = None


def as_batch(events) -> ColumnBatch:
    """The columnar view of ``events``: a :class:`ColumnBatch` as-is,
    a :class:`~repro.isa.trace.Trace`'s columns, and any other event
    iterable converted once with :meth:`ColumnBatch.from_events`."""
    if isinstance(events, ColumnBatch):
        return events
    columns = getattr(events, "columns", None)
    if callable(columns):
        return columns()
    return ColumnBatch.from_events(events)


def values_match(computed, traced, rel: float = 1e-12) -> bool:
    """Validation comparison: exact, both-NaN, or within ``rel``."""
    if computed == traced:
        return True
    try:
        if computed != computed and traced != traced:  # both NaN
            return True
        return abs(computed - traced) <= rel * max(abs(computed), abs(traced))
    except (TypeError, OverflowError):
        return False


@dataclass
class KernelReport:
    """What one kernel pass over a trace (or slice) produced.

    Front-ends adapt this into their own report types: ``counts`` is
    both the Shade frequency breakdown and the cycle model's per-opcode
    instruction counts; cycle fields are zero when no machine model was
    supplied (pure statistics collection)."""

    instructions: int = 0
    counts: Dict[Opcode, int] = field(default_factory=dict)
    mismatches: int = 0
    base_cycles: int = 0
    memo_cycles: int = 0
    cycles_by_opcode: Dict[Opcode, int] = field(default_factory=dict)


# -- single-event adapter ---------------------------------------------------


def probe_one(unit, a, b=0.0):
    """Scalar probe of one unit (= ``unit.execute``).

    Exists so the differential harness's scalar leg, which walks
    events one at a time, still routes its probes through the kernel
    module; models that need per-event outcomes take the whole column
    from :func:`repro.core.backend.probe_outcomes`."""
    return unit.execute(a, b)


# -- the probe kernel -------------------------------------------------------


def _trivial_mask(operation: Operation, a, b):
    """Vectorized trivial-operand detector (matches repro.core.trivial:
    value comparisons, so -0.0 is zero and NaN is never trivial)."""
    if operation is Operation.FP_MUL or operation is Operation.INT_MUL:
        return (a == 0) | (b == 0) | (a == 1) | (b == 1) | (a == -1) | (b == -1)
    if operation is Operation.FP_DIV or operation is Operation.INT_DIV:
        return (b == 1) | (b == -1) | ((a == 0) & (b != 0))
    if operation is Operation.FP_SQRT:
        return (a == 0) | (a == 1)
    if operation is Operation.FP_RECIP:
        return (a == 1) | (a == -1)
    if operation is Operation.FP_LOG:
        return a == 1
    if operation is Operation.FP_SIN or operation is Operation.FP_COS:
        return a == 0
    return np.zeros(len(a), dtype=bool)  # pragma: no cover - exhaustive


def _set_indices(config, np_a, np_b, mask: Optional[int] = None):
    """Vectorized table set index for each operand pair.

    The pair-id loop's set-mapping formula.  INT operands xor their
    values; FLOAT operands (float64 values or their uint64 bit
    patterns) xor the top bits of their mantissas (the exponent is
    deliberately excluded -- see the table design notes).  ``mask``
    overrides ``config.n_sets - 1`` (the fault-injection seam narrows
    it to model a set-indexing bug).
    """
    if mask is None:
        mask = config.n_sets - 1
    if config.operand_kind is OperandKind.INT:
        return np.bitwise_and(np.bitwise_xor(np_a, np_b), mask)
    shift = np.uint64(52 - mask.bit_length())
    mant_a = np.bitwise_and(np_a.view(np.uint64), np.uint64(_MANT_MASK))
    mant_b = np.bitwise_and(np_b.view(np.uint64), np.uint64(_MANT_MASK))
    return np.bitwise_and(
        np.bitwise_xor(mant_a >> shift, mant_b >> shift),
        np.uint64(mask),
    )


def _probe_partition(unit, batch, views, idx, outcomes, partition):
    """Present one opcode partition of ``batch`` -- the events at
    ``idx`` -- to its memoized unit.

    Returns ``(base_cycles, memo_cycles)``.  All unit and table
    statistics land exactly where ``unit.execute`` would put them.
    This is the one place that picks a partition's tier, from the
    table's class alone (every replacement policy, trivial-operation
    policy and tag mode included):

    * :class:`~repro.core.memo_table.MemoTable` -- a replay of the
      batch's probe memo (:func:`_replay_fused`) when
      :func:`_memo_key` admits one and the memo holds it, else the
      pair-id loop (:func:`_probe_fused`), whose run the memo then
      keeps when :func:`_memo_key` admits it;
    * :class:`~repro.core.memo_table.InfiniteMemoTable` -- the tag dict
      loop (:func:`_probe_infinite`);
    * any other class, or a partition whose operands are not all of the
      table's kind (mixed int/float partitions, wide ones whose
      operands do not fit the kind's dtype) -- loops ``unit.execute``
      and is therefore correct by construction.

    The memo is consulted before any operand is read, so a replayed
    partition is never decoded; the two loops read operand arrays
    (:func:`_partition_arrays`), and per-event Python values
    (:func:`_decode_partition`) are built only for the ``unit.execute``
    tier and for a partition holding wide events.

    ``outcomes``, when given, is a writable integer array of
    ``len(idx)`` that receives one code per event, in partition order:
    :data:`OUTCOME_HIT`, :data:`OUTCOME_MISS` or :data:`OUTCOME_BYPASS`
    (``Execution.hit`` and ``Execution.trivial`` folded together).
    Every tier fills it; a call without it does no extra work.
    ``partition`` (opcode, start, stop) names the events within the
    batch's probe memo (``views.probes``).

    With metrics enabled (:func:`repro.obs.enabled`), each partition is
    additionally timed as a ``kernel.partition.<OP>`` span and its
    probe/insert/evict counter deltas stream into the registry --
    one snapshot per *partition*, never per event, and nothing at all
    when the switch is off.
    """
    instrumented = obs.enabled()
    if instrumented:
        before = unit.stats.counters()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
    table = unit.table
    table_type = type(table)
    counts = None
    if table_type is MemoTable or table_type is InfiniteMemoTable:
        key = (
            _memo_key(unit, table, partition)
            if table_type is MemoTable else None
        )
        stored = None if key is None else views.probes.get(key)
        if stored is not None:
            _replay_fused(unit, table, stored)
        else:
            np_a, np_b = _partition_arrays(
                batch, views, idx,
                table.config.operand_kind is OperandKind.INT,
            )
            if np_a is not None:
                if table_type is not MemoTable:
                    counts = _probe_infinite(
                        unit, table, np_a, np_b, outcomes
                    )
                elif key is None:
                    counts = _probe_fused(unit, table, np_a, np_b, outcomes)
                else:
                    stored = _ProbeMemo.run(unit, table, np_a, np_b)
                    views.probes[key] = stored
        if stored is not None:
            if outcomes is not None:
                outcomes[:] = stored.outcomes
            counts = stored.counts
    if counts is not None:
        out = _charge(unit, table, *counts)
    else:
        a_values, b_values, _ = _decode_partition(batch, views, idx, False)
        execute = unit.execute
        base = memo = 0
        for i, (a, b) in enumerate(zip(a_values, b_values)):
            outcome = execute(a, b)
            base += outcome.base_cycles
            memo += outcome.cycles
            if outcomes is not None:
                outcomes[i] = _outcome_code(outcome)
        out = base, memo
    if instrumented:
        reg = obs.registry()
        name = unit.operation.name
        reg.record_span(
            f"kernel.partition.{name}",
            time.perf_counter() - wall0,
            time.process_time() - cpu0,
        )
        reg.add_counters(
            f"kernel.{name}",
            {counter: value - before.get(counter, 0)
             for counter, value in unit.stats.counters().items()},
        )
    return out


def _charge(unit, table, n, n_trivial, lookups, hits, commutative_hits,
            insertions, evictions) -> Tuple[int, int]:
    """Bulk cycle accounting and counter updates for one partition,
    from the seven counts a fast loop (or a replayed one) returns.

    Hits cost ``latency`` on the base machine and ``hit_latency`` on
    the memoized one; misses cost ``latency`` on both.  The ``n -
    lookups`` trivial operations that never reached the table cost the
    short early-out path on the base machine; on the memoized one they
    cost the same under EXCLUDE and count as one-cycle hits under
    INTEGRATED (``unit.execute``'s accounting).  Under CACHE_ALL every
    operation is a lookup."""
    latency = unit.latency
    hit_latency = unit.hit_latency
    bypassed = n - lookups
    early_out = bypassed * min(unit.trivial_latency, latency)
    base = early_out + lookups * latency
    memo = hits * hit_latency + (lookups - hits) * latency
    unit_stats = unit.stats
    if unit.trivial_policy is TrivialPolicy.INTEGRATED:
        memo += bypassed * hit_latency
        unit_stats.trivial_hits += bypassed
    else:
        memo += early_out
    table_stats = table.stats
    table_stats.lookups += lookups
    table_stats.hits += hits
    table_stats.commutative_hits += commutative_hits
    table_stats.insertions += insertions
    table_stats.evictions += evictions
    unit_stats.operations += n
    unit_stats.trivial += n_trivial
    unit_stats.cycles_base += base
    unit_stats.cycles_memo += memo
    return base, memo


def _outcome_code(outcome) -> int:
    """The outcome code of one ``unit.execute`` result."""
    if outcome.hit:
        return OUTCOME_HIT
    return OUTCOME_BYPASS if outcome.trivial else OUTCOME_MISS


def _fill_outcomes(outcomes, policy, trivial_arr, missed) -> None:
    """Write a fast loop's outcome codes: every event a hit, except the
    trivial ones under EXCLUDE (``trivial_arr``), which bypassed the
    table, and the ``missed`` event positions the loop recorded on its
    miss path."""
    outcomes[:] = OUTCOME_HIT
    if policy is TrivialPolicy.EXCLUDE:
        outcomes[trivial_arr] = OUTCOME_BYPASS
    if len(missed):
        outcomes[missed] = OUTCOME_MISS


def _pair_ids(keys_a, keys_b):
    """Dense ids over distinct ``(key_a, key_b)`` pairs.

    Returns ``(key_a, key_b, first, inv, u)``: per-id key halves, the
    first position carrying each id, the per-position id array, and
    the id count.  Each key column is deduplicated separately and the
    pair id is built from the two (small) column ids -- three
    primitive-int sorts, markedly faster than one lexicographic sort
    of packed 128-bit keys."""
    vals_a, inv_a = np.unique(keys_a, return_inverse=True)
    vals_b, inv_b = np.unique(keys_b, return_inverse=True)
    nb = len(vals_b)
    combo = inv_a.ravel().astype(np.int64, copy=False) * nb + inv_b.ravel()
    uniq, first_np, inv_np = np.unique(
        combo, return_index=True, return_inverse=True
    )
    return (
        vals_a[uniq // nb],
        vals_b[uniq % nb],
        first_np,
        inv_np.ravel(),
        len(uniq),
    )


#: Cache-slot sentinel: a computed value may legitimately be falsy
#: (0, 0.0), so unfilled slots need an impossible marker.
_UNSET = object()

#: Replacement policies whose victims depend only on the table's own
#: clocks.  RANDOM is left out: its seeded generator advances with
#: every eviction, so two equally configured tables differ in state.
_MEMO_POLICIES = (LRUPolicy, FIFOPolicy)

#: One final way per row, in slot order: its table slot, both tag
#: halves, both stored operands, last-used and inserted clocks.
_FLOAT_WAYS = np.dtype([
    ("slot", np.int64), ("tag_a", np.uint64), ("tag_b", np.uint64),
    ("a", np.float64), ("b", np.float64),
    ("last_used", np.int64), ("inserted", np.int64),
])
_INT_WAYS = np.dtype([
    ("slot", np.int64), ("tag_a", np.int64), ("tag_b", np.int64),
    ("a", np.int64), ("b", np.int64),
    ("last_used", np.int64), ("inserted", np.int64),
])


def _memo_key(unit, table, partition):
    """The probe-memo key for serving ``partition`` (opcode, start,
    stop) with ``unit``, or None when no stored run may stand in for
    the pair-id loop.

    A stored run fits any table that starts where it started: a
    :class:`~repro.core.memo_table.MemoTable` that has never been
    probed (``flush`` keeps the clock, so a flushed table does not
    qualify) under a policy in :data:`_MEMO_POLICIES`, with no kernel
    fault armed.  Such a run depends on the operand stream, the unit's
    operation and trivial policy and the table's configuration -- never
    on latencies, which only :func:`_charge` reads."""
    if (
        table._clock
        or type(table._policy) not in _MEMO_POLICIES
        or _active_fault is not None
    ):
        return None
    return partition + (unit.operation, unit.trivial_policy, table.config)


class _ProbeMemo(NamedTuple):
    """One pair-id loop run on a never-probed table, kept for replay.

    ``counts`` are the seven :func:`_charge` arguments after the table,
    ``clock`` the final table clock, ``ways`` the occupied slots (one
    :data:`_FLOAT_WAYS` or :data:`_INT_WAYS` row each, built from the
    table's slot lists; values are not kept, since every entry of a
    table that started empty holds its own operands' computed value)
    and ``outcomes`` the per-event outcome column."""

    counts: Tuple[int, ...]
    clock: int
    ways: np.ndarray
    outcomes: np.ndarray

    @classmethod
    def run(cls, unit, table, np_a, np_b) -> "_ProbeMemo":
        """Run the pair-id loop into ``table`` and keep what it left."""
        outcomes = np.empty(len(np_a), np.uint8)
        counts = _probe_fused(unit, table, np_a, np_b, outcomes)
        dtype = (
            _INT_WAYS if table.config.operand_kind is OperandKind.INT
            else _FLOAT_WAYS
        )
        assoc = table.config.associativity
        tags, operands, used = table._tags, table._operands, table._last_used
        inserted = table._inserted
        ways = np.array(
            [
                (pos, *tags[pos], *operands[pos], used[pos], inserted[pos])
                for s, fill in enumerate(table._fill)
                for pos in range(s * assoc, s * assoc + fill)
            ],
            dtype=dtype,
        )
        return cls(counts, table._clock, ways, outcomes)


def _replay_fused(unit, table, stored: _ProbeMemo) -> None:
    """Put a never-probed ``table`` into the state ``stored``'s run left
    its table in: the same ways in the same slots, each value computed
    from its stored operands, and the same clock."""
    compute_op = compute_function(unit.operation)
    assoc = table.config.associativity
    tags, values, operands = table._tags, table._values, table._operands
    used, ins, fill = table._last_used, table._inserted, table._fill
    for pos, tag_a, tag_b, a, b, last_used, inserted in stored.ways.tolist():
        tags[pos] = (tag_a, tag_b)
        values[pos] = compute_op(a, b)
        operands[pos] = (a, b)
        used[pos] = last_used
        ins[pos] = inserted
        fill[pos // assoc] += 1
    table._clock = stored.clock


def _probe_fused(unit, table, np_a, np_b, outcomes=None):
    """The pair-id loop (finite MemoTable; every trivial policy and tag
    mode) over the operand arrays ``np_a``/``np_b`` of one partition.

    1. ``np.unique`` over the partition's operand bit patterns maps
       every event to a dense **full id**; representative operands are
       taken per full id, and the computed value is cached per full id
       on first miss.  The table's **pair ids** are the full
       ids under FULL tags, and under MANTISSA tags the ids of the
       distinct 52-bit mantissa pairs, deduplicated once more over the
       full ids.  Set index and commutative twin are precomputed per
       pair id.
    2. The loop works on the table's own slot lists (slot = set *
       associativity + way): it updates the last-used and inserted
       clocks and the per-set fill in place.  One pass gives every
       resident tag a pair id (``uid_flat``, one per slot) and builds
       the pair id -> slot dict, so a probe is a single hash lookup and
       a hit a single list store.  LRU victim selection is inlined;
       FIFO and RANDOM call ``policy.victim`` on the slot lists of the
       full set.
    3. After the loop, only the slots this run inserted get their tag
       (from the pair id), operands and value (from the inserting
       event's full id), and the table clock advances.

    Trivial operations never reach the loop under EXCLUDE (the unit's
    early-out) and INTEGRATED (a one-cycle hit in front of the table);
    under CACHE_ALL they probe like any other operation.  Returns the
    seven counts :func:`_charge` takes; the caller does the per-policy
    accounting.

    Bit-exactness: the tag is all the table compares, so events sharing
    a pair id are indistinguishable to it; replaying clock, recency and
    victim semantics per event over pair ids therefore reproduces the
    scalar table state and statistics exactly -- tags, values,
    operands, recency, insertion clocks and way order.  A miss always
    inserts a fresh entry (the exact tag was just probed absent, and
    reversed commutative hits never reach insert) whose operands and
    value are the inserting event's: events sharing a full id are
    bit-identical, while under MANTISSA tags events sharing a pair id
    may differ in sign and exponent.  Hits need no value.
    """
    config = table.config
    fault = _active_fault
    n = len(np_a)
    trivial_arr = _trivial_mask(unit.operation, np_a, np_b)
    if fault == "dropped_trivial_mask":
        trivial_arr = np.zeros(n, dtype=bool)
    n_trivial = int(trivial_arr.sum())
    int_kind = config.operand_kind is OperandKind.INT
    full_tags = int_kind or config.tag_mode is TagMode.FULL

    if int_kind:
        full_a, full_b, first_np, inv_full, u_full = _pair_ids(np_a, np_b)
    else:
        full_a, full_b, first_np, inv_full, u_full = _pair_ids(
            np_a.view(np.uint64), np_b.view(np.uint64)
        )
    if full_tags:
        key_a, key_b, inv_np, u = full_a, full_b, inv_full, u_full
    else:
        mantissa = np.uint64(_MANT_MASK)
        key_a, key_b, _, pair_of_full, u = _pair_ids(
            full_a & mantissa, full_b & mantissa
        )
        inv_np = pair_of_full[inv_full]
    rep_a = np_a[first_np].tolist()
    rep_b = np_b[first_np].tolist()
    tags_a = key_a.tolist()
    tags_b = key_b.tolist()
    mask = config.n_sets - 1
    if fault == "wrong_set_index_mask":
        mask >>= 1
    set_lut = _set_indices(config, key_a, key_b, mask=mask).tolist()

    pair_uid = {}
    for k in range(u):
        pair_uid[(tags_a[k], tags_b[k])] = k

    # Give every resident tag a pair id.  Tags not in this batch still
    # get one (past ``u``) so exact and commutative probes can hit them;
    # their slots keep their tag, operands and value unless evicted.
    tags_flat, values_flat, operands_flat = (
        table._tags, table._values, table._operands
    )
    used_flat, ins_flat, fill = table._last_used, table._inserted, table._fill
    assoc = config.associativity
    uid_flat = [-1] * len(tags_flat)
    full_flat: Dict[int, int] = {}
    where: dict = {}
    next_uid = u
    for s, fs in enumerate(fill):
        if not fs:
            continue
        base = s * assoc
        for pos in range(base, base + fs):
            tag = tags_flat[pos]
            uid = pair_uid.get(tag)
            if uid is None:
                uid = next_uid
                next_uid += 1
                pair_uid[tag] = uid
            uid_flat[pos] = uid
            where[uid] = pos

    # Commutative twin lookup must come after the pair-id pass: a
    # swapped-order tag may only exist as a pre-existing entry.  The
    # set-index formula is symmetric, so a twin always lives in the
    # probing id's own set and ``where`` stays globally consistent.
    if config.commutative:
        swap_lut = [
            pair_uid.get((tags_b[k], tags_a[k]), -1) for k in range(u)
        ]
    else:
        swap_lut = [-1] * u

    compute_op = compute_function(unit.operation)
    value_lut: List[object] = [_UNSET] * u_full
    policy = table._policy
    inline_lru = type(policy) is LRUPolicy
    victim_of = policy.victim
    off_by_one = fault == "lru_victim_off_by_one"
    stale_tag = fault == "stale_tag_on_abort"

    # The probe loop walks the pair ids of the probing positions
    # directly (order within the opcode is preserved, and every per-id
    # fact is precomputed); the miss path also reads the step's full id.
    kept_np = None
    if n_trivial and unit.trivial_policy is not TrivialPolicy.CACHE_ALL:
        kept_np = np.flatnonzero(~trivial_arr)
    kept = (inv_np if kept_np is None else inv_np[kept_np]).tolist()
    if full_tags:
        kept_full = kept
    else:
        kept_full = (
            inv_full if kept_np is None else inv_full[kept_np]
        ).tolist()

    record = outcomes is not None
    missed: List[int] = []
    clock = table._clock
    lookups = hits = commutative_hits = insertions = evictions = 0
    where_get = where.get
    for k in kept:
        clock += 1
        lookups += 1
        pos = where_get(k)
        if pos is None:
            sk = swap_lut[k]
            if sk >= 0:
                pos = where_get(sk)
                if pos is not None:
                    commutative_hits += 1
        if pos is not None:
            used_flat[pos] = clock
            hits += 1
            continue
        step = lookups - 1
        if record:
            missed.append(step)
        if stale_tag and step:
            # Planted fault: the insert latches the previous probe's id.
            # When that id is resident, the insert updates its way in
            # place, as MemoTable.insert does for a present tag.
            step -= 1
            k = kept[step]
            pos = where_get(k)
            if pos is not None:
                clock += 1
                used_flat[pos] = clock
                continue
        f = kept_full[step]
        if value_lut[f] is _UNSET:
            value_lut[f] = compute_op(rep_a[f], rep_b[f])
        clock += 1
        insertions += 1
        s = set_lut[k]
        base = s * assoc
        fs = fill[s]
        if fs < assoc:
            pos = base + fs
            fill[s] = fs + 1
        else:
            end = base + assoc
            if inline_lru:
                pos = used_flat.index(min(used_flat[base:end]), base, end)
                if off_by_one:
                    pos = base + (pos - base + 1) % assoc
            else:
                pos = base + victim_of(
                    used_flat[base:end], ins_flat[base:end]
                )
            del where[uid_flat[pos]]
            evictions += 1
        uid_flat[pos] = k
        used_flat[pos] = clock
        ins_flat[pos] = clock
        full_flat[pos] = f
        where[k] = pos
    table._clock = clock
    if record:
        _fill_outcomes(
            outcomes, unit.trivial_policy, trivial_arr,
            missed if kept_np is None else kept_np[missed],
        )

    # A slot this run inserted into holds a batch id, so its tag comes
    # from the pair id and its operands and value from the inserting
    # event's full id.
    for pos, f in full_flat.items():
        k = uid_flat[pos]
        tags_flat[pos] = (tags_a[k], tags_b[k])
        values_flat[pos] = value_lut[f]
        operands_flat[pos] = (rep_a[f], rep_b[f])

    return n, n_trivial, lookups, hits, commutative_hits, insertions, evictions


def _probe_infinite(unit, table, np_a, np_b, outcomes=None):
    """The tag dict loop (InfiniteMemoTable; every trivial policy and
    tag mode): every distinct tag stays resident, so a probe is one
    dict lookup and a miss one dict store.

    Tags are what the table's own key function builds: full values for
    integer tables, and for float tables the operands' bit patterns, or
    their 52-bit mantissas under MANTISSA tags.  Trivial operations
    follow :func:`_probe_fused`'s rules: they skip the loop under
    EXCLUDE and INTEGRATED (the caller's accounting makes them
    early-outs or one-cycle hits) and probe like any other operation
    under CACHE_ALL.  Returns the seven counts :func:`_charge` takes."""
    config = table.config
    policy = unit.trivial_policy
    trivial_arr = _trivial_mask(unit.operation, np_a, np_b)
    n_trivial = int(trivial_arr.sum())
    a_list, b_list = np_a.tolist(), np_b.tolist()
    if config.operand_kind is OperandKind.INT:
        tags_a, tags_b = a_list, b_list
    else:
        bits_a, bits_b = np_a.view(np.uint64), np_b.view(np.uint64)
        if config.tag_mode is TagMode.MANTISSA:
            mantissa = np.uint64(_MANT_MASK)
            bits_a, bits_b = bits_a & mantissa, bits_b & mantissa
        tags_a, tags_b = bits_a.tolist(), bits_b.tolist()
    tag_pairs = list(zip(tags_a, tags_b))
    commutative = config.commutative
    compute_op = compute_function(unit.operation)
    n = len(a_list)
    # The probe loop walks just the probing positions (order within the
    # opcode is preserved).
    kept_np = None
    if n_trivial and policy is not TrivialPolicy.CACHE_ALL:
        kept_np = np.flatnonzero(~trivial_arr)
    record = outcomes is not None
    missed: List[int] = []
    lookups = hits = commutative_hits = insertions = 0
    entries = table._entries
    get = entries.get
    for i in range(n) if kept_np is None else kept_np.tolist():
        lookups += 1
        tag = tag_pairs[i]
        found = get(tag)
        if found is None and commutative:
            found = get((tag[1], tag[0]))
            if found is not None:
                commutative_hits += 1
        if found is not None:
            hits += 1
            continue
        if record:
            missed.append(i)
        a, b = a_list[i], b_list[i]
        value = compute_op(a, b)
        insertions += 1
        entries[tag] = (value, (a, b))
    if record:
        _fill_outcomes(outcomes, policy, trivial_arr, missed)
    return n, n_trivial, lookups, hits, commutative_hits, insertions, 0


# -- whole-trace execution --------------------------------------------------


def run_events_scalar(
    batch: ColumnBatch,
    units: Optional[Dict[Operation, object]],
    *,
    machine=None,
    hierarchy=None,
    fp_add_latency: int = 3,
    validate: bool = False,
    start: int = 0,
    stop: Optional[int] = None,
    outcomes=None,
) -> KernelReport:
    """The scalar reference loop (one ``unit.execute`` per event).

    This is the consolidation of the per-record loops the simulator
    front-ends used to carry; it stays as the ground truth the fused
    path is tested against.  It walks the batch's event view over
    ``[start:stop]``.  ``outcomes``, when given, receives each probed
    event's outcome code at its position in the slice, as
    :func:`_run_batch`'s does.  With ``validate``, every delivered value
    is compared with the event's traced result (:func:`values_match`)
    and the report counts the ``mismatches``."""
    events = batch.to_events()[start:stop]
    counts: Dict[Opcode, int] = {}
    cycles_by_opcode: Dict[Opcode, int] = {}
    instructions = 0
    mismatches = 0
    base_total = memo_total = 0
    cycle_mode = machine is not None
    for event in events:
        instructions += 1
        opcode = event.opcode
        counts[opcode] = counts.get(opcode, 0) + 1
        operation = opcode.operation  # cached on the enum member
        if operation is not None:
            unit = units.get(operation) if units else None
            if unit is not None:
                outcome = unit.execute(event.a, event.b)
                if outcomes is not None:
                    outcomes[instructions - 1] = _outcome_code(outcome)
                if validate and not values_match(outcome.value, event.result):
                    mismatches += 1
                if not cycle_mode:
                    continue
                base = outcome.base_cycles
                memo = outcome.cycles
            elif cycle_mode:
                base = memo = machine.latency(operation)
            else:
                continue
        elif cycle_mode:
            if opcode.is_memory:
                address = event.address if event.address is not None else 0
                base = memo = (
                    hierarchy.access(address) if hierarchy is not None else 1
                )
            elif opcode is Opcode.FADD:
                base = memo = fp_add_latency
            else:
                base = memo = 1  # IALU, BRANCH, NOP
        else:
            continue
        base_total += base
        memo_total += memo
        cycles_by_opcode[opcode] = cycles_by_opcode.get(opcode, 0) + base
    return KernelReport(
        instructions=instructions,
        counts=counts,
        mismatches=mismatches,
        base_cycles=base_total,
        memo_cycles=memo_total,
        cycles_by_opcode=cycles_by_opcode,
    )


def _partition_arrays(batch, views, idx, int_kind):
    """The operands of the events at ``idx`` as int64 (``int_kind``) or
    float64 arrays, or ``(None, None)`` when some operand is not of
    that kind or does not fit its dtype.

    The flags column classifies the partition.  A wide partition is
    decoded from its raw operands: an event wide only in its result
    still has operands that fit, and the exact type checks keep bools
    from aliasing ints and int-typed floats from being truncated."""
    flags = views.flags[idx]
    if batch.wide and bool(np.bitwise_and(flags, _F_WIDE).any()):
        a_values, b_values, _ = _decode_partition(batch, views, idx, False)
        want = int if int_kind else float
        if not (
            all(type(v) is want for v in a_values)
            and all(type(v) is want for v in b_values)
        ):
            return None, None
        dtype = np.int64 if int_kind else np.float64
        try:
            return (
                np.asarray(a_values, dtype=dtype),
                np.asarray(b_values, dtype=dtype),
            )
        except (OverflowError, ValueError):
            return None, None
    int_flags = np.bitwise_and(flags, _F_INT)
    if int_kind and int_flags.all():
        return views.a_i[idx], views.b_i[idx]
    if not int_kind and not int_flags.any():
        return views.a_f[idx], views.b_f[idx]
    return None, None


def _decode_partition(batch, views, idx, want_results):
    """Operand value lists (and, with ``want_results``, the traced
    results) of the events at ``idx``, each value of its own event's
    type: what the ``unit.execute`` tier probes with."""
    flags = views.flags[idx]
    if batch.wide and bool(np.bitwise_and(flags, _F_WIDE).any()):
        triples = [batch.operand_triple(i) for i in idx.tolist()]
        a_values = [t[0] for t in triples]
        b_values = [t[1] for t in triples]
        results = [t[2] for t in triples] if want_results else None
        return a_values, b_values, results
    int_flags = np.bitwise_and(flags, _F_INT)
    if not int_flags.any():
        np_a, np_b, np_r = views.a_f, views.b_f, views.r_f
    elif int_flags.all():
        np_a, np_b, np_r = views.a_i, views.b_i, views.r_i
    else:
        is_int = int_flags.tolist()
        a_f, b_f = views.a_f[idx].tolist(), views.b_f[idx].tolist()
        a_i, b_i = views.a_i[idx].tolist(), views.b_i[idx].tolist()
        a_values = [a_i[k] if is_int[k] else a_f[k] for k in range(len(is_int))]
        b_values = [b_i[k] if is_int[k] else b_f[k] for k in range(len(is_int))]
        results = None
        if want_results:
            r_f, r_i = views.r_f[idx].tolist(), views.r_i[idx].tolist()
            results = [
                r_i[k] if is_int[k] else r_f[k] for k in range(len(is_int))
            ]
        return a_values, b_values, results
    results = np_r[idx].tolist() if want_results else None
    return np_a[idx].tolist(), np_b[idx].tolist(), results


def _run_batch(
    batch: ColumnBatch,
    units,
    machine,
    hierarchy,
    fp_add_latency: int,
    start: int,
    stop: int,
    outcomes=None,
) -> KernelReport:
    """Opcode-partitioned execution of ``batch[start:stop]``: each
    memoizable opcode's events go to :func:`_probe_partition` as one
    partition, with the batch's probe memo; memory, FADD and
    IALU-class cycles are charged in bulk.  ``outcomes`` (length
    ``stop - start``) receives each probed event's outcome code at its
    trace position."""
    views = batch.views()
    opcode_codes = views.opcode[start:stop]
    count_list = np.bincount(opcode_codes, minlength=len(OPCODE_LIST)).tolist()
    counts = {
        OPCODE_LIST[code]: count
        for code, count in enumerate(count_list)
        if count
    }
    cycle_mode = machine is not None
    base_total = memo_total = 0
    cycles_by_opcode: Dict[Opcode, int] = {}

    for opcode, count in counts.items():
        operation = opcode.operation
        if operation is None:
            continue
        unit = units.get(operation) if units else None
        if unit is None:
            if cycle_mode:
                lat = machine.latency(operation) * count
                cycles_by_opcode[opcode] = lat
                base_total += lat
                memo_total += lat
            continue
        relative = np.nonzero(opcode_codes == OPCODE_INDEX[opcode])[0]
        idx = relative + start if start else relative
        part = None if outcomes is None else np.empty(len(idx), np.uint8)
        base, memo = _probe_partition(
            unit, batch, views, idx, part, (opcode, start, stop)
        )
        if part is not None:
            outcomes[relative] = part
        if cycle_mode:
            base_total += base
            memo_total += memo
            cycles_by_opcode[opcode] = base

    if cycle_mode:
        for opcode in (Opcode.IALU, Opcode.BRANCH, Opcode.NOP):
            count = counts.get(opcode, 0)
            if count:
                cycles_by_opcode[opcode] = count
                base_total += count
                memo_total += count
        count = counts.get(Opcode.FADD, 0)
        if count:
            fadd_cycles = count * fp_add_latency
            cycles_by_opcode[Opcode.FADD] = fadd_cycles
            base_total += fadd_cycles
            memo_total += fadd_cycles
        load_count = counts.get(Opcode.LOAD, 0)
        store_count = counts.get(Opcode.STORE, 0)
        if load_count or store_count:
            load_code = OPCODE_INDEX[Opcode.LOAD]
            store_code = OPCODE_INDEX[Opcode.STORE]
            relative = np.nonzero(
                (opcode_codes == load_code) | (opcode_codes == store_code)
            )[0]
            idx = relative + start if start else relative
            if hierarchy is not None:
                # The hierarchy is stateful across BOTH memory opcodes,
                # so these events walk in original interleaved order.
                access = hierarchy.access
                load_cycles = store_cycles = 0
                for code, address in zip(
                    views.opcode[idx].tolist(), views.address[idx].tolist()
                ):
                    if code == load_code:
                        load_cycles += access(address)
                    else:
                        store_cycles += access(address)
            else:
                load_cycles, store_cycles = load_count, store_count
            if load_count:
                cycles_by_opcode[Opcode.LOAD] = load_cycles
            if store_count:
                cycles_by_opcode[Opcode.STORE] = store_cycles
            base_total += load_cycles + store_cycles
            memo_total += load_cycles + store_cycles

    return KernelReport(
        instructions=int(stop - start),
        counts=counts,
        base_cycles=base_total,
        memo_cycles=memo_total,
        cycles_by_opcode=cycles_by_opcode,
    )
