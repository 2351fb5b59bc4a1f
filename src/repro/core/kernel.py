"""The memo-probe kernel: one inner loop for every simulator.

Every paper experiment boils down to "replay an operand stream through a
MEMO-TABLE and count" (sections 2-4).  Historically that probe sequence
was re-implemented as a per-record Python loop in each front-end
(``simulator/shade.py``, ``simulator/cpu.py``, ``simulator/pipeline.py``
and the corpus replay path); this module is the single shared
implementation, in two forms:

* :func:`probe_batch` -- the **fused** path.  A columnar
  :class:`~repro.isa.columns.ColumnBatch` is partitioned by opcode with
  numpy; per partition, ``np.unique`` maps every event to a dense
  **pair id** (one integer per distinct operand pair, the pLUTo "table
  as precomputed lookup structure" move), so set index, commutative
  twin and computed value are resolved once per id and the probe loop
  runs over small integer lists -- replicating
  :class:`~repro.core.memo_table.MemoTable` semantics (clock, recency,
  replacement, every counter) exactly.
* :func:`run_events_scalar` -- the **scalar reference** path: the
  classic event-at-a-time loop over ``unit.execute``.  CI asserts the
  two produce bit-identical :class:`~repro.core.stats.MemoStats` on
  every bundled program.

Which form runs is decided by the execution-backend registry
(:mod:`repro.core.backend`, as ``fused`` and ``scalar``); ``repro
<experiment> --backend NAME`` or the ``REPRO_BACKEND`` environment
variable picks one at runtime.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..isa.columns import ColumnBatch
from ..isa.opcodes import OPCODE_INDEX, OPCODE_LIST, Opcode
from .config import OperandKind, TagMode, TrivialPolicy
from .memo_table import InfiniteMemoTable, MemoTable, _Entry
from .operations import Operation, compute_function
from .replacement import LRUPolicy

__all__ = [
    "KERNEL_FAULTS",
    "KernelReport",
    "run_events_scalar",
    "probe_batch",
    "probe_one",
    "replay_infinite",
    "as_batch",
    "values_match",
]

# Flag bits mirrored from repro.isa.columns (kept numeric to avoid
# importing private names in the hot path).
_F_INT = 1
_F_ADDRESS = 2
_F_PC = 4
_F_DST = 8
_F_WIDE = 16

_MANT_MASK = (1 << 52) - 1


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


def as_batch(events) -> Optional[ColumnBatch]:
    """The columnar view of ``events`` if one is available.

    :class:`~repro.isa.trace.Trace` converts (and caches) on demand;
    a :class:`ColumnBatch` is returned as-is; plain event sequences
    return None (callers fall back to the scalar path)."""
    if isinstance(events, ColumnBatch):
        return events
    columns = getattr(events, "columns", None)
    if callable(columns):
        return columns()
    return None


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

    Exists so models that need per-event outcomes (the hazard-aware
    pipeline resolves stalls event by event) still route their probes
    through the kernel module."""
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

    The single source of truth for the set-mapping formula: the probe
    loop and any analysis layer that models table placement both call
    this, so they can never drift apart.  INT operands xor their
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


def probe_batch(
    unit,
    a_values: Sequence,
    b_values: Sequence,
    results: Optional[Sequence] = None,
    validate: bool = False,
    _np_a=None,
    _np_b=None,
) -> Tuple[int, int, int]:
    """Present a same-operation operand batch to one memoized unit.

    Returns ``(base_cycles, memo_cycles, mismatches)``.  All unit and
    table statistics land exactly where ``unit.execute`` would put them.
    This is the one place that picks a partition's loop:

    * finite :class:`~repro.core.memo_table.MemoTable` under any
      replacement policy -- the pair-id loop (:func:`_probe_fused`);
    * :class:`~repro.core.memo_table.InfiniteMemoTable` -- the tag dict
      loop (:func:`_probe_infinite`);
    * anything else -- validation runs, mantissa tags,
      CACHE_ALL/INTEGRATED policies, custom tables, mixed int/float
      partitions -- loops ``unit.execute`` and is therefore correct by
      construction.

    With metrics enabled (:func:`repro.obs.enabled`), each partition is
    additionally timed as a ``kernel.partition.<OP>`` span and its
    probe/insert/evict counter deltas stream into the registry --
    one snapshot per *batch*, never per event, and nothing at all when
    the switch is off.
    """
    if not obs.enabled():
        return _probe_batch(
            unit, a_values, b_values, results, validate, _np_a, _np_b
        )
    stats = unit.stats
    before = stats.counters()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    out = _probe_batch(
        unit, a_values, b_values, results, validate, _np_a, _np_b
    )
    reg = obs.registry()
    name = unit.operation.name
    reg.record_span(
        f"kernel.partition.{name}",
        time.perf_counter() - wall0,
        time.process_time() - cpu0,
    )
    reg.add_counters(
        f"kernel.{name}",
        {key: value - before.get(key, 0)
         for key, value in stats.counters().items()},
    )
    return out


def _probe_batch(
    unit,
    a_values: Sequence,
    b_values: Sequence,
    results: Optional[Sequence] = None,
    validate: bool = False,
    _np_a=None,
    _np_b=None,
) -> Tuple[int, int, int]:
    """The uninstrumented :func:`probe_batch` body (tier dispatch)."""
    n = len(a_values)
    if not n:
        return 0, 0, 0
    table = unit.table
    table_type = type(table)
    if (
        not validate
        and unit.trivial_policy is TrivialPolicy.EXCLUDE
        and (table_type is MemoTable or table_type is InfiniteMemoTable)
        and table.config.tag_mode is TagMode.FULL
    ):
        int_kind = table.config.operand_kind is OperandKind.INT
        if _np_a is None:
            _np_a, _np_b = _coerce_operands(a_values, b_values, int_kind)
        if _np_a is not None and int_kind == (_np_a.dtype.kind == "i"):
            if table_type is MemoTable:
                return _probe_fused(
                    unit, table, a_values, b_values, _np_a, _np_b
                )
            return _probe_infinite(
                unit, table, a_values, b_values, _np_a, _np_b
            )
    execute = unit.execute
    base = memo = mismatches = 0
    if validate and results is not None:
        for a, b, traced in zip(a_values, b_values, results):
            outcome = execute(a, b)
            base += outcome.base_cycles
            memo += outcome.cycles
            if not values_match(outcome.value, traced):
                mismatches += 1
    else:
        for a, b in zip(a_values, b_values):
            outcome = execute(a, b)
            base += outcome.base_cycles
            memo += outcome.cycles
    return base, memo, mismatches


def _coerce_operands(a_values, b_values, int_kind):
    """numpy operand arrays when the batch is type-homogeneous and in
    range, else ``(None, None)`` (the generic tier handles the rest).
    Exact type checks: bools must not alias ints, and int-typed floats
    must not be silently truncated."""
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


def _charge(unit, table, n, n_trivial, lookups, hits, commutative_hits,
            insertions, evictions) -> Tuple[int, int, int]:
    """Bulk cycle accounting and counter updates for one partition.

    Hits cost ``latency`` on the base machine and ``hit_latency`` on
    the memoized one; misses cost ``latency`` on both; trivial
    operations cost the short early-out path on both (EXCLUDE
    short-circuits the table entirely)."""
    latency = unit.latency
    trivial_total = n_trivial * min(unit.trivial_latency, latency)
    base = trivial_total + lookups * latency
    memo = (
        trivial_total + hits * unit.hit_latency + (lookups - hits) * latency
    )
    table_stats = table.stats
    table_stats.lookups += lookups
    table_stats.hits += hits
    table_stats.commutative_hits += commutative_hits
    table_stats.insertions += insertions
    table_stats.evictions += evictions
    unit_stats = unit.stats
    unit_stats.operations += n
    unit_stats.trivial += n_trivial
    unit_stats.cycles_base += base
    unit_stats.cycles_memo += memo
    return base, memo, 0


def _pair_ids(np_a, np_b, int_kind: bool):
    """Dense ids over distinct operand-bit pairs.

    Returns ``(key_a, key_b, first, inv, u)``: per-id tag-half arrays
    (bit patterns, identical to the scalar table's FULL tags), the
    first event index carrying each id, the per-event id array, and
    the id count.  Each operand column is deduplicated separately and
    the pair id is built from the two (small) column ids -- three
    primitive-int sorts, markedly faster than one lexicographic sort
    of packed 128-bit keys."""
    if int_kind:
        keys_a, keys_b = np_a, np_b
    else:
        keys_a = np_a.view(np.uint64)
        keys_b = np_b.view(np.uint64)
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


def _probe_fused(unit, table, a_values, b_values, np_a, np_b):
    """The pair-id loop (EXCLUDE policy, FULL tags, finite MemoTable).

    1. ``np.unique`` over the partition's operand bit patterns maps
       every event to a dense pair id; set index, commutative twin and
       representative operands are precomputed per id, and the
       computed value is cached per id on first miss.
    2. The table's ways are mirrored into flat parallel integer lists
       (slot = set * associativity + way: pair id, last-used clock,
       inserted clock) plus one id -> slot dict, so a probe is a
       single hash lookup and a hit a single list store -- no entry
       allocation while the loop runs.  LRU victim selection is
       inlined; FIFO and RANDOM call ``policy.victim`` on the slot
       lists of the full set.
    3. One materialization pass writes the surviving ways back as real
       :class:`~repro.core.memo_table._Entry` objects and advances the
       table clock.

    Bit-exactness: FULL tags are the exact operand bit patterns, so
    events sharing a pair id are indistinguishable to the table and to
    the (deterministic) compute function; replaying clock, recency and
    victim semantics per event over pair ids therefore reproduces the
    scalar table state and statistics exactly -- tags, values,
    operands, recency, insertion clocks and way order.  A miss always
    inserts a fresh entry: the exact tag was just probed absent, and
    reversed commutative hits never reach insert.
    """
    config = table.config
    fault = _active_fault
    trivial_arr = _trivial_mask(unit.operation, np_a, np_b)
    if fault == "dropped_trivial_mask":
        trivial_arr = np.zeros(len(np_a), dtype=bool)
    n_trivial = int(trivial_arr.sum())
    int_kind = config.operand_kind is OperandKind.INT

    key_a, key_b, first_np, inv_np, u = _pair_ids(np_a, np_b, int_kind)
    first = first_np.tolist()
    tags_a = key_a.tolist()
    tags_b = key_b.tolist()
    mask = config.n_sets - 1
    if fault == "wrong_set_index_mask":
        mask >>= 1
    set_lut = _set_indices(config, key_a, key_b, mask=mask).tolist()

    pair_uid = {}
    for k in range(u):
        pair_uid[(tags_a[k], tags_b[k])] = k

    # Mirror the live table into the flat slot lists.  Entries whose
    # tag is not in this batch still get an id (past ``u``) so exact
    # and commutative probes can hit them; their _Entry objects ride
    # along untouched unless evicted.
    sets_ = table._sets
    n_sets = config.n_sets
    assoc = config.associativity
    size = n_sets * assoc
    uid_flat = [-1] * size
    used_flat = [0] * size
    ins_flat = [0] * size
    ent_flat: List[Optional[_Entry]] = [None] * size
    fill = [0] * n_sets
    where: dict = {}
    next_uid = u
    for s in range(n_sets):
        ways = sets_[s]
        if not ways:
            continue
        fill[s] = len(ways)
        base = s * assoc
        for w, entry in enumerate(ways):
            uid = pair_uid.get(entry.tag)
            if uid is None:
                uid = next_uid
                next_uid += 1
                pair_uid[entry.tag] = uid
            pos = base + w
            uid_flat[pos] = uid
            used_flat[pos] = entry.last_used
            ins_flat[pos] = entry.inserted
            ent_flat[pos] = entry
            where[uid] = pos

    # Commutative twin lookup must come after the mirror pass: a
    # swapped-order tag may only exist as a pre-existing entry.  The
    # set-index formula is symmetric, so a twin always lives in the
    # probing id's own set and ``where`` stays globally consistent.
    if config.commutative:
        swap_lut = [
            pair_uid.get((tags_b[k], tags_a[k]), -1) for k in range(u)
        ]
    else:
        swap_lut = [-1] * u

    a_list = a_values if isinstance(a_values, list) else list(a_values)
    b_list = b_values if isinstance(b_values, list) else list(b_values)
    compute_op = compute_function(unit.operation)
    value_lut: List[object] = [_UNSET] * u
    policy = table._policy
    inline_lru = type(policy) is LRUPolicy
    victim_of = policy.victim
    off_by_one = fault == "lru_victim_off_by_one"
    stale_tag = fault == "stale_tag_on_abort"

    # Trivial events only count cycles; the probe loop walks the pair
    # ids of the non-trivial positions directly (order within the
    # opcode is preserved, and every per-id fact is precomputed).
    if n_trivial:
        kept = inv_np[~trivial_arr].tolist()
    else:
        kept = inv_np.tolist()

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
        if stale_tag and lookups > 1:
            # Planted fault: the insert latches the previous probe's id.
            # When that id is resident, the insert updates its way in
            # place, as MemoTable.insert does for a present tag.
            k = kept[lookups - 2]
            pos = where_get(k)
            if pos is not None:
                clock += 1
                used_flat[pos] = clock
                continue
        value = value_lut[k]
        if value is _UNSET:
            j = first[k]
            value = compute_op(a_list[j], b_list[j])
            value_lut[k] = value
        clock += 1
        insertions += 1
        s = set_lut[k]
        base = s * assoc
        f = fill[s]
        if f < assoc:
            pos = base + f
            fill[s] = f + 1
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
        ent_flat[pos] = None
        where[k] = pos
    table._clock = clock

    # Materialize: fresh inserts (slot entry is None) become real
    # entries -- always a batch id, so tag/operands/value come from the
    # id caches -- and surviving entries get their recency written
    # back.  Slot order is insertion order, matching the scalar table's
    # way order exactly.
    if lookups:
        for s in range(n_sets):
            f = fill[s]
            if not f:
                continue
            base = s * assoc
            new_ways: List[_Entry] = []
            for pos in range(base, base + f):
                entry = ent_flat[pos]
                if entry is None:
                    k = uid_flat[pos]
                    j = first[k]
                    entry = _Entry(
                        (tags_a[k], tags_b[k]),
                        value_lut[k],
                        (a_list[j], b_list[j]),
                        used_flat[pos],
                    )
                    entry.inserted = ins_flat[pos]
                else:
                    entry.last_used = used_flat[pos]
                new_ways.append(entry)
            sets_[s] = new_ways

    return _charge(
        unit, table, len(a_list), n_trivial, lookups, hits,
        commutative_hits, insertions, evictions,
    )


def _probe_infinite(unit, table, a_values, b_values, np_a, np_b):
    """The tag dict loop (EXCLUDE policy, FULL tags, InfiniteMemoTable):
    every distinct pair stays resident, so a probe is one dict lookup
    and a miss one dict store."""
    trivial_arr = _trivial_mask(unit.operation, np_a, np_b)
    n_trivial = int(trivial_arr.sum())
    if table.config.operand_kind is OperandKind.INT:
        tags_a, tags_b = np_a.tolist(), np_b.tolist()
    else:
        tags_a = np_a.view(np.uint64).tolist()
        tags_b = np_b.view(np.uint64).tolist()
    tag_pairs = list(zip(tags_a, tags_b))
    a_list = a_values if isinstance(a_values, list) else list(a_values)
    b_list = b_values if isinstance(b_values, list) else list(b_values)
    commutative = table.config.commutative
    compute_op = compute_function(unit.operation)
    n = len(a_list)
    # Trivial events only count cycles, so the probe loop walks just the
    # non-trivial positions (order within the opcode is preserved).
    if n_trivial:
        iter_idx = np.nonzero(~trivial_arr)[0].tolist()
    else:
        iter_idx = range(n)
    lookups = hits = commutative_hits = insertions = 0
    entries = table._entries
    get = entries.get
    for i in iter_idx:
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
        a, b = a_list[i], b_list[i]
        value = compute_op(a, b)
        insertions += 1
        entries[tag] = (value, (a, b))
    return _charge(
        unit, table, n, n_trivial, lookups, hits, commutative_hits,
        insertions, 0,
    )


# -- whole-trace execution --------------------------------------------------


def run_events_scalar(
    events: Iterable,
    units: Optional[Dict[Operation, object]],
    *,
    machine=None,
    hierarchy=None,
    fp_add_latency: int = 3,
    validate: bool = False,
) -> KernelReport:
    """The scalar reference loop (one ``unit.execute`` per event).

    This is the consolidation of the per-record loops the simulator
    front-ends used to carry; it stays as the ground truth the fused
    path is tested against, and as the fallback for plain event
    iterables."""
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


def _decode_partition(batch, views, idx, want_results):
    """Operand value lists (and numpy arrays when type-homogeneous)
    for the events at ``idx``."""
    flags = views.flags[idx]
    if batch.wide and bool(np.bitwise_and(flags, _F_WIDE).any()):
        triples = [batch.operand_triple(i) for i in idx.tolist()]
        a_values = [t[0] for t in triples]
        b_values = [t[1] for t in triples]
        results = [t[2] for t in triples] if want_results else None
        return a_values, b_values, results, None, None
    int_flags = np.bitwise_and(flags, _F_INT)
    if not int_flags.any():
        np_a, np_b = views.a_f[idx], views.b_f[idx]
        results = views.r_f[idx].tolist() if want_results else None
    elif int_flags.all():
        np_a, np_b = views.a_i[idx], views.b_i[idx]
        results = views.r_i[idx].tolist() if want_results else None
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
        return a_values, b_values, results, None, None
    return np_a.tolist(), np_b.tolist(), results, np_a, np_b


def _run_batch(
    batch: ColumnBatch,
    units,
    machine,
    hierarchy,
    fp_add_latency: int,
    validate: bool,
    start: int,
    stop: int,
) -> KernelReport:
    """Opcode-partitioned execution of ``batch[start:stop]``: each
    memoizable opcode's events go to :func:`probe_batch` as one
    partition; memory, FADD and IALU-class cycles are charged in
    bulk."""
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
    mismatches = 0
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
        a_values, b_values, results, np_a, np_b = _decode_partition(
            batch, views, idx, validate
        )
        base, memo, bad = probe_batch(
            unit, a_values, b_values,
            results=results, validate=validate, _np_a=np_a, _np_b=np_b,
        )
        mismatches += bad
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
        mismatches=mismatches,
        base_cycles=base_total,
        memo_cycles=memo_total,
        cycles_by_opcode=cycles_by_opcode,
    )


# -- infinite-table replay (reuse upper bound) ------------------------------


def replay_infinite(events) -> Tuple[Dict[int, int], int, int]:
    """Replay memoizable events through per-class infinite MEMO-TABLES.

    Returns ``(per-pc execution counts, hits, total memoizable ops)`` --
    the reuse upper bound the static analyzer cross-validates against
    (``repro analyze --check``).  Column-backed traces take a columnar
    path; anything else replays through real
    :class:`~repro.core.memo_table.InfiniteMemoTable` objects.
    """
    batch = as_batch(events)
    if batch is None:
        return _replay_infinite_scalar(events)
    views = batch.views()
    counts: Dict[int, int] = {}
    hits = 0
    total = 0
    count_list = np.bincount(views.opcode, minlength=len(OPCODE_LIST)).tolist()
    from ..arch.ieee754 import float64_to_bits

    for code, count in enumerate(count_list):
        if not count:
            continue
        opcode = OPCODE_LIST[code]
        operation = opcode.operation
        if operation is None:
            continue
        total += count
        idx = np.nonzero(views.opcode == code)[0]
        flags = views.flags[idx]
        pc_mask = np.bitwise_and(flags, _F_PC) != 0
        if pc_mask.any():
            pcs, pc_counts = np.unique(
                views.pc[idx][pc_mask], return_counts=True
            )
            for pc, pc_count in zip(pcs.tolist(), pc_counts.tolist()):
                counts[pc] = counts.get(pc, 0) + pc_count
        a_values, b_values, _, np_a, np_b = _decode_partition(
            batch, views, idx, False
        )
        int_kind = operation.operand_kind is OperandKind.INT
        if np_a is not None and int_kind == (np_a.dtype.kind == "i"):
            if int_kind:
                tags_a, tags_b = a_values, b_values
            else:
                tags_a = np_a.view(np.uint64).tolist()
                tags_b = np_b.view(np.uint64).tolist()
        elif int_kind:
            tags_a = [int(a) for a in a_values]
            tags_b = [int(b) for b in b_values]
        else:
            tags_a = [float64_to_bits(float(a)) for a in a_values]
            tags_b = [float64_to_bits(float(b)) for b in b_values]
        seen = set()
        add = seen.add
        if operation.commutative:
            for ta, tb in zip(tags_a, tags_b):
                if (ta, tb) in seen or (tb, ta) in seen:
                    hits += 1
                else:
                    add((ta, tb))
        else:
            for ta, tb in zip(tags_a, tags_b):
                if (ta, tb) in seen:
                    hits += 1
                else:
                    add((ta, tb))
    return counts, hits, total


def _replay_infinite_scalar(events) -> Tuple[Dict[int, int], int, int]:
    """Reference implementation of :func:`replay_infinite`."""
    tables: Dict[Operation, InfiniteMemoTable] = {}
    counts: Dict[int, int] = {}
    hits = 0
    total = 0
    for event in events:
        operation = event.opcode.operation
        if operation is None:
            continue
        table = tables.get(operation)
        if table is None:
            table = InfiniteMemoTable(
                operand_kind=operation.operand_kind,
                tag_mode=TagMode.FULL,
                commutative=operation.commutative,
            )
            tables[operation] = table
        found = table.lookup(event.a, event.b)
        if found.hit:
            hits += 1
        else:
            table.insert(event.a, event.b, event.result)
        if event.pc is not None:
            counts[event.pc] = counts.get(event.pc, 0) + 1
        total += 1
    return counts, hits, total
