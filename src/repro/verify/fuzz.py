"""Seeded, coverage-guided trace/config fuzzer.

Generates and mutates :class:`~repro.verify.differential.FuzzCase`
objects biased toward the places memo-table implementations break:

* IEEE-754 edge values -- denormals, both signed zeros, NaN payloads
  and infinities whose mantissa fields collide with ordinary values
  (the mantissa-tag variant must disambiguate via the fix-up path);
* set-index aliasing -- operand reuse and single-bit flips concentrate
  distinct pairs in the same set, forcing replacement decisions;
* INT64 corners -- ``INT_MIN`` division (the quotient that overflows),
  ``INT_MAX``, values differing only in masked-out bits;
* table geometry -- tiny tables (4/8 entries) that evict constantly,
  every replacement policy and trivial policy, mantissa tags, and the
  infinite reference table;
* hot-loop traces -- small op bodies replayed under recurring pcs
  (loop-invariant or per-iteration-redrawn operands), so operand pairs
  repeat the way real loops repeat them -- exactly what the fused
  kernel deduplicates into shared pair ids.

Coverage guidance is behavioural: each executed case reports a feature
signature (per-operation hit/eviction/commutative/trivial activity under
its config shape, from the *oracle's* counters); cases that light up new
features join a mutation corpus that later cases are bred from.

Everything is driven by one ``random.Random(seed)``: same seed, same
case stream, no wall clock anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..arch.ieee754 import bits_to_float64
from ..core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from ..isa.opcodes import Opcode
from ..isa.trace import TraceEvent
from .differential import CaseResult, FuzzCase, canonicalize, run_case

__all__ = ["TraceFuzzer", "FuzzReport", "fuzz_run"]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Opcodes with a memoized unit behind them.
MEMO_OPCODES = (
    Opcode.IMUL, Opcode.IDIV, Opcode.FMUL, Opcode.FDIV,
    Opcode.FSQRT, Opcode.FRECIP, Opcode.FLOG, Opcode.FSIN, Opcode.FCOS,
)
_INT_OPCODES = (Opcode.IMUL, Opcode.IDIV)
_UNARY_OPCODES = (
    Opcode.FSQRT, Opcode.FRECIP, Opcode.FLOG, Opcode.FSIN, Opcode.FCOS,
)
_PLAIN_OPCODES = (
    Opcode.IALU, Opcode.FADD, Opcode.LOAD, Opcode.STORE,
    Opcode.BRANCH, Opcode.NOP,
)

# -- edge-value pools -------------------------------------------------------

#: The 1.5 family: identical 52-bit mantissa (0x8000000000000) across
#: different exponents -- and the default NaN and the infinities share
#: mantissa fields with ordinary values, so mantissa-only tags collide.
_FLOAT_EDGES = (
    0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 4.0,
    1.5, 3.0, 6.0, 0.75, 0.1875, -1.5, -3.0,
    float("inf"), float("-inf"),
    bits_to_float64(0x7FF8000000000000),   # quiet NaN (mantissa = 1.5's)
    bits_to_float64(0x7FF0000000000001),   # signalling-style NaN payload
    bits_to_float64(0xFFF8000000000123),   # negative NaN, odd payload
    5e-324,                                # smallest subnormal
    bits_to_float64(0x000FFFFFFFFFFFFF),   # largest subnormal
    bits_to_float64(0x0010000000000000),   # smallest normal
    1.7976931348623157e308,                # largest finite
    2.5, -2.5, 0.1, 3.141592653589793,
)

_INT_EDGES = (
    0, 1, -1, 2, -2, 3, 7, -13, 255, 256,
    _INT64_MIN, _INT64_MIN + 1, _INT64_MAX, _INT64_MAX - 1,
    1 << 32, -(1 << 32), 1 << 52, 1 << 62, -(1 << 62),
)

_ENTRY_CHOICES = (4, 4, 8, 8, 8, 16, 32, 64)


def _wrap_int64(value: int) -> int:
    """Wrap an int into int64 (hardware register truth; keeps events
    serializable -- the columnar format rejects wide integers)."""
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >> 63 else value


class TraceFuzzer:
    """Deterministic coverage-guided generator of fuzz cases."""

    def __init__(self, seed: int = 0, max_events: int = 192) -> None:
        self.rng = random.Random(seed)
        self.max_events = max_events
        self.corpus: List[FuzzCase] = []
        self.seen_features: set = set()
        self.cases_made = 0

    # -- value providers --------------------------------------------------

    def _float_value(self, recent: List) -> float:
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(_FLOAT_EDGES)
        if roll < 0.75 and recent:
            return rng.choice(recent)
        strategy = rng.randrange(3)
        if strategy == 0:
            return rng.uniform(-1000.0, 1000.0)
        if strategy == 1:
            # Random bit pattern: any float, including NaN/Inf/denormals.
            return bits_to_float64(rng.getrandbits(64))
        # Power-of-two scaling: exact mantissa collisions by design.
        return rng.choice((1.5, 2.5, 0.1, 7.0)) * 2.0 ** rng.randint(-60, 60)

    def _int_value(self, recent: List) -> int:
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(_INT_EDGES)
        if roll < 0.75 and recent:
            return rng.choice(recent)
        if rng.random() < 0.5:
            return rng.randint(-64, 64)
        return _wrap_int64(rng.getrandbits(64))

    def _operand(self, opcode: Opcode, recent_i: List, recent_f: List):
        if opcode in _INT_OPCODES:
            return self._int_value(recent_i)
        return self._float_value(recent_f)

    # -- event construction ----------------------------------------------

    def _sanitize(self, event: TraceEvent) -> TraceEvent:
        """Keep events inside the domain every path computes on."""
        from ..core.operations import compute

        opcode = event.opcode
        operation = opcode.operation
        if operation is None:
            return event
        a, b = event.a, event.b
        if opcode in _INT_OPCODES:
            # Integer units: operands must be exact int64 register values.
            a = _wrap_int64(int(a) if a == a and abs(a) != float("inf")
                            else 0)
            b = _wrap_int64(int(b) if b == b and abs(b) != float("inf")
                            else 0)
        result = compute(operation, a, b)
        if isinstance(result, int):
            result = _wrap_int64(result)
        return event._replace(a=a, b=b, result=result)

    def _fresh_events(self) -> List[TraceEvent]:
        rng = self.rng
        size_class = rng.random()
        if size_class < 0.25:
            n = rng.randint(1, 8)
        elif size_class < 0.75:
            n = rng.randint(8, 48)
        else:
            n = rng.randint(48, self.max_events)
        if rng.random() < 0.2:
            opcodes = [rng.choice(MEMO_OPCODES)]
        else:
            opcodes = list(rng.sample(
                MEMO_OPCODES, rng.randint(2, len(MEMO_OPCODES))
            ))
        plain_p = 0.1 if rng.random() < 0.5 else 0.0
        recent_i: List[int] = []
        recent_f: List[float] = []
        events = []
        for _ in range(n):
            if plain_p and rng.random() < plain_p:
                opcode = rng.choice(_PLAIN_OPCODES)
                address = (
                    rng.randrange(1 << 20) if opcode.is_memory else None
                )
                events.append(TraceEvent(opcode, address=address))
                continue
            opcode = rng.choice(opcodes)
            a = self._operand(opcode, recent_i, recent_f)
            if opcode in _UNARY_OPCODES and rng.random() < 0.85:
                b = 0.0
            else:
                b = self._operand(opcode, recent_i, recent_f)
            events.append(self._sanitize(TraceEvent(opcode, a, b, 0.0)))
            recent = recent_i if opcode in _INT_OPCODES else recent_f
            recent.append(a)
            if len(recent) > 12:
                del recent[0]
        return events

    def _loop_events(self) -> List[TraceEvent]:
        """A hot loop: one small body of memo ops replayed under
        recurring pcs.  Loop-invariant operand streams repeat every
        pair (many events per pair id, steady hits); redrawn operands
        mix fresh pairs into the repetition (misses and evictions
        between repeated ids)."""
        rng = self.rng
        body_n = rng.randint(2, 6)
        iters = rng.randint(4, max(4, min(14, self.max_events // body_n)))
        pc_base = rng.randrange(1 << 16) * 4
        stable = rng.random() < 0.5
        recent_i: List[int] = []
        recent_f: List[float] = []
        body = []
        for _ in range(body_n):
            opcode = rng.choice(MEMO_OPCODES)
            a = self._operand(opcode, recent_i, recent_f)
            if opcode in _UNARY_OPCODES and rng.random() < 0.85:
                b = 0.0
            else:
                b = self._operand(opcode, recent_i, recent_f)
            body.append((opcode, a, b))
        events = []
        for _ in range(iters):
            for slot, (opcode, a, b) in enumerate(body):
                if not stable and rng.random() < 0.4:
                    a = self._operand(opcode, recent_i, recent_f)
                events.append(self._sanitize(
                    TraceEvent(opcode, a, b, 0.0, pc=pc_base + 4 * slot)
                ))
        return events

    def _fresh_config(self) -> MemoTableConfig:
        rng = self.rng
        entries = rng.choice(_ENTRY_CHOICES)
        assoc = rng.choice(
            [d for d in (1, 2, 4, 8, 16, 32, 64)
             if d <= entries and entries % d == 0]
        )
        tag_mode = TagMode.MANTISSA if rng.random() < 0.25 else TagMode.FULL
        replacement = rng.choice((
            ReplacementKind.LRU, ReplacementKind.LRU,
            ReplacementKind.FIFO, ReplacementKind.RANDOM,
        ))
        return MemoTableConfig(
            entries=entries,
            associativity=assoc,
            tag_mode=tag_mode,
            replacement=replacement,
            seed=rng.randrange(4),
        )

    def _fresh_policy(self) -> TrivialPolicy:
        return self.rng.choice((
            TrivialPolicy.EXCLUDE, TrivialPolicy.EXCLUDE,
            TrivialPolicy.INTEGRATED, TrivialPolicy.CACHE_ALL,
        ))

    def _build(self, events, config, policy, infinite, label) -> FuzzCase:
        self.cases_made += 1
        return FuzzCase(
            events=canonicalize(events),
            config=config,
            trivial_policy=policy,
            infinite=infinite,
            label=label,
        )

    def _generate(self) -> FuzzCase:
        return self._build(
            self._fresh_events(),
            self._fresh_config(),
            self._fresh_policy(),
            self.rng.random() < 0.1,
            f"gen-{self.cases_made}",
        )

    def _generate_loop(self) -> FuzzCase:
        """A hot-loop case.  Biased -- not pinned -- toward the stock
        configuration (EXCLUDE, full tags, LRU, finite), the paper's
        design point; the unbiased tail still drives loop traces
        through the other tables and the ``unit.execute`` tier."""
        rng = self.rng
        config = self._fresh_config()
        if rng.random() < 0.8:
            config = MemoTableConfig(
                entries=config.entries,
                associativity=config.associativity,
                tag_mode=TagMode.FULL,
                replacement=ReplacementKind.LRU,
                seed=config.seed,
            )
        policy = (
            TrivialPolicy.EXCLUDE
            if rng.random() < 0.8
            else self._fresh_policy()
        )
        return self._build(
            self._loop_events(),
            config,
            policy,
            rng.random() < 0.05,
            f"loop-{self.cases_made}",
        )

    # -- mutation ---------------------------------------------------------

    def _flip_float_bit(self, value: float) -> float:
        from ..arch.ieee754 import float64_to_bits

        bit = self.rng.randrange(64)
        return bits_to_float64(float64_to_bits(float(value)) ^ (1 << bit))

    def _mutate_value(self, event: TraceEvent, which: str) -> TraceEvent:
        rng = self.rng
        value = getattr(event, which)
        if event.opcode in _INT_OPCODES:
            choice = rng.randrange(4)
            if choice == 0:
                value = rng.choice(_INT_EDGES)
            elif choice == 1:
                value = _wrap_int64(int(value) + rng.choice((-1, 1)))
            elif choice == 2:
                value = _wrap_int64(-int(value))
            else:
                value = _wrap_int64(int(value) ^ (1 << rng.randrange(63)))
        else:
            choice = rng.randrange(3)
            if choice == 0:
                value = rng.choice(_FLOAT_EDGES)
            elif choice == 1:
                value = self._flip_float_bit(value)
            else:
                value = float(value) * 2.0 ** rng.randint(-8, 8)
        return event._replace(**{which: value})

    def _mutate_events(self, events: List[TraceEvent]) -> List[TraceEvent]:
        rng = self.rng
        events = list(events)
        for _ in range(rng.randint(1, 3)):
            if not events:
                break
            op = rng.randrange(7)
            i = rng.randrange(len(events))
            event = events[i]
            memoizable = event.opcode.operation is not None
            if op == 0:
                # Duplicate an event later in the trace: forced reuse.
                j = rng.randint(i, len(events))
                events.insert(j, event)
            elif op == 1 and memoizable:
                events[i] = self._sanitize(
                    event._replace(a=event.b, b=event.a)
                )
            elif op == 2 and memoizable:
                # Copy an operand across events: index/tag aliasing.
                j = rng.randrange(len(events))
                donor = events[j]
                if donor.opcode.operation is not None and (
                    (donor.opcode in _INT_OPCODES)
                    == (event.opcode in _INT_OPCODES)
                ):
                    which = rng.choice(("a", "b"))
                    value = getattr(donor, rng.choice(("a", "b")))
                    events[i] = self._sanitize(
                        event._replace(**{which: value})
                    )
            elif op == 3 and memoizable:
                events[i] = self._sanitize(
                    self._mutate_value(event, rng.choice(("a", "b")))
                )
            elif op == 4 and len(events) > 2:
                lo = rng.randrange(len(events) - 1)
                hi = rng.randint(lo + 1, min(len(events), lo + 8))
                del events[lo:hi]
            elif op == 5 and len(events) <= self.max_events // 2:
                events = events + events
            elif op == 6 and memoizable:
                family = (
                    _INT_OPCODES
                    if event.opcode in _INT_OPCODES
                    else tuple(
                        o for o in MEMO_OPCODES if o not in _INT_OPCODES
                    )
                )
                events[i] = self._sanitize(
                    event._replace(opcode=rng.choice(family))
                )
        return events

    def _mutate(self, parent: FuzzCase) -> FuzzCase:
        rng = self.rng
        events = self._mutate_events(list(parent.events))
        config = parent.config
        policy = parent.trivial_policy
        infinite = parent.infinite
        if rng.random() < 0.25:
            roll = rng.randrange(3)
            if roll == 0:
                config = self._fresh_config()
            elif roll == 1:
                policy = self._fresh_policy()
            else:
                infinite = not infinite
        return self._build(
            events, config, policy, infinite, f"mut-{self.cases_made}"
        )

    # -- the fuzz loop ----------------------------------------------------

    def next_case(self) -> FuzzCase:
        # Every third case is a hot-loop case, independently of the
        # corpus: heavily repeated operand pairs under recurring pcs are
        # a shape mutation of an arbitrary corpus parent essentially
        # never produces -- and a fixed cadence (rather than a coin
        # flip) keeps the first loop cases inside the small smoke
        # budgets for every seed.
        if self.cases_made % 3 == 1:
            return self._generate_loop()
        if self.corpus and self.rng.random() < 0.6:
            return self._mutate(self.rng.choice(self.corpus))
        return self._generate()

    def observe(self, case: FuzzCase, result: CaseResult) -> None:
        novel = result.features - self.seen_features
        if not novel:
            return
        self.seen_features |= novel
        self.corpus.append(case)
        if len(self.corpus) > 128:
            self.corpus.pop(self.rng.randrange(len(self.corpus)))


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    cases: int = 0
    events: int = 0
    features: int = 0
    divergent: List[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergent


def fuzz_run(
    budget: int,
    seed: int = 0,
    max_events: int = 192,
    stop_after: int = 1,
    progress: Optional[Callable[[int, FuzzReport], None]] = None,
) -> FuzzReport:
    """Run ``budget`` differential fuzz cases; collect divergences.

    Stops early once ``stop_after`` divergent cases have been found
    (shrinking wants just the first; a survey run can raise it).
    ``progress(case_index, report)`` is called every 500 cases.
    """
    fuzzer = TraceFuzzer(seed=seed, max_events=max_events)
    report = FuzzReport()
    for index in range(budget):
        case = fuzzer.next_case()
        result = run_case(case)
        report.cases += 1
        report.events += len(case.events)
        fuzzer.observe(case, result)
        if result.divergences:
            report.divergent.append(result)
            if len(report.divergent) >= stop_after:
                break
        if progress is not None and (index + 1) % 500 == 0:
            report.features = len(fuzzer.seen_features)
            progress(index + 1, report)
    report.features = len(fuzzer.seen_features)
    return report
