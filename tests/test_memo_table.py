"""Tests for the MEMO-TABLE itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    MemoTableConfig,
    OperandKind,
    ReplacementKind,
    TagMode,
)
from repro.core.memo_table import InfiniteMemoTable, LookupResult, MemoTable

finite = st.floats(allow_nan=False, allow_infinity=False)


def fp_table(**overrides) -> MemoTable:
    return MemoTable(MemoTableConfig(**overrides))


class TestBasicProtocol:
    def test_miss_on_empty(self):
        table = fp_table()
        assert not table.lookup(1.0, 2.0).hit

    def test_hit_after_insert(self):
        table = fp_table()
        table.insert(1.0, 2.0, 0.5)
        found = table.lookup(1.0, 2.0)
        assert found.hit and found.value == 0.5
        assert found.operands == (1.0, 2.0)

    def test_miss_sentinel_shape(self):
        assert LookupResult.MISS.hit is False
        assert LookupResult.MISS.value is None

    def test_different_operands_miss(self):
        table = fp_table()
        table.insert(1.0, 2.0, 0.5)
        assert not table.lookup(1.0, 3.0).hit
        assert not table.lookup(2.0, 1.0).hit  # non-commutative by default

    def test_insert_overwrites_existing_tag(self):
        table = fp_table()
        table.insert(1.0, 2.0, 0.5)
        table.insert(1.0, 2.0, 0.75)
        assert table.lookup(1.0, 2.0).value == 0.75
        assert len(table) == 1

    def test_access_computes_on_miss_and_reuses_on_hit(self):
        table = fp_table()
        calls = []

        def compute(a, b):
            calls.append((a, b))
            return a / b

        value1, hit1 = table.access(10.0, 4.0, compute)
        value2, hit2 = table.access(10.0, 4.0, compute)
        assert (value1, hit1) == (2.5, False)
        assert (value2, hit2) == (2.5, True)
        assert calls == [(10.0, 4.0)]

    def test_flush_clears_entries_keeps_stats(self):
        table = fp_table()
        table.insert(1.0, 2.0, 3.0)
        table.lookup(1.0, 2.0)
        table.flush()
        assert len(table) == 0
        assert table.stats.lookups == 1
        assert not table.lookup(1.0, 2.0).hit

    def test_len_counts_entries(self):
        table = fp_table()
        for i in range(5):
            table.insert(float(i + 2), 3.0, float(i))
        assert len(table) == 5

    def test_signed_zero_operands_distinct(self):
        table = fp_table()
        table.insert(0.0, 3.0, 0.0)
        assert not table.lookup(-0.0, 3.0).hit


class TestCapacityAndEviction:
    def test_capacity_bounded(self):
        table = fp_table(entries=8, associativity=2)
        for i in range(100):
            table.insert(float(i + 2.5), 1.25, float(i))
        assert len(table) <= 8

    def test_eviction_counted(self):
        table = fp_table(entries=8, associativity=8)  # one set of 8
        for i in range(9):
            table.insert(1.0 + i * 2**-52, 1.0, float(i))
        assert table.stats.evictions == 1
        assert len(table) == 8

    def test_lru_keeps_recently_used(self):
        # One fully associative set of 2 ways.
        table = fp_table(entries=2, associativity=2)
        table.insert(1.25, 1.0, 10.0)
        table.insert(1.75, 1.0, 20.0)
        table.lookup(1.25, 1.0)      # touch the first entry
        table.insert(1.875, 1.0, 30.0)  # must evict the second
        assert table.lookup(1.25, 1.0).hit
        assert not table.lookup(1.75, 1.0).hit

    def test_fifo_evicts_insertion_order(self):
        table = MemoTable(
            MemoTableConfig(
                entries=2, associativity=2, replacement=ReplacementKind.FIFO
            )
        )
        table.insert(1.25, 1.0, 10.0)
        table.insert(1.75, 1.0, 20.0)
        table.lookup(1.25, 1.0)  # recency must NOT protect it under FIFO
        table.insert(1.875, 1.0, 30.0)
        assert not table.lookup(1.25, 1.0).hit
        assert table.lookup(1.75, 1.0).hit

    def test_set_occupancy_shape(self):
        table = fp_table()
        assert table.snapshot() == [[]] * 8
        table.insert(1.0, 2.0, 3.0)
        occupancy = [len(ways) for ways in table.snapshot()]
        assert len(occupancy) == 8
        assert sum(occupancy) == len(table) == 1

    def test_entries_iterator(self):
        table = fp_table()
        table.insert(1.5, 2.5, 3.75)
        table.lookup(1.5, 2.5)
        rows = [
            (set_index, way)
            for set_index, ways in enumerate(table.snapshot())
            for way in ways
        ]
        assert len(rows) == 1
        set_index, (tag, value, operands, last_used, inserted) = rows[0]
        assert 0 <= set_index < 8
        assert value == 3.75
        assert operands == (1.5, 2.5)
        assert (last_used, inserted) == (2, 1)


class TestCommutative:
    def test_reversed_order_hits(self):
        table = fp_table(commutative=True)
        table.insert(3.5, 5.25, 18.375)
        found = table.lookup(5.25, 3.5)
        assert found.hit and found.reversed_match
        assert table.stats.commutative_hits == 1

    def test_same_order_not_flagged_reversed(self):
        table = fp_table(commutative=True)
        table.insert(3.5, 5.25, 18.375)
        found = table.lookup(3.5, 5.25)
        assert found.hit and not found.reversed_match

    def test_non_commutative_table_misses_reversed(self):
        table = fp_table(commutative=False)
        table.insert(3.5, 5.25, 18.375)
        assert not table.lookup(5.25, 3.5).hit

    @given(finite, finite)
    @settings(max_examples=60)
    def test_xor_index_makes_reversal_safe(self, a, b):
        # Any inserted pair must be findable under either order.
        table = fp_table(commutative=True)
        table.insert(a, b, 1.0)
        assert table.lookup(b, a).hit


class TestMantissaMode:
    def test_exponent_blind_hit(self):
        table = fp_table(tag_mode=TagMode.MANTISSA)
        table.insert(1.5, 2.0, 3.0)
        # 3.0 shares 1.5's mantissa, 4.0 shares 2.0's.
        assert table.lookup(3.0, 4.0).hit

    def test_distinct_mantissas_miss(self):
        table = fp_table(tag_mode=TagMode.MANTISSA)
        table.insert(1.5, 2.0, 3.0)
        assert not table.lookup(1.25, 2.0).hit

    def test_mantissa_hit_ratio_at_least_full(self):
        import random
        rng = random.Random(0)
        values = [rng.choice([0.5, 1.0, 2.0, 4.0]) * rng.choice([1.5, 1.25])
                  for _ in range(400)]
        pairs = [(values[i], values[i + 1]) for i in range(len(values) - 1)]
        full = fp_table(tag_mode=TagMode.FULL)
        mantissa = fp_table(tag_mode=TagMode.MANTISSA)
        for a, b in pairs:
            full.access(a, b, lambda x, y: x * y)
            mantissa.access(a, b, lambda x, y: x * y)
        assert mantissa.stats.hit_ratio >= full.stats.hit_ratio


class TestIntTables:
    def test_exact_integer_tags(self):
        table = MemoTable(MemoTableConfig(operand_kind=OperandKind.INT))
        table.insert(2**50 + 1, 3, 7)
        assert table.lookup(2**50 + 1, 3).hit
        assert not table.lookup(2**50, 3).hit

    def test_int_commutative(self):
        table = MemoTable(
            MemoTableConfig(operand_kind=OperandKind.INT, commutative=True)
        )
        table.insert(6, 7, 42)
        assert table.lookup(7, 6).hit


class TestInfiniteTable:
    def test_never_evicts(self):
        table = InfiniteMemoTable()
        for i in range(10_000):
            table.insert(float(i) + 0.5, 2.0, float(i))
        assert len(table) == 10_000
        assert table.lookup(0.5, 2.0).hit

    def test_commutative(self):
        table = InfiniteMemoTable(commutative=True)
        table.insert(2.5, 3.5, 8.75)
        assert table.lookup(3.5, 2.5).hit
        assert table.stats.commutative_hits == 1

    def test_flush(self):
        table = InfiniteMemoTable()
        table.insert(1.0, 2.0, 3.0)
        table.flush()
        assert len(table) == 0

    def test_upper_bounds_finite_table(self):
        """The infinite table's hit ratio bounds any finite table's."""
        import random
        rng = random.Random(42)
        pairs = [
            (float(rng.randrange(40)) + 0.5, float(rng.randrange(7)) + 1.5)
            for _ in range(3000)
        ]
        finite = fp_table()
        infinite = InfiniteMemoTable()
        for a, b in pairs:
            finite.access(a, b, lambda x, y: x * y)
            infinite.access(a, b, lambda x, y: x * y)
        assert infinite.stats.hit_ratio >= finite.stats.hit_ratio


class TestStatsInvariants:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=50)
    def test_counters_consistent(self, pairs):
        table = fp_table(entries=8, associativity=2)
        for a, b in pairs:
            table.access(a, b, lambda x, y: x * y)
        stats = table.stats
        assert stats.lookups == len(pairs)
        assert stats.hits + stats.misses == stats.lookups
        assert stats.insertions == stats.misses  # every miss inserts
        assert stats.evictions <= stats.insertions
        assert len(table) == stats.insertions - stats.evictions
        assert 0.0 <= stats.hit_ratio <= 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=16, allow_nan=False),
                st.floats(min_value=0.1, max_value=16, allow_nan=False),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_access_always_returns_true_product(self, pairs):
        """Memoization must never change computed values."""
        table = fp_table(entries=8, associativity=4, commutative=True)
        for a, b in pairs:
            value, _hit = table.access(a, b, lambda x, y: x * y)
            assert value == a * b or value == b * a


class TestMissSentinelIntegrity:
    """``LookupResult.MISS`` is shared by every table; it must stay
    immutable and callers must branch on ``.hit``, never on identity."""

    def test_sentinel_is_immutable_by_construction(self):
        with pytest.raises(AttributeError):
            LookupResult.MISS.hit = True
        with pytest.raises(AttributeError):
            LookupResult.MISS.value = 3.0
        assert LookupResult.MISS.hit is False

    def test_tables_share_the_sentinel_unchanged(self):
        # Heavy mixed traffic through both table kinds must leave the
        # class-level sentinel untouched.
        finite = fp_table(entries=8, associativity=2)
        infinite = InfiniteMemoTable(
            MemoTableConfig(operand_kind=OperandKind.FLOAT)
        )
        for i in range(64):
            a, b = float(i % 7), float(i % 5 + 1)
            finite.access(a, b, lambda x, y: x * y)
            infinite.access(a, b, lambda x, y: x * y)
        assert LookupResult.MISS == LookupResult(hit=False)
        assert LookupResult.MISS.value is None
        assert LookupResult.MISS.operands is None

    def test_no_caller_mutates_or_identity_compares_miss(self):
        """AST-scan ``src/repro`` for writes to ``.MISS`` attributes and
        for ``is``/``is not`` comparisons against the sentinel."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).resolve().parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                # Assignment / deletion targeting <anything>.MISS.
                targets = []
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "MISS"
                        # The one legal definition site assigns
                        # LookupResult.MISS right after the class body.
                        and path.name != "memo_table.py"
                    ):
                        offenders.append(f"{path}:{node.lineno} writes .MISS")
                    # Mutating a *field of* the sentinel, e.g.
                    # ``LookupResult.MISS.hit = ...``, is banned everywhere.
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "MISS"
                    ):
                        offenders.append(
                            f"{path}:{node.lineno} mutates a MISS field"
                        )
                # Identity comparison against the sentinel.
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    uses_miss = any(
                        isinstance(o, ast.Attribute) and o.attr == "MISS"
                        or isinstance(o, ast.Name) and o.id == "MISS"
                        for o in operands
                    )
                    if uses_miss and any(
                        isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
                    ):
                        offenders.append(
                            f"{path}:{node.lineno} identity-compares MISS"
                        )
        assert offenders == [], "\n".join(offenders)
