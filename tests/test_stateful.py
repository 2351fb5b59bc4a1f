"""Model-based stateful testing of the MEMO-TABLE.

A reference model re-implements the table's contract naively (a list of
(set, tag, value) entries with LRU per set, using the public
indexing/tag functions); hypothesis drives random operation sequences
against both and demands identical observable behaviour.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import MemoTableConfig
from repro.core.indexing import index_function
from repro.core.memo_table import MemoTable
from repro.core.tags import tag_function

CONFIG = MemoTableConfig(entries=8, associativity=2, commutative=True)

operand = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.5, -3.5, 1.5, 2.5, 7.25, 1e300, 5e-324]
)


class _ReferenceTable:
    """Obviously-correct LRU set-associative lookup table."""

    def __init__(self, config: MemoTableConfig) -> None:
        self.config = config
        self.index = index_function(config)
        self.tag = tag_function(config)
        # One LRU list per set: most recent at the end.
        self.sets = [[] for _ in range(config.n_sets)]

    def lookup(self, a, b):
        ways = self.sets[self.index(a, b)]
        for candidate in (self.tag(a, b), self.tag(b, a)):
            for position, (tag, value) in enumerate(ways):
                if tag == candidate:
                    ways.append(ways.pop(position))  # touch
                    return value
            if not self.config.commutative:
                break
        return None

    def insert(self, a, b, value):
        ways = self.sets[self.index(a, b)]
        tag = self.tag(a, b)
        for position, (existing, _) in enumerate(ways):
            if existing == tag:
                ways.pop(position)
                ways.append((tag, value))
                return
        if len(ways) == self.config.associativity:
            ways.pop(0)  # LRU at the front
        ways.append((tag, value))

    def __len__(self):
        return sum(len(ways) for ways in self.sets)


class MemoTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = MemoTable(CONFIG)
        self.model = _ReferenceTable(CONFIG)

    @rule(a=operand, b=operand)
    def lookup(self, a, b):
        expected = self.model.lookup(a, b)
        actual = self.real.lookup(a, b)
        if expected is None:
            assert not actual.hit
        else:
            assert actual.hit
            assert actual.value == expected or (
                actual.value != actual.value and expected != expected
            )

    @rule(a=operand, b=operand, value=operand)
    def insert(self, a, b, value):
        self.model.insert(a, b, value)
        self.real.insert(a, b, value)

    @rule(a=operand, b=operand)
    def access(self, a, b):
        expected = self.model.lookup(a, b)
        value, hit = self.real.access(a, b, lambda x, y: x * y)
        if expected is None:
            assert not hit
            self.model.insert(a, b, a * b)
        else:
            assert hit and value == expected

    @invariant()
    def same_occupancy(self):
        assert len(self.real) == len(self.model)

    @invariant()
    def capacity_respected(self):
        assert len(self.real) <= CONFIG.entries
        assert max(map(len, self.real.snapshot())) <= CONFIG.associativity


MemoTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
TestMemoTableAgainstModel = MemoTableMachine.TestCase
