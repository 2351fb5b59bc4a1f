"""Core MEMO-TABLE machinery: the paper's primary contribution.

Public surface:

* :class:`MemoTableConfig` and the policy enums -- table geometry;
* :class:`MemoTable` / :class:`InfiniteMemoTable` -- the lookup tables;
* :class:`Operation` / :class:`MemoizedUnit` / :class:`PlainUnit` --
  computation units with tables in tandem;
* :class:`MemoTableBank` -- the imul/fmul/fdiv system of section 3.1;
* :class:`ReuseBuffer` / :func:`run_reuse_buffer` -- the Sodani & Sohi
  comparison of section 1.1.

Every simulator probes these tables through one kernel
(:mod:`repro.core.kernel`, selected by :mod:`repro.core.backend`).
"""

from .bank import MemoTableBank, PAPER_OPERATIONS
from .config import (
    PAPER_BASELINE,
    MemoTableConfig,
    OperandKind,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from .memo_table import BaseMemoTable, InfiniteMemoTable, LookupResult, MemoTable
from .operations import Operation, compute, ieee_div, ieee_sqrt
from .reuse_buffer import ReuseBuffer, run_reuse_buffer
from .replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from .stats import MemoStats, UnitStats
from .trivial import is_trivial_div, is_trivial_mul, is_trivial_sqrt
from .unit import DEFAULT_LATENCIES, Execution, MemoizedUnit, PlainUnit

__all__ = [
    "MemoTableBank",
    "PAPER_OPERATIONS",
    "PAPER_BASELINE",
    "MemoTableConfig",
    "OperandKind",
    "ReplacementKind",
    "TagMode",
    "TrivialPolicy",
    "BaseMemoTable",
    "InfiniteMemoTable",
    "LookupResult",
    "MemoTable",
    "Operation",
    "compute",
    "ReuseBuffer",
    "run_reuse_buffer",
    "ieee_div",
    "ieee_sqrt",
    "FIFOPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "MemoStats",
    "UnitStats",
    "DEFAULT_LATENCIES",
    "Execution",
    "MemoizedUnit",
    "PlainUnit",
    "is_trivial_div",
    "is_trivial_mul",
    "is_trivial_sqrt",
]
