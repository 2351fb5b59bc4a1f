"""Golden-oracle differential verification of the memo-table hierarchy.

The fused probe kernel (:mod:`repro.core.kernel`) concentrates every
hit/miss decision of the simulation into one optimized inner loop.  This
package is its adversarial safety net:

* :mod:`~repro.verify.oracle` -- a deliberately-simple pure-Python model
  of the MEMO-TABLE hierarchy, written for obviousness rather than
  speed, sharing no probe machinery with the kernel;
* :mod:`~repro.verify.fuzz` -- a seeded, coverage-guided trace/config
  fuzzer biased toward IEEE-754 and table-geometry edge cases;
* :mod:`~repro.verify.differential` -- runs oracle vs. fused kernel
  vs. scalar reference on each case and demands bit-exact agreement of
  statistics, final table contents and delivered values;
* :mod:`~repro.verify.shrink` -- delta-debugs any divergence down to a
  minimal v3 trace;
* :mod:`~repro.verify.regressions` -- reads/writes the in-tree
  regression corpus (``tests/regressions/``) that pytest replays;
* :mod:`~repro.verify.faults` -- known-fault injection for the mutation
  smoke mode (the harness must catch each one).

CLI: ``repro verify fuzz --budget N --seed S`` and ``repro verify
smoke`` (see :mod:`repro.verify.cli`).
"""

from .differential import FuzzCase, run_case
from .faults import KERNEL_FAULTS, inject
from .fuzz import TraceFuzzer, fuzz_run
from .oracle import OracleBank
from .shrink import shrink_case

__all__ = [
    "FuzzCase",
    "run_case",
    "KERNEL_FAULTS",
    "inject",
    "TraceFuzzer",
    "fuzz_run",
    "OracleBank",
    "shrink_case",
]
