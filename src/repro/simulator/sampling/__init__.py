"""``repro.simulator.sampling`` -- the sampling layer.

Simulate a carefully chosen fraction of the trace and report
whole-trace MEMO-TABLE statistics with a bounded error, by SimPoint-style
phase-aware sampling:

:mod:`.features` / :mod:`.phases` / :mod:`.estimator`
    per-interval feature vectors (opcode mix, operand-bit entropy,
    pc-region signature, residency under one kernel pass of the whole
    trace), seeded k-means phase clustering, and a weighted estimate
    from representative intervals per phase whose warm-up error is
    bounded by an infinite-table replay of each warm-up slice and
    window (:func:`estimate_phases`).
"""

from .estimator import (
    PhaseEstimate,
    PhasePlan,
    RepresentativeWindow,
    estimate_phases,
)
from .features import (
    FeatureConfig,
    IntervalFeatures,
    interval_features,
    prior_lookup_index,
)
from .phases import (
    PhaseClustering,
    cluster_phases,
    representative_intervals,
    sample_intervals,
)

__all__ = [
    "FeatureConfig",
    "IntervalFeatures",
    "interval_features",
    "prior_lookup_index",
    "PhaseClustering",
    "cluster_phases",
    "representative_intervals",
    "sample_intervals",
    "PhasePlan",
    "PhaseEstimate",
    "RepresentativeWindow",
    "estimate_phases",
]
