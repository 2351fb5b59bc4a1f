"""Seeded k-means phase clustering over interval feature vectors.

A deliberately small, fully deterministic Lloyd's-algorithm k-means --
pure numpy, seeded k-means++ initialization, no wall clock, no global
RNG (REPRO001-clean).  Determinism matters more than the last drop of
clustering quality here: the phase labels feed a CI-gated accuracy
bound, so the same trace and seed must always produce the same
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...errors import ConfigurationError

__all__ = [
    "PhaseClustering",
    "cluster_phases",
    "representative_intervals",
    "sample_intervals",
]


@dataclass
class PhaseClustering:
    """K-means outcome: one phase label per interval."""

    #: Interval index -> phase id in ``[0, k)``.
    labels: np.ndarray
    #: ``(k, dim)`` cluster centroids in the (normalized) feature space.
    centroids: np.ndarray
    #: Sum of squared distances to assigned centroids.
    inertia: float
    #: Lloyd iterations actually run.
    iterations: int

    @property
    def k(self) -> int:
        return len(self.centroids)

    def weights(self) -> np.ndarray:
        """Fraction of intervals assigned to each phase."""
        counts = np.bincount(self.labels, minlength=self.k)
        return counts / max(1, len(self.labels))


def _plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Seeded k-means++ seeding (Arthur & Vassilvitskii)."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All residual distance is zero: every remaining point
            # duplicates a chosen center; any pick is equivalent.
            centers[j:] = centers[0]
            break
        probs = closest / total
        chosen = int(rng.choice(n, p=probs))
        centers[j] = points[chosen]
        distance = ((points - centers[j]) ** 2).sum(axis=1)
        np.minimum(closest, distance, out=closest)
    return centers


def cluster_phases(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iterations: int = 64,
    restarts: int = 4,
) -> PhaseClustering:
    """Cluster interval feature rows into at most ``k`` phases.

    ``points`` is the (normalized) feature matrix; ``k`` is clamped to
    the number of intervals.  Empty clusters are repaired by stealing
    the point farthest from its centroid.  When the rows hold too few
    distinct values for ``min(k, n)`` phases, a steal can empty a
    one-member cluster; that phase is dropped, so every phase of the
    result has a member.

    ``restarts`` runs that many independent seeded k-means++ inits
    (seeds ``seed, seed + 1, ...``) and keeps the lowest-inertia
    outcome.  A single unlucky init can hand a small-but-distinct
    phase to a big neighbouring cluster; merging distinct groups costs
    inertia, so best-of-N reliably recovers it while staying fully
    deterministic for a given ``seed``.
    """
    if restarts <= 0:
        raise ConfigurationError("restarts must be positive")
    best: Optional[PhaseClustering] = None
    for attempt in range(restarts):
        outcome = _cluster_once(points, k, seed + attempt, max_iterations)
        if best is None or outcome.inertia < best.inertia:
            best = outcome
    return best


def _cluster_once(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iterations: int,
) -> PhaseClustering:
    """One seeded k-means run (init + Lloyd iterations)."""
    if k <= 0:
        raise ConfigurationError("phase count k must be positive")
    if points.ndim != 2 or not len(points):
        raise ConfigurationError("need a non-empty 2-D feature matrix")
    n = len(points)
    k = min(k, n)
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng)

    labels = np.zeros(n, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # Squared distances to every centroid; argmin breaks ties by
        # lowest phase id (numpy guarantee), which keeps runs stable.
        distances = (
            ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        )
        new_labels = distances.argmin(axis=1)
        for phase in range(k):
            mask = new_labels == phase
            if mask.any():
                centroids[phase] = points[mask].mean(axis=0)
            else:
                # Repair an emptied cluster with the worst-fit point.
                worst = int(
                    distances[np.arange(n), new_labels].argmax()
                )
                centroids[phase] = points[worst]
                new_labels[worst] = phase
        if iterations > 1 and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    occupied = np.bincount(labels, minlength=k) > 0
    if not occupied.all():
        centroids = centroids[occupied]
        labels = (np.cumsum(occupied) - 1)[labels]

    inertia = float(
        ((points - centroids[labels]) ** 2).sum()
    )
    return PhaseClustering(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
    )


def representative_intervals(
    clustering: PhaseClustering, points: Optional[np.ndarray] = None
) -> np.ndarray:
    """One interval index per phase: the member closest to its centroid.

    With ``points`` omitted the lowest-index member is chosen (useful
    when the caller discarded the feature matrix); ties always resolve
    to the earliest interval so selection is order-stable.
    """
    reps = np.empty(clustering.k, dtype=np.int64)
    for phase in range(clustering.k):
        members = np.nonzero(clustering.labels == phase)[0]
        if points is None:
            reps[phase] = members[0]
            continue
        distances = (
            (points[members] - clustering.centroids[phase]) ** 2
        ).sum(axis=1)
        reps[phase] = members[int(distances.argmin())]
    return reps


def sample_intervals(
    clustering: PhaseClustering,
    points: Optional[np.ndarray],
    samples: int,
    seed: int = 0,
) -> "list[np.ndarray]":
    """Per phase: the representative plus seeded extra member samples.

    Each returned array leads with the phase's representative interval
    (closest to the centroid, exactly
    :func:`representative_intervals`) followed by up to ``samples - 1``
    further members drawn without replacement by a seeded generator --
    stratified sampling that captures within-phase variance the single
    centroid-nearest member would hide.  Deterministic for a given
    clustering and seed.
    """
    if samples <= 0:
        raise ConfigurationError("samples per phase must be positive")
    reps = representative_intervals(clustering, points)
    rng = np.random.default_rng(seed)
    out = []
    for phase in range(clustering.k):
        members = np.nonzero(clustering.labels == phase)[0]
        primary = reps[phase]
        rest = members[members != primary]
        extra = min(samples - 1, len(rest))
        if extra:
            chosen = rng.choice(rest, size=extra, replace=False)
            chosen.sort()
            out.append(np.concatenate(([primary], chosen)))
        else:
            out.append(np.array([primary], dtype=np.int64))
    return out
