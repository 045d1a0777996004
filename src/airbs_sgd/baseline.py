"""K-means placement baseline.

Centralized clustering of user locations, the standard alternative the
gradient agents are compared against. Plain Lloyd iterations on the
horizontal coordinates, with deterministic seeding and tie handling so
results are exactly reproducible:

* initial centroids are B distinct user locations sampled by the seed;
* equidistant points go to the lowest cluster index;
* a cluster that loses all its points is reseeded to the point farthest
  from its current centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    """Converged clustering: centroids at pinned height, plus diagnostics.

    ``centroids`` is a (B, 3) array. ``inertia_history`` records the total
    squared distance at each Lloyd pass; it is non-increasing.
    """

    centroids: np.ndarray
    assignments: tuple
    inertia: float
    inertia_history: tuple

    def __post_init__(self):
        if self.inertia < 0.0:
            raise ValueError("inertia must be nonnegative")


def _nearest(pts: np.ndarray, centroids: np.ndarray):
    d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    assign = np.argmin(d2, axis=1)  # ties resolve to the lowest index
    inertia = float(np.sum(d2[np.arange(len(pts)), assign]))
    return assign, inertia


def kmeans_placement(user_locations, num_clusters: int, max_iters: int = 100,
                     seed: int = 0, height_m: float = 0.0) -> KMeansResult:
    """Lloyd k-means on horizontal user coordinates.

    Runs until the assignment reaches a fixed point or ``max_iters``
    passes, whichever is first. ``user_locations`` is an (M, 3) array;
    the centroids are returned at ``height_m``. Requires at least as many
    users as clusters.
    """
    pts = np.asarray(user_locations, dtype=float)[:, :2]
    m = pts.shape[0]
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    if m < num_clusters:
        raise ValueError(f"need at least {num_clusters} users, got {m}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    rng = np.random.default_rng(int(seed))
    centroids = pts[rng.choice(m, size=num_clusters, replace=False)].copy()

    history = []
    prev = None
    for _ in range(max_iters):
        assign, inertia = _nearest(pts, centroids)
        history.append(inertia)
        if prev is not None and np.array_equal(assign, prev):
            break
        for k in range(num_clusters):
            members = pts[assign == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
            else:
                # farthest point from the stale centroid takes over the slot
                far = np.argmax(np.sum((pts - centroids[k]) ** 2, axis=1))
                centroids[k] = pts[far]
        prev = assign
    else:
        # pass budget exhausted right after a centroid move; realign so the
        # returned assignment is nearest-centroid consistent
        assign, inertia = _nearest(pts, centroids)
        history.append(inertia)

    return KMeansResult(
        centroids=np.column_stack([centroids, np.full(num_clusters, float(height_m))]),
        assignments=tuple(int(a) for a in assign),
        inertia=float(inertia),
        inertia_history=tuple(history),
    )
