"""K-means placement baseline.

Centralized clustering of user locations, the standard alternative the
gradient agents are compared against. Plain Lloyd iterations on the
horizontal coordinates, over any number of replications at once, with
deterministic seeding and tie handling so results are exactly
reproducible:

* initial centroids are B distinct user locations sampled by the seed;
* equidistant points go to the lowest cluster index;
* a cluster that loses all its points is reseeded to the point farthest
  from its current centroid.
"""

from __future__ import annotations

import numpy as np

# Lloyd passes a replication may take before it stops short of a fixed point
MAX_PASSES = 100


def _nearest(px, py, cx, cy):
    """Each user's nearest centroid, the (R, B, M) squared distances and each inertia.

    ``px``, ``py`` are (R, M) user and ``cx``, ``cy`` (R, B) centroid
    coordinates. Equidistant users go to the lowest cluster index.
    """
    # in place, as in channel.received_power_matrix: dx*dx + dy*dy in two arrays
    d2 = px[:, None, :] - cx[:, :, None]
    np.multiply(d2, d2, out=d2)
    dy = py[:, None, :] - cy[:, :, None]
    d2 += np.multiply(dy, dy, out=dy)
    best = np.min(d2, axis=1)
    # the first cluster at the least distance
    return np.argmax(d2 == best[:, None, :], axis=1), d2, best.sum(axis=1)


def kmeans_placement(user_locations, num_clusters: int, seed: int = 0,
                     height_m: float = 0.0) -> tuple:
    """Lloyd k-means on horizontal user coordinates: ``(centroids, inertia)``.

    Runs until the assignment reaches a fixed point or :data:`MAX_PASSES`
    passes, whichever is first. ``user_locations`` is an (M, 3) array; the
    (B, 3) centroids are returned at ``height_m``, with the total squared
    horizontal distance of the users to their nearest centroid. Requires at
    least as many users as clusters. A batch of one: see
    :func:`kmeans_replications`.
    """
    users = np.asarray(user_locations, dtype=float)
    centroids, inertia = kmeans_replications(users[None], num_clusters, [seed], height_m)
    return centroids[0], float(inertia[0])


def kmeans_replications(user_locations, num_clusters: int, seeds,
                        height_m: float = 0.0) -> tuple:
    """:func:`kmeans_placement` of each replication's users and seed.

    Returns ``(centroids, inertia)``, an (R, B, 3) and an (R,) array.
    ``user_locations`` is an (R, M, 3) array, one user set per seed. The
    replications run as one Lloyd program over coordinate-major (R, M)
    arrays of x and y: a replication leaves the active set once its
    assignment stops changing, and each pass sums the members of every
    (replication, cluster) key with ``np.bincount``, in user order from
    +0.0, as numpy's reduction of one cluster's members does. So each
    result is bit-identical to the replication run alone, within the same
    :data:`MAX_PASSES` budget.
    """
    users = np.asarray(user_locations, dtype=float)
    seeds = [int(seed) for seed in seeds]
    m = users.shape[1]
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    if m < num_clusters:
        raise ValueError(f"need at least {num_clusters} users, got {m}")
    if len(seeds) != users.shape[0]:
        raise ValueError(f"need one seed per replication, got {len(seeds)} for {users.shape[0]}")

    px, py = users[..., 0].copy(), users[..., 1].copy()
    picks = np.array([np.random.default_rng(seed).choice(m, size=num_clusters, replace=False)
                      for seed in seeds]).reshape(len(seeds), num_clusters)
    cx, cy = (np.take_along_axis(v, picks, axis=1) for v in (px, py))
    inertia = np.empty(len(seeds))

    active, prev = np.arange(len(seeds)), None
    for p in range(MAX_PASSES + 1):
        ax, ay = px[active], py[active]
        a, d2, inertia[active] = _nearest(ax, ay, cx[active], cy[active])
        if p == MAX_PASSES:
            # that pass only realigned the replications whose budget ran out right
            # after a centroid move, so each assignment is nearest-centroid consistent
            break
        if prev is not None:
            moved = np.any(a != prev, axis=1)
            active, ax, ay, a, d2 = active[moved], ax[moved], ay[moved], a[moved], d2[moved]
            if not active.size:
                break
        keys = (np.arange(len(active))[:, None] * num_clusters + a).ravel()
        count = np.bincount(keys, minlength=len(active) * num_clusters).reshape(-1, num_clusters)
        # an emptied cluster is reseeded to the user farthest from its stale centroid
        far = np.argmax(d2, axis=2)
        for c, v in ((cx, ax), (cy, ay)):
            total = np.bincount(keys, weights=v.ravel(), minlength=count.size)
            c[active] = np.where(count > 0, total.reshape(count.shape) / np.maximum(count, 1),
                                 np.take_along_axis(v, far, axis=1))
        prev = a

    return np.stack([cx, cy, np.full_like(cx, float(height_m))], axis=-1), inertia
