import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import kmeans_reference
from airbs_sgd import baseline
from airbs_sgd.baseline import kmeans_placement, kmeans_replications

# few distinct values, -0.0 among them: users repeat, so clusters empty, and
# sit equidistant from two centroids, so ties are broken
COORDS = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5, 3.0]) | st.floats(-1e3, 1e3)


def pts_from(arr, z=0.0):
    """(M, 2) horizontal coordinates as (M, 3) user locations at height z."""
    arr = np.asarray(arr, dtype=float)
    return np.column_stack([arr, np.full(len(arr), z)])


def test_single_cluster_is_the_mean():
    rng = np.random.default_rng(5)
    arr = rng.uniform(0, 1000, size=(40, 2))
    centroids, inertia = kmeans_placement(pts_from(arr), 1, height_m=25.0)
    assert centroids.shape == (1, 3)
    c = centroids[0]
    assert np.allclose(c[:2], arr.mean(axis=0), atol=1e-9)
    assert c[2] == 25.0
    assert inertia == pytest.approx(np.sum((arr - c[:2]) ** 2), rel=1e-12)


def test_two_tight_clusters_recovered():
    rng = np.random.default_rng(6)
    left = rng.normal((100.0, 100.0), 0.5, size=(30, 2))
    right = rng.normal((900.0, 900.0), 0.5, size=(30, 2))
    centroids, _ = kmeans_placement(pts_from(np.vstack([left, right])), 2, seed=1)
    got = sorted(map(tuple, centroids[:, :2]))
    want = sorted([tuple(left.mean(axis=0)), tuple(right.mean(axis=0))])
    for g, w in zip(got, want):
        assert np.allclose(g, w, atol=1.0)


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(7)
    users = pts_from(rng.uniform(0, 5000, size=(120, 2)))
    _, _, hist = kmeans_reference(users, 5, seed=3)
    assert len(hist) >= 1
    assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    assert kmeans_replications(users[None], 5, [3])[1].tolist() == [hist[-1]]


def _nearest_of(users, centroids):
    """``baseline._nearest`` of one replication: each user's cluster and the squared distances."""
    a, d2, _ = baseline._nearest(users[None, :, 0], users[None, :, 1],
                                 centroids[None, :, 0], centroids[None, :, 1])
    return a[0], d2[0]


def test_assignments_are_nearest_centroid():
    rng = np.random.default_rng(8)
    arr = rng.uniform(0, 3000, size=(80, 2))
    centroids, _ = kmeans_placement(pts_from(arr), 4, seed=2)
    cents = centroids[:, :2]
    d2 = np.sum((arr[:, None, :] - cents[None, :, :]) ** 2, axis=2)
    nearest, _ = _nearest_of(pts_from(arr), centroids)
    assert nearest.tolist() == np.argmin(d2, axis=1).tolist()
    # a fixed point: each centroid is the mean of the users nearest to it
    for k, c in enumerate(cents):
        assert np.allclose(c, arr[nearest == k].mean(axis=0), atol=1e-9)


def test_deterministic_per_seed():
    rng = np.random.default_rng(9)
    arr = rng.uniform(0, 1000, size=(50, 2))
    a, a_inertia = kmeans_placement(pts_from(arr), 3, seed=42)
    b, b_inertia = kmeans_placement(pts_from(arr), 3, seed=42)
    assert np.array_equal(a, b) and a_inertia == b_inertia
    c, _ = kmeans_placement(pts_from(arr), 3, seed=43)
    assert not np.array_equal(a, c)


def test_equidistant_point_goes_to_lowest_index(monkeypatch):
    # user exactly between two stable single-point clusters
    users = pts_from([(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)])
    assert _nearest_of(users, users[:2])[0].tolist() == [0, 1, 0]
    monkeypatch.setattr(baseline, "MAX_PASSES", 1)
    centroids, _ = kmeans_placement(users, 2, seed=0)
    nearest, d2 = _nearest_of(users, centroids)
    if d2[0, 2] == d2[1, 2]:
        assert nearest[2] == 0


def test_empty_cluster_reseeded_to_farthest_point():
    # two coincident seeds: one cluster starves, then grabs the farthest
    # point; search for a seed whose two initial picks coincide
    users = pts_from([(0.0, 0.0)] * 6 + [(1000.0, 0.0), (1000.0, 10.0)])
    for seed in range(200):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(users), size=2, replace=False)
        a, b = users[picks, :2].tolist()
        if a == b:
            centroids, _ = kmeans_placement(users, 2, seed=seed)
            got = sorted(map(tuple, centroids[:, :2].tolist()))
            assert got[0] == (0.0, 0.0)
            assert got[1] == (1000.0, 5.0)
            return
    pytest.skip("no seed under 200 picks coincident initial centroids")


def test_errors():
    users = pts_from([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        kmeans_placement(users, 3)
    with pytest.raises(ValueError):
        kmeans_placement(users, 0)


@st.composite
def lloyd_batches(draw):
    r, b = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    m = draw(st.integers(b, b + 8))
    users = np.zeros((r, m, 3))
    users[..., :2] = np.reshape(draw(st.lists(COORDS, min_size=2 * r * m,
                                              max_size=2 * r * m)), (r, m, 2))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=r, max_size=r))
    return users, b, seeds, draw(st.sampled_from([1, 2, 3, 100]))


# two replications of two clusters on a line whose seeds pick both first centroids on
# one side: Lloyd needs three passes, so a budget of one pass stops it early
TWO_PASS_USERS = np.zeros((2, 6, 3))
TWO_PASS_USERS[..., 0] = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]


def _bits(centroids, inertia, *_):
    return centroids.tobytes(), np.float64(inertia).tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(lloyd_batches())
@example((TWO_PASS_USERS, 2, [0, 4], 1))
def test_batched_lloyd_is_each_replication_alone_bit_for_bit(batch):
    users, b, seeds, max_iters = batch
    # hypothesis refuses function-scoped fixtures, so each example patches its own budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseline, "MAX_PASSES", max_iters)
        centroids, inertia = kmeans_replications(users, b, seeds, height_m=30.0)
        for r, seed in enumerate(seeds):
            want = _bits(*kmeans_reference(users[r], b, max_iters=max_iters, seed=seed,
                                           height_m=30.0))
            assert _bits(centroids[r], inertia[r]) == want
            assert _bits(*kmeans_placement(users[r], b, seed=seed, height_m=30.0)) == want


@pytest.mark.parametrize("r", [1, 3])
def test_results_are_arrays_of_pinned_shapes_and_dtypes(r):
    users = pts_from(np.random.default_rng(10).uniform(0, 1000, size=(12, 2)))
    centroids, inertia = kmeans_replications(np.stack([users] * r), 4, range(r), height_m=30.0)
    assert (centroids.shape, centroids.dtype) == ((r, 4, 3), np.float64)
    assert (inertia.shape, inertia.dtype) == ((r,), np.float64)
    centroids, inertia = kmeans_placement(users, 4, seed=r, height_m=30.0)
    assert (centroids.shape, centroids.dtype, type(inertia)) == ((4, 3), np.float64, float)


def test_batched_lloyd_needs_one_seed_per_replication():
    users = np.zeros((2, 3, 3))
    with pytest.raises(ValueError, match="one seed per replication"):
        kmeans_replications(users, 1, [0])
