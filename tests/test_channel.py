import math
import re
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import budget_at_1m, dbm_to_linear, linear_to_dbm
from airbs_sgd.channel import (MAX_COORD_M, MIN_REF_DISTANCE_M, ChannelParams,
                               CoincidentPositionsError, received_power_matrix)

TX_DBM, GAIN_DB, REF_M = 12.0, -94.0, 1000.0
BUDGET = TX_DBM + GAIN_DB


def power(l_b, x_m, budget=BUDGET, ref=REF_M) -> float:
    """Power in dBm at ``x_m`` from a transmitter at ``l_b``: one kernel entry."""
    return float(received_power_matrix([l_b], budget_at_1m([budget], ref), [x_m])[0, 0])


def gradient(l_b, x_m) -> np.ndarray:
    """Gradient of :func:`power` in ``l_b``, dB/meter."""
    return received_power_matrix([l_b], budget_at_1m([BUDGET], REF_M), [x_m],
                                 gradient=True)[1][0, 0]


def test_power_at_reference_distance():
    p = power((1000.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert p == pytest.approx(-82.0, abs=1e-12)
    # 1 m away, log10(1) = 0: exactly the transmitter's power at 1 m, bit for bit
    at_1m = budget_at_1m([BUDGET], 321.7)
    p = received_power_matrix([[101.0, 200.0, 30.0]], at_1m, [[100.0, 200.0, 30.0]])
    assert p[0, 0] == at_1m[0]


def test_power_one_doubling_down_6dB():
    p = power((2000.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert p == pytest.approx(-88.0206, abs=1e-4)


def test_calibration_identity():
    prm = ChannelParams(ref_gain_db=-94.0, ref_distance_m=1000.0)
    p = power((0.0, 1000.0, 0.0), (0.0, 0.0, 0.0), 0.0 + prm.ref_gain_db, prm.ref_distance_m)
    assert p == prm.ref_gain_db


def test_power_linear_domain_route():
    # independent route: inverse-square law in milliwatts, then to dBm
    rng = np.random.default_rng(7)
    for _ in range(50):
        l_b = [*rng.uniform(-3000, 3000, 3)[:2], rng.uniform(10, 300)]
        x_m = [*rng.uniform(-3000, 3000, 2), 0.0]
        d = math.dist(l_b, x_m)
        p_mw = dbm_to_linear(TX_DBM) * dbm_to_linear(GAIN_DB) * (REF_M / d) ** 2
        assert power(l_b, x_m) == pytest.approx(
            float(linear_to_dbm(p_mw)), rel=1e-12)


def test_gradient_east_geometry():
    g = gradient((1000.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert g[0] == pytest.approx(-8.6859e-3, abs=1e-7)
    assert g[1] == 0.0 and g[2] == 0.0


def test_gradient_points_toward_user():
    rng = np.random.default_rng(3)
    for _ in range(100):
        l_b = np.array([*rng.uniform(-5000, 5000, 2), rng.uniform(5, 500)])
        x_m = np.array([*rng.uniform(-5000, 5000, 2), 0.0])
        g = gradient(l_b, x_m)
        assert float(np.dot(g, x_m - l_b)) > 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    count = 0
    while count < 100:
        l_b = rng.uniform(-10_000, 10_000, 3)
        l_b[2] = abs(l_b[2])
        x_m = rng.uniform(-10_000, 10_000, 3)
        x_m[2] = abs(x_m[2])
        sep = np.linalg.norm(l_b - x_m)
        if not 10.0 <= sep <= 10_000.0:
            continue
        count += 1
        fd = helpers.central_diff(lambda v: power(v, x_m), l_b, h=1e-3)
        g = gradient(l_b, x_m)
        assert helpers.rel_err(g, fd) < 1e-6


def test_monotone_decreasing_in_distance():
    powers = [power((d, 0.0, 0.0), (0.0, 0.0, 0.0)) for d in (10, 50, 100, 500, 1000, 5000)]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_isotropy():
    d = 321.7
    base = power((d, 0.0, 0.0), (0.0, 0.0, 0.0))
    for theta in (0.3, 1.2, 2.9):
        l_b = (d * math.cos(theta), d * math.sin(theta), 0.0)
        assert power(l_b, (0.0, 0.0, 0.0)) == pytest.approx(base, abs=1e-9)
    shifted = power((100.0 + d, 50.0, 7.0), (100.0, 50.0, 7.0))
    assert shifted == pytest.approx(base, abs=1e-9)


def test_coincident_positions_rejected():
    a = (5.0, 5.0, 5.0)
    b = (5.0, 5.0, 5.05)
    with pytest.raises(CoincidentPositionsError):
        power(a, b)
    with pytest.raises(CoincidentPositionsError):
        gradient(a, b)


def test_dbm_linear_basics():
    assert dbm_to_linear(0.0) == 1.0
    assert dbm_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
    assert linear_to_dbm(1.0) == 0.0
    with pytest.raises(ValueError):
        linear_to_dbm(0.0)
    with pytest.raises(ValueError):
        linear_to_dbm(-1.0)


def test_dbm_linear_roundtrip():
    rng = np.random.default_rng(5)
    vals = rng.uniform(-150.0, 50.0, 1000)
    back = linear_to_dbm(dbm_to_linear(vals))
    assert float(np.max(np.abs(back - vals) / np.maximum(np.abs(vals), 1e-12))) < 1e-12


def pairwise_loop(L, X, budget):
    """Powers and gradients from one one-pair kernel call per (transmitter, point)."""
    lead = np.broadcast_shapes(L.shape[:-2], X.shape[:-2])
    L = np.broadcast_to(L, lead + L.shape[-2:])
    X = np.broadcast_to(X, lead + X.shape[-2:])
    powers = np.empty(lead + (X.shape[-2], L.shape[-2]))
    grads = np.empty(powers.shape + (3,))
    for k in np.ndindex(lead):
        for n, x in enumerate(X[k]):
            for b, (l_b, budget_b) in enumerate(zip(L[k], budget)):
                p, g = received_power_matrix(l_b[None], [budget_b], x[None], gradient=True)
                powers[k + (n, b)], grads[k + (n, b)] = p[0, 0], g[0, 0]
    return powers, grads


def test_vectorized_points_match_scalar():
    # the batched kernel against a loop of one-pair calls: every entry is
    # computed elementwise, so batching changes no bit
    rng = np.random.default_rng(9)
    L = np.array([[100.0, 200.0, 30.0], [-700.0, 50.0, 80.0], [1500.0, -900.0, 10.0]])
    budget = [BUDGET, 7.0 - 94.0, 9.0 - 90.0]
    pts = rng.uniform(-2000, 2000, size=(64, 3))
    pts[:, 2] = 0.0
    for ref in (REF_M, 500.0):
        at_1m = budget_at_1m(budget, ref)
        vec_p, vec_g = received_power_matrix(L, at_1m, pts, gradient=True)
        loop_p, loop_g = pairwise_loop(L, pts, at_1m)
        assert vec_p.shape == (64, 3) and vec_g.shape == (64, 3, 3)
        assert np.array_equal(vec_p, loop_p)
        assert np.array_equal(vec_g, loop_g)
        assert np.array_equal(received_power_matrix(L, at_1m, pts), vec_p)


def test_kernel_leading_axes_are_independent_batches():
    # (R, B, 3) transmitters at (R, N, 3) points: each replication's block is
    # the kernel on that replication alone, bit for bit, and so is the
    # loop of one-pair calls over the same leading axis
    rng = np.random.default_rng(10)
    L = np.concatenate([rng.uniform(-1500, 1500, (3, 4, 2)), rng.uniform(10, 90, (3, 4, 1))], -1)
    X = np.concatenate([rng.uniform(-2000, 2000, (3, 9, 2)), np.zeros((3, 9, 1))], -1)
    budget = np.array([7.0, 9.0, 9.0, 12.0]) - 94.0
    powers, grads = received_power_matrix(L, budget_at_1m(budget, REF_M), X, gradient=True)
    assert powers.shape == (3, 9, 4) and grads.shape == (3, 9, 4, 3)
    for r in range(3):
        p_r, g_r = received_power_matrix(L[r], budget_at_1m(budget, REF_M), X[r], gradient=True)
        assert np.array_equal(powers[r], p_r) and np.array_equal(grads[r], g_r)
    loop_p, loop_g = pairwise_loop(L, X, budget_at_1m(budget, REF_M))
    assert np.array_equal(powers, loop_p) and np.array_equal(grads, loop_g)
    # one set of transmitters broadcast over the points of every replication
    at_1m = budget_at_1m(budget, REF_M)
    assert np.array_equal(received_power_matrix(L[0], at_1m, X),
                          np.stack([received_power_matrix(L[0], at_1m, x) for x in X]))


def test_received_power_matrix_shape_and_values():
    placements = [(0.0, 0.0, 30.0), (1000.0, 0.0, 30.0)]
    budget = [BUDGET, 7.0 - 94.0]
    pts = [(500.0, 100.0, 0.0), (-200.0, 50.0, 0.0), (30.0, 40.0, 0.0)]
    mat = received_power_matrix(placements, budget_at_1m(budget, REF_M), pts)
    assert mat.shape == (3, 2)
    for i, p in enumerate(pts):
        for b in range(2):
            assert mat[i, b] == power(placements[b], p, budget[b])


def test_kernel_needs_one_budget_per_transmitter():
    # one budget is not silently applied to every transmitter, and a short
    # array is named, not left to numpy's broadcast error
    L = np.array([[0.0, 0.0, 30.0], [500.0, 500.0, 30.0], [900.0, 0.0, 30.0]])
    X = np.array([[100.0, 100.0, 0.0]])
    for budget in ([BUDGET], [BUDGET, BUDGET], [BUDGET] * 4, BUDGET):
        message = (f"need one link budget per transmitter: budget_dbm has shape "
                   f"{np.shape(budget)} for 3 transmitters")
        for grad in (False, True):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                received_power_matrix(L, budget, X, gradient=grad)
    # with a leading batch axis the count is still the transmitters'
    with pytest.raises(ValueError, match=re.escape("shape (2,) for 3 transmitters")):
        received_power_matrix(np.stack([L, L]), [BUDGET, BUDGET], X)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(ref_gain_db=-94.0, ref_distance_m=0.0)
    with pytest.raises(ValueError):
        ChannelParams(ref_gain_db=-94.0, ref_distance_m=math.inf)
    with pytest.raises(ValueError):
        ChannelParams(ref_gain_db=math.nan, ref_distance_m=1000.0)
    # the bound stays: a scenario rejected before is rejected still
    with pytest.raises(ValueError, match="ref_distance_m must be finite and at least 1e-150 m"):
        ChannelParams(ref_gain_db=-94.0, ref_distance_m=1e-300)
    # at the bound, the farthest separation positions allow still has a finite power
    prm = ChannelParams(ref_gain_db=-94.0, ref_distance_m=MIN_REF_DISTANCE_M)
    with np.errstate(all="raise"):
        p = received_power_matrix([[-MAX_COORD_M, -MAX_COORD_M, 0.0]],
                                  budget_at_1m([10.0 + prm.ref_gain_db], prm.ref_distance_m),
                                  [[MAX_COORD_M, MAX_COORD_M, MAX_COORD_M]])
    assert np.isfinite(p).all()


def test_power_kernel_evaluates_in_place():
    # the powers are built in the array they are returned in; a chain of
    # temporaries the size of that array, above malloc's mmap threshold at this
    # snapshot's size, faulted fresh pages in at every call
    rng = np.random.default_rng(5)
    L = np.concatenate([rng.uniform(0.0, 7000.0, (20, 5, 2)),
                        rng.uniform(50.0, 200.0, (20, 5, 1))], axis=2)
    X = np.concatenate([rng.uniform(0.0, 7000.0, (20, 202, 2)), np.zeros((20, 202, 1))], axis=2)
    budget = np.full(5, BUDGET)
    tracemalloc.start()
    try:
        out = received_power_matrix(L, budget_at_1m(budget, REF_M), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (20, 202, 5)
    assert peak <= 3 * out.nbytes


def test_kernel_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    L = np.column_stack([rng.uniform(-2000, 2000, (4, 2)), rng.uniform(20, 200, 4)])
    X = np.column_stack([rng.uniform(-2000, 2000, (30, 2)), np.zeros(30)])
    budget = rng.uniform(5, 15, 4) - 94.0
    powers, grads = received_power_matrix(L, budget_at_1m(budget, REF_M), X, gradient=True)
    h = 1e-3
    fd = np.empty_like(grads)
    for b in range(4):
        for k in range(3):
            up, down = L.copy(), L.copy()
            up[b, k] += h
            down[b, k] -= h
            p_up = received_power_matrix(up, budget_at_1m(budget, REF_M), X)
            p_down = received_power_matrix(down, budget_at_1m(budget, REF_M), X)
            fd[:, b, k] = (p_up[:, b] - p_down[:, b]) / (2 * h)
            # moving one transmitter changes only its own column
            assert np.array_equal(np.delete(p_up, b, axis=1), np.delete(powers, b, axis=1))
    for n in range(30):
        for b in range(4):
            assert helpers.rel_err(grads[n, b], fd[n, b]) < 1e-6


def test_kernel_rejects_coincident_user_in_batch():
    L = np.array([[0.0, 0.0, 30.0], [500.0, 500.0, 30.0]])
    X = np.array([[100.0, 100.0, 0.0], [500.0, 500.0, 29.95], [900.0, 0.0, 0.0]])
    with pytest.raises(CoincidentPositionsError):
        received_power_matrix(L, budget_at_1m([BUDGET, BUDGET], REF_M), X, gradient=True)
    with pytest.raises(CoincidentPositionsError):
        received_power_matrix(L, budget_at_1m([BUDGET, BUDGET], REF_M), X)
