import math

import numpy as np
import pytest

import helpers
from helpers import dbm_to_linear, linear_to_dbm
from airbs_sgd.channel import (
    ChannelParams,
    CoincidentPositionsError,
    Position,
    free_space_power_dbm,
    free_space_power_gradient,
    positions_to_array,
    received_power_matrix,
)

PARAMS = ChannelParams(ref_gain_db=-94.0, ref_distance_m=1000.0, tx_power_dbm=12.0)


def test_power_at_reference_distance():
    p = free_space_power_dbm(Position(1000.0, 0.0, 0.0), Position(0.0, 0.0, 0.0), PARAMS)
    assert p == pytest.approx(-82.0, abs=1e-12)


def test_power_one_doubling_down_6dB():
    p = free_space_power_dbm(Position(2000.0, 0.0, 0.0), Position(0.0, 0.0, 0.0), PARAMS)
    assert p == pytest.approx(-88.0206, abs=1e-4)


def test_calibration_identity():
    prm = ChannelParams(ref_gain_db=-94.0, ref_distance_m=1000.0, tx_power_dbm=0.0)
    p = free_space_power_dbm(Position(0.0, 1000.0, 0.0), Position(0.0, 0.0, 0.0), prm)
    assert p == prm.ref_gain_db


def test_power_linear_domain_route():
    # independent route: inverse-square law in milliwatts, then to dBm
    rng = np.random.default_rng(7)
    for _ in range(50):
        l_b = Position(*rng.uniform(-3000, 3000, 3).tolist()[:2], rng.uniform(10, 300))
        x_m = Position(*rng.uniform(-3000, 3000, 2).tolist(), 0.0)
        d = math.dist((l_b.x, l_b.y, l_b.z), (x_m.x, x_m.y, x_m.z))
        p_mw = dbm_to_linear(PARAMS.tx_power_dbm) * dbm_to_linear(PARAMS.ref_gain_db) \
            * (PARAMS.ref_distance_m / d) ** 2
        assert free_space_power_dbm(l_b, x_m, PARAMS) == pytest.approx(
            float(linear_to_dbm(p_mw)), rel=1e-12)


def test_gradient_east_geometry():
    g = free_space_power_gradient(Position(1000.0, 0.0, 0.0), Position(0.0, 0.0, 0.0), PARAMS)
    assert g[0] == pytest.approx(-8.6859e-3, abs=1e-7)
    assert g[1] == 0.0 and g[2] == 0.0


def test_gradient_points_toward_user():
    rng = np.random.default_rng(3)
    for _ in range(100):
        l_b = Position(*rng.uniform(-5000, 5000, 2).tolist(), rng.uniform(5, 500))
        x_m = Position(*rng.uniform(-5000, 5000, 2).tolist(), 0.0)
        g = free_space_power_gradient(l_b, x_m, PARAMS)
        toward = np.array([x_m.x - l_b.x, x_m.y - l_b.y, x_m.z - l_b.z])
        assert float(np.dot(g, toward)) > 0.0


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
        xp = Position(*x_m.tolist())

        def f(v):
            return free_space_power_dbm(Position(*v.tolist()), xp, PARAMS)

        fd = helpers.central_diff(f, l_b, h=1e-3)
        g = free_space_power_gradient(Position(*l_b.tolist()), xp, PARAMS)
        assert helpers.rel_err(g, fd) < 1e-6


def test_monotone_decreasing_in_distance():
    x_m = Position(0.0, 0.0, 0.0)
    powers = [free_space_power_dbm(Position(d, 0.0, 0.0), x_m, PARAMS)
              for d in (10, 50, 100, 500, 1000, 5000)]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_isotropy():
    d = 321.7
    base = free_space_power_dbm(Position(d, 0.0, 0.0), Position(0.0, 0.0, 0.0), PARAMS)
    for theta in (0.3, 1.2, 2.9):
        l_b = Position(d * math.cos(theta), d * math.sin(theta), 0.0)
        assert free_space_power_dbm(l_b, Position(0.0, 0.0, 0.0), PARAMS) == pytest.approx(
            base, abs=1e-9)
    shifted = free_space_power_dbm(Position(100.0 + d, 50.0, 7.0), Position(100.0, 50.0, 7.0),
                                   PARAMS)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_coincident_positions_rejected():
    a = Position(5.0, 5.0, 5.0)
    b = Position(5.0, 5.0, 5.05)
    with pytest.raises(CoincidentPositionsError):
        free_space_power_dbm(a, b, PARAMS)
    with pytest.raises(CoincidentPositionsError):
        free_space_power_gradient(a, b, PARAMS)


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


def pairwise_loop(L, X, params):
    """Powers and gradients from one one-pair kernel call per (transmitter, point)."""
    lead = np.broadcast_shapes(L.shape[:-2], X.shape[:-2])
    L = np.broadcast_to(L, lead + L.shape[-2:])
    X = np.broadcast_to(X, lead + X.shape[-2:])
    powers = np.empty(lead + (X.shape[-2], L.shape[-2]))
    grads = np.empty(powers.shape + (3,))
    for k in np.ndindex(lead):
        for n, x in enumerate(X[k]):
            for b, (l_b, prm) in enumerate(zip(L[k], params)):
                p, g = received_power_matrix(l_b[None], (prm,), x[None], gradient=True)
                powers[k + (n, b)], grads[k + (n, b)] = p[0, 0], g[0, 0]
    return powers, grads


def test_vectorized_points_match_scalar():
    # the batched kernel against a loop of one-pair calls: every entry is
    # computed elementwise, so batching changes no bit
    rng = np.random.default_rng(9)
    L = np.array([[100.0, 200.0, 30.0], [-700.0, 50.0, 80.0], [1500.0, -900.0, 10.0]])
    params = [PARAMS, ChannelParams(-94.0, 1000.0, 7.0), ChannelParams(-90.0, 500.0, 9.0)]
    pts = rng.uniform(-2000, 2000, size=(64, 3))
    pts[:, 2] = 0.0
    vec_p, vec_g = received_power_matrix(L, params, pts, gradient=True)
    loop_p, loop_g = pairwise_loop(L, pts, params)
    assert vec_p.shape == (64, 3) and vec_g.shape == (64, 3, 3)
    assert np.array_equal(vec_p, loop_p)
    assert np.array_equal(vec_g, loop_g)
    assert np.array_equal(received_power_matrix(L, params, pts), vec_p)


def test_kernel_leading_axes_are_independent_batches():
    # (R, B, 3) transmitters at (R, N, 3) points: each replication's block is
    # the kernel on that replication alone, bit for bit, and so is the
    # loop of one-pair calls over the same leading axis
    rng = np.random.default_rng(10)
    L = np.concatenate([rng.uniform(-1500, 1500, (3, 4, 2)), rng.uniform(10, 90, (3, 4, 1))], -1)
    X = np.concatenate([rng.uniform(-2000, 2000, (3, 9, 2)), np.zeros((3, 9, 1))], -1)
    params = [ChannelParams(-94.0, 1000.0, float(p)) for p in (7.0, 9.0, 9.0, 12.0)]
    powers, grads = received_power_matrix(L, params, X, gradient=True)
    assert powers.shape == (3, 9, 4) and grads.shape == (3, 9, 4, 3)
    for r in range(3):
        p_r, g_r = received_power_matrix(L[r], params, X[r], gradient=True)
        assert np.array_equal(powers[r], p_r) and np.array_equal(grads[r], g_r)
    loop_p, loop_g = pairwise_loop(L, X, params)
    assert np.array_equal(powers, loop_p) and np.array_equal(grads, loop_g)
    # one set of transmitters broadcast over the points of every replication
    assert np.array_equal(received_power_matrix(L[0], params, X),
                          np.stack([received_power_matrix(L[0], params, x) for x in X]))


def test_received_power_matrix_shape_and_values():
    placements = [Position(0.0, 0.0, 30.0), Position(1000.0, 0.0, 30.0)]
    params = [PARAMS, ChannelParams(-94.0, 1000.0, 7.0)]
    pts = [Position(500.0, 100.0, 0.0), Position(-200.0, 50.0, 0.0), Position(30.0, 40.0, 0.0)]
    mat = received_power_matrix(placements, params, pts)
    assert mat.shape == (3, 2)
    for i, p in enumerate(pts):
        for b in range(2):
            assert mat[i, b] == free_space_power_dbm(placements[b], p, params[b])


def test_position_validation():
    with pytest.raises(ValueError):
        Position(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Position(0.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        Position(0.0, 0.0, -1.0)
    p = Position(1.0, 2.0, 3.0)
    assert Position.from_array(p.as_array()) == p


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(ref_gain_db=-94.0, ref_distance_m=0.0, tx_power_dbm=10.0)
    with pytest.raises(ValueError):
        ChannelParams(ref_gain_db=math.nan, ref_distance_m=1000.0, tx_power_dbm=10.0)


def test_positions_to_array_forms():
    arr = positions_to_array([Position(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
    assert arr.shape == (2, 3)
    assert arr[1, 2] == 6.0


def test_kernel_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    L = np.column_stack([rng.uniform(-2000, 2000, (4, 2)), rng.uniform(20, 200, 4)])
    X = np.column_stack([rng.uniform(-2000, 2000, (30, 2)), np.zeros(30)])
    params = [ChannelParams(-94.0, 1000.0, float(p)) for p in rng.uniform(5, 15, 4)]
    powers, grads = received_power_matrix(L, params, X, gradient=True)
    h = 1e-3
    fd = np.empty_like(grads)
    for b in range(4):
        for k in range(3):
            up, down = L.copy(), L.copy()
            up[b, k] += h
            down[b, k] -= h
            p_up = received_power_matrix(up, params, X)
            fd[:, b, k] = (p_up[:, b] - received_power_matrix(down, params, X)[:, b]) / (2 * h)
            # moving one transmitter changes only its own column
            assert np.array_equal(np.delete(p_up, b, axis=1), np.delete(powers, b, axis=1))
    for n in range(30):
        for b in range(4):
            assert helpers.rel_err(grads[n, b], fd[n, b]) < 1e-6


def test_kernel_rejects_coincident_user_in_batch():
    L = np.array([[0.0, 0.0, 30.0], [500.0, 500.0, 30.0]])
    X = np.array([[100.0, 100.0, 0.0], [500.0, 500.0, 29.95], [900.0, 0.0, 0.0]])
    with pytest.raises(CoincidentPositionsError):
        received_power_matrix(L, [PARAMS, PARAMS], X, gradient=True)
    with pytest.raises(CoincidentPositionsError):
        received_power_matrix(L, [PARAMS, PARAMS], X)
