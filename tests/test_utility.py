import math
import tracemalloc
from typing import get_args

import numpy as np
import pytest

import helpers
from helpers import budget_at_1m, network_utility_gradient
from airbs_sgd.channel import received_power_matrix
from airbs_sgd.utility import (
    Family,
    UtilityConfig,
    _logistic,
    oracle,
    sigmoid_delta,
    sigmoid_delta_deriv,
    smooth_max_dbm,
    softmax_weights,
    user_utility,
    user_utility_partials,
)

FAMILIES = get_args(Family)


def cfg_for(family, **kw):
    base = dict(noise_dbm=-112.4, p_min_dbm=-91.0, delta_db=2.0, softmax_alpha=1.0)
    base.update(kw)
    return UtilityConfig(family=family, **base)


def conditioned_cfg(family, p, rng):
    """Config whose active band brackets the given powers.

    Anchors the threshold and noise floor to the soft max (or sum power)
    of ``p`` so that no branch of any family sits in double-precision
    saturation; finite-difference cross-checks are ill-posed there (the
    difference of two values within an ulp of 1.0 is pure rounding noise).
    """
    p = np.asarray(p, dtype=float)
    alpha = rng.uniform(0.5, 3.0)
    delta = rng.uniform(1.0, 6.0)
    if family == "threshold_sigmoid_broadcast":
        anchor = 10.0 * math.log10(float(np.sum(10.0 ** (p / 10.0))))
    else:
        anchor = float(smooth_max_dbm(p, alpha))
    return UtilityConfig(
        family=family,
        noise_dbm=anchor - rng.uniform(-8.0, 12.0),
        p_min_dbm=anchor - rng.uniform(0.0, 1.0) * delta,
        delta_db=delta,
        softmax_alpha=alpha,
    )


# ---------------------------------------------------------------- smooth max

def test_smooth_max_equal_pair():
    got = smooth_max_dbm([-90.0, -90.0], alpha=1.0)
    assert got == pytest.approx(-90.0 + math.log(2.0), abs=1e-12)
    assert got == pytest.approx(-89.3069, abs=1e-4)


def test_smooth_max_dominant_entry():
    got = smooth_max_dbm([-80.0, -120.0], alpha=1.0)
    assert got == pytest.approx(-80.0 + math.log1p(math.exp(-40.0)), abs=1e-10)


def test_smooth_max_sharp_temperature():
    got = smooth_max_dbm([-77.0, -91.0], alpha=100.0)
    assert got - (-77.0) < 0.007
    assert got >= -77.0


def test_smooth_max_bound_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        b = rng.integers(1, 8)
        alpha = rng.uniform(0.2, 5.0)
        p = rng.uniform(-130.0, -40.0, b)
        phi = smooth_max_dbm(p, alpha)
        assert p.max() <= phi <= p.max() + math.log(b) / alpha + 1e-12


def test_smooth_max_extreme_values_stable():
    assert np.isfinite(smooth_max_dbm([-1e8, -1e8 + 1.0], alpha=1.0))
    assert smooth_max_dbm([1e8, -1e8], alpha=1.0) == 1e8


def test_smooth_max_batched():
    p = np.array([[-90.0, -90.0], [-80.0, -120.0]])
    out = smooth_max_dbm(p, alpha=1.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(-90.0 + math.log(2.0))


# ------------------------------------------------------------- soft-max weights

def test_softmax_equal_inputs():
    w = softmax_weights([-85.0] * 5, alpha=1.0)
    assert np.allclose(w, 0.2, atol=1e-15)


def test_softmax_dominant_entry():
    w = softmax_weights([-80.0, -120.0], alpha=1.0)
    # 1 - 1e-17 is not representable below 1.0, so >= is the strongest form
    assert w[0] >= 1.0 - 1e-17
    assert w[1] == pytest.approx(math.exp(-40.0), rel=1e-10)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = softmax_weights(rng.uniform(-130, -40, rng.integers(1, 9)), rng.uniform(0.2, 4.0))
        assert np.all(w > 0.0)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12


def test_softmax_is_gradient_of_smooth_max():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.uniform(-110, -60, 4)
        alpha = rng.uniform(0.5, 2.0)
        fd = helpers.central_diff(lambda v: smooth_max_dbm(v, alpha), p, h=1e-5)
        assert helpers.rel_err(softmax_weights(p, alpha), fd) < 1e-6


# ------------------------------------------------------------------- sigmoid

def test_sigmoid_midpoint_exact():
    for delta in (0.5, 2.0, 20.0):
        assert sigmoid_delta(delta / 2.0, delta) == 0.5


def test_sigmoid_at_zero():
    assert sigmoid_delta(0.0, 2.0) == pytest.approx(0.047426, abs=1e-6)
    assert sigmoid_delta(0.0, 2.0) == pytest.approx(1.0 / (1.0 + math.exp(3.0)), rel=1e-12)


def test_sigmoid_deriv_at_midpoint():
    for delta in (0.5, 2.0, 8.0):
        assert sigmoid_delta_deriv(delta / 2.0, delta) == pytest.approx(1.5 / delta, rel=1e-14)


def test_sigmoid_symmetry_and_monotonicity():
    delta = 2.0
    assert sigmoid_delta(0.0, delta) + sigmoid_delta(delta, delta) == pytest.approx(1.0, abs=1e-12)
    # strict value increase only checkable where the per-step change exceeds
    # an ulp of 1.0; the derivative stays positive far beyond that
    xs = np.linspace(-7.0, 9.0, 1601)
    assert np.all(np.diff(sigmoid_delta(xs, delta)) > 0.0)
    wide = np.linspace(-200.0, 200.0, 2001)
    assert np.all(sigmoid_delta_deriv(wide, delta) > 0.0)


def test_sigmoid_deriv_matches_finite_differences():
    # x kept in the band where the sigmoid is at least ~1e-3 from both
    # asymptotes; central differences are ill-conditioned in the flats
    rng = np.random.default_rng(8)
    for _ in range(50):
        delta = rng.uniform(0.5, 6.0)
        x = delta * (rng.uniform(-6.0, 6.0) + 3.0) / 6.0
        fd = (sigmoid_delta(x + 1e-6, delta) - sigmoid_delta(x - 1e-6, delta)) / 2e-6
        assert sigmoid_delta_deriv(x, delta) == pytest.approx(fd, rel=1e-6)


def test_logistic_matches_math_exp_within_4_ulp():
    z = np.concatenate([np.linspace(-800.0, 800.0, 16001), [-745.2, -709.8, -709.7, 0.0, 36.8]])

    def reference(v):
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:  # exp(-v) past the largest float: the logistic is 0
            return 0.0

    want = np.array([reference(v) for v in z.tolist()])
    assert np.all(np.abs(_logistic(z) - want) <= 4 * np.spacing(want))
    assert _logistic(-709.8) == 0.0 and _logistic(-709.7) > 0.0


def test_logistic_tails_raise_no_warning():
    # the suite turns RuntimeWarnings into errors; exp(1000) overflows
    assert np.array_equal(_logistic(np.array([-1000.0, 1000.0])), [0.0, 1.0])
    assert _logistic(-1000.0) == 0.0 and _logistic(1000.0) == 1.0
    delta = 2.0
    x = np.array([-1000.0, 1000.0]) * delta / 6.0 + delta / 2.0  # z = -1000 and 1000
    assert np.array_equal(sigmoid_delta(x, delta), [0.0, 1.0])
    assert np.array_equal(sigmoid_delta_deriv(x, delta), [0.0, 0.0])


# -------------------------------------------------------------- user utility

def test_unicast_rate_unit_snr():
    cfg = cfg_for("unicast_rate", noise_dbm=-100.0)
    assert user_utility([-100.0], cfg) == pytest.approx(1.0, abs=1e-12)


def test_threshold_unicast_midpoint():
    cfg = cfg_for("threshold_sigmoid_unicast")
    assert user_utility([cfg.p_min_dbm + cfg.delta_db / 2.0], cfg) == 0.5


def test_broadcast_rate_incoherent_sum():
    cfg = cfg_for("broadcast_rate")
    two = user_utility([-95.0, -95.0], cfg)
    one = user_utility([-95.0 + 10.0 * math.log10(2.0)], cfg)
    assert two == pytest.approx(one, rel=1e-12)
    assert 10.0 * math.log10(2.0) == pytest.approx(3.0103, abs=1e-4)


def test_threshold_broadcast_uses_sum_power():
    cfg = cfg_for("threshold_sigmoid_broadcast")
    # two equal powers 3.0103 dB below the midpoint sum to the midpoint
    p_each = cfg.p_min_dbm + cfg.delta_db / 2.0 - 10.0 * math.log10(2.0)
    assert user_utility([p_each, p_each], cfg) == pytest.approx(0.5, abs=1e-12)


def test_user_utility_monotone_in_each_power():
    rng = np.random.default_rng(10)
    for family in FAMILIES:
        for _ in range(25):
            p = rng.uniform(-100.0, -85.0, 4)
            cfg = conditioned_cfg(family, p, rng)
            base = user_utility(p, cfg)
            for b in range(4):
                bumped = p.copy()
                bumped[b] += 0.5
                assert user_utility(bumped, cfg) >= base


def test_partials_positive_all_families():
    rng = np.random.default_rng(12)
    for family in FAMILIES:
        for _ in range(25):
            p = rng.uniform(-100.0, -85.0, 5)
            cfg = conditioned_cfg(family, p, rng)
            assert np.all(user_utility_partials(p, cfg) > 0.0)


def test_partials_symmetry_equal_powers():
    cfg = cfg_for("threshold_sigmoid_unicast")
    partials = user_utility_partials([-90.5] * 5, cfg)
    assert np.allclose(partials, partials[0], atol=1e-18)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(14)
    for family in FAMILIES:
        for _ in range(100):
            p = rng.uniform(-98.0, -84.0, int(rng.integers(1, 6)))
            cfg = conditioned_cfg(family, p, rng)
            fd = helpers.central_diff(lambda v: float(user_utility(v, cfg)), p, h=1e-4)
            assert helpers.rel_err(user_utility_partials(p, cfg), fd) < 1e-6


@pytest.mark.parametrize("unicast, broadcast", [
    ("unicast_rate", "broadcast_rate"),
    ("threshold_sigmoid_unicast", "threshold_sigmoid_broadcast"),
], ids=["rate", "threshold_sigmoid"])
def test_one_transmitter_makes_unicast_and_broadcast_equal(unicast, broadcast):
    # a pair shares its reward and differs only in how the powers combine, and
    # one power combines into itself either way
    p = np.concatenate([np.random.default_rng(24).uniform(-140.0, -40.0, 200), [-1e4, 1e4]])
    for alpha in (0.3, 1.0, 7.0):
        u, b = cfg_for(unicast, softmax_alpha=alpha), cfg_for(broadcast, softmax_alpha=alpha)
        assert np.array_equal(user_utility(p[:, None], u), user_utility(p[:, None], b))
        assert np.array_equal(user_utility_partials(p[:, None], u),
                              user_utility_partials(p[:, None], b))


def test_partials_batched_shape():
    cfg = cfg_for("unicast_rate")
    p = np.random.default_rng(0).uniform(-100, -80, size=(7, 3))
    assert user_utility_partials(p, cfg).shape == (7, 3)
    assert user_utility(p, cfg).shape == (7,)


# ------------------------------------------------------------ network utility

def _small_world(rng, b=3, m=6):
    placements = np.array([[*rng.uniform(0, 2000, 2), rng.uniform(20, 120)] for _ in range(b)])
    budget = np.array([rng.uniform(5, 15) - 94.0 for _ in range(b)])
    users = np.array([[*rng.uniform(0, 2000, 2), 0.0] for _ in range(m)])
    w = rng.uniform(0.1, 1.0, m)
    w = w / w.sum()
    return placements, budget, users, w


def test_network_utility_uniform_equals_mean():
    rng = np.random.default_rng(16)
    placements, budget, users, _ = _small_world(rng)
    cfg = cfg_for("threshold_sigmoid_unicast")
    uniform = np.full(len(users), 1.0 / len(users))
    per_user = [oracle(placements, u[None], [1.0], cfg, budget_at_1m(budget, 1000.0))[0]
                for u in users]
    assert oracle(placements, users, uniform, cfg,
                  budget_at_1m(budget, 1000.0))[0] == pytest.approx(float(np.mean(per_user)),
                                                                    rel=1e-12)


def test_network_utility_single_user():
    rng = np.random.default_rng(18)
    placements, budget, users, _ = _small_world(rng, m=1)
    cfg = cfg_for("unicast_rate")
    powers = received_power_matrix(placements, budget_at_1m(budget, 1000.0), users)[0]
    assert oracle(placements, users, [1.0], cfg, budget_at_1m(budget, 1000.0))[0] == pytest.approx(
        float(user_utility(powers, cfg)), rel=1e-12)


def test_network_utility_permutation_invariance():
    rng = np.random.default_rng(20)
    placements, _, users, w = _small_world(rng, b=3)
    budget = np.full(3, 9.0 - 94.0)  # identical transmitters
    cfg = cfg_for("threshold_sigmoid_unicast")
    base = oracle(placements, users, w, cfg, budget_at_1m(budget, 1000.0))[0]
    perm = placements[[2, 0, 1]]
    assert oracle(perm, users, w, cfg, budget_at_1m(budget, 1000.0))[0] == pytest.approx(
        base, rel=1e-12)
    g = network_utility_gradient(placements, users, w, cfg, budget_at_1m(budget, 1000.0))
    gp = network_utility_gradient(perm, users, w, cfg, budget_at_1m(budget, 1000.0))
    assert np.allclose(gp, g[[2, 0, 1]], atol=1e-15)


def test_network_gradient_matches_finite_differences():
    rng = np.random.default_rng(22)
    for family in FAMILIES:
        placements, budget, users, w = _small_world(rng)
        powers = received_power_matrix(placements, budget_at_1m(budget, 1000.0), users)
        med = powers[np.argsort(np.max(powers, axis=1))[len(users) // 2]]
        cfg = conditioned_cfg(family, med, rng)

        def f(flat):
            return oracle(flat.reshape(-1, 3), users, w, cfg, budget_at_1m(budget, 1000.0))[0]

        fd = helpers.central_diff(f, placements.ravel(), h=1e-3)
        g = network_utility_gradient(placements, users, w, cfg,
                                     budget_at_1m(budget, 1000.0)).ravel()
        assert helpers.rel_err(g, fd) < 1e-6


def test_network_gradient_points_toward_single_user():
    cfg = cfg_for("threshold_sigmoid_unicast", p_min_dbm=-62.0, delta_db=20.0)
    placements = [[0.0, 0.0, 30.0]]
    user = np.array([400.0, 300.0, 0.0])
    g = network_utility_gradient(placements, user[None], [1.0], cfg,
                                 budget_at_1m([12.0 - 94.0], 1000.0))[0]
    assert float(np.dot(g[:2], user[:2])) > 0.0


def test_utility_config_validation():
    with pytest.raises(ValueError):
        cfg_for("unicast_rate", delta_db=0.0)
    with pytest.raises(ValueError):
        cfg_for("unicast_rate", softmax_alpha=0.0)
    # an infinite band or temperature would zero every partial and freeze the agents
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delta_db must be finite"):
            cfg_for("unicast_rate", delta_db=bad)
        with pytest.raises(ValueError, match="softmax_alpha must be finite"):
            cfg_for("unicast_rate", softmax_alpha=bad)
    with pytest.raises(ValueError):
        cfg_for("unicast_rate", noise_dbm=math.inf)
    cfg = cfg_for("unicast_rate")
    assert cfg.family == "unicast_rate"
    with pytest.raises(ValueError, match="unknown utility family 'bogus'"):
        cfg_for("bogus")


@pytest.mark.parametrize("call, message", [
    (lambda: cfg_for("unicast_rate", p_min_dbm=math.nan), "p_min_dbm must be finite"),
    (lambda: smooth_max_dbm([1.0, 2.0], 0.0), "alpha must be positive"),
    (lambda: sigmoid_delta([1.0], 0.0), "delta must be positive"),
    (lambda: sigmoid_delta_deriv([1.0], 0.0), "delta must be positive"),
], ids=["nan_p_min", "smooth_max_zero_alpha", "sigmoid_zero_delta", "sigmoid_deriv_zero_delta"])
def test_a_bad_parameter_raises_its_message(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


def _oracle_served(placements, users, budget, p_min):
    """The oracle's count of users whose strongest power meets ``p_min``."""
    cfg = cfg_for("threshold_sigmoid_unicast", p_min_dbm=p_min)
    return int(oracle(placements, users, np.full(len(users), 1.0 / len(users)), cfg,
                      budget_at_1m(budget, 1000.0))[1])


def test_oracle_served_count_pinned_cases():
    budget = [12.0 - 94.0]
    placements = [[0.0, 0.0, 30.0]]
    near = [0.0, 0.0, 0.0]           # right below: about -51.5 dBm
    far = [100000.0, 0.0, 0.0]       # 100 km out: about -122 dBm
    assert _oracle_served(placements, [near, far], budget, -91.0) == 1
    assert _oracle_served(placements, [near, far], budget, -300.0) == 2
    assert _oracle_served(placements, [near, far], budget, 0.0) == 0
    # ref_distance_m right above: the user receives exactly the budget, which meets the target
    assert _oracle_served([[0.0, 0.0, 1000.0]], [near], budget, budget[0]) == 1


def test_oracle_served_count_matches_brute_force():
    rng = np.random.default_rng(12)
    placements = np.array([[*rng.uniform(0, 5000, 2), 30.0] for _ in range(4)])
    budget = np.array([7.0, 9.0, 9.0, 12.0]) - 94.0
    mus = np.array([[*rng.uniform(0, 5000, 2), 0.0] for _ in range(60)])
    p_min = -89.0
    want = 0
    for mu in mus:
        best = max(float(received_power_matrix([l], budget_at_1m([budget_b], 1000.0), [mu])[0, 0])
                   for l, budget_b in zip(placements, budget))
        want += best >= p_min
    assert _oracle_served(placements, mus, budget, p_min) == want


def test_oracle_served_count_over_leading_axes():
    # one call over R replications counts each as its own call does
    rng = np.random.default_rng(13)
    placements = np.concatenate([rng.uniform(0.0, 5000.0, (6, 4, 2)),
                                 rng.uniform(20.0, 100.0, (6, 4, 1))], axis=2)
    users = np.concatenate([rng.uniform(0.0, 5000.0, (6, 40, 2)), np.zeros((6, 40, 1))], axis=2)
    budget = np.array([7.0, 9.0, 9.0, 12.0]) - 94.0
    cfg = cfg_for("threshold_sigmoid_unicast", p_min_dbm=-89.0)
    w = np.full(40, 1.0 / 40)
    _, served, best = oracle(placements, users, w, cfg, budget_at_1m(budget, 1000.0))
    assert served.shape == (6,) and best.shape == (6, 40)
    alone = [int(oracle(p, u, w, cfg, budget_at_1m(budget, 1000.0))[1])
             for p, u in zip(placements, users)]
    assert served.tolist() == alone
    assert 0 < min(alone) and max(alone) < 40


def test_oracle_return_shapes():
    rng = np.random.default_rng(14)
    placements, budget, users, w = _small_world(rng)
    cfg = cfg_for("unicast_rate")
    # (B, 3) and (M, 3): two numpy scalars and the (M,) strongest powers
    utility, served, best = oracle(placements, users, w, cfg, budget_at_1m(budget, 1000.0))
    assert type(utility) is np.float64 and isinstance(served, np.integer)
    assert best.shape == (6,)
    # (R, B, 3) and (R, M, 3): one utility and count per replication
    utility, served, best = oracle(np.stack([placements] * 2), np.stack([users] * 2), w, cfg,
                                   budget_at_1m(budget, 1000.0))
    assert utility.shape == served.shape == (2,) and best.shape == (2, 6)
    assert utility.dtype == np.float64 and served.dtype.kind == "i"


def test_oracle_snapshot_evaluates_in_place():
    # a snapshot of 20 replications: the kernel's powers and the soft maximum's
    # exponentials are its only arrays of their size (see test_channel's
    # test_power_kernel_evaluates_in_place)
    rng = np.random.default_rng(5)
    placements = np.concatenate([rng.uniform(0.0, 7000.0, (20, 5, 2)),
                                 rng.uniform(50.0, 200.0, (20, 5, 1))], axis=2)
    users = np.concatenate([rng.uniform(0.0, 7000.0, (20, 202, 2)),
                            np.zeros((20, 202, 1))], axis=2)
    cfg = cfg_for("threshold_sigmoid_unicast")
    budget = np.full(5, 12.0 - 94.0)
    tracemalloc.start()
    try:
        oracle(placements, users, np.full(202, 1.0 / 202), cfg, budget_at_1m(budget, 1000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (20 * 5 * 202 * 8)
