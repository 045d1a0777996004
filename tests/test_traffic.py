import math

import numpy as np
import pytest

from airbs_sgd.channel import ChannelParams, received_power_matrix
from airbs_sgd.traffic import TrafficProfile, sample_recipient
from airbs_sgd.utility import UtilityConfig, UtilityFamily, oracle, user_utility

PARAMS = [ChannelParams(-94.0, 1000.0, 9.0), ChannelParams(-94.0, 1000.0, 12.0)]
PLACEMENTS = np.array([[100.0, 100.0, 30.0], [900.0, 400.0, 30.0]])
MUS = np.array([[50.0, 80.0, 0.0], [500.0, 500.0, 0.0], [950.0, 300.0, 0.0]])


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(pi=(0.5, 0.4))
    with pytest.raises(ValueError):
        TrafficProfile(pi=(1.5, -0.5))
    with pytest.raises(ValueError):
        TrafficProfile(pi=())
    TrafficProfile(pi=(0.25, 0.25, 0.5))


def test_profile_uniform():
    prof = TrafficProfile.uniform(202)
    assert len(prof.pi) == 202
    assert math.fsum(prof.pi) == pytest.approx(1.0, abs=1e-12)


def test_sample_degenerate_distribution():
    prof = TrafficProfile(pi=(1.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(0)
    assert all(sample_recipient(prof, rng) == 0 for _ in range(100))


def test_sample_frequencies_within_three_sigma():
    m = 10
    prof = TrafficProfile.uniform(m)
    rng = np.random.default_rng(123)
    n = 100_000
    draws = sample_recipient(prof, rng, size=n)
    counts = np.bincount(draws, minlength=m)
    sigma = math.sqrt(n * (1 / m) * (1 - 1 / m))
    assert np.all(np.abs(counts - n / m) <= 3.0 * sigma)


@pytest.mark.parametrize("size", [None, 50], ids=["scalar", "q"])
@pytest.mark.parametrize("profile", [
    TrafficProfile.uniform(202),
    TrafficProfile(pi=tuple(np.r_[0.0, 0.0, np.random.default_rng(4).dirichlet(np.full(40, 0.2))])),
], ids=["uniform", "skewed"])
def test_sample_matches_generator_choice(profile, size):
    # the CDF built once per profile draws what rng.choice draws, and
    # leaves the generator in the same state
    ours, theirs = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(50):
        got = sample_recipient(profile, ours, size=size)
        want = theirs.choice(len(profile.pi), size=size, p=profile.as_array())
        assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert profile.cdf is profile.cdf


def test_sample_deterministic_given_seed():
    prof = TrafficProfile(pi=(0.2, 0.3, 0.5))
    a = [sample_recipient(prof, np.random.default_rng(42)) for _ in range(1)]
    seq1 = sample_recipient(prof, np.random.default_rng(7), size=50)
    seq2 = sample_recipient(prof, np.random.default_rng(7), size=50)
    assert np.array_equal(seq1, seq2)
    assert isinstance(sample_recipient(prof, np.random.default_rng(0)), int)
    assert a[0] in (0, 1, 2)


def test_packet_shape_and_exact_powers():
    # a packet's reported powers: one kernel row at the recipient, entry b
    # from transmitter b alone
    reported = received_power_matrix(PLACEMENTS, PARAMS, MUS[[1]])
    assert reported.shape == (1, 2)
    for b in range(2):
        assert reported[0, b] == received_power_matrix(PLACEMENTS[[b]], PARAMS[b:b + 1],
                                                       MUS[[1]])[0, 0]


def test_estimate_single_packet_equals_user_utility():
    # the utility estimate is the mean of user_utility over the packets' rows
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -91.0, 2.0)
    reported = received_power_matrix(PLACEMENTS, PARAMS, MUS[[2]])
    est = float(np.mean(user_utility(reported, cfg)))
    assert est == float(user_utility(reported[0], cfg))


def test_estimate_constant_utility():
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -91.0, 2.0)
    reported = received_power_matrix(PLACEMENTS, PARAMS, MUS[[0]])
    for s in (1, 3, 17):
        est = float(np.mean(user_utility(np.repeat(reported, s, axis=0), cfg)))
        assert est == pytest.approx(float(user_utility(reported[0], cfg)), rel=1e-15)


def test_estimate_unbiased_by_enumeration():
    # E over the recipient distribution of the S=1 estimator is the exact
    # pi-weighted network utility; enumerate every user directly
    rng = np.random.default_rng(31)
    m = 47
    mus = np.array([[*rng.uniform(0, 3000, 2), 0.0] for _ in range(m)])
    w = rng.uniform(0.2, 1.0, m)
    w = w / w.sum()
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -80.0, 3.0)
    expectation = 0.0
    for idx in range(m):
        powers = received_power_matrix(PLACEMENTS, PARAMS, mus[idx:idx + 1])
        expectation += w[idx] * float(np.mean(user_utility(powers, cfg)))
    exact = oracle(PLACEMENTS, mus, w, cfg, PARAMS)[0]
    assert expectation == pytest.approx(exact, rel=1e-12)
