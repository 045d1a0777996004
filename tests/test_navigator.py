import math

import numpy as np
import pytest

from helpers import agent_gradient
from airbs_sgd.channel import ChannelParams, received_power_matrix
from airbs_sgd.navigator import StepSchedule, batched_update
from airbs_sgd.utility import (
    UtilityConfig,
    UtilityFamily,
    network_utility_gradient,
)

PRM = ChannelParams(-94.0, 1000.0, 12.0)


def packet(placements, params, mu):
    """One packet from the user at ``mu``: its location (1, 3), its (1, B)
    powers and the agents' (1, B, 3) power gradients there."""
    mu = np.array([mu], dtype=float)
    powers, grads = received_power_matrix(placements, params, mu, gradient=True)
    return mu, powers, grads


def test_saturated_sigmoid_gives_negligible_gradient():
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -40.0, 2.0)
    position = np.array([0.0, 0.0, 30.0])
    mu, powers, _ = packet(position[None], [PRM], (500.0, 0.0, 0.0))
    g = agent_gradient(position, PRM, 0, mu, powers, cfg)
    # measured power is ~60 dB under the target; the sigmoid slope underflows
    assert float(np.linalg.norm(g)) < 1e-40


def test_pinned_east_geometry_magnitude():
    # user due east at the sigmoid midpoint: gradient points east with
    # magnitude (1.5/delta) * (8.6859/d)
    d = 600.0
    position = np.zeros(3)
    mu, powers, _ = packet(position[None], [PRM], (d, 0.0, 0.0))
    delta = 2.0
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4,
                        float(powers[0, 0]) - delta / 2.0, delta)
    g = agent_gradient(position, PRM, 0, mu, powers, cfg)
    assert g[0] > 0.0 and g[1] == 0.0 and g[2] == 0.0
    want = (1.5 / delta) * (20.0 / math.log(10.0)) / d
    assert float(np.linalg.norm(g)) == pytest.approx(want, rel=1e-12)


def test_enumeration_matches_network_gradient():
    rng = np.random.default_rng(40)
    b, m = 3, 25
    placements = np.array([[*rng.uniform(0, 2000, 2), 40.0] for _ in range(b)])
    params = [ChannelParams(-94.0, 1000.0, rng.uniform(5, 15)) for _ in range(b)]
    mus = np.array([[*rng.uniform(0, 2000, 2), 0.0] for _ in range(m)])
    w = rng.uniform(0.5, 1.5, m)
    w = w / w.sum()
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -78.0, 3.0)

    powers = received_power_matrix(placements, params, mus)
    stacked = np.zeros((b, 3))
    for idx in range(m):
        for i in range(b):
            stacked[i] += w[idx] * agent_gradient(placements[i], params[i], i, mus[idx:idx + 1],
                                                  powers[idx:idx + 1], cfg)
    oracle = network_utility_gradient(placements, mus, w, cfg, params)
    assert np.linalg.norm(stacked - oracle) / np.linalg.norm(oracle) < 1e-9


def test_gradient_ignores_other_agents_state():
    # agent 1's row of the batched step reads only its own position and
    # power gradient, plus the packet
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -85.0, 2.0)
    rng = np.random.default_rng(41)
    placements = np.array([[100.0 * i, 50.0, 30.0] for i in range(4)])
    _, powers, grads = packet(placements, [PRM] * 4, (180.0, 90.0, 0.0))
    before = batched_update(placements, grads, powers, cfg, 1e4, 30.0)
    others = [0, 2, 3]
    placements[others] = np.column_stack([rng.uniform(0, 5000, (3, 2)), rng.uniform(10, 200, 3)])
    grads[:, others] = rng.standard_normal((1, 3, 3))
    after = batched_update(placements, grads, powers, cfg, 1e4, 30.0)
    assert np.array_equal(before[1], after[1])


def test_apply_update_arithmetic():
    # a user due east at the agent's height: only x moves, by eta times the
    # packet's gradient
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -85.0, 2.0)
    position = np.array([[10.0, 20.0, 30.0]])
    mu, powers, grads = packet(position, [PRM], (610.0, 20.0, 30.0))
    g = agent_gradient(position[0], PRM, 0, mu, powers, cfg)
    assert g[0] > 0.0 and g[1] == 0.0 and g[2] == 0.0
    new = batched_update(position, grads, powers, cfg, 5.0)
    assert np.array_equal(new, [[10.0 + 5.0 * g[0], 20.0, 30.0]])


def test_apply_update_zero_gradient():
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -85.0, 2.0)
    position = np.array([[1.0, 2.0, 3.0]])
    new = batched_update(position, np.zeros((4, 1, 3)), np.full((4, 1), -90.0), cfg, 5.0)
    assert np.array_equal(new, position)


def test_apply_update_fixed_height_projection():
    # z is pinned exactly while x and y move
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -85.0, 2.0)
    position = np.array([[0.0, 0.0, 30.0]])
    mu, powers, grads = packet(position, [PRM], (400.0, -300.0, 0.0))
    assert grads[0, 0, 2] != 0.0
    new = batched_update(position, grads, powers, cfg, 1e6, 30.0)
    assert new[0, 2] == 30.0
    assert new[0, 0] > 0.0 and new[0, 1] < 0.0


def test_step_schedule():
    sch = StepSchedule(eta0=5.0, minibatch_size=50)
    assert sch.eta(0) == 5.0 and sch.eta(99) == 5.0
    scaled = StepSchedule(eta0=5.0, minibatch_size=50, eta_scale=1e6)
    assert scaled.eta(3) == 5e6
    dec = StepSchedule(eta0=10.0, minibatch_size=1, decay="harmonic")
    assert dec.eta(0) == 10.0
    assert dec.eta(9) == pytest.approx(1.0)
    assert StepSchedule(eta0=0.0, minibatch_size=1).eta(0) == 0.0  # frozen control
    with pytest.raises(ValueError):
        StepSchedule(eta0=-1.0, minibatch_size=10)
    with pytest.raises(ValueError):
        StepSchedule(eta0=1.0, minibatch_size=0)
    with pytest.raises(ValueError):
        StepSchedule(eta0=1.0, minibatch_size=5, decay="exponential")
    with pytest.raises(ValueError):
        StepSchedule(eta0=1.0, minibatch_size=5, eta_scale=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eta_scale must be finite"):
            StepSchedule(eta0=1.0, minibatch_size=5, eta_scale=bad)
