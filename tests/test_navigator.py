import math

import numpy as np
import pytest

from airbs_sgd.channel import ChannelParams, Position, free_space_power_dbm
from airbs_sgd.navigator import (
    AirBsAgent,
    StepSchedule,
    accumulate,
    agent_partial_gradient,
    apply_update,
    clamp_speed,
    smooth_waypoints,
)
from airbs_sgd.traffic import make_control_packet
from airbs_sgd.utility import (
    UtilityConfig,
    UtilityFamily,
    network_utility_gradient,
)

PRM = ChannelParams(-94.0, 1000.0, 12.0)


def make_agent(x=0.0, y=0.0, z=30.0, index=0, fixed=None, prm=PRM):
    return AirBsAgent(index=index, position=Position(x, y, z), channel_params=prm,
                      fixed_height=fixed)


def test_saturated_sigmoid_gives_negligible_gradient():
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -40.0, 2.0)
    agent = make_agent()
    mu = Position(500.0, 0.0, 0.0)
    pkt = make_control_packet(0, [mu], [agent.position], [PRM])
    g = agent_partial_gradient(agent, pkt, cfg)
    # measured power is ~60 dB under the target; the sigmoid slope underflows
    assert float(np.linalg.norm(g)) < 1e-40


def test_pinned_east_geometry_magnitude():
    # user due east at the sigmoid midpoint: gradient points east with
    # magnitude (1.5/delta) * (8.6859/d)
    d = 600.0
    agent = make_agent(0.0, 0.0, 0.0)
    mu = Position(d, 0.0, 0.0)
    p = free_space_power_dbm(agent.position, mu, PRM)
    delta = 2.0
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4,
                        p - delta / 2.0, delta)
    g = agent_partial_gradient(agent, make_control_packet(0, [mu], [agent.position], [PRM]), cfg)
    assert g[0] > 0.0 and g[1] == 0.0 and g[2] == 0.0
    want = (1.5 / delta) * (20.0 / math.log(10.0)) / d
    assert float(np.linalg.norm(g)) == pytest.approx(want, rel=1e-12)


def test_enumeration_matches_network_gradient():
    rng = np.random.default_rng(40)
    b, m = 3, 25
    placements = [Position(*rng.uniform(0, 2000, 2).tolist(), 40.0) for _ in range(b)]
    params = [ChannelParams(-94.0, 1000.0, rng.uniform(5, 15)) for _ in range(b)]
    agents = [AirBsAgent(index=i, position=placements[i], channel_params=params[i])
              for i in range(b)]
    mus = [Position(*rng.uniform(0, 2000, 2).tolist(), 0.0) for _ in range(m)]
    w = rng.uniform(0.5, 1.5, m)
    w = w / w.sum()
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -78.0, 3.0)

    stacked = np.zeros((b, 3))
    for idx in range(m):
        pkt = make_control_packet(idx, mus, placements, params)
        for i, agent in enumerate(agents):
            stacked[i] += w[idx] * agent_partial_gradient(agent, pkt, cfg)
    oracle = network_utility_gradient(placements, list(zip(mus, w)), cfg, params)
    assert np.linalg.norm(stacked - oracle) / np.linalg.norm(oracle) < 1e-9


def test_gradient_ignores_other_agents_state():
    cfg = UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -85.0, 2.0)
    rng = np.random.default_rng(41)
    agents = [make_agent(100.0 * i, 50.0, 30.0, index=i) for i in range(4)]
    mu = Position(180.0, 90.0, 0.0)
    pkt = make_control_packet(0, [mu], [a.position for a in agents],
                              [a.channel_params for a in agents])
    before = agent_partial_gradient(agents[1], pkt, cfg)
    for a in agents:
        if a.index != 1:
            a.position = Position(*rng.uniform(0, 5000, 2).tolist(), rng.uniform(10, 200))
            a.minibatch_sum = rng.standard_normal(3)
            a.minibatch_count = int(rng.integers(1, 50))
    after = agent_partial_gradient(agents[1], pkt, cfg)
    assert np.array_equal(before, after)


def test_accumulate_mean_identities():
    agent = make_agent()
    g = np.array([0.5, -1.0, 2.0])
    for _ in range(10):
        accumulate(agent, g)
    assert agent.minibatch_count == 10
    assert np.allclose(agent.minibatch_sum / agent.minibatch_count, g, atol=1e-15)

    agent2 = make_agent()
    for _ in range(5):
        accumulate(agent2, np.zeros(3))
    assert np.array_equal(agent2.minibatch_sum, np.zeros(3))

    agent3 = make_agent()
    rng = np.random.default_rng(3)
    grads = rng.standard_normal((23, 3))
    for row in grads:
        accumulate(agent3, row)
    assert np.allclose(agent3.minibatch_sum / agent3.minibatch_count,
                       grads.mean(axis=0), atol=1e-15)


def test_apply_update_arithmetic():
    agent = make_agent(10.0, 20.0, 30.0)
    accumulate(agent, np.array([1.0, 0.0, 0.0]))
    apply_update(agent, 5.0)
    assert agent.position == Position(15.0, 20.0, 30.0)
    assert agent.minibatch_count == 0
    assert np.array_equal(agent.minibatch_sum, np.zeros(3))


def test_apply_update_zero_gradient():
    agent = make_agent(1.0, 2.0, 3.0)
    accumulate(agent, np.zeros(3))
    apply_update(agent, 5.0)
    assert agent.position == Position(1.0, 2.0, 3.0)


def test_apply_update_requires_minibatch():
    with pytest.raises(ValueError):
        apply_update(make_agent(), 1.0)


def test_apply_update_fixed_height_projection():
    agent = make_agent(0.0, 0.0, 30.0, fixed=30.0)
    accumulate(agent, np.array([2.0, -3.0, 17.0]))
    apply_update(agent, 1.0)
    assert agent.position == Position(2.0, -3.0, 30.0)


def test_agent_fixed_height_repins_on_construction():
    agent = AirBsAgent(index=0, position=Position(0.0, 0.0, 10.0),
                       channel_params=PRM, fixed_height=30.0)
    assert agent.position.z == 30.0


def test_smooth_waypoints_identity_and_constant():
    pts = [Position(float(i), float(i * i), 5.0) for i in range(6)]
    assert smooth_waypoints(pts, 1) == pts
    const = [Position(3.0, 4.0, 5.0)] * 7
    assert smooth_waypoints(const, 3) == const


def test_smooth_waypoints_alternating():
    pts = [Position(x, 0.0, 0.0) for x in (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0)]
    out = smooth_waypoints(pts, 3)
    assert len(out) == len(pts)
    for p in out[1:-1]:
        assert abs(p.x) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert out[0] == pts[0] and out[-1] == pts[-1]


def test_smooth_waypoints_window_validation():
    pts = [Position(0.0, 0.0, 0.0)] * 3
    for bad in (0, -1, 2, 4):
        with pytest.raises(ValueError):
            smooth_waypoints(pts, bad)


def test_clamp_speed():
    a = Position(0.0, 0.0, 0.0)
    near = Position(3.0, 4.0, 0.0)
    assert clamp_speed(a, near, 10.0) == near
    far = Position(100.0, 0.0, 0.0)
    clamped = clamp_speed(a, far, 10.0)
    assert clamped == Position(10.0, 0.0, 0.0)
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = Position(*rng.uniform(-100, 100, 2).tolist(), rng.uniform(0, 100))
        q = Position(*rng.uniform(-100, 100, 2).tolist(), rng.uniform(0, 100))
        vmax = rng.uniform(0.5, 50.0)
        c = clamp_speed(p, q, vmax)
        moved = math.dist((p.x, p.y, p.z), (c.x, c.y, c.z))
        assert moved <= vmax + 1e-9
    with pytest.raises(ValueError):
        clamp_speed(a, near, 0.0)


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
