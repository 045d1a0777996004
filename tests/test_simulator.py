import dataclasses
import json
import math

import numpy as np
import pytest

import helpers
from test_utility import conditioned_cfg

from airbs_sgd.channel import (
    ChannelParams,
    Position,
    free_space_power_dbm,
    received_power_matrix,
)
from airbs_sgd.navigator import (
    AirBsAgent,
    DivergenceError,
    StepSchedule,
    accumulate,
    agent_partial_gradient,
    apply_update,
    batched_update,
)
from airbs_sgd import simulator
from airbs_sgd.cli import main as cli_main, replication_seeds
from airbs_sgd.simulator import (
    Rect,
    Scenario,
    coverage_axes,
    coverage_map,
    init_scenario,
    run,
    run_replications,
    scenario_from_dict,
    scenario_to_dict,
)
from airbs_sgd.traffic import ControlPacket, TrafficProfile, sample_recipient
from airbs_sgd.utility import UtilityConfig, UtilityFamily, network_utility, user_utility

FAMILIES = tuple(UtilityFamily)


def small_scenario(**overrides):
    base = dict(
        area=Rect(0.0, 0.0, 2000.0, 2000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1000.0, 1000.0),
        fixed_height_m=30.0,
        num_mus=12,
        utility=UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -91.0, 2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=8, eta_scale=1e6),
        iterations=5,
        seed=11,
        channel=ChannelParams(-94.0, 1000.0, 0.0),
    )
    base.update(overrides)
    return Scenario(**base)


def test_init_counts_and_determinism():
    s = small_scenario(extra_mu_positions=((5000.0, 5000.0, 0.0),))
    w1 = init_scenario(s)
    w2 = init_scenario(s)
    assert len(w1.agents) == 2
    assert len(w1.mus) == 13
    assert w1.mus[-1] == Position(5000.0, 5000.0, 0.0)
    for a, b in zip(w1.agents, w2.agents):
        assert a.position == b.position
    for p, q in zip(w1.mus, w2.mus):
        assert p == q
    r = s.init_region
    for a in w1.agents:
        assert r.contains(a.position.x, a.position.y)
        assert a.position.z == 30.0
    for m in w1.mus[:-1]:
        assert s.area.contains(m.x, m.y)
        assert m.z == 0.0


def test_init_zero_width_region_pins_agents():
    s = small_scenario(init_region=Rect(700.0, 700.0, 700.0, 700.0))
    w = init_scenario(s)
    for a in w.agents:
        assert a.position == Position(700.0, 700.0, 30.0)


def test_zero_iterations_single_snapshot():
    log, report = run(small_scenario(iterations=0))
    assert log.positions.shape == (1, 2, 3)
    assert log.num_iterations == 0
    assert report.initial.served_count == report.final.served_count


def test_run_bitwise_deterministic():
    s = small_scenario()
    log1, rep1 = run(s)
    log2, rep2 = run(s)
    assert np.array_equal(log1.positions, log2.positions)
    assert np.array_equal(log1.oracle_utility, log2.oracle_utility)
    assert np.array_equal(log1.served, log2.served)
    assert rep1.to_json_dict() == rep2.to_json_dict()


def test_different_seeds_differ():
    l1, _ = run(small_scenario(seed=1))
    l2, _ = run(small_scenario(seed=2))
    assert not np.array_equal(l1.positions, l2.positions)


def test_oracle_trace_matches_recomputation():
    s = small_scenario(iterations=4)
    log, _ = run(s)
    world = init_scenario(s)
    users = list(zip(world.mus, world.profile.as_array()))
    params = s.agent_channel_params()
    for i in range(log.positions.shape[0]):
        placements = [Position(*map(float, row)) for row in log.positions[i]]
        want = network_utility(placements, users, s.utility, params)
        assert log.oracle_utility[i] == want  # identical op order, so exact
    assert np.all(np.isfinite(log.oracle_utility))


def test_single_pair_converges_overhead():
    # one transmitter chasing one user; wide threshold band keeps the whole
    # region inside the active sigmoid slope
    p_top = free_space_power_dbm(Position(0, 0, 30.0), Position(0, 0, 0.0),
                                 ChannelParams(-94.0, 1000.0, 12.0))
    s = small_scenario(
        area=Rect(0.0, 0.0, 100.0, 100.0),
        num_airbs=1,
        tx_powers_dbm=(12.0,),
        init_region=Rect(0.0, 0.0, 100.0, 100.0),
        num_mus=1,
        utility=UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST,
                              -112.4, p_top - 10.0, 20.0),
        schedule=StepSchedule(eta0=1.0, minibatch_size=10, eta_scale=1000.0),
        iterations=200,
        seed=3,
    )
    log, _ = run(s)
    final = log.positions[-1, 0]
    mu = init_scenario(s).mus[0]
    assert math.hypot(final[0] - mu.x, final[1] - mu.y) < 10.0
    assert final[2] == 30.0


def test_keep_packets_and_solo_replay():
    s = small_scenario(iterations=3)
    log, _ = run(s, keep_packets=True)
    q = s.schedule.minibatch_size
    assert len(log.packets) == s.iterations
    assert all(len(batch) == q for batch in log.packets)

    # replaying the recorded packet stream against one agent in isolation
    # reproduces that agent's path exactly: nothing else leaks in
    world = init_scenario(s)
    for b in range(s.num_airbs):
        agent = world.agents[b]
        assert tuple(log.positions[0, b]) == (agent.position.x, agent.position.y,
                                              agent.position.z)
        for i, batch in enumerate(log.packets):
            for pkt in batch:
                accumulate(agent, agent_partial_gradient(agent, pkt, s.utility))
            apply_update(agent, s.schedule.eta(i))
            assert (agent.position.x, agent.position.y, agent.position.z) == \
                tuple(log.positions[i + 1, b])


def _batch_case(rng, family, b, q=7):
    """B agents, a Q-packet batch of nearby users, and a config whose active
    band brackets the middle packet's powers."""
    L = np.column_stack([rng.uniform(0.0, 2000.0, (b, 2)), rng.uniform(20.0, 80.0, b)])
    X = np.column_stack([rng.uniform(0.0, 2000.0, (q, 2)), np.zeros(q)])
    params = [ChannelParams(-94.0, 1000.0, float(p)) for p in rng.uniform(5.0, 15.0, b)]
    powers, grads = received_power_matrix(L, params, X, gradient=True)
    return L, X, params, powers, grads, conditioned_cfg(family, powers[q // 2], rng)


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed_height", "free_height"])
@pytest.mark.parametrize("b", [1, 2, 5, 9])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_batched_step_matches_per_agent_reference(family, b, fixed):
    # one step from the same state and packets: the (Q, B) array pass against
    # agent_partial_gradient -> accumulate -> apply_update, agent by agent
    rng = np.random.default_rng([31, b, FAMILIES.index(family), fixed])
    L, X, params, powers, grads, cfg = _batch_case(rng, family, b)
    height = 50.0 if fixed else None
    if fixed:
        L[:, 2] = height
        powers, grads = received_power_matrix(L, params, X, gradient=True)
    reported = powers + 0.5 * rng.standard_normal(powers.shape)
    eta = 1e4
    new = batched_update(L, grads, reported, cfg, eta, height)
    # from the origin with a unit step, the move is the minibatch mean itself
    mean = batched_update(np.zeros_like(L), grads, reported, cfg, 1.0, 0.0)
    for k in range(b):
        agent = AirBsAgent(index=k, position=Position.from_array(L[k]),
                           channel_params=params[k], fixed_height=height)
        for m in range(len(X)):
            pkt = ControlPacket(mu_index=m, mu_location=Position.from_array(X[m]),
                                measured_powers_dbm=tuple(reported[m]))
            accumulate(agent, agent_partial_gradient(agent, pkt, cfg))
        # packets are summed in the same order, so the means agree bit for bit
        assert np.array_equal(mean[k, :2], (agent.minibatch_sum / agent.minibatch_count)[:2])
        apply_update(agent, eta)
        want = agent.position.as_array()
        assert np.linalg.norm(want - L[k]) > 0.0
        assert helpers.rel_err(new[k] - L[k], want - L[k]) < 1e-12
        if fixed:
            assert new[k, 2] == height


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_batched_step_follows_minibatch_utility_gradient(family):
    # the step direction is the gradient of the minibatch mean utility,
    # cross-checked by central differences at the criterion-3 tolerance
    rng = np.random.default_rng([32, FAMILIES.index(family)])
    L, X, params, powers, grads, cfg = _batch_case(rng, family, 3)

    def mean_utility(flat):
        return float(np.mean(user_utility(received_power_matrix(flat.reshape(-1, 3), params, X),
                                          cfg)))

    fd = helpers.central_diff(mean_utility, L.ravel(), h=1e-3).reshape(L.shape)
    eta = 10.0 / float(np.max(np.abs(fd)))  # at most a 10 m move
    step = (batched_update(L, grads, powers, cfg, eta) - L) / eta
    assert helpers.rel_err(step, fd) < 1e-6


def test_diverging_agent_raises():
    s = small_scenario(schedule=StepSchedule(eta0=5.0, minibatch_size=8, eta_scale=1e308))
    with pytest.raises(DivergenceError, match="agent"):
        run(s)
    L = np.array([[0.0, 0.0, 30.0], [500.0, 0.0, 30.0]])
    grads = np.zeros((3, 2, 3))
    grads[1, 1, 0] = np.nan
    cfg = UtilityConfig(UtilityFamily.UNICAST_RATE, -112.4, -91.0, 2.0)
    with pytest.raises(DivergenceError, match="agent 1"):
        batched_update(L, grads, np.full((3, 2), -90.0), cfg, 1.0, 30.0)


def test_noisy_packets_follow_documented_draw_order():
    # after the initial draws: per iteration the Q recipients, then one
    # (Q, B) block of standard normals for the reported powers
    s = small_scenario(iterations=3, measurement_noise_db=1.5)
    log, _ = run(s, keep_packets=True)
    world = init_scenario(s)
    assert np.array_equal(log.users, world.users)
    q, rng = s.schedule.minibatch_size, world.rng
    for i, batch in enumerate(log.packets):
        idx = rng.choice(s.total_mus, size=q, p=s.traffic.as_array())
        noise = rng.standard_normal((q, s.num_airbs))
        clean = received_power_matrix(log.positions[i], s.agent_channel_params(),
                                      world.users[idx])
        assert [p.mu_index for p in batch] == idx.tolist()
        assert np.array_equal([p.measured_powers_dbm for p in batch], clean + 1.5 * noise)


def assert_same_replication(got, want):
    """Two ``(TrajectoryLog, MetricsReport)`` results agree bit for bit."""
    (log, rep), (ref, ref_rep) = got, want
    assert np.array_equal(log.positions, ref.positions)
    assert np.array_equal(log.oracle_utility, ref.oracle_utility)
    assert np.array_equal(log.served, ref.served)
    assert np.array_equal(log.users, ref.users)
    assert rep.to_json_dict() == ref_rep.to_json_dict()
    assert (log.packets is None) == (ref.packets is None)
    for batch, ref_batch in zip(log.packets or [], ref.packets or []):
        assert batch == ref_batch


@pytest.mark.parametrize("noise", [0.0, 1.5], ids=["exact", "noisy"])
def test_each_replication_of_a_batch_equals_its_seed_alone(noise):
    s = small_scenario(iterations=4, measurement_noise_db=noise)
    seeds = [3, 17, 2 ** 63 + 5, 42]
    batch = run_replications(s, seeds, keep_packets=True)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        assert_same_replication(got, run(dataclasses.replace(s, seed=seed), keep_packets=True))


def test_replications_do_not_depend_on_the_other_seeds(monkeypatch):
    s = small_scenario(iterations=3, measurement_noise_db=0.5)
    seeds = [5, 6, 7]
    base = dict(zip(seeds, run_replications(s, seeds, keep_packets=True)))
    permuted = [7, 5, 6]
    for seed, got in zip(permuted, run_replications(s, permuted, keep_packets=True)):
        assert_same_replication(got, base[seed])
    extended = seeds + [8, 9, 5]
    for seed, got in zip(extended, run_replications(s, extended, keep_packets=True)):
        if seed in base:
            assert_same_replication(got, base[seed])
    # groups of one replication, as a batch too large for memory would be split
    monkeypatch.setattr(simulator, "BATCH_PAIRS", 1)
    for seed, got in zip(seeds, run_replications(s, seeds, keep_packets=True)):
        assert_same_replication(got, base[seed])


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed_height", "free_height"])
def test_batched_update_replications_are_independent(fixed):
    # the step of a (R, ...) batch is each replication's own step, bit for bit
    rng = np.random.default_rng(33)
    cases = [_batch_case(rng, UtilityFamily.THRESHOLD_SIGMOID_UNICAST, 3) for _ in range(4)]
    cfg = cases[0][-1]
    L, grads, powers = (np.stack([c[k] for c in cases]) for k in (0, 4, 3))
    reported = powers + 0.5 * rng.standard_normal(powers.shape)
    height = 50.0 if fixed else None
    new = batched_update(L, grads, reported, cfg, 1e4, height)
    for r in range(len(cases)):
        assert np.array_equal(new[r], batched_update(L[r], grads[r], reported[r], cfg, 1e4,
                                                     height))
    assert fixed == bool(np.all(new[..., 2] == 50.0))


def test_oracle_matches_network_utility_with_many_agents():
    # with B >= 8 numpy sums a contiguous row pairwise; the oracle and
    # network_utility both add the transmitters in index order
    b = 9
    s = small_scenario(num_airbs=b, tx_powers_dbm=(9.0,) * b, iterations=2)
    log, _ = run(s)
    users = (log.users, s.traffic.as_array())
    for i in range(log.positions.shape[0]):
        want = network_utility(log.positions[i], users, s.utility, s.agent_channel_params())
        assert log.oracle_utility[i] == want


def test_cli_names_the_one_diverging_replication(tmp_path, capsys):
    # one agent, one packet: a replication diverges when its packet comes from
    # the extra user, whose distance overflows to -inf dBm and a NaN step
    s = small_scenario(num_airbs=1, tx_powers_dbm=(12.0,), num_mus=2, iterations=1,
                       extra_mu_positions=((1e200, 0.0, 0.0),),
                       schedule=StepSchedule(eta0=5.0, minibatch_size=1, eta_scale=1e6))

    def diverges(seed):
        world = init_scenario(dataclasses.replace(s, seed=seed))
        return sample_recipient(s.traffic, world.rng) == s.total_mus - 1

    for master in range(100):
        seeds = replication_seeds(master, 3)
        failing = [seed for seed in seeds if diverges(seed)]
        if len(failing) == 1 and failing[0] != seeds[0]:
            break
    else:
        pytest.fail("no master seed with exactly one diverging replication")
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(s, seed=master))))
    with np.errstate(all="ignore"):  # the far user's power is -inf in every snapshot
        rc = cli_main(["run", "--scenario", str(scen), "--replications", "3",
                       "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"replication with seed {failing[0]} failed: agent 0 stepped to [nan" in err
    assert all(str(seed) not in err for seed in seeds if seed != failing[0])


def test_packets_not_kept_by_default():
    log, _ = run(small_scenario(iterations=1))
    assert log.packets is None


def test_zero_step_size_freezes_positions():
    s = small_scenario(schedule=StepSchedule(eta0=0.0, minibatch_size=8))
    log, _ = run(s)
    for i in range(1, log.positions.shape[0]):
        assert np.array_equal(log.positions[i], log.positions[0])


def test_measurement_noise_changes_trajectory():
    clean, _ = run(small_scenario())
    noisy, _ = run(small_scenario(measurement_noise_db=1.0))
    assert np.array_equal(clean.positions[0], noisy.positions[0])
    assert not np.array_equal(clean.positions[-1], noisy.positions[-1])


def test_trajectory_csv_shape():
    s = small_scenario(iterations=2)
    log, _ = run(s)
    lines = log.to_csv_text().splitlines()
    assert lines[0] == "iteration,agent_index,x,y,z,oracle_utility"
    assert len(lines) == 1 + (s.iterations + 1) * s.num_airbs
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == log.positions[0, 0, 0]


def test_coverage_map_clip_and_orientation():
    area = Rect(0.0, 0.0, 1000.0, 1000.0)
    prm = ChannelParams(-94.0, 1000.0, 30.0)
    placements = [Position(500.0, 500.0, 30.0)]
    grid = coverage_map(placements, area, 21, [prm])
    assert grid.shape == (21, 21)
    assert np.all(grid >= -100.0) and np.all(grid <= -80.0)
    # strong transmitter overhead saturates the clip ceiling at the center
    assert grid[10, 10] == -80.0
    # symmetric layout: the field is mirror-symmetric both ways
    assert np.allclose(grid, grid[::-1, :], atol=1e-9)
    assert np.allclose(grid, grid[:, ::-1], atol=1e-9)


def test_coverage_map_floor_when_out_of_range():
    area = Rect(0.0, 0.0, 1000.0, 1000.0)
    prm = ChannelParams(-94.0, 1000.0, 12.0)
    grid = coverage_map([Position(1e6, 1e6, 30.0)], area, 5, [prm])
    assert np.all(grid == -100.0)


def test_coverage_map_rectangular_resolution():
    area = Rect(0.0, 0.0, 800.0, 400.0)
    prm = ChannelParams(-94.0, 1000.0, 12.0)
    xs, ys = coverage_axes(area, (9, 5))
    assert len(xs) == 9 and len(ys) == 5
    grid = coverage_map([Position(400.0, 200.0, 30.0)], area, (9, 5), [prm])
    assert grid.shape == (5, 9)


def test_coverage_map_bad_inputs():
    area = Rect(0.0, 0.0, 100.0, 100.0)
    prm = ChannelParams(-94.0, 1000.0, 12.0)
    with pytest.raises(ValueError):
        coverage_map([Position(0, 0, 30.0)], area, 1, [prm])
    with pytest.raises(ValueError):
        coverage_map([Position(0, 0, 30.0)], area, 5, [prm], clip=(-80.0, -100.0))


def test_scenario_dict_round_trip_bytes():
    s = small_scenario(extra_mu_positions=((5000.0, 5000.0, 0.0),),
                       traffic=None, measurement_noise_db=0.5)
    d = scenario_to_dict(s)
    text = json.dumps(d, sort_keys=True, indent=2)
    back = scenario_from_dict(json.loads(text))
    assert json.dumps(scenario_to_dict(back), sort_keys=True, indent=2) == text
    log1, _ = run(dataclasses.replace(s, measurement_noise_db=0.0))
    log2, _ = run(dataclasses.replace(back, measurement_noise_db=0.0))
    assert np.array_equal(log1.positions, log2.positions)


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(num_airbs=0, tx_powers_dbm=())
    with pytest.raises(ValueError):
        small_scenario(tx_powers_dbm=(9.0,))
    with pytest.raises(ValueError):
        small_scenario(num_mus=0)
    with pytest.raises(ValueError):
        small_scenario(iterations=-1)
    with pytest.raises(ValueError):
        small_scenario(seed=-1)
    with pytest.raises(ValueError):
        small_scenario(measurement_noise_db=-0.1)
    with pytest.raises(ValueError):
        small_scenario(traffic=TrafficProfile.uniform(5))
    with pytest.raises(ValueError):
        small_scenario(utility=None)
    with pytest.raises(ValueError):
        Rect(10.0, 0.0, 0.0, 10.0)


def test_point_area_rejected_line_area_kept():
    # a point has no extent to map; a line still has one
    with pytest.raises(ValueError, match="area"):
        small_scenario(area=Rect(500.0, 500.0, 500.0, 500.0))
    assert small_scenario(area=Rect(0.0, 500.0, 2000.0, 500.0)).area.height == 0.0


def test_rect_contains():
    r = Rect(0.0, 0.0, 10.0, 5.0)
    assert r.width == 10.0 and r.height == 5.0
    assert r.contains(0.0, 0.0) and r.contains(10.0, 5.0)
    assert not r.contains(10.1, 2.0) and not r.contains(5.0, -0.1)
