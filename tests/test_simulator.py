import dataclasses
import json
import math
from typing import get_args

import numpy as np
import pytest

import helpers
from helpers import budget_at_1m
from test_utility import conditioned_cfg

from airbs_sgd.channel import MAX_COORD_M, ChannelParams, received_power_matrix
from airbs_sgd.navigator import DivergenceError, StepSchedule, batched_update
from airbs_sgd import cli, simulator
from airbs_sgd.cli import main as cli_main, replication_seeds
from airbs_sgd.report import coverage_map
from airbs_sgd.simulator import (
    Rect,
    Scenario,
    init_scenario,
    run,
    run_replications,
    scenario_from_dict,
    scenario_to_dict,
)
from airbs_sgd.traffic import TrafficProfile
from airbs_sgd.utility import Family, UtilityConfig, oracle, user_utility

FAMILIES = get_args(Family)


def small_scenario(**overrides):
    base = dict(
        area=Rect(0.0, 0.0, 2000.0, 2000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1000.0, 1000.0),
        fixed_height_m=30.0,
        num_mus=12,
        utility=UtilityConfig("threshold_sigmoid_unicast", -112.4, -91.0, 2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=8, eta_scale=1e6),
        iterations=5,
        seed=11,
        channel=ChannelParams(-94.0, 1000.0),
    )
    base.update(overrides)
    return Scenario(**base)


def test_init_counts_and_determinism():
    s = small_scenario(extra_mu_positions=((5000.0, 5000.0, 0.0),))
    positions1, users1, _ = init_scenario(s, s.seed)
    positions2, users2, _ = init_scenario(s, s.seed)
    assert positions1.shape == (2, 3)
    assert users1.shape == (13, 3)
    assert users1[-1].tolist() == [5000.0, 5000.0, 0.0]
    assert np.array_equal(positions1, positions2)
    assert np.array_equal(users1, users2)
    r = s.init_region
    for x, y, z in positions1:
        assert r.contains(x, y)
        assert z == 30.0
    for x, y, z in users1[:-1]:
        assert s.area.contains(x, y)
        assert z == 0.0


def test_init_zero_width_region_pins_agents():
    s = small_scenario(init_region=Rect(700.0, 700.0, 700.0, 700.0))
    positions, _, _ = init_scenario(s, s.seed)
    assert np.all(positions == [700.0, 700.0, 30.0])


def test_zero_iterations_single_snapshot():
    log = run(small_scenario(iterations=0))
    assert log.positions.shape == (1, 2, 3)
    assert log.served.shape == (1,)
    assert log.max_power_dbm.shape == (2, 12)
    assert np.array_equal(log.max_power_dbm[0], log.max_power_dbm[1])


def test_run_bitwise_deterministic():
    s = small_scenario()
    log1 = run(s)
    log2 = run(s)
    assert np.array_equal(log1.positions, log2.positions)
    assert np.array_equal(log1.oracle_utility, log2.oracle_utility)
    assert np.array_equal(log1.served, log2.served)
    assert np.array_equal(log1.max_power_dbm, log2.max_power_dbm)


def test_different_seeds_differ():
    l1 = run(small_scenario(seed=1))
    l2 = run(small_scenario(seed=2))
    assert not np.array_equal(l1.positions, l2.positions)


@pytest.mark.parametrize("num_airbs", [3, 9])
def test_logged_oracle_matches_recomputation(num_airbs):
    # with B >= 8 numpy sums a contiguous row pairwise; the batched snapshot
    # and a one-placement oracle call both add the transmitters in index order
    s = small_scenario(num_airbs=num_airbs, tx_powers_dbm=((9.0, 12.0) * num_airbs)[:num_airbs],
                       iterations=4)
    log = run(s)
    budget, ref = s.budget_dbm, s.channel.ref_distance_m
    for i in range(log.positions.shape[0]):
        want = oracle(log.positions[i], log.users, s.traffic.as_array(), s.utility, budget)
        assert log.oracle_utility[i] == want[0]  # identical op order, so exact
        assert log.served[i] == want[1]
    assert np.all(np.isfinite(log.oracle_utility))
    # the logged strongest powers equal a (M, B) kernel call's, bit for bit
    for row, i in zip(log.max_power_dbm, (0, -1)):
        want = received_power_matrix(log.positions[i], budget, log.users)
        assert np.array_equal(row, np.max(want, axis=1))


def test_single_pair_converges_overhead():
    # one transmitter chasing one user; wide threshold band keeps the whole
    # region inside the active sigmoid slope
    p_top = float(received_power_matrix([[0.0, 0.0, 30.0]], budget_at_1m([12.0 - 94.0], 1000.0),
                                        [[0.0, 0.0, 0.0]])[0, 0])
    s = small_scenario(
        area=Rect(0.0, 0.0, 100.0, 100.0),
        num_airbs=1,
        tx_powers_dbm=(12.0,),
        init_region=Rect(0.0, 0.0, 100.0, 100.0),
        num_mus=1,
        utility=UtilityConfig("threshold_sigmoid_unicast",
                              -112.4, p_top - 10.0, 20.0),
        schedule=StepSchedule(eta0=1.0, minibatch_size=10, eta_scale=1000.0),
        iterations=200,
        seed=3,
    )
    log = run(s)
    final = log.positions[-1, 0]
    mu = init_scenario(s, s.seed)[1][0]
    assert math.hypot(final[0] - mu[0], final[1] - mu[1]) < 10.0
    assert final[2] == 30.0


def test_solo_replay_of_rebuilt_packets():
    # the packets rebuilt from the documented draw order, replayed against
    # each agent in isolation, reproduce the run exactly: nothing else leaks in
    s = small_scenario(iterations=3)
    log = run(s)
    assert np.array_equal(log.positions[0], init_scenario(s, s.seed)[0])
    assert np.array_equal(helpers.replay_alone(s, log), log.positions)


@pytest.mark.parametrize("b, q", [(9, 1), (9, 8), (1, 10)])
@pytest.mark.parametrize("noise", [0.0, 1.5], ids=["exact", "noisy"])
def test_one_and_nine_agents_replay_alone(noise, b, q):
    # numpy's order of a sum depends on the layout: from B = 8 over the agents, and
    # from Q = 8 over the packets when one agent in one replication leaves a single
    # row. The replay must add them as the run does. Agents that start within 1 m
    # of the origin keep their first step's last bits
    s = small_scenario(num_airbs=b, tx_powers_dbm=(7.0, 9.0, 12.0) * 3 if b == 9 else (12.0,),
                       iterations=4, init_region=Rect(0.0, 0.0, 1.0, 1.0),
                       schedule=StepSchedule(eta0=5.0, minibatch_size=q, eta_scale=1e6),
                       measurement_noise_db=noise)
    log = run(s)
    assert not np.array_equal(log.positions[-1], log.positions[0])
    assert np.array_equal(helpers.replay_alone(s, log), log.positions)


def test_noisy_packets_follow_documented_draw_order():
    # after the initial draws: per iteration the Q recipients, then one
    # (Q, B) block of standard normals for the reported powers
    s = small_scenario(iterations=3, measurement_noise_db=1.5)
    log = run(s)
    assert np.array_equal(log.users, init_scenario(s, s.seed)[1])
    assert np.array_equal(helpers.replay_alone(s, log), log.positions)


def _batch_case(rng, family, b, q=7):
    """B agents, a Q-packet batch of nearby users, and a config whose active
    band brackets the middle packet's powers."""
    L = np.column_stack([rng.uniform(0.0, 2000.0, (b, 2)), rng.uniform(20.0, 80.0, b)])
    X = np.column_stack([rng.uniform(0.0, 2000.0, (q, 2)), np.zeros(q)])
    budget = rng.uniform(5.0, 15.0, b) - 94.0
    powers, grads = received_power_matrix(L, budget_at_1m(budget, 1000.0), X, gradient=True)
    return L, X, budget, powers, grads, conditioned_cfg(family, powers[q // 2], rng)


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed_height", "free_height"])
@pytest.mark.parametrize("b", [1, 2, 5, 9])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_step_matches_per_agent_reference(family, b, fixed):
    # one step from the same state and packets: the (Q, B) array pass against
    # each agent stepping alone, one packet at a time. At Q = 1 numpy sums the
    # packet's one contiguous row of B powers pairwise, in the step and the
    # reference alike; at Q = 10 a pairwise sum over the packets would differ
    # from the reference's running sum. A smaller step at Q = 1 keeps every
    # agent above the ground
    rng = np.random.default_rng([31, b, FAMILIES.index(family), fixed])
    for q, eta in [(7, 1e4), (1, 1e3), (10, 1e4)]:
        L, X, budget, powers, grads, cfg = _batch_case(rng, family, b, q)
        height = 50.0 if fixed else None
        if fixed:
            L[:, 2] = height
            powers, grads = received_power_matrix(L, budget_at_1m(budget, 1000.0), X, gradient=True)
        reported = powers + 0.5 * rng.standard_normal(powers.shape)
        new = batched_update(L, grads, reported, cfg, eta, height)
        # from the origin with a unit step, the move is the minibatch mean itself
        mean = batched_update(np.zeros_like(L), grads, reported, cfg, 1.0, 0.0)
        for k in range(b):
            total = helpers.agent_gradient(L[k], budget_at_1m(budget[k], 1000.0), k, X, reported,
                                           cfg)
            # packets are summed in the same order, so the means agree bit for bit
            assert np.array_equal(mean[k, :2], (total / len(X))[:2])
            want = helpers.agent_step(L[k], budget_at_1m(budget[k], 1000.0), k, X, reported, cfg,
                                      eta, height)
            if q == 7:
                assert np.linalg.norm(want - L[k]) > 0.0
            else:
                # the step of an agent far from its users can be below an ulp
                assert np.any(mean[k, :2] != 0.0)
            assert helpers.rel_err(new[k] - L[k], want - L[k]) < 1e-12
            if fixed:
                assert new[k, 2] == height


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_step_follows_minibatch_utility_gradient(family):
    # the step direction is the gradient of the minibatch mean utility,
    # cross-checked by central differences at the criterion-3 tolerance
    rng = np.random.default_rng([32, FAMILIES.index(family)])
    L, X, budget, powers, grads, cfg = _batch_case(rng, family, 3)

    def mean_utility(flat):
        return float(np.mean(user_utility(received_power_matrix(
            flat.reshape(-1, 3), budget_at_1m(budget, 1000.0), X), cfg)))

    fd = helpers.central_diff(mean_utility, L.ravel(), h=1e-3).reshape(L.shape)
    eta = 10.0 / float(np.max(np.abs(fd)))  # at most a 10 m move
    step = (batched_update(L, grads, powers, cfg, eta) - L) / eta
    assert helpers.rel_err(step, fd) < 1e-6


def test_diverging_agent_raises():
    s = helpers.runaway_scenario()
    seed = next(seed for seed in range(100) if helpers.diverges(s, seed))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="agent"):
        run(dataclasses.replace(s, seed=seed))
    L = np.array([[0.0, 0.0, 30.0], [500.0, 0.0, 30.0]])
    grads = np.zeros((3, 2, 3))
    grads[1, 1, 0] = np.nan
    cfg = UtilityConfig("unicast_rate", -112.4, -91.0, 2.0)
    with pytest.raises(DivergenceError, match="agent 1"):
        batched_update(L, grads, np.full((3, 2), -90.0), cfg, 1.0, 30.0)


@pytest.mark.parametrize("start, grad", [
    ((MAX_COORD_M, 0.0, 30.0), (1e151, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, -1e3)),
], ids=["at_the_coordinate_bound", "on_the_ground"])
def test_divergence_names_the_agent_that_broke_a_bound(start, grad):
    # agent 0 has a zero gradient and stays exactly on a bound, which it may; agent 1
    # steps past it, to x = 1.65e150 m or to 135 m below the ground
    L = np.array([start, [500.0, 0.0, 30.0]])
    grads = np.zeros((3, 2, 3))
    grads[:, 1] = grad
    cfg = UtilityConfig("unicast_rate", -112.4, -91.0, 2.0)
    with pytest.raises(DivergenceError, match="^agent 1 stepped to "):
        batched_update(L, grads, np.full((3, 2), -90.0), cfg, 1.0, None)


def assert_same_replication(log, ref):
    """Two ``TrajectoryLog`` results agree bit for bit."""
    assert np.array_equal(log.positions, ref.positions)
    assert np.array_equal(log.oracle_utility, ref.oracle_utility)
    assert np.array_equal(log.served, ref.served)
    assert np.array_equal(log.users, ref.users)
    assert np.array_equal(log.max_power_dbm, ref.max_power_dbm)


@pytest.mark.parametrize("noise", [0.0, 1.5], ids=["exact", "noisy"])
def test_each_replication_of_a_batch_equals_its_seed_alone(noise):
    s = small_scenario(iterations=4, measurement_noise_db=noise)
    seeds = [3, 17, 2 ** 63 + 5, 42]
    batch = run_replications(s, seeds)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        alone = dataclasses.replace(s, seed=seed)
        assert_same_replication(got, run(alone))
        assert np.array_equal(helpers.replay_alone(alone, got), got.positions)


def test_replications_do_not_depend_on_the_other_seeds():
    s = small_scenario(iterations=3, measurement_noise_db=0.5)
    seeds = [5, 6, 7]
    base = dict(zip(seeds, run_replications(s, seeds)))
    permuted = [7, 5, 6]
    for seed, got in zip(permuted, run_replications(s, permuted)):
        assert_same_replication(got, base[seed])
    extended = seeds + [8, 9, 5]
    for seed, got in zip(extended, run_replications(s, extended)):
        if seed in base:
            assert_same_replication(got, base[seed])
    # batches of one replication, as the command cuts a run too large for memory
    for seed in seeds:
        assert_same_replication(run_replications(s, [seed])[0], base[seed])


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed_height", "free_height"])
def test_batched_update_replications_are_independent(fixed):
    # the step of a (R, ...) batch is each replication's own step, bit for bit
    rng = np.random.default_rng(33)
    cases = [_batch_case(rng, "threshold_sigmoid_unicast", 3) for _ in range(4)]
    cfg = cases[0][-1]
    L, grads, powers = (np.stack([c[k] for c in cases]) for k in (0, 4, 3))
    reported = powers + 0.5 * rng.standard_normal(powers.shape)
    height = 50.0 if fixed else None
    new = batched_update(L, grads, reported, cfg, 1e4, height)
    for r in range(len(cases)):
        assert np.array_equal(new[r], batched_update(L[r], grads[r], reported[r], cfg, 1e4,
                                                     height))
    assert fixed == bool(np.all(new[..., 2] == 50.0))


@pytest.fixture
def groups(monkeypatch):
    """The seeds of each ``cli._phase_one`` call, in call order."""
    calls, phase_one = [], cli._phase_one

    def recording_phase_one(with_kmeans, jobs):
        calls.append([seed for _, seed, _ in jobs])
        return phase_one(with_kmeans, jobs)

    monkeypatch.setattr(cli, "_phase_one", recording_phase_one)
    return calls


def test_first_failing_seed_is_named_in_list_order(groups):
    s = helpers.runaway_scenario()
    failing = [seed for seed in range(100) if helpers.diverges(s, seed)][:2]
    healthy = next(seed for seed in range(100) if not helpers.diverges(s, seed))
    for order in ([failing[0], healthy, failing[1]], [failing[1], healthy, failing[0]]):
        groups.clear()
        jobs = [(s, seed, f"out/rep_{r:03d}") for r, seed in enumerate(order)]
        with np.errstate(all="ignore"), pytest.raises(cli.CliError) as e:
            cli._advance_group(False, jobs)
        assert f"error: {e.value}\n" == helpers.runaway_message(s, order[0], "out/rep_000")
        # one batch of all three, then the first job alone, which fails
        assert groups == [order, order[:1]]


def test_a_failing_batch_reruns_only_its_own_jobs_alone(monkeypatch, groups):
    # batches of two jobs: the first passes, and of the second only the later job fails
    s = helpers.runaway_scenario()
    failing = next(seed for seed in range(100) if helpers.diverges(s, seed))
    healthy = [seed for seed in range(100) if not any(helpers.extra_user_packets(s, seed))][:3]
    pairs = s.num_airbs * max(s.total_mus, s.schedule.minibatch_size)
    monkeypatch.setattr(cli, "BATCH_PAIRS", 2 * pairs + 1)
    order = healthy + [failing]
    jobs = [(s, seed, f"out/rep_{r:03d}") for r, seed in enumerate(order)]
    with np.errstate(all="ignore"), pytest.raises(cli.CliError) as e:
        cli._advance_group(False, jobs)
    assert f"error: {e.value}\n" == helpers.runaway_message(s, failing, "out/rep_003")
    assert groups == [order[:2], order[2:], order[2:3], order[3:]]


def test_cli_names_the_one_diverging_replication(tmp_path, capsys):
    s = helpers.runaway_scenario()
    for master in range(100):
        seeds = replication_seeds(master, 3)
        failing = [seed for seed in seeds if helpers.diverges(s, seed)]
        if len(failing) == 1 and failing[0] != seeds[0]:
            break
    else:
        pytest.fail("no master seed with exactly one diverging replication")
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(s, seed=master))))
    # the step that flings the agent is refused, so no power is ever -inf dBm
    rc = cli_main(["run", "--scenario", str(scen), "--replications", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == helpers.runaway_message(
        s, failing[0], out / f"rep_{seeds.index(failing[0]):03d}")


def test_cli_names_a_diverging_seed_in_a_later_worker_group(tmp_path, capsys, monkeypatch):
    # three groups of one, the command's own and two forked; only the last group's
    # seed diverges, and the first two advance
    s = helpers.runaway_scenario()
    for master in range(100):
        seeds = replication_seeds(master, 3)
        if [seed for seed in seeds if helpers.diverges(s, seed)] == seeds[2:]:
            break
    else:
        pytest.fail("no master seed whose only diverging replication is the last")
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(s, seed=master))))
    out = tmp_path / "out"
    rc = cli_main(["run", "--scenario", str(scen), "--replications", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == helpers.runaway_message(s, seeds[2], out / "rep_002")
    assert not any(out.glob("rep_*"))


def test_cli_exits_2_when_a_healthy_replication_logs_a_non_finite_value(tmp_path):
    # only the last packet comes from the extra user: the replication is healthy
    # until its last step, which would fling the agent to where every power is
    # -inf dBm and the last snapshot's oracle utility nan; that step is refused,
    # so nothing is written and numpy warns of nothing
    s = helpers.runaway_scenario()
    seed = next(seed for seed in range(100)
                if helpers.extra_user_packets(s, seed) == [False, True])
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(s, seed=seed))))
    proc = helpers.run_python("-m", "airbs_sgd.cli", "run", "--scenario", str(scen),
                              "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == helpers.runaway_message(s, seed, out / "rep_000")
    assert not any(out.glob("rep_*"))


# an oracle that scores every placement inf, as an overflowing utility would; the
# input checks refuse every finite input known to overflow it
INF_ORACLE = """
import numpy as np
from airbs_sgd import simulator
oracle = simulator.oracle

def inf_oracle(*args):
    utility, served, best = oracle(*args)
    return np.full_like(utility, np.inf), served, best
"""


def test_a_non_finite_snapshot_utility_fails_the_replication(tmp_path, monkeypatch):
    # no step diverges and every input is finite and passes the input checks, but
    # the first snapshot's utility is inf
    s = small_scenario()
    patched = {}
    exec(INF_ORACLE, patched)
    monkeypatch.setattr(simulator, "oracle", patched["inf_oracle"])
    with pytest.raises(DivergenceError) as e:
        run(s)
    assert str(e.value) == "oracle utility is inf at snapshot 0"
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(scenario_to_dict(s)))
    argv = ["run", "--scenario", str(scen), "--replications", "2", "--out", str(out)]
    proc = helpers.run_python("-c", INF_ORACLE + "simulator.oracle = inf_oracle\nimport sys\n"
                              f"from airbs_sgd.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 2
    seed = replication_seeds(s.seed, 2)[0]
    assert proc.stderr.splitlines()[-1] == (f"error: replication with seed {seed} failed: "
                                            f"oracle utility is inf at snapshot 0 "
                                            f"(bundle {out / 'rep_000'})")
    assert "Traceback" not in proc.stderr
    assert not any(out.glob("rep_*"))


def test_zero_step_size_freezes_positions():
    s = small_scenario(schedule=StepSchedule(eta0=0.0, minibatch_size=8))
    log = run(s)
    for i in range(1, log.positions.shape[0]):
        assert np.array_equal(log.positions[i], log.positions[0])


def test_measurement_noise_changes_trajectory():
    clean = run(small_scenario())
    noisy = run(small_scenario(measurement_noise_db=1.0))
    assert np.array_equal(clean.positions[0], noisy.positions[0])
    assert not np.array_equal(clean.positions[-1], noisy.positions[-1])


def test_coverage_map_clip_and_orientation():
    area = Rect(0.0, 0.0, 1000.0, 1000.0)
    grid = coverage_map([[500.0, 500.0, 30.0]], area, 21, budget_at_1m([30.0 - 94.0], 1000.0))
    assert grid.shape == (21, 21)
    assert np.all(grid >= -100.0) and np.all(grid <= -80.0)
    # strong transmitter overhead saturates the clip ceiling at the center
    assert grid[10, 10] == -80.0
    # symmetric layout: the field is mirror-symmetric both ways
    assert np.allclose(grid, grid[::-1, :], atol=1e-9)
    assert np.allclose(grid, grid[:, ::-1], atol=1e-9)


def test_coverage_map_floor_when_out_of_range():
    area = Rect(0.0, 0.0, 1000.0, 1000.0)
    grid = coverage_map([[1e6, 1e6, 30.0]], area, 5, budget_at_1m([12.0 - 94.0], 1000.0))
    assert np.all(grid == -100.0)


def test_coverage_map_bad_inputs():
    area = Rect(0.0, 0.0, 100.0, 100.0)
    with pytest.raises(ValueError):
        coverage_map([[0.0, 0.0, 30.0]], area, 1, budget_at_1m([12.0 - 94.0], 1000.0))


def test_scenario_dict_round_trip_bytes():
    extras = ((5000.0, 5000.0, 0.0),)
    for s in (small_scenario(extra_mu_positions=extras, traffic=None, measurement_noise_db=0.5),
              small_scenario(
                  extra_mu_positions=extras, measurement_noise_db=0.5,
                  traffic=TrafficProfile(pi=(0.5,) + (0.5 / 12,) * 12),
                  utility=UtilityConfig("broadcast_rate", -112.4, -91.0, 2.0,
                                        softmax_alpha=0.25),
                  schedule=StepSchedule(eta0=5.0, minibatch_size=8, eta_scale=3e5,
                                        decay="harmonic"))):
        d = scenario_to_dict(s)
        text = json.dumps(d, sort_keys=True, indent=2)
        back = scenario_from_dict(json.loads(text))
        assert back == s
        assert json.dumps(scenario_to_dict(back), sort_keys=True, indent=2) == text
        log1 = run(dataclasses.replace(s, measurement_noise_db=0.0))
        log2 = run(dataclasses.replace(back, measurement_noise_db=0.0))
        assert np.array_equal(log1.positions, log2.positions)


# The scenario file format: each section's required and optional keys. The
# dataclass fields are the schema, so renaming a field renames a file key.
FILE_FORMAT = {
    "scenario": (("area", "num_airbs", "tx_powers_dbm", "init_region", "fixed_height_m",
                  "num_mus", "utility", "schedule", "iterations", "seed", "channel"),
                 ("extra_mu_positions", "traffic", "measurement_noise_db")),
    "area": (("x_min", "y_min", "x_max", "y_max"), ()),
    "init_region": (("x_min", "y_min", "x_max", "y_max"), ()),
    "utility": (("family", "noise_dbm", "p_min_dbm", "delta_db"), ("softmax_alpha",)),
    "schedule": (("eta0", "minibatch_size"), ("eta_scale", "decay")),
    "channel": (("ref_gain_db", "ref_distance_m"), ()),
    "traffic": (("pi",), ()),
}


@pytest.mark.parametrize("section", FILE_FORMAT)
def test_scenario_file_keys_are_pinned(section):
    required, optional = FILE_FORMAT[section]
    d = scenario_to_dict(small_scenario())

    def holder(d):
        return d if section == "scenario" else d[section]

    # the writer writes every key, the optional ones too
    assert sorted(holder(d)) == sorted(required + optional)
    for key in optional:
        dropped = json.loads(json.dumps(d))
        del holder(dropped)[key]
        scenario_from_dict(dropped)
    empty = {} if section == "scenario" else dict(d, **{section: {}})
    with pytest.raises(ValueError) as e:
        scenario_from_dict(empty)
    assert str(e.value) == f"missing key(s) in {section}: {', '.join(required)}"


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
    with pytest.raises(ValueError, match=r"extra_mu_positions\[1\]: position coordinates "
                                         r"must be finite"):
        small_scenario(extra_mu_positions=((0.0, 0.0, 0.0), (0.0, math.nan, 0.0)))
    with pytest.raises(ValueError):
        Rect(10.0, 0.0, 0.0, 10.0)


@pytest.mark.parametrize("overrides, message", [
    (dict(tx_powers_dbm=(math.nan, 12.0)), "tx_powers_dbm must be finite, got [nan, 12.0]"),
    (dict(extra_mu_positions=((0.0, 0.0),)),
     "extra_mu_positions[0]: position must have 3 coordinates, got 2"),
    (dict(schedule=None), "step schedule required"),
    (dict(channel=None), "channel params required"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed=True), "seed must be an integer, got True"),
    (dict(seed="7"), "seed must be an integer, got '7'"),
], ids=["nan_tx_power", "two_coordinate_extra_user", "no_schedule", "no_channel",
        "float_seed", "bool_seed", "string_seed"])
def test_a_bad_scenario_field_raises_its_message(overrides, message):
    with pytest.raises(ValueError) as e:
        small_scenario(**overrides)
    assert str(e.value) == message


def test_a_numpy_integer_seed_is_kept_as_an_int():
    s = small_scenario(seed=np.uint64(2 ** 64 - 1))
    assert type(s.seed) is int and s.seed == 2 ** 64 - 1


def test_link_budgets_are_each_power_plus_the_gain_and_read_only():
    s = small_scenario(tx_powers_dbm=(9.0, 12.0))
    budget = s.budget_dbm
    # each link budget at the 1000 m reference, carried to 1 m: + 20*log10(1000) = + 60 dB
    assert budget.tolist() == [(9.0 + -94.0) + 60.0, (12.0 + -94.0) + 60.0]
    assert s.budget_dbm is budget  # built once per scenario
    with pytest.raises(ValueError, match="read-only"):
        budget[0] = 0.0
    assert dataclasses.replace(s, tx_powers_dbm=(7.0, 12.0)).budget_dbm.tolist() == \
        [(7.0 + -94.0) + 60.0, (12.0 + -94.0) + 60.0]


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
    # elementwise over arrays, as the map selects the users it draws; nan is outside
    xs, ys = np.array([0.0, 10.0, 10.1, 5.0, np.nan]), np.array([0.0, 5.0, 2.0, -0.1, 1.0])
    assert r.contains(xs, ys).tolist() == [True, True, False, False, False]
