"""End-to-end acceptance checks.

Each test verifies one shipping requirement and records a PASS/FAIL line
that the terminal summary prints. The expensive 20-seed reference batch
is shared through the session-scoped ``paper_batch`` fixture.
"""

import json
import math
import time
from typing import get_args

import numpy as np

from helpers import (agent_gradient, agent_step, budget_at_1m, central_diff,
                     network_utility_gradient, record_criterion, rel_err)
from test_utility import conditioned_cfg

from airbs_sgd.channel import ChannelParams, received_power_matrix
from airbs_sgd import cli
from airbs_sgd.cli import main as cli_main
from airbs_sgd.navigator import StepSchedule, batched_update
from airbs_sgd.simulator import Rect, Scenario, init_scenario, run, scenario_to_dict
from airbs_sgd.traffic import TrafficProfile
from airbs_sgd.utility import (
    Family,
    UtilityConfig,
    oracle,
    sigmoid_delta,
    sigmoid_delta_deriv,
    smooth_max_dbm,
    user_utility,
    user_utility_partials,
)

FAMILIES = get_args(Family)


def test_criterion_01_reference_reproduction(paper_batch):
    med = paper_batch.summary["median_served"]
    ok = med >= 192.0 and paper_batch.elapsed < 60.0
    record_criterion(
        1, "20-seed reference batch: median served >= 192/202 in under 60 s", ok,
        f"median {med:g}/202, {paper_batch.elapsed:.1f} s")
    assert ok


def test_criterion_02_kmeans_baseline_gap(paper_batch):
    results = paper_batch.summary["results"]
    med_km = paper_batch.summary["median_kmeans_unserved"]
    margins = [r["kmeans_unserved"] - (r["total"] - r["served"]) for r in results]
    ok = med_km >= 30.0 and all(m > 0 for m in margins)
    record_criterion(
        2, "k-means baseline: median unserved >= 30, always worse than the agents",
        ok, f"median unserved {med_km:g}, min gap {min(margins)}")
    assert ok


def assembled_case(rng, family):
    """Random multi-agent geometry whose per-agent shares are all FD-resolvable.

    Central differences bottom out around eps*|J|/(2h) ~ 5e-14 absolute, so
    an agent whose soft-max weight has underflowed to 1e-11 cannot be
    cross-checked against them. Every transmitter here lands within 4 dB of
    the strongest at the user, and alpha stays moderate, which keeps each
    agent's share of the gradient well above the FD noise floor.
    """
    b = int(rng.integers(2, 5))
    mu = np.array([[*rng.uniform(0, 3000, 2), 0.0]])
    base_d = rng.uniform(300.0, 1800.0)
    placements = []
    for _ in range(b):
        d = base_d * 10.0 ** (rng.uniform(-2.0, 2.0) / 20.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(20.0, 80.0)
        horiz = math.sqrt(max(d * d - z * z, 100.0))
        placements.append([mu[0, 0] + horiz * math.cos(theta),
                           mu[0, 1] + horiz * math.sin(theta), z])
    placements = np.array(placements)
    budget = np.full(b, 12.0 - 94.0)
    powers = received_power_matrix(placements, budget_at_1m(budget, 1000.0), mu)[0]
    if family == "threshold_sigmoid_broadcast":
        anchor = 10.0 * math.log10(float(np.sum(10.0 ** (powers / 10.0))))
    else:
        anchor = float(smooth_max_dbm(powers, 1.0))
    delta = rng.uniform(1.0, 6.0)
    cfg = UtilityConfig(
        family=family,
        noise_dbm=anchor - rng.uniform(-6.0, 10.0),
        p_min_dbm=anchor - rng.uniform(0.1, 0.9) * delta,
        delta_db=delta,
        softmax_alpha=rng.uniform(0.5, 1.0),
    )
    return placements, budget, mu, cfg


def test_criterion_03_finite_difference_cross_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0

    # channel gradient
    budget = [12.0 - 94.0]
    for _ in range(100):
        l = np.array([[*rng.uniform(-2000, 2000, 2), rng.uniform(20, 200)]])
        x = np.array([[*rng.uniform(-2000, 2000, 2), 0.0]])
        got = received_power_matrix(l, budget_at_1m(budget, 1000.0), x, gradient=True)[1][0, 0]
        want = central_diff(
            lambda v: received_power_matrix(v[None], budget_at_1m(budget, 1000.0), x)[0, 0], l[0],
            h=1e-3)
        worst = max(worst, rel_err(got, want))

    # per-family utility partials
    for family in FAMILIES:
        for _ in range(100):
            b = int(rng.integers(2, 6))
            p = rng.uniform(-100, -70, b)
            cfg = conditioned_cfg(family, p, rng)
            got = user_utility_partials(p, cfg)
            want = central_diff(lambda v: float(user_utility(v, cfg)), p, h=1e-5)
            worst = max(worst, rel_err(got, want))

    # assembled per-agent packet gradient, every agent of every config
    for k in range(100):
        family = FAMILIES[k % len(FAMILIES)]
        placements, budget, mu, cfg = assembled_case(rng, family)
        reported = received_power_matrix(placements, budget_at_1m(budget, 1000.0), mu)
        for i in range(len(placements)):
            got = agent_gradient(placements[i], budget_at_1m(budget[i], 1000.0), i, mu, reported,
                                 cfg)

            def j_of(v):
                moved = placements.copy()
                moved[i] = v
                return float(user_utility(
                    received_power_matrix(moved, budget_at_1m(budget, 1000.0), mu)[0], cfg))

            want = central_diff(j_of, placements[i], h=1e-3)
            worst = max(worst, rel_err(got, want))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    record_criterion(
        3, "analytic gradients match central differences to 1e-6 in under 5 s",
        ok, f"worst rel err {worst:.2e}, {elapsed:.2f} s")
    assert ok


def test_criterion_04_enumeration_oracle():
    rng = np.random.default_rng(104)
    b, m = 4, 500
    placements = np.array([[*rng.uniform(0, 7000, 2), 30.0] for _ in range(b)])
    budget = np.array([7.0, 9.0, 9.0, 12.0]) - 94.0
    mus = np.array([[*rng.uniform(0, 7000, 2), 0.0] for _ in range(m)])
    w = rng.uniform(0.2, 1.8, m)
    w = w / w.sum()
    cfg = UtilityConfig("threshold_sigmoid_unicast", -112.4, -88.0, 4.0)

    reported = received_power_matrix(placements, budget_at_1m(budget, 1000.0), mus)
    stacked = np.zeros((b, 3))
    for idx in range(m):
        for i in range(b):
            stacked[i] += w[idx] * agent_gradient(placements[i], budget_at_1m(budget[i], 1000.0), i,
                                                  mus[idx:idx + 1], reported[idx:idx + 1], cfg)
    oracle = network_utility_gradient(placements, mus, w, cfg, budget_at_1m(budget, 1000.0))
    err = rel_err(stacked, oracle)
    ok = err < 1e-9
    record_criterion(
        4, "full enumeration of packet gradients equals the network gradient "
           "(M=500, rel err < 1e-9)", ok, f"rel err {err:.2e}")
    assert ok


def test_criterion_05_estimator_noise_scaling():
    rng = np.random.default_rng(105)
    b, m = 3, 300
    placements = np.array([[*rng.uniform(0, 5000, 2), 30.0] for _ in range(b)])
    budget = np.array([9.0, 9.0, 12.0]) - 94.0
    mus = np.array([[*rng.uniform(0, 5000, 2), 0.0] for _ in range(m)])
    w = rng.uniform(0.2, 1.8, m)
    w = w / w.sum()
    profile = TrafficProfile(pi=tuple(w))
    cfg = UtilityConfig("threshold_sigmoid_unicast", -112.4, -89.0, 4.0)

    per_user = np.array([user_utility(received_power_matrix(
                             placements, budget_at_1m(budget, 1000.0), mu[None])[0], cfg)
                         for mu in mus], dtype=float)
    exact = oracle(placements, mus, w, cfg, budget_at_1m(budget, 1000.0))[0]
    assert abs(float(np.dot(w, per_user)) - exact) < 1e-12

    # index-sampling oracle is the same math as the packet estimator
    idx = np.array([profile.recipients(rng.random()) for _ in range(50)])
    reported = received_power_matrix(placements, budget_at_1m(budget, 1000.0), mus[idx])
    assert abs(float(np.mean(user_utility(reported, cfg))) - per_user[idx].mean()) < 1e-12

    sizes = (100, 1000, 10000)
    mean_abs_err = []
    for s in sizes:
        errs = [abs(per_user[rng.choice(m, size=s, p=w)].mean() - exact)
                for _ in range(60)]
        mean_abs_err.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log10(sizes), np.log10(mean_abs_err), 1)[0])
    ok = abs(slope - (-0.5)) <= 0.15
    record_criterion(
        5, "monte-carlo utility error shrinks like 1/sqrt(S)", ok,
        f"log-log slope {slope:.3f}")
    assert ok


def test_criterion_06_single_pair_convergence():
    p_top = float(received_power_matrix([[0.0, 0.0, 30.0]], budget_at_1m([12.0 - 94.0], 1000.0),
                                        [[0.0, 0.0, 0.0]])[0, 0])
    worst_dist = 0.0
    worst_first = 0
    ok = True
    for seed in range(10):
        s = Scenario(
            area=Rect(0.0, 0.0, 100.0, 100.0),
            num_airbs=1,
            tx_powers_dbm=(12.0,),
            init_region=Rect(0.0, 0.0, 100.0, 100.0),
            fixed_height_m=30.0,
            num_mus=1,
            utility=UtilityConfig("threshold_sigmoid_unicast",
                                  -112.4, p_top - 10.0, 20.0),
            schedule=StepSchedule(eta0=1.0, minibatch_size=10, eta_scale=1000.0),
            iterations=500,
            seed=seed,
            channel=ChannelParams(-94.0, 1000.0),
        )
        log = run(s)
        mu = init_scenario(s, s.seed)[1][0]
        dists = np.hypot(log.positions[:, 0, 0] - mu[0], log.positions[:, 0, 1] - mu[1])
        ok = ok and dists[-1] < 10.0
        worst_dist = max(worst_dist, float(dists[-1]))
        hit = np.argmax(dists < 10.0) if np.any(dists < 10.0) else len(dists)
        worst_first = max(worst_first, int(hit))
    record_criterion(
        6, "single transmitter homes to within 10 m of a lone user on all 10 seeds",
        ok, f"worst final {worst_dist:.2f} m, latest arrival iter {worst_first}")
    assert ok


def test_criterion_07_utility_ascends(paper_batch):
    ascended = sum(1 for t in paper_batch.utility_traces if t[100] > t[0])
    n = len(paper_batch.utility_traces)
    ok = ascended >= math.ceil(0.95 * n)
    record_criterion(
        7, "oracle utility higher after 100 iterations in at least 95% of seeds",
        ok, f"{ascended}/{n} ascended")
    assert ok


def test_criterion_08_noncooperation_barrier():
    rng = np.random.default_rng(108)
    eta = 1e4
    ok = True
    for _ in range(20):
        b = int(rng.integers(2, 6))
        placements = np.array([[*rng.uniform(0, 4000, 2), rng.uniform(20, 80)]
                               for _ in range(b)])
        budget = np.array([rng.uniform(5, 15) - 94.0 for _ in range(b)])
        focus = int(rng.integers(0, b))
        mu = np.array([[*rng.uniform(0, 4000, 2), 0.0]])
        powers, grads = received_power_matrix(placements, budget_at_1m(budget, 1000.0), mu,
                                              gradient=True)
        cfg = conditioned_cfg(FAMILIES[focus % len(FAMILIES)], powers[0], rng)
        ref = batched_update(placements, grads, powers, cfg, eta)[focus]

        # scramble everyone else's position and power gradient, then replay
        # the identical packet
        others = np.arange(b) != focus
        placements[others] = np.column_stack([rng.uniform(0, 9000, (b - 1, 2)),
                                              rng.uniform(0, 500, b - 1)])
        grads[:, others] = rng.standard_normal((1, b - 1, 3)) * 100.0
        replayed = batched_update(placements, grads, powers, cfg, eta)[focus]

        alone = agent_step(placements[focus], budget_at_1m(budget[focus], 1000.0), focus, mu,
                           powers, cfg, eta)
        # x and y step, the altitude is kept, and the three agree bit for bit
        ok = (ok and ref[2] == placements[focus, 2] and np.array_equal(ref, replayed)
              and np.array_equal(ref, alone))
    record_criterion(
        8, "replaying a packet gives a bit-identical update regardless of the "
           "other agents' state", ok, "20 randomized trials")
    assert ok


def test_criterion_09_surrogate_sandwich():
    rng = np.random.default_rng(109)
    max_low = -np.inf   # how far smooth max ever dips below the true max
    max_high = -np.inf  # excess over the log(B)/alpha allowance
    for _ in range(10000):
        n = int(rng.integers(2, 9))
        alpha = float(rng.uniform(0.2, 4.0))
        p = rng.uniform(-130, -40, n)
        sm = float(smooth_max_dbm(p, alpha))
        mx = float(np.max(p))
        max_low = max(max_low, mx - sm)
        max_high = max(max_high, sm - (mx + math.log(n) / alpha))
    bound_ok = max_low <= 1e-12 and max_high <= 1e-12

    # grid spans |6x/delta - 3| <= ~600; past ~745 the true derivative drops
    # below the smallest subnormal and 0 is the correctly rounded value
    deriv_ok = all(np.all(sigmoid_delta_deriv(np.linspace(-100.0 * d, 100.0 * d,
                                                          20001), d) > 0.0)
                   for d in (0.5, 2.0, 20.0))
    mid_ok = all(abs(float(sigmoid_delta(d / 2.0, d)) - 0.5) <= 1e-12
                 for d in (0.1, 1.0, 2.0, 7.5, 20.0))

    ok = bound_ok and deriv_ok and mid_ok
    record_criterion(
        9, "smooth max stays within its bracket, sigmoid slope never vanishes, "
           "midpoint is exact", ok,
        f"bracket slack {max(max_low, max_high):.1e}")
    assert ok


def test_criterion_10_parallelism_independence(tmp_path, monkeypatch):
    s = Scenario(
        area=Rect(0.0, 0.0, 2000.0, 2000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1000.0, 1000.0),
        fixed_height_m=30.0,
        num_mus=15,
        utility=UtilityConfig("threshold_sigmoid_unicast", -112.4, -91.0, 2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=8, eta_scale=1e6),
        iterations=10,
        seed=19,
        channel=ChannelParams(-94.0, 1000.0),
    )
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")

    # a run's three replications, a sweep's six (two values of three) and a
    # three-seed reproduction with its k-means baselines advance, and are judged,
    # as one batch per scenario in-process, then in three groups (the command's
    # own and two forked workers), then in-process in groups of one
    trees = []
    for tag, cores, pairs in (("batch", 1, cli.BATCH_PAIRS),
                              ("forked", 3, cli.BATCH_PAIRS),
                              ("alone", 1, 1)):
        monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
        monkeypatch.setattr(cli, "BATCH_PAIRS", pairs)
        out = tmp_path / tag
        on_scen = ["--scenario", str(scen), "--replications", "3"]
        for argv in (["run", *on_scen, "--out", str(out / "run")],
                     ["sweep", *on_scen, "--axis", "eta", "--values", "1,5",
                      "--out", str(out / "sweep")],
                     ["reproduce-paper", "--seeds", "3", "--baseline", "kmeans",
                      "--out", str(out / "paper")]):
            assert cli_main(argv) == 0
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})

    names = {str(name) for name in trees[0]}
    same = trees[0] == trees[1] == trees[2] and "run/summary.json" in names and \
        "sweep/sweep.csv" in names and "paper/summary.json" in names and \
        all(f"{d}/rep_{r:03d}/trajectory.csv" in names
            for d in ("run", "sweep/eta_1", "sweep/eta_5", "paper") for r in range(3)) and \
        all(f"paper/rep_{r:03d}/kmeans.json" in names for r in range(3))
    record_criterion(
        10, "identical outputs however the replications are batched or grouped", same,
        f"{len(trees[0])} files of a run, a sweep and a k-means reproduction byte-compared "
        f"across one batch, the command's own group and two forked workers, "
        f"and groups of one")
    assert same
