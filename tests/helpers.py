"""Shared test utilities: finite-difference oracles, the network utility's
gradient, dB conversions, packet replay, the per-replication k-means
reference, acceptance reporting, fresh-interpreter runs and a scenario that
diverges."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from airbs_sgd.channel import ChannelParams, received_power_matrix
from airbs_sgd.navigator import StepSchedule
from airbs_sgd.simulator import Rect, Scenario, init_scenario
from airbs_sgd.utility import UtilityConfig, user_utility_partials

# one line per acceptance criterion, printed by the terminal-summary hook
ACCEPTANCE_LINES = []


def record_criterion(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {status} - {desc}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append((num, line))
    return ok


def run_python(*args, env=(), stdout=subprocess.PIPE,
               stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that finds the package in ``src/``, with
    the ``env`` variables set on top of this one's, stdout to ``stdout`` and stderr to
    ``stderr``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path, **dict(env))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=stderr,
                          text=True, timeout=120, env=environ)


def central_diff(f, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``f`` at flat point ``x``.

    Independent derivative route used to cross-check every analytic
    gradient in the package.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g.reshape(x.shape)


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    scale = np.linalg.norm(want)
    if scale == 0.0:
        return float(np.linalg.norm(got - want))
    return float(np.linalg.norm(got - want) / scale)


def dbm_to_linear(p_dbm):
    """dBm -> mW: the linear-domain route that cross-checks the dB-domain kernel."""
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0)


def linear_to_dbm(p_mw):
    """mW -> dBm. Rejects non-positive power."""
    p = np.asarray(p_mw, dtype=float)
    if np.any(p <= 0.0):
        raise ValueError("linear power must be positive to convert to dBm")
    return 10.0 * np.log10(p)


def budget_at_1m(budget_dbm, ref_distance_m):
    """Link budgets calibrated at ``ref_distance_m`` as the kernel takes them: each
    transmitter's power at 1 m, ``budget_dbm + 20*log10(ref_distance_m)``, the sum
    that ``Scenario.budget_dbm`` makes."""
    return np.asarray(budget_dbm, dtype=float) + 20.0 * math.log10(ref_distance_m)


def network_utility_gradient(placements, users, weights, cfg: UtilityConfig,
                             budget_dbm) -> np.ndarray:
    """Gradient of ``utility.oracle``'s utility at one (B, 3) placement and (M, 3) user set.

    Returns shape (B, 3), dB-chain assembled: row ``b`` is
    ``sum_m w_m * (d p_bm / d l_b) * (d J_m / d p_bm)``.
    """
    powers, grads = received_power_matrix(placements, budget_dbm, users, gradient=True)
    partials = user_utility_partials(powers, cfg)  # (M, B)
    return np.einsum("m,mb,mbk->bk", weights, partials, grads)


def agent_gradient(position, budget_b, b, users, reported, cfg) -> np.ndarray:
    """Agent ``b``'s summed chain-rule gradient over a minibatch, one packet at a time.

    ``position`` (3,) is the agent's own, ``budget_b`` its power at 1 m;
    packet q comes from the user at ``users[q]`` and reports the B powers
    ``reported[q]``. The utility's partials in agent ``b``'s power come
    from one agent-major ``user_utility_partials`` call over the Q packets,
    as in ``navigator.batched_update``: with B of 8 or more, numpy sums a
    contiguous row of B powers pairwise, but adds the rows of a (B, Q)
    array one after another. Per packet: one one-row kernel call for the
    agent's power gradient at that user, times its partial; the products
    are added from zeros in packet order.
    """
    partials = user_utility_partials(np.ascontiguousarray(reported.T), cfg, axis=0)[b]
    total = np.zeros(3)
    for x, partial in zip(users, partials):
        _, g = received_power_matrix(position[None], [budget_b], x[None], gradient=True)
        total += g[0, 0] * partial
    return total


def agent_step(position, budget_b, b, users, reported, cfg, eta) -> np.ndarray:
    """Agent ``b`` alone: one ascent step of x and y along its minibatch-mean gradient,
    with z kept.

    The reference that ``navigator.batched_update``'s rows are compared
    against.
    """
    new = np.array(position, dtype=float)
    new[:2] += eta * (agent_gradient(position, budget_b, b, users, reported, cfg)[:2]
                      / len(users))
    return new


def replay_alone(s, log) -> np.ndarray:
    """Each agent's path, replayed alone from packets rebuilt by the documented draw order.

    The packets of iteration i come from the scenario's generator after
    ``init_scenario``: the Q recipients, their exact powers at
    ``log.positions[i]``, then (with measurement noise) one (Q, B) block
    of standard normals. Every agent then steps on its own through
    :func:`agent_step` from ``log.positions[0]``. Returns the replayed
    positions, shaped like ``log.positions``.
    """
    _, users, rng = init_scenario(s, s.seed)
    budget, q = s.budget_dbm, s.schedule.minibatch_size
    path = [log.positions[0]]
    for i in range(log.positions.shape[0] - 1):
        idx = s.traffic.recipients(rng.random(q))
        powers = received_power_matrix(log.positions[i], budget, users[idx])
        if s.measurement_noise_db > 0.0:
            powers = powers + s.measurement_noise_db * rng.standard_normal(powers.shape)
        path.append([agent_step(row, budget[b], b, users[idx], powers, s.utility,
                                s.schedule.eta(i))
                     for b, row in enumerate(path[-1])])
    return np.array(path)


def runaway_scenario():
    """One agent at (0, 0, 2) and one packet per iteration, over two iterations.

    A packet from the extra user, 2.2 m away at the middle of the sigmoid
    band, steps the agent about 5e200 m away, where its squared distance to
    every user overflows: each user's power is -inf dBm, the oracle utility
    nan, and the next step NaN. The drawn users, 1e6 m away, are so far
    below the target that their packets do not move the agent.
    """
    extra = (1.0, 0.0, 0.0)
    p_extra = float(received_power_matrix([[0.0, 0.0, 2.0]], budget_at_1m([12.0 - 94.0], 1000.0),
                                          [extra])[0, 0])
    return Scenario(
        area=Rect(1e6, 0.0, 1e6 + 100.0, 100.0), num_airbs=1, tx_powers_dbm=(12.0,),
        init_region=Rect(0.0, 0.0, 0.0, 0.0), fixed_height_m=2.0, num_mus=2,
        extra_mu_positions=(extra,), iterations=2, seed=11,
        utility=UtilityConfig("threshold_sigmoid_unicast", -112.4,
                              p_extra - 0.25, 0.5),
        schedule=StepSchedule(eta0=1.0, minibatch_size=1, eta_scale=1e200),
        channel=ChannelParams(-94.0, 1000.0))


def extra_user_packets(s, seed):
    """Whether each iteration's one packet comes from the extra user."""
    rng = init_scenario(s, seed)[2]
    return [s.traffic.recipients(rng.random()) == s.total_mus - 1 for _ in range(s.iterations)]


def diverges(s, seed):
    """Whether :func:`runaway_scenario` diverges at ``seed``: its first packet is the
    extra user's."""
    return extra_user_packets(s, seed)[0]


def runaway_message(s, seed, rep_dir):
    """The one stderr line of a command whose replication ``seed`` of
    :func:`runaway_scenario` ``s`` is flung, from (0, 0, 2), by the extra user's
    packet; its bundle would be ``rep_dir``. The landing point is stepped by
    :func:`agent_step`, the per-agent reference."""
    start, extra = np.array([0.0, 0.0, 2.0]), np.array(s.extra_mu_positions)
    budget = s.budget_dbm
    powers = received_power_matrix(start[None], budget, extra)
    flung = agent_step(start, budget[0], 0, extra, powers, s.utility, s.schedule.eta(0))
    return (f"error: replication with seed {seed} failed: agent 0 stepped to {flung.tolist()}: "
            f"the position must be within 1e+150 m of 0 with nonnegative altitude "
            f"(bundle {rep_dir})\n")


def kmeans_reference(user_locations, num_clusters, max_iters=100, seed=0, height_m=0.0):
    """One replication's Lloyd k-means, one cluster at a time: the reference that
    ``baseline.kmeans_replications`` is compared against bit for bit.

    Returns the (B, 3) centroids at ``height_m``, the final inertia and the
    inertia of every pass, in order.

    Equidistant users go to the lowest cluster index; a cluster that loses
    all its users is reseeded to the user farthest from its stale centroid;
    a run that exhausts ``max_iters`` passes is realigned once.
    """
    pts = np.asarray(user_locations, dtype=float)[:, :2]
    m = pts.shape[0]
    rng = np.random.default_rng(int(seed))
    centroids = pts[rng.choice(m, size=num_clusters, replace=False)].copy()

    def nearest():
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        return assign, float(np.sum(d2[np.arange(m), assign]))

    history, prev = [], None
    for _ in range(max_iters):
        assign, inertia = nearest()
        history.append(inertia)
        if prev is not None and np.array_equal(assign, prev):
            break
        for k in range(num_clusters):
            members = pts[assign == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
            else:
                far = np.argmax(np.sum((pts - centroids[k]) ** 2, axis=1))
                centroids[k] = pts[far]
        prev = assign
    else:
        assign, inertia = nearest()
        history.append(inertia)
    return (np.column_stack([centroids, np.full(num_clusters, float(height_m))]), inertia,
            tuple(history))
