"""Shared test utilities: finite-difference oracles, dB conversions, packet
replay and acceptance reporting."""

import numpy as np

from airbs_sgd.channel import Position, received_power_matrix
from airbs_sgd.navigator import AirBsAgent, accumulate, agent_partial_gradient, apply_update
from airbs_sgd.simulator import init_scenario
from airbs_sgd.traffic import ControlPacket, sample_recipient

# one line per acceptance criterion, printed by the terminal-summary hook
ACCEPTANCE_LINES = []


def record_criterion(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {status} - {desc}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append((num, line))
    return ok


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


def replay_alone(s, log) -> np.ndarray:
    """Each agent's path, replayed alone from packets rebuilt by the documented draw order.

    The packets of iteration i come from the scenario's generator after
    ``init_scenario``: the Q recipients, their exact powers at
    ``log.positions[i]``, then (with measurement noise) one (Q, B) block
    of standard normals. Every agent then steps on its own through
    ``agent_partial_gradient`` -> ``accumulate`` -> ``apply_update`` from
    ``log.positions[0]``. Returns the replayed positions, shaped like
    ``log.positions``.
    """
    world = init_scenario(s)
    params, q = s.agent_channel_params(), s.schedule.minibatch_size
    agents = [AirBsAgent(index=b, position=Position.from_array(row), channel_params=params[b],
                         fixed_height=s.fixed_height_m)
              for b, row in enumerate(log.positions[0])]
    path = [log.positions[0]]
    for i in range(log.num_iterations):
        idx = sample_recipient(s.traffic, world.rng, size=q)
        powers = received_power_matrix(log.positions[i], params, world.users[idx])
        if s.measurement_noise_db > 0.0:
            powers = powers + s.measurement_noise_db * world.rng.standard_normal(powers.shape)
        packets = [ControlPacket(mu_index=int(m), mu_location=Position.from_array(world.users[m]),
                                 measured_powers_dbm=tuple(row))
                   for m, row in zip(idx, powers)]
        for agent in agents:
            for pkt in packets:
                accumulate(agent, agent_partial_gradient(agent, pkt, s.utility))
            apply_update(agent, s.schedule.eta(i))
        path.append([agent.position.as_array() for agent in agents])
    return np.array(path)
