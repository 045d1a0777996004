"""Non-cooperative stochastic-gradient placement agents.

Each transmitter runs the same loop in isolation: for every control packet
it overhears, form the chain-rule product

    (gradient of its own received power at the reporting user's location)
    x (sensitivity of that user's utility to its power),

average the products over a minibatch, and take one gradient-ascent step.
The first factor needs only the agent's own position and channel
parameters; the second needs only the packet. No agent ever reads another
agent's state, which is the whole point of the scheme.

Two views of the same rule live here. :class:`AirBsAgent` with
:func:`agent_partial_gradient`, :func:`accumulate` and :func:`apply_update`
is one agent on one packet at a time. :func:`batched_update` steps all B
agents on a whole (Q, B) minibatch in one array pass, which is what the
simulator runs; it performs the per-agent arithmetic entry by entry, so
the two views agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, Position, received_power_matrix
from .traffic import ControlPacket
from .utility import UtilityConfig, user_utility_partials


class DivergenceError(ValueError):
    """Raised when an update would move an agent to an invalid position.

    ``seed`` names the failed replication when a simulation raised it.
    """

    seed: int | None = None


@dataclass
class AirBsAgent:
    """Mutable per-transmitter optimizer state.

    ``fixed_height`` pins the altitude: the vertical gradient component is
    discarded at every update and z is re-pinned, so horizontal placement
    is optimized at constant height.
    """

    index: int
    position: Position
    channel_params: ChannelParams
    minibatch_sum: np.ndarray = field(default_factory=lambda: np.zeros(3))
    minibatch_count: int = 0
    fixed_height: float | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("agent index must be nonnegative")
        self.minibatch_sum = np.asarray(self.minibatch_sum, dtype=float).copy()
        if self.minibatch_sum.shape != (3,):
            raise ValueError("minibatch_sum must be a 3-vector")
        if self.minibatch_count < 0:
            raise ValueError("minibatch_count must be nonnegative")
        if self.fixed_height is not None and self.position.z != self.fixed_height:
            self.position = Position(self.position.x, self.position.y, float(self.fixed_height))


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule and minibatch size.

    ``eta(i)`` returns the step applied after iteration ``i``'s minibatch.
    ``eta_scale`` sets the unit interpretation of the nominal step: the
    chain-rule gradients are denominated in dB per meter, so a scale of 1
    reads ``eta0`` as m^2/dB while 1e6 reads it as km^2/dB (equivalent to
    running the whole geometry in kilometers). Large-area scenarios need
    the km reading to move at a useful pace; see the bundled reference
    scenario.

    ``eta0 = 0`` is allowed and freezes all movement (useful as a control).
    """

    eta0: float
    minibatch_size: int
    eta_scale: float = 1.0
    decay: str = "constant"

    def __post_init__(self):
        if self.eta0 < 0.0 or not math.isfinite(self.eta0):
            raise ValueError("eta0 must be finite and nonnegative")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be at least 1")
        if not (math.isfinite(self.eta_scale) and self.eta_scale > 0.0):
            raise ValueError(f"eta_scale must be finite and positive, got {self.eta_scale}")
        if self.decay not in ("constant", "harmonic"):
            raise ValueError(f"unknown decay {self.decay!r}")

    def eta(self, iteration: int) -> float:
        base = self.eta0 * self.eta_scale
        if self.decay == "harmonic":
            return base / (1.0 + iteration)
        return base


def agent_partial_gradient(agent: AirBsAgent, packet: ControlPacket,
                           cfg: UtilityConfig) -> np.ndarray:
    """One agent's stochastic gradient contribution from one packet.

    Chain rule: [d p_b / d l_b at the reporting user] * [d J_m / d p_b from
    the reported powers]. Reads only agent-local state and the packet. The
    packet is evaluated as a one-row batch, with the same arithmetic as
    :func:`batched_update` applies to each (packet, agent) entry.
    """
    if agent.index >= len(packet.measured_powers_dbm):
        raise IndexError("agent index exceeds packet power count")
    _, gvec = received_power_matrix([agent.position], (agent.channel_params,),
                                    [packet.mu_location], gradient=True)
    partials = user_utility_partials(np.asarray(packet.measured_powers_dbm)[None], cfg)
    return gvec[0, 0] * partials[0, agent.index]


def batched_update(positions: np.ndarray, power_gradients: np.ndarray,
                   reported_powers: np.ndarray, cfg: UtilityConfig, eta: float,
                   fixed_height: float | None = None) -> np.ndarray:
    """One synchronous minibatch ascent step of all B agents; returns the new positions.

    ``positions`` is (..., B, 3). For a minibatch of Q packets,
    ``power_gradients`` (..., Q, B, 3) holds each agent's own power
    gradient at each reporting user, and ``reported_powers`` (..., Q, B)
    the powers each packet reports; leading axes (e.g. replications) are
    independent batches. Agent ``b``'s row is the per-agent rule for every
    agent at once: :func:`agent_partial_gradient` per packet,
    :func:`accumulate` in packet order, then :func:`apply_update`, with
    the same floating-point operations. It reads only that agent's
    position and gradients, plus the packets.

    Raises :class:`DivergenceError` when a step would leave an agent at a
    non-finite position or a negative altitude.
    """
    # packet-major: each packet's B powers adjacent in memory, as
    # agent_partial_gradient evaluates one packet, so the sums over the
    # agents run in the same order for any B
    partials = user_utility_partials(np.ascontiguousarray(reported_powers), cfg)
    contrib = power_gradients * partials[..., None]
    # the coordinates are the inner loop of the reduction over the packets, so
    # the packets are added one after another, from 0.0, as accumulate adds them
    total = np.sum(contrib, axis=-3, initial=0.0)
    new = positions + eta * (total / contrib.shape[-3])
    if fixed_height is not None:
        new[..., 2] = fixed_height
    bad = ~np.all(np.isfinite(new), axis=-1) | (new[..., 2] < 0.0)
    if np.any(bad):
        where = np.unravel_index(np.argmax(bad), bad.shape)
        raise DivergenceError(f"agent {where[-1]} stepped to {new[where].tolist()}: the "
                              f"position must be finite with nonnegative altitude")
    return new


def accumulate(agent: AirBsAgent, grad) -> AirBsAgent:
    """Add one per-packet gradient into the agent's minibatch accumulator."""
    agent.minibatch_sum += np.asarray(grad, dtype=float)
    agent.minibatch_count += 1
    return agent


def apply_update(agent: AirBsAgent, eta: float) -> AirBsAgent:
    """Take one ascent step along the minibatch-mean gradient, then reset.

    The step is ``eta * minibatch_sum / minibatch_count``; with
    ``fixed_height`` set the vertical component is discarded and z is
    re-pinned exactly.
    """
    if agent.minibatch_count < 1:
        raise ValueError("apply_update requires at least one accumulated gradient")
    step = eta * (agent.minibatch_sum / agent.minibatch_count)
    if agent.fixed_height is not None:
        step[2] = 0.0
    p = agent.position
    z = p.z + step[2] if agent.fixed_height is None else float(agent.fixed_height)
    agent.position = Position(p.x + step[0], p.y + step[1], z)
    agent.minibatch_sum = np.zeros(3)
    agent.minibatch_count = 0
    return agent


def smooth_waypoints(waypoints, window: int) -> list:
    """Centered moving average of a waypoint sequence, coordinate-wise.

    ``window`` must be odd and >= 1. Near the ends the window shrinks
    symmetrically, so the output has the same length and the first and
    last waypoints are preserved.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    pts = [p if isinstance(p, Position) else Position(*map(float, p)) for p in waypoints]
    n = len(pts)
    half = window // 2
    out = []
    for i in range(n):
        h = min(half, i, n - 1 - i)
        xs = pts[i - h:i + h + 1]
        k = len(xs)
        out.append(Position(sum(p.x for p in xs) / k,
                            sum(p.y for p in xs) / k,
                            sum(p.z for p in xs) / k))
    return out


def clamp_speed(prev: Position, nxt: Position, vmax_m_per_update: float) -> Position:
    """Limit a single-update displacement to ``vmax_m_per_update`` meters."""
    if not vmax_m_per_update > 0.0:
        raise ValueError("vmax must be positive")
    dx = nxt.x - prev.x
    dy = nxt.y - prev.y
    dz = nxt.z - prev.z
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d <= vmax_m_per_update:
        return nxt
    s = vmax_m_per_update / d
    return Position(prev.x + s * dx, prev.y + s * dy, prev.z + s * dz)
