"""Non-cooperative stochastic-gradient placement agents.

Each transmitter runs the same loop in isolation: for every control packet
it overhears, form the chain-rule product

    (gradient of its own received power at the reporting user's location)
    x (sensitivity of that user's utility to its power),

average the products over a minibatch, and take one gradient-ascent step.
The first factor needs only the agent's own position and channel
parameters; the second needs only the packet. No agent ever reads another
agent's state, which is the whole point of the scheme.

:func:`batched_update` runs that loop for all B agents on a whole (Q, B)
minibatch in one array pass, agent-major: the utility's partials on one
(B, Q) array per replication, and each agent's products summed over the
packets in packet order. It performs each agent's arithmetic entry by
entry, so every agent's row is bit-identical to stepping that agent alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .channel import MAX_COORD_M
from .utility import UtilityConfig, user_utility_partials


Decay = Literal["constant", "harmonic"]


class DivergenceError(ValueError):
    """Raised when an update would move an agent to an invalid position."""


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
    decay: Decay = "constant"

    def __post_init__(self):
        if self.eta0 < 0.0 or not math.isfinite(self.eta0):
            raise ValueError("eta0 must be finite and nonnegative")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be at least 1")
        if self.minibatch_size >= 2 ** 63:
            raise ValueError("minibatch_size must be below 2**63")
        if not (math.isfinite(self.eta_scale) and self.eta_scale > 0.0):
            raise ValueError(f"eta_scale must be finite and positive, got {self.eta_scale}")
        if not math.isfinite(self.eta0 * self.eta_scale):
            raise ValueError(f"eta0 * eta_scale must be finite, got {self.eta0!r} * "
                             f"{self.eta_scale!r}")
        if self.decay not in get_args(Decay):
            raise ValueError(f"unknown decay {self.decay!r}")

    def eta(self, iteration: int) -> float:
        base = self.eta0 * self.eta_scale
        if self.decay == "harmonic":
            return base / (1.0 + iteration)
        return base


def batched_update(positions: np.ndarray, power_gradients: np.ndarray,
                   reported_powers: np.ndarray, cfg: UtilityConfig, eta: float,
                   fixed_height: float | None = None) -> np.ndarray:
    """One synchronous minibatch ascent step of all B agents; returns the new positions.

    ``positions`` is (..., B, 3). For a minibatch of Q packets,
    ``power_gradients`` (..., Q, B, 3) holds each agent's own power
    gradient at each reporting user, and ``reported_powers`` (..., Q, B)
    the powers each packet reports; leading axes (e.g. replications) are
    independent batches. Agent ``b``'s row is its own rule: per packet, its
    power gradient times the utility's partial in its power, summed from
    0.0 in packet order; then ``position + eta * (sum / Q)``, with z
    re-pinned to ``fixed_height`` when that is set. It reads only that
    agent's position and gradients, plus the packets.

    The partials are evaluated agent-major, as
    ``user_utility_partials(powers.T, cfg, axis=0)`` does for one
    replication's (Q, B) powers: each packet's sum over the agents runs in
    index order, or at Q = 1 in numpy's pairwise order over its one row
    (the same below B = 8). Each agent's floating-point operations are
    those of that one call and its own gradients, one packet at a time.

    Raises :class:`DivergenceError` when a step would leave an agent more
    than ``MAX_COORD_M`` from 0 on some axis, at a non-finite position, or
    at a negative altitude.
    """
    # agent-major (..., B, Q): each agent's Q powers are adjacent in memory, so the
    # reductions over the agents add whole rows of Q entries, one agent after another
    powers = np.ascontiguousarray(reported_powers.swapaxes(-1, -2))
    partials = user_utility_partials(powers, cfg, axis=-2)
    # the products laid out packet-major (Q, 3, ..., B): the packets are the outer
    # loop of the reduction, so they are added one after another, from 0.0, as a
    # running sum adds them. numpy sums a contiguous innermost axis pairwise and
    # merges axes of length 1 away; the 3 coordinates keep Q from ever being innermost,
    # even for one agent in one replication
    n = powers.ndim  # the gradients' axes are (..., n - 2, n - 1, n): (..., Q, B, 3)
    lead = range(n - 2)
    grads = power_gradients.transpose(n - 2, n, *lead, n - 1)
    contrib = np.multiply(grads, partials.transpose(n - 1, *lead, n - 2)[:, None],
                          out=np.empty(grads.shape))
    total = np.add.reduce(contrib, axis=0, initial=0.0).transpose(*range(1, n), 0)
    new = positions + eta * (total / powers.shape[-1])
    if fixed_height is not None:
        new[..., 2] = fixed_height
    # one reduction per bound, nan failing both; the mask is built only on a failure
    if not (np.maximum.reduce(np.abs(new), axis=None, initial=0.0) <= MAX_COORD_M
            and np.minimum.reduce(new[..., 2], axis=None, initial=0.0) >= 0.0):
        bad = ~np.all(np.abs(new) <= MAX_COORD_M, axis=-1) | (new[..., 2] < 0.0)
        where = np.unravel_index(np.argmax(bad), bad.shape)
        raise DivergenceError(f"agent {where[-1]} stepped to {new[where].tolist()}: the position "
                              f"must be within {MAX_COORD_M:g} m of 0 with nonnegative altitude")
    return new

