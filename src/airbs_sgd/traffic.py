"""Packet-recipient sampling and the control packets users broadcast.

A traffic profile is a categorical distribution over user indices: each
downlink packet is destined for user ``m`` with probability ``pi_m``. The
addressed user replies on the control channel with its own location and
the powers it measured from every transmitter. That reply is the only
information the placement agents ever receive, so the packet type
deliberately carries nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import Position, received_power_matrix
from .utility import UtilityConfig, user_utility

PI_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TrafficProfile:
    """Categorical distribution ``pi`` over the M packet recipients."""

    pi: tuple

    def __post_init__(self):
        pi = tuple(float(p) for p in self.pi)
        object.__setattr__(self, "pi", pi)
        if len(pi) == 0:
            raise ValueError("traffic profile must cover at least one user")
        if any(p < 0.0 or not math.isfinite(p) for p in pi):
            raise ValueError("traffic shares must be finite and nonnegative")
        total = math.fsum(pi)
        if abs(total - 1.0) > PI_SUM_TOL:
            raise ValueError(f"traffic shares must sum to 1, got {total:.12g}")

    @classmethod
    def uniform(cls, num_users: int) -> "TrafficProfile":
        if num_users < 1:
            raise ValueError("need at least one user")
        return cls(pi=(1.0 / num_users,) * num_users)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.pi, dtype=float)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative shares normalised to end at 1, as ``Generator.choice`` builds them."""
        cdf = np.cumsum(self.as_array())
        cdf /= cdf[-1]
        return cdf


@dataclass(frozen=True)
class ControlPacket:
    """One control-channel reply: who, where, and what power they saw.

    ``measured_powers_dbm[b]`` is the power the user measured from
    transmitter ``b``. No transmitter positions, no utility parameters:
    the agents must get by on this alone.
    """

    mu_index: int
    mu_location: Position
    measured_powers_dbm: tuple

    def __post_init__(self):
        if self.mu_index < 0:
            raise ValueError("mu_index must be nonnegative")
        powers = tuple(float(p) for p in self.measured_powers_dbm)
        object.__setattr__(self, "measured_powers_dbm", powers)
        if len(powers) == 0:
            raise ValueError("packet must report at least one power")
        if any(not math.isfinite(p) for p in powers):
            raise ValueError("measured powers must be finite")


def sample_recipient(profile: TrafficProfile, rng: np.random.Generator, size=None):
    """Draw packet-recipient indices from ``profile``; scalar when size is None.

    The same indices, from the same draws, as
    ``rng.choice(len(profile.pi), size=size, p=profile.pi)``, which inverts
    the profile's CDF at uniform draws; the CDF is built once per profile.
    """
    idx = profile.cdf.searchsorted(rng.random(size), side="right")
    if size is None:
        return int(idx)
    return idx


def make_control_packet(m: int, mu_positions, placements, params) -> ControlPacket:
    """Build the exact reply packet for user ``m``.

    ``placements`` and ``params`` are parallel per-transmitter sequences.
    Measurement noise is the simulator's: one (Q, B) block per iteration.
    """
    if not 0 <= m < len(mu_positions):
        raise IndexError(f"user index {m} out of range [0, {len(mu_positions)})")
    loc = mu_positions[m]
    powers = received_power_matrix(placements, params, [loc])[0]
    return ControlPacket(mu_index=m, mu_location=loc, measured_powers_dbm=tuple(powers))


def empirical_utility_estimate(packets, cfg: UtilityConfig) -> float:
    """Sample-mean utility over a batch of packets.

    Unbiased for the traffic-weighted network utility when the packet
    recipients are drawn from the traffic profile.
    """
    packets = list(packets)
    if not packets:
        raise ValueError("cannot estimate utility from zero packets")
    powers = np.asarray([p.measured_powers_dbm for p in packets])
    return float(np.mean(user_utility(powers, cfg)))
