"""Packet-recipient sampling.

A traffic profile is a categorical distribution over user indices: each
downlink packet is destined for user ``m`` with probability ``pi_m``. The
addressed user replies on the control channel with its own location and
the powers it measured from every transmitter. That reply is the only
information the placement agents ever receive; the simulator carries a
minibatch of Q replies as the Q reporting users' locations and a (Q, B)
array of reported powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PI_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TrafficProfile:
    """Categorical distribution ``pi`` over the M packet recipients."""

    pi: tuple[float, ...]

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

    def recipients(self, u) -> np.ndarray:
        """The recipient index of each uniform draw in ``u``: the CDF inverted at it."""
        return self.cdf.searchsorted(u, side="right")

