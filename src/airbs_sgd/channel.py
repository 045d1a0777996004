"""Free-space channel model: received power in dBm and its position gradient.

Positions are Cartesian East/North/Up coordinates in meters, held as
float arrays whose last axis has length 3. All power bookkeeping at
module boundaries is in dBm; linear (mW) conversions happen inside the
operations that need them. One array kernel,
:func:`received_power_matrix`, evaluates B transmitters at N points at
once, with gradients on request; every other power computation in the
package goes through it. A transmitter enters it as its power at 1 m,
``budget_dbm``; a receiver ``d`` m away gets ``budget_dbm - 10*log10(d**2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 20 / ln(10): slope of 20*log10(d) with respect to ln(d).
DB_SLOPE = 20.0 / math.log(10.0)

# Singularity guard: transmitter and receiver closer than this is treated as
# a configuration bug (airborne transmitters never reach it in valid setups).
EPS_DISTANCE_M = 0.1

# Largest coordinate magnitude (m) a position may have: the squared distance
# of two points within it, below 12 * MAX_COORD_M**2 = 1.2e301, stays finite.
MAX_COORD_M = 1e150
# Smallest reference distance (m) a channel may be calibrated at: the bound
# scenario files are checked against, kept so that the same files load and the
# same are rejected.
MIN_REF_DISTANCE_M = 1e-150


class CoincidentPositionsError(ValueError):
    """Raised when transmitter and receiver (nearly) coincide."""


@dataclass(frozen=True)
class ChannelParams:
    """The free-space channel all transmitters share: ``ref_gain_db`` is the gain
    (antenna gains folded in) at ``ref_distance_m`` from a transmitter."""

    ref_gain_db: float
    ref_distance_m: float

    def __post_init__(self):
        if not math.isfinite(self.ref_gain_db):
            raise ValueError("ref_gain_db must be finite")
        if not (MIN_REF_DISTANCE_M <= self.ref_distance_m < math.inf):
            raise ValueError(f"ref_distance_m must be finite and at least "
                             f"{MIN_REF_DISTANCE_M:g} m, got {self.ref_distance_m:g}")


def received_power_matrix(placements, budget_dbm, points, gradient: bool = False):
    """Received power from B transmitters at N points, and its gradient: the array kernel.

    Parameters
    ----------
    placements : array_like, shape (..., B, 3)
        Transmitter locations.
    budget_dbm : array_like, shape (B,)
        Each transmitter's received power (dBm) at 1 m, as
        :attr:`simulator.Scenario.budget_dbm` gives it.
    points : array_like, shape (..., N, 3)
        Receiver locations. The leading axes of ``placements`` and
        ``points`` broadcast, e.g. one set of transmitters and points per
        replication.
    gradient : bool
        Also return the gradient of each power in its transmitter's
        position.

    Returns
    -------
    ndarray, shape (..., N, B), or a pair adding an (..., N, B, 3) array
        Powers ``budget_dbm[b] - 10*log10(d**2)`` in dBm, with ``d`` the
        transmitter-receiver separation in meters;
        gradients ``-(20/ln 10) * (l_b - x_m) / d**2`` in dB/meter, which
        point from the transmitter toward the receiver (moving closer
        raises power) with magnitude ``(20/ln 10)/d``.

    Every entry is computed elementwise, so the (n, b) result does not
    depend on the other transmitters or points in the batch. The results
    are laid out transmitter-major: they are views of (..., B, N) arrays,
    so each transmitter's N entries are adjacent in memory and a reduction
    over the B axis adds whole rows of N entries.
    """
    L, X = np.asarray(placements, dtype=float), np.asarray(points, dtype=float)
    budget = np.asarray(budget_dbm, dtype=float)
    if budget.shape != L.shape[-2:-1]:
        raise ValueError(f"need one link budget per transmitter: budget_dbm has shape "
                         f"{budget.shape} for {L.shape[-2]} transmitters")

    def delta(k, out=None):
        return np.subtract(L[..., :, None, k], X[..., None, :, k], out=out)

    # One coordinate at a time, so every operation runs along the N points, and
    # in place: the powers are built in the array that accumulates the squared
    # distance and, without gradients, one scratch array holds each coordinate's
    # difference. The ufuncs and operands are those of the plain expressions, so
    # every power keeps its bits.
    deltas = [delta(0)]
    d2 = deltas[0] * deltas[0]
    for k in (1, 2):
        if gradient:
            deltas.append(delta(k))
            d2 += deltas[k] * deltas[k]
        else:
            d = delta(k, out=deltas[0])
            d2 += np.multiply(d, d, out=d)
    if np.minimum.reduce(d2, axis=None, initial=math.inf) < EPS_DISTANCE_M * EPS_DISTANCE_M:
        raise CoincidentPositionsError(
            f"separation {math.sqrt(float(np.min(d2))):.3g} m below the "
            f"{EPS_DISTANCE_M} m singularity guard")
    p = np.log10(d2, out=None if gradient else d2)
    np.multiply(10.0, p, out=p)
    powers = np.subtract(budget[:, None], p, out=p).swapaxes(-1, -2)
    if not gradient:
        return powers
    slope = -DB_SLOPE / d2
    grads = np.empty(d2.shape + (3,))
    for k, d in enumerate(deltas):
        np.multiply(slope, d, out=grads[..., k])
    return powers, grads.swapaxes(-2, -3)

