"""Free-space channel model: received power in dBm and its position gradient.

Positions are Cartesian East/North/Up coordinates in meters. All power
bookkeeping at module boundaries is in dBm; linear (mW) conversions happen
inside the operations that need them. One array kernel,
:func:`received_power_matrix`, evaluates B transmitters at N points at
once, with gradients on request; every other power computation in the
package goes through it.
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


class CoincidentPositionsError(ValueError):
    """Raised when transmitter and receiver (nearly) coincide.

    ``seed`` names the failed replication when a simulation raised it.
    """

    seed: int | None = None


@dataclass(frozen=True)
class Position:
    """A point in a local East/North/Up frame, meters."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"position coordinates must be finite, got {self}")
        if self.z < 0.0:
            raise ValueError(f"position altitude must be nonnegative, got z={self.z}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Position":
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants for one transmitter.

    ``ref_gain_db`` is the channel gain (antenna gains folded in) at
    ``ref_distance_m`` from the transmitter; ``tx_power_dbm`` the transmit
    power.
    """

    ref_gain_db: float
    ref_distance_m: float
    tx_power_dbm: float

    def __post_init__(self):
        if not math.isfinite(self.ref_gain_db):
            raise ValueError("ref_gain_db must be finite")
        if not (self.ref_distance_m > 0.0):
            raise ValueError("ref_distance_m must be positive")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")


def positions_to_array(positions) -> np.ndarray:
    """Coerce a sequence of Position (or length-3 array-likes) to an (N, 3) array.

    An array whose last axis has length 3 passes through with any leading
    axes, e.g. (R, N, 3) for R replications.
    """
    if isinstance(positions, np.ndarray) and positions.ndim >= 2 and positions.shape[-1] == 3:
        return np.asarray(positions, dtype=float)
    rows = []
    for p in positions:
        if isinstance(p, Position):
            rows.append((p.x, p.y, p.z))
        else:
            rows.append((float(p[0]), float(p[1]), float(p[2])))
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def received_power_matrix(placements, params, points, gradient: bool = False):
    """Received power from B transmitters at N points, and its gradient: the array kernel.

    Parameters
    ----------
    placements : Position sequence or ndarray, shape (..., B, 3)
        Transmitter locations.
    params : sequence of ChannelParams
        Transmit power and reference-distance gain calibration, one per
        transmitter.
    points : Position sequence or ndarray, shape (..., N, 3)
        Receiver locations. The leading axes of ``placements`` and
        ``points`` broadcast, e.g. one set of transmitters and points per
        replication.
    gradient : bool
        Also return the gradient of each power in its transmitter's
        position.

    Returns
    -------
    ndarray, shape (..., N, B), or a pair adding an (..., N, B, 3) array
        Powers ``tx_power_dbm + ref_gain_db - 20*log10(d / ref_distance_m)``
        in dBm, with ``d`` the transmitter-receiver separation in meters;
        gradients ``-(20/ln 10) * (l_b - x_m) / d**2`` in dB/meter, which
        point from the transmitter toward the receiver (moving closer
        raises power) with magnitude ``(20/ln 10)/d``.

    Every entry is computed elementwise, so the (n, b) result does not
    depend on the other transmitters or points in the batch. The results
    are laid out transmitter-major: they are views of (..., B, N) arrays,
    so each transmitter's N entries are adjacent in memory and a reduction
    over the B axis adds whole rows of N entries.
    """
    L, X = positions_to_array(placements), positions_to_array(points)
    # one coordinate at a time: every operation runs along the N points
    dx, dy, dz = (L[..., :, None, k] - X[..., None, :, k] for k in range(3))
    d2 = dx * dx + dy * dy + dz * dz
    if np.any(d2 < EPS_DISTANCE_M * EPS_DISTANCE_M):
        raise CoincidentPositionsError(
            f"separation {math.sqrt(float(np.min(d2))):.3g} m below the "
            f"{EPS_DISTANCE_M} m singularity guard")
    budget = np.array([[p.tx_power_dbm + p.ref_gain_db] for p in params])
    ref = np.array([[p.ref_distance_m] for p in params])
    powers = np.swapaxes(budget - 20.0 * np.log10(np.sqrt(d2) / ref), -1, -2)
    if not gradient:
        return powers
    slope = -DB_SLOPE / d2
    grads = np.stack([slope * dx, slope * dy, slope * dz], axis=-1)
    return powers, np.swapaxes(grads, -2, -3)


def free_space_power_dbm(l_b: Position, x_m: Position, params: ChannelParams) -> float:
    """Received power in dBm at ``x_m`` from a transmitter at ``l_b``.

    One entry of :func:`received_power_matrix`, which documents the model.
    """
    return float(received_power_matrix([l_b], (params,), [x_m])[0, 0])


def free_space_power_gradient(l_b: Position, x_m: Position, params: ChannelParams) -> np.ndarray:
    """Gradient of :func:`free_space_power_dbm` with respect to ``l_b``, dB/meter."""
    return received_power_matrix([l_b], (params,), [x_m], gradient=True)[1][0, 0]
