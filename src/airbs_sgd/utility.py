"""Per-user utilities, their smooth surrogates, and analytic dB-partials.

Every utility here is a function of the per-transmitter received powers at
one user, ``f(p_1, ..., p_B)`` with the powers in dBm. Two smoothing
devices make the families differentiable and nowhere-flat:

* the log-sum-exp soft maximum replaces ``max_b p_b``;
* a shifted/scaled logistic replaces the unit step in threshold utilities,
  transitioning from ~0 to ~1 over a band of width ``delta_db`` above the
  power target.

All operations broadcast over leading axes, so a single call evaluates one
power vector (shape ``(B,)``) or a batch (shape ``(M, B)``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import received_power_matrix

LN2 = math.log(2.0)
# d(linear)/d(dB) = linear * ln(10)/10; used to express partials per dB.
DB_TO_NAT = math.log(10.0) / 10.0

WEIGHT_SUM_TOL = 1e-9


class UtilityFamily(enum.Enum):
    """Supported per-user utility families."""

    UNICAST_RATE = "unicast_rate"
    BROADCAST_RATE = "broadcast_rate"
    THRESHOLD_SIGMOID_UNICAST = "threshold_sigmoid_unicast"
    THRESHOLD_SIGMOID_BROADCAST = "threshold_sigmoid_broadcast"


@dataclass(frozen=True)
class UtilityConfig:
    """Utility family selection plus surrogate parameters.

    ``noise_dbm`` is the receiver noise floor, ``p_min_dbm`` the received
    power target defining "served", ``delta_db`` the width of the logistic
    transition band above the target, and ``softmax_alpha`` the soft-max
    temperature in 1/dB (larger is closer to the exact maximum).
    """

    family: UtilityFamily
    noise_dbm: float
    p_min_dbm: float
    delta_db: float
    softmax_alpha: float = 1.0

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", UtilityFamily(self.family))
        if not isinstance(self.family, UtilityFamily):
            raise ValueError(f"unknown utility family {self.family!r}")
        if not math.isfinite(self.noise_dbm):
            raise ValueError("noise_dbm must be finite")
        if not math.isfinite(self.p_min_dbm):
            raise ValueError("p_min_dbm must be finite")
        if not (math.isfinite(self.delta_db) and self.delta_db > 0.0):
            raise ValueError(f"delta_db must be finite and positive, got {self.delta_db}")
        if not (math.isfinite(self.softmax_alpha) and self.softmax_alpha > 0.0):
            raise ValueError(f"softmax_alpha must be finite and positive, "
                             f"got {self.softmax_alpha}")


def smooth_max_dbm(powers_dbm, alpha: float = 1.0, axis: int = -1):
    """Log-sum-exp soft maximum of dBm powers at temperature ``alpha``.

    Returns ``(1/alpha) * ln(sum_b exp(alpha * p_b))``, computed stably by
    subtracting the maximum before exponentiation. The result lies in
    ``[max_b p_b, max_b p_b + ln(B)/alpha]``.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    p = np.asarray(powers_dbm, dtype=float)
    m = np.max(p, axis=axis)
    z = np.sum(np.exp(alpha * (p - np.expand_dims(m, axis))), axis=axis)
    return m + np.log(z) / alpha


def softmax_weights(powers_dbm, alpha: float = 1.0, axis: int = -1):
    """Soft-max weights ``exp(alpha p_b) / sum_b' exp(alpha p_b')``.

    This is exactly the gradient of :func:`smooth_max_dbm` with respect to
    the power vector: positive weights summing to one.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    p = np.asarray(powers_dbm, dtype=float)
    e = np.exp(alpha * (p - np.max(p, axis=axis, keepdims=True)))
    return e / np.sum(e, axis=axis, keepdims=True)


def _logistic(z):
    # exp(-z) overflows to inf, and the result to exactly 0, for z below about -709
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def sigmoid_delta(x, delta: float):
    """Logistic step surrogate: ~0 below 0, ~1 above ``delta``, 0.5 at ``delta/2``."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return _logistic(6.0 * np.asarray(x, dtype=float) / delta - 3.0)


def sigmoid_delta_deriv(x, delta: float):
    """Derivative of :func:`sigmoid_delta`, strictly positive everywhere (1/dB).

    Written as sigma(z) * sigma(-z) rather than sigma * (1 - sigma): the
    subtraction form underflows to exactly 0 once sigma rounds to 1, while
    this form stays positive far into both tails. It is exactly 0 once
    ``|z|`` (``z = 6x/delta - 3``) exceeds about 709, where the logistic
    ``1/(1 + exp(-z))`` of the smaller side is 0; ``scipy.special.expit``,
    used before, gave subnormals there down to ``z = -745``.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    z = 6.0 * np.asarray(x, dtype=float) / delta - 3.0
    return (6.0 / delta) * _logistic(z) * _logistic(-z)


def _sum_power_dbm(p, axis):
    # dB value of the incoherent (linear) power sum, stabilized like log-sum-exp
    m = np.max(p, axis=axis)
    s = np.sum(10.0 ** ((p - np.expand_dims(m, axis)) / 10.0), axis=axis)
    return m + 10.0 * np.log10(s)


def user_utility(powers_dbm, cfg: UtilityConfig, axis: int = -1):
    """Utility of one user given its per-transmitter received powers (dBm).

    Families:

    * ``UNICAST_RATE``: spectral efficiency ``log2(1 + snr)`` with the soft
      maximum of the powers over the noise floor (strongest-transmitter
      association).
    * ``BROADCAST_RATE``: same but with the linear sum of all powers
      (incoherent multi-transmitter relaying).
    * ``THRESHOLD_SIGMOID_UNICAST`` / ``..._BROADCAST``: logistic step of
      (soft max / sum power) minus the power target.
    """
    p = np.asarray(powers_dbm, dtype=float)
    fam = cfg.family
    if fam is UtilityFamily.UNICAST_RATE:
        phi = smooth_max_dbm(p, cfg.softmax_alpha, axis=axis)
        return np.log2(1.0 + 10.0 ** ((phi - cfg.noise_dbm) / 10.0))
    if fam is UtilityFamily.BROADCAST_RATE:
        psum = _sum_power_dbm(p, axis)
        return np.log2(1.0 + 10.0 ** ((psum - cfg.noise_dbm) / 10.0))
    if fam is UtilityFamily.THRESHOLD_SIGMOID_UNICAST:
        phi = smooth_max_dbm(p, cfg.softmax_alpha, axis=axis)
        return sigmoid_delta(phi - cfg.p_min_dbm, cfg.delta_db)
    if fam is UtilityFamily.THRESHOLD_SIGMOID_BROADCAST:
        psum = _sum_power_dbm(p, axis)
        return sigmoid_delta(psum - cfg.p_min_dbm, cfg.delta_db)
    raise ValueError(f"unknown utility family {fam!r}")


def user_utility_partials(powers_dbm, cfg: UtilityConfig, axis: int = -1):
    """Analytic partials of :func:`user_utility` per dB of each power.

    Returns an array shaped like the input: entry ``b`` is the sensitivity
    of the user's utility to a 1 dB change in the power received from
    transmitter ``b``. Always positive (every family is increasing in each
    power).
    """
    p = np.asarray(powers_dbm, dtype=float)
    fam = cfg.family
    if fam is UtilityFamily.UNICAST_RATE:
        phi = smooth_max_dbm(p, cfg.softmax_alpha, axis=axis)
        snr = 10.0 ** ((phi - cfg.noise_dbm) / 10.0)
        dj_dphi = DB_TO_NAT * snr / ((1.0 + snr) * LN2)
        return np.expand_dims(dj_dphi, axis) * softmax_weights(p, cfg.softmax_alpha, axis=axis)
    if fam is UtilityFamily.BROADCAST_RATE:
        snr_b = 10.0 ** ((p - cfg.noise_dbm) / 10.0)
        snr = np.sum(snr_b, axis=axis, keepdims=True)
        return DB_TO_NAT * snr_b / ((1.0 + snr) * LN2)
    if fam is UtilityFamily.THRESHOLD_SIGMOID_UNICAST:
        phi = smooth_max_dbm(p, cfg.softmax_alpha, axis=axis)
        slope = sigmoid_delta_deriv(phi - cfg.p_min_dbm, cfg.delta_db)
        return np.expand_dims(slope, axis) * softmax_weights(p, cfg.softmax_alpha, axis=axis)
    if fam is UtilityFamily.THRESHOLD_SIGMOID_BROADCAST:
        psum = _sum_power_dbm(p, axis)
        slope = sigmoid_delta_deriv(psum - cfg.p_min_dbm, cfg.delta_db)
        lin = 10.0 ** (p / 10.0)
        frac = lin / np.sum(lin, axis=axis, keepdims=True)
        return np.expand_dims(slope, axis) * frac
    raise ValueError(f"unknown utility family {fam!r}")


def _users_to_arrays(users):
    """Check a ``(positions (M,3), weights (M,))`` pair; returns it as float arrays."""
    pos, w = (np.asarray(a, dtype=float) for a in users)
    if pos.shape[0] != w.shape[0]:
        raise ValueError("positions and weights must have matching lengths")
    if np.any(w < 0.0):
        raise ValueError("user weights must be nonnegative")
    if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"user weights must sum to 1, got {float(np.sum(w)):.12g}")
    return pos, w


def network_utility(placements, users, cfg: UtilityConfig, params) -> float:
    """Exact weighted network utility ``sum_m w_m * J_m`` over all users.

    ``users`` is a ``(positions, weights)`` pair of arrays, shapes (M, 3)
    and (M,); weights must be nonnegative and sum to one. This
    full-information evaluation is the oracle that estimator and optimizer
    tests compare against; the placement agents themselves never see it.
    """
    pos, w = _users_to_arrays(users)
    # transmitter-major (B, M), as the simulator's oracle snapshot lays the
    # powers out, so the two add the transmitters in the same order for any B
    powers = np.ascontiguousarray(received_power_matrix(placements, params, pos).T)
    return float(np.dot(w, user_utility(powers, cfg, axis=0)))


def network_utility_gradient(placements, users, cfg: UtilityConfig, params) -> np.ndarray:
    """Gradient of :func:`network_utility` in each transmitter position.

    Returns shape (B, 3), dB-chain assembled: row ``b`` is
    ``sum_m w_m * (d p_bm / d l_b) * (d J_m / d p_bm)``.
    """
    pos, w = _users_to_arrays(users)
    powers, grads = received_power_matrix(placements, params, pos, gradient=True)
    partials = user_utility_partials(powers, cfg)  # (M, B)
    return np.einsum("m,mb,mbk->bk", w, partials, grads)
