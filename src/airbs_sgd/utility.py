"""Per-user utilities, their smooth surrogates, and analytic dB-partials.

Every utility here is a function of the per-transmitter received powers at
one user, ``f(p_1, ..., p_B)`` with the powers in dBm. The four families
are two choices, each written once:

* the **effective power** the powers combine into: the log-sum-exp soft
  maximum, which replaces ``max_b p_b`` (unicast), or the dB value of
  their linear sum (broadcast), which is the same log-sum-exp at
  temperature ``DB_TO_NAT``;
* the **reward** of that power: the rate ``log2(1 + snr)``, or a
  shifted/scaled logistic that replaces the unit step of the threshold
  utilities, transitioning from ~0 to ~1 over a band of width
  ``delta_db`` above the power target.

A user's partials are then the reward's slope at the effective power
times the effective power's partials, the softmax weights at that
temperature. The soft maximum and the logistic keep the families
differentiable and nowhere-flat.

All operations broadcast over leading axes, so a single call evaluates one
power vector (shape ``(B,)``) or a batch (shape ``(M, B)``). A sum over
the B powers follows their layout: numpy sums a contiguous run of 8 or
more pairwise, but adds the rows of an agent-major (B, M) array
(``axis=-2``) in index order, as the oracle and the minibatch step do.

:func:`oracle` is the single place a placement is judged: it gives the
utility and counts the users served. The simulator's snapshots, the
command's k-means baselines, the demos and the tests all read its count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .channel import received_power_matrix

LN2 = math.log(2.0)
# d(linear)/d(dB) = linear * ln(10)/10; used to express partials per dB.
DB_TO_NAT = math.log(10.0) / 10.0
# The soft maximum lies up to ln(B)/alpha above the strongest power; at this
# temperature that stays finite for any B below 2**63.
MIN_SOFTMAX_ALPHA = 1e-300


Family = Literal["unicast_rate", "broadcast_rate", "threshold_sigmoid_unicast",
                 "threshold_sigmoid_broadcast"]


@dataclass(frozen=True)
class UtilityConfig:
    """Utility family selection plus surrogate parameters.

    ``family`` is one of the :data:`Family` strings, spelled as a scenario
    file spells it. ``noise_dbm`` is the receiver noise floor, ``p_min_dbm``
    the received power target defining "served", ``delta_db`` the width of
    the logistic transition band above the target, and ``softmax_alpha`` the
    soft-max temperature in 1/dB (larger is closer to the exact maximum; the
    broadcast families do not use it).
    """

    family: Family
    noise_dbm: float
    p_min_dbm: float
    delta_db: float
    softmax_alpha: float = 1.0

    def __post_init__(self):
        if self.family not in get_args(Family):
            raise ValueError(f"unknown utility family {self.family!r}")
        if not math.isfinite(self.noise_dbm):
            raise ValueError("noise_dbm must be finite")
        if not math.isfinite(self.p_min_dbm):
            raise ValueError("p_min_dbm must be finite")
        if not (math.isfinite(self.delta_db) and self.delta_db > 0.0):
            raise ValueError(f"delta_db must be finite and positive, got {self.delta_db}")
        if not (math.isfinite(self.softmax_alpha) and self.softmax_alpha >= MIN_SOFTMAX_ALPHA):
            raise ValueError(f"softmax_alpha must be finite and at least "
                             f"{MIN_SOFTMAX_ALPHA:g}, got {self.softmax_alpha}")


def _log_sum_exp(powers_dbm, alpha: float, axis: int):
    """The soft maximum of ``powers_dbm`` along ``axis`` (kept, of length 1), with the
    exponentials ``exp(alpha * (p_b - max_b p_b))`` and their sum."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    p = np.asarray(powers_dbm, dtype=float)
    m = np.maximum.reduce(p, axis=axis, keepdims=True)
    # in place, one array the size of the powers
    e = np.subtract(p, m)
    np.exp(np.multiply(alpha, e, out=e), out=e)
    z = np.add.reduce(e, axis=axis, keepdims=True)
    return m + np.log(z) / alpha, e, z


def smooth_max_dbm(powers_dbm, alpha: float = 1.0, axis: int = -1):
    """Log-sum-exp soft maximum of dBm powers at temperature ``alpha``.

    Returns ``(1/alpha) * ln(sum_b exp(alpha * p_b))``, computed stably by
    subtracting the maximum before exponentiation. The result lies in
    ``[max_b p_b, max_b p_b + ln(B)/alpha]``.
    """
    return np.squeeze(_log_sum_exp(powers_dbm, alpha, axis)[0], axis)[()]


def softmax_weights(powers_dbm, alpha: float = 1.0, axis: int = -1):
    """Soft-max weights ``exp(alpha p_b) / sum_b' exp(alpha p_b')``.

    This is exactly the gradient of :func:`smooth_max_dbm` with respect to
    the power vector: positive weights summing to one.
    """
    _, e, z = _log_sum_exp(powers_dbm, alpha, axis)
    return e / z


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
    ``1/(1 + exp(-z))`` of the smaller side is 0.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    z = 6.0 * np.asarray(x, dtype=float) / delta - 3.0
    return (6.0 / delta) * _logistic(z) * _logistic(-z)


_BROADCAST = frozenset({"broadcast_rate", "threshold_sigmoid_broadcast"})
_RATE = frozenset({"unicast_rate", "broadcast_rate"})


def _temperature(cfg: UtilityConfig) -> float:
    # the linear power sum in dB, 10 log10(sum_b 10^(p_b/10)), is the soft
    # maximum at temperature DB_TO_NAT, and its partials the softmax weights there
    return DB_TO_NAT if cfg.family in _BROADCAST else cfg.softmax_alpha


def _reward(x, cfg: UtilityConfig, slope: bool = False):
    """Reward of the effective power ``x`` (dBm) or, with ``slope``, its derivative per dB."""
    if cfg.family in _RATE:
        # log2(1 + snr) in log form, with t = ln(snr): no power of ten to overflow
        t = DB_TO_NAT * (x - cfg.noise_dbm)
        return DB_TO_NAT * _logistic(t) / LN2 if slope else np.logaddexp(0.0, t) / LN2
    x = x - cfg.p_min_dbm
    return sigmoid_delta_deriv(x, cfg.delta_db) if slope else sigmoid_delta(x, cfg.delta_db)


def user_utility(powers_dbm, cfg: UtilityConfig, axis: int = -1):
    """Utility of one user given its per-transmitter received powers (dBm).

    Each family is two choices: an effective power, the soft maximum of the
    powers (``*unicast*``: strongest-transmitter association) or their
    linear sum in dB (``*broadcast*``: incoherent multi-transmitter
    relaying); and the reward of that power, the spectral efficiency
    ``log2(1 + snr)`` over the noise floor (``*_rate``) or the logistic
    step above the power target (``threshold_sigmoid_*``).
    """
    p = np.asarray(powers_dbm, dtype=float)
    return _reward(smooth_max_dbm(p, _temperature(cfg), axis=axis), cfg)


def user_utility_partials(powers_dbm, cfg: UtilityConfig, axis: int = -1):
    """Analytic partials of :func:`user_utility` per dB of each power.

    Returns an array shaped like the input: entry ``b`` is the sensitivity
    of the user's utility to a 1 dB change in the power received from
    transmitter ``b``, the reward's slope at the effective power times
    that power's partial in ``p_b``. Always positive (every family is
    increasing in each power). ``axis`` is the one over the transmitters:
    -2 on an agent-major (..., B, M) array.
    """
    # one maximum, exponential and sum give both the soft maximum and its weights
    soft, e, z = _log_sum_exp(powers_dbm, _temperature(cfg), axis)
    return _reward(soft, cfg, slope=True) * (e / z)


def _is_served(best_dbm, p_min_dbm: float):
    """Whether each strongest power ``best_dbm`` (dBm) meets the target ``p_min_dbm``."""
    return best_dbm >= p_min_dbm


def oracle(placements, users, weights, cfg: UtilityConfig, budget_dbm):
    """Exact network utility ``sum_m w_m * J_m``, served count and strongest powers (dBm).

    ``placements`` (..., B, 3) and ``users`` (..., M, 3) broadcast over
    leading axes, e.g. one of each per replication; ``weights`` (M,) are
    the traffic shares; ``budget_dbm`` is as for
    :func:`channel.received_power_matrix`. A user is served when its
    strongest power meets ``cfg.p_min_dbm``, with no surrogate smoothing.
    Returns ``(utility, served, best)``: (...), (...) and (..., M) arrays;
    with no leading axes, ``utility`` and ``served`` are numpy scalars.
    The placement agents never see this full-information evaluation.
    """
    # transmitter-major (..., B, M): a reduction over B adds whole rows, in index order for any B
    powers = np.ascontiguousarray(
        received_power_matrix(placements, budget_dbm, users).swapaxes(-1, -2))
    # each row's own dot product: unlike one matmul, its bits do not depend on the batch
    utility = np.vecdot(user_utility(powers, cfg, axis=-2), weights)
    best = np.maximum.reduce(powers, axis=-2)
    served = np.add.reduce(_is_served(best, cfg.p_min_dbm), axis=-1)
    return utility, served, best

