"""Shared test utilities: finite-difference oracles, dB conversions and acceptance reporting."""

import numpy as np

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
