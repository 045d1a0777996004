"""Turn a raw optimization trajectory into a flyable waypoint list.

The optimizer's per-iteration positions jitter (stochastic gradients) and
early steps can be long. Post-processing smooths the jitter with a moving
average and clamps the per-leg distance to a speed limit. Waypoints are
(N, 3) arrays, one (x, y, z) row per waypoint.
"""

import math

import numpy as np

from airbs_sgd import (
    ChannelParams,
    Rect,
    Scenario,
    StepSchedule,
    UtilityConfig,
    run,
)


def smooth_waypoints(waypoints, window: int) -> np.ndarray:
    """Centered moving average of an (N, 3) waypoint array, coordinate-wise.

    ``window`` must be odd and >= 1. Near the ends the window shrinks
    symmetrically, so the output has the same length and the first and
    last waypoints are preserved.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    pts = np.asarray(waypoints, dtype=float)
    n, half = len(pts), window // 2
    out = np.empty_like(pts)
    for i in range(n):
        h = min(half, i, n - 1 - i)
        out[i] = pts[i - h:i + h + 1].mean(axis=0)
    return out


def clamp_speed(prev, nxt, vmax_m_per_update: float) -> np.ndarray:
    """Where one update from ``prev`` toward ``nxt`` ends: at most ``vmax_m_per_update`` m on."""
    if not vmax_m_per_update > 0.0:
        raise ValueError("vmax must be positive")
    step = nxt - prev
    dx, dy, dz = step.tolist()
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d <= vmax_m_per_update:
        return nxt
    return prev + (vmax_m_per_update / d) * step


def leg_lengths(path):
    rows = np.asarray(path).tolist()
    return [math.dist(a, b) for a, b in zip(rows, rows[1:])]


def main():
    s = Scenario(
        area=Rect(0.0, 0.0, 4000.0, 4000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1500.0, 1500.0),
        fixed_height_m=30.0,
        num_mus=60,
        utility=UtilityConfig("threshold_sigmoid_unicast",
                              noise_dbm=-112.4, p_min_dbm=-91.0, delta_db=2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=10, eta_scale=1e6),
        iterations=120,
        seed=14,
        channel=ChannelParams(-94.0, 1000.0),
    )
    log = run(s)

    agent = 0
    raw = log.positions[:, agent]
    legs = leg_lengths(raw)
    print(f"raw trajectory of agent {agent}: {len(raw)} waypoints, "
          f"total {sum(legs):.0f} m, longest leg {max(legs):.1f} m")

    for window in (3, 7, 15):
        legs = leg_lengths(smooth_waypoints(raw, window))
        print(f"  window {window:2d}: total {sum(legs):.0f} m, "
              f"longest leg {max(legs):.1f} m (endpoints kept)")

    # fly the smoothed plan: keep stepping toward each waypoint under a
    # 20 m-per-step speed cap until it is reached
    vmax = 20.0
    plan = smooth_waypoints(raw, 7)
    pos = plan[0]
    flown = [pos]
    for target in plan[1:]:
        while not np.array_equal(pos, target):
            pos = clamp_speed(pos, target, vmax)
            flown.append(pos)
    legs = leg_lengths(flown)
    print(f"clamped flight at vmax {vmax:.0f} m/step: {len(flown)} steps, "
          f"longest leg {max(legs):.1f} m, "
          f"end miss vs plan {math.dist(pos, plan[-1]):.1f} m")


if __name__ == "__main__":
    main()
