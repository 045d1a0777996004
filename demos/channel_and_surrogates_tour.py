"""Tour of the building blocks: channel model, soft max, threshold sigmoid.

Prints small tables instead of plotting so it runs anywhere.
"""

import math

import numpy as np

from airbs_sgd import (
    ChannelParams,
    received_power_matrix,
    sigmoid_delta,
    smooth_max_dbm,
    softmax_weights,
)
from airbs_sgd.utility import sigmoid_delta_deriv


def main():
    channel = ChannelParams(ref_gain_db=-94.0, ref_distance_m=1000.0)
    # a transmitter's power at 1 m: its power plus the shared gain at the reference
    # distance, carried from there to 1 m
    budget = [12.0 + channel.ref_gain_db + 20.0 * math.log10(channel.ref_distance_m)]
    airbs = np.array([[0.0, 0.0, 30.0]])

    print("received power vs distance (12 dBm transmitter, -94 dB @ 1 km)")
    distances = np.array([100.0, 500.0, 1000.0, 2000.0, 5000.0])
    users = np.column_stack([distances, np.zeros(5), np.zeros(5)])
    for d, p in zip(distances, received_power_matrix(airbs, budget, users)[:, 0]):
        print(f"  {d:7.0f} m -> {p:8.2f} dBm")

    user = np.array([[1500.0, 400.0, 0.0]])
    g = received_power_matrix(airbs, budget, user, gradient=True)[1][0, 0]
    to_user = user[0] - airbs[0]
    cos = float(np.dot(g, to_user) / (np.linalg.norm(g) * np.linalg.norm(to_user)))
    print(f"\ngradient at the AirBS points toward the user: cos={cos:.6f}")
    print(f"  |gradient| = {np.linalg.norm(g):.3e} dB/m at "
          f"{np.linalg.norm(to_user):.0f} m separation")

    print("\nsoft max of [-85, -88, -95] dBm vs temperature alpha")
    p = np.array([-85.0, -88.0, -95.0])
    print(f"  hard max {np.max(p):.2f}")
    for alpha in (0.3, 1.0, 3.0, 10.0):
        sm = float(smooth_max_dbm(p, alpha))
        w = softmax_weights(p, alpha)
        print(f"  alpha {alpha:5.1f}: soft max {sm:8.3f}, weights "
              + np.array2string(w, precision=3, suppress_small=True))
    print("  (always within [max, max + ln(B)/alpha]; weights favor the strongest)")

    delta = 2.0
    print(f"\nthreshold sigmoid, transition width delta = {delta} dB")
    print("   x(dB)   sigma   slope(1/dB)")
    for x in (-2.0, 0.0, 0.5, 1.0, 1.5, 2.0, 4.0):
        s = float(sigmoid_delta(x, delta))
        ds = float(sigmoid_delta_deriv(x, delta))
        print(f"  {x:6.1f}  {s:6.4f}  {ds:10.4f}")
    print("  midpoint delta/2 gives exactly 0.5; the slope never reaches zero,")
    print("  so far-away agents still feel a pull in the right direction")


if __name__ == "__main__":
    main()
