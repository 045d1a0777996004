"""One AirBS chasing one user.

The cleanest view of the update rule: with a single agent and a single
packet source, the minibatch gradient points (in expectation, here
exactly) at the user, and the agent walks straight to it. A wide sigmoid
transition keeps the whole 100 m box inside the active slope.
"""

import math

from airbs_sgd import (
    ChannelParams,
    Rect,
    Scenario,
    StepSchedule,
    UtilityConfig,
    received_power_matrix,
    run,
)


def main():
    # strongest possible reception: agent directly overhead at 30 m; the kernel takes
    # the power at 1 m, the link budget at the 1000 m reference plus 20*log10(1000)
    p_top = float(received_power_matrix([[0.0, 0.0, 30.0]],
                                        [12.0 - 94.0 + 20.0 * math.log10(1000.0)],
                                        [[0.0, 0.0, 0.0]])[0, 0])
    print(f"power directly under the AirBS: {p_top:.2f} dBm")

    s = Scenario(
        area=Rect(0.0, 0.0, 100.0, 100.0),
        num_airbs=1,
        tx_powers_dbm=(12.0,),
        init_region=Rect(0.0, 0.0, 100.0, 100.0),
        fixed_height_m=30.0,
        num_mus=1,
        utility=UtilityConfig("threshold_sigmoid_unicast",
                              noise_dbm=-112.4, p_min_dbm=p_top - 10.0,
                              delta_db=20.0),
        schedule=StepSchedule(eta0=1.0, minibatch_size=10, eta_scale=1000.0),
        iterations=60,
        seed=4,
        channel=ChannelParams(-94.0, 1000.0),
    )
    log = run(s)
    mx, my, _ = log.users[0]
    print(f"user at ({mx:.1f}, {my:.1f}), "
          f"agent starts at ({log.positions[0,0,0]:.1f}, {log.positions[0,0,1]:.1f})")

    print("\n iter   distance(m)   utility")
    for i in range(0, s.iterations + 1, 5):
        x, y, _ = log.positions[i, 0]
        d = math.hypot(x - mx, y - my)
        print(f"  {i:3d}   {d:10.2f}   {log.oracle_utility[i]:.6f}")

    x, y, _ = log.positions[-1, 0]
    print(f"\nfinal horizontal miss: {math.hypot(x - mx, y - my):.3f} m")


if __name__ == "__main__":
    main()
