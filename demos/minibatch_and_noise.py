# minibatch_and_noise.py
#
# Two experiments on the same scenario:
#   1. how the minibatch size Q trades packet cost against placement quality
#   2. how much Gaussian error on the reported powers the updates tolerate
#
# Both reuse one mid-sized random scenario and only turn a single knob.

import dataclasses

from airbs_sgd import (
    ChannelParams,
    Rect,
    Scenario,
    StepSchedule,
    UtilityConfig,
    run,
)


def base_scenario():
    return Scenario(
        area=Rect(0.0, 0.0, 4000.0, 4000.0),
        num_airbs=3,
        tx_powers_dbm=(9.0, 9.0, 12.0),
        init_region=Rect(0.0, 0.0, 2000.0, 2000.0),
        fixed_height_m=30.0,
        num_mus=80,
        utility=UtilityConfig("threshold_sigmoid_unicast",
                              noise_dbm=-112.4, p_min_dbm=-91.0, delta_db=2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=50, eta_scale=1e6),
        iterations=100,
        seed=8,
        channel=ChannelParams(-94.0, 1000.0),
    )


def main():
    s = base_scenario()

    print("minibatch size vs outcome (same seed, same 100 iterations)")
    print("    Q   packets   served   utility")
    for q in (1, 5, 20, 50, 200):
        sq = dataclasses.replace(
            s, schedule=dataclasses.replace(s.schedule, minibatch_size=q))
        log = run(sq)
        print(f"  {q:3d}   {q * sq.iterations:7d}   {log.served[-1]:3d}/"
              f"{len(log.users)}   {log.oracle_utility[-1]:.4f}")
    print("  Q=1 diverges at this step size (every update chases one user);")
    print("  a handful of packets per update is already enough to average out")

    print("\nmeasurement noise on reported powers (Q=50)")
    print("  sigma(dB)   served   utility")
    for sigma in (0.0, 0.5, 1.0, 2.0, 4.0):
        sn = dataclasses.replace(s, measurement_noise_db=sigma)
        log = run(sn)
        print(f"  {sigma:9.1f}   {log.served[-1]:3d}/{len(log.users)}"
              f"   {log.oracle_utility[-1]:.4f}")
    print("  zero-mean reporting error mostly averages out inside the minibatch")


if __name__ == "__main__":
    main()
