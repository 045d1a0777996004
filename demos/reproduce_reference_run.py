# reproduce_reference_run.py
#
# Run the bundled reference scenario once through the library API, compare
# the gradient agents against the k-means baseline, and drop the full
# output bundle (CSV + SVG maps) into ./reference_out.

from airbs_sgd import (
    coverage_map,
    kmeans_placement,
    render_outputs,
    run,
)
from airbs_sgd.cli import MAP_GRID, reference_scenario
from airbs_sgd.utility import oracle


def main():
    s = reference_scenario()
    print(f"scenario: {s.num_airbs} AirBSs, {s.total_mus} users, "
          f"{s.iterations} iterations x {s.schedule.minibatch_size} packets, "
          f"seed {s.seed}")

    log = run(s)
    m = len(log.users)
    print(f"served initially: {log.served[0]}/{m}")
    print(f"served finally:   {log.served[-1]}/{m}")
    print(f"oracle utility:   {log.oracle_utility[0]:.4f} -> {log.oracle_utility[-1]:.4f}")

    # same user draw, centralized clustering instead of gradient agents
    budget = s.budget_dbm
    centroids, _ = kmeans_placement(log.users, s.num_airbs, seed=s.seed,
                                    height_m=s.fixed_height_m)
    # judged by the oracle, as every snapshot is
    km_served = int(oracle(centroids, log.users, s.traffic.as_array(), s.utility, budget)[1])
    print(f"k-means baseline: {km_served}/{m} served ({m - km_served} unserved)")

    cov = coverage_map(log.positions[-1], s.area, MAP_GRID, budget)
    paths = render_outputs(log, cov, "reference_out", s.area, s.utility.p_min_dbm)
    print("wrote:")
    for name in sorted(paths):
        print(f"  {paths[name]}")


if __name__ == "__main__":
    main()
