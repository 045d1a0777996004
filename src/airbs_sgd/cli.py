"""Command-line front end.

Three subcommands:

* ``run`` executes a scenario file, optionally over several replications,
  and writes per-replication output bundles plus a summary;
* ``reproduce-paper`` does the same for the bundled reference scenario and
  prints the comparison against the reference study's reported numbers;
* ``sweep`` re-runs a scenario across a list of values on one axis
  (eta, q, alpha, delta) and aggregates the endpoints into a CSV.

The replications of a command advance together as one batch in the
calling thread (see :func:`simulator.run_replications`); their coverage
maps, bundles and baselines then follow one replication at a time. The
environment variable ``AIRBS_SGD_THREADS`` caps the worker count; it is
still validated, and the serial engine meets any cap. Every run is fully
determined by the master seed, so outputs do not depend on the cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from importlib import resources

import numpy as np

from .baseline import kmeans_placement
from .channel import CoincidentPositionsError
from .navigator import DivergenceError
from .report import render_outputs, served_count
from .simulator import (Scenario, coverage_map, run_replications, scenario_from_dict,
                        scenario_to_dict)

MAP_GRID = 70
MAP_CLIP = (-100.0, -80.0)
REFERENCE_SERVED = (198, 202)
REFERENCE_KMEANS_UNSERVED = 73
SWEEP_AXES = ("eta", "q", "alpha", "delta")


class CliError(Exception):
    """A user-facing failure with an exit code and a diagnostic message."""

    def __init__(self, message, exit_code=2):
        super().__init__(message)
        self.exit_code = exit_code


def load_scenario_file(path: str) -> Scenario:
    if not os.path.exists(path):
        raise CliError(f"scenario file not found: {path}")
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise CliError(f"malformed scenario file {path}: {e}")
    try:
        return scenario_from_dict(data)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"invalid scenario in {path}: {e}")


def reference_scenario() -> Scenario:
    """The bundled reference scenario (the one the study's figures use)."""
    text = resources.files("airbs_sgd").joinpath("scenarios/reference.json").read_text()
    return scenario_from_dict(json.loads(text))


def replication_seeds(master_seed: int, count: int) -> list:
    """Derived per-replication seeds; a single replication keeps the master."""
    if count == 1:
        return [int(master_seed)]
    return [
        int(np.random.SeedSequence([int(master_seed), r]).generate_state(1, np.uint64)[0])
        for r in range(count)
    ]


def _check_thread_cap():
    """Validate ``AIRBS_SGD_THREADS``; one worker meets any valid cap."""
    env = os.environ.get("AIRBS_SGD_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise CliError(f"AIRBS_SGD_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise CliError("AIRBS_SGD_THREADS must be at least 1")


def _simulate_one(scenario: Scenario, seed: int, rep_dir: str, simulated,
                  with_kmeans: bool = False) -> dict:
    """The tail of one replication: coverage map, output bundle and k-means baseline.

    ``simulated`` is the replication's ``(TrajectoryLog, MetricsReport)``.
    """
    log, rep = simulated
    s = dataclasses.replace(scenario, seed=seed)
    params = s.agent_channel_params()
    try:
        cov = coverage_map(log.positions[-1], s.area, MAP_GRID, params, MAP_CLIP)
    except CoincidentPositionsError as e:
        raise CliError(f"replication with seed {seed} failed: {e}")
    render_outputs(log, rep, cov, rep_dir, s.area, clip=MAP_CLIP, mus=log.users)
    result = {
        "seed": int(seed),
        "served": rep.final.served_count,
        "total": rep.final.total_mus,
        "initial_served": rep.initial.served_count,
        "final_oracle_utility": float(log.oracle_utility[-1]),
    }
    if with_kmeans:
        km = kmeans_placement(log.users, s.num_airbs, max_iters=100, seed=seed,
                              height_m=s.fixed_height_m)
        km_served = served_count(km.centroids, log.users, params, s.utility.p_min_dbm)
        result["kmeans_unserved"] = rep.final.total_mus - km_served
        with open(os.path.join(rep_dir, "kmeans.json"), "w") as f:
            json.dump({
                "centroids": [[p.x, p.y, p.z] for p in km.centroids],
                "inertia": km.inertia,
                "served": km_served,
                "unserved": rep.final.total_mus - km_served,
            }, f, sort_keys=True, indent=2)
            f.write("\n")
    return result


def _run_replications(scenario: Scenario, seeds, out_dir: str,
                      with_kmeans: bool = False) -> list:
    _check_thread_cap()
    os.makedirs(out_dir, exist_ok=True)
    try:
        batch = run_replications(scenario, seeds)
    except (CoincidentPositionsError, DivergenceError) as e:
        raise CliError(f"replication with seed {e.seed} failed: {e}")
    return [_simulate_one(scenario, seed, os.path.join(out_dir, f"rep_{r:03d}"), simulated,
                          with_kmeans)
            for r, (seed, simulated) in enumerate(zip(seeds, batch))]


def _print_results(results, with_kmeans: bool = False):
    for r, res in enumerate(results):
        line = (f"rep {r:03d} seed {res['seed']}: served {res['served']}/{res['total']}, "
                f"final oracle utility {res['final_oracle_utility']:.6f}")
        if with_kmeans:
            line += f", kmeans unserved {res['kmeans_unserved']}/{res['total']}"
        print(line)
    if len(results) > 1:
        med_served = float(np.median([r["served"] for r in results]))
        med_util = float(np.median([r["final_oracle_utility"] for r in results]))
        line = (f"median over {len(results)} replications: served {med_served:g}"
                f"/{results[0]['total']}, final oracle utility {med_util:.6f}")
        if with_kmeans:
            med_km = float(np.median([r["kmeans_unserved"] for r in results]))
            line += f", kmeans unserved {med_km:g}/{results[0]['total']}"
        print(line)


def _write_summary(out_dir: str, scenario: Scenario, results, with_kmeans: bool):
    summary = {
        "master_seed": int(scenario.seed),
        "replications": len(results),
        "results": results,
        "median_served": float(np.median([r["served"] for r in results])),
        "median_final_oracle_utility": float(
            np.median([r["final_oracle_utility"] for r in results])),
    }
    if with_kmeans:
        summary["median_kmeans_unserved"] = float(
            np.median([r["kmeans_unserved"] for r in results]))
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_effective_config(out_dir: str, scenario: Scenario):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.json"), "w") as f:
        json.dump(scenario_to_dict(scenario), f, sort_keys=True, indent=2)
        f.write("\n")


def _override_seed(s: Scenario, seed) -> Scenario:
    """``s`` with the ``--seed`` override applied, if one was given."""
    if seed is None:
        return s
    try:
        return dataclasses.replace(s, seed=seed)
    except ValueError as e:
        raise CliError(f"--seed {seed}: {e}")


def cmd_run(args) -> int:
    if args.replications < 1:
        raise CliError("--replications must be at least 1")
    s = _override_seed(load_scenario_file(args.scenario), args.seed)
    _write_effective_config(args.out, s)
    seeds = replication_seeds(s.seed, args.replications)
    results = _run_replications(s, seeds, args.out)
    _print_results(results)
    _write_summary(args.out, s, results, with_kmeans=False)
    return 0


def cmd_reproduce_paper(args) -> int:
    if args.seeds < 1:
        raise CliError("--seeds must be at least 1")
    s = reference_scenario()
    with_kmeans = args.baseline == "kmeans"
    _write_effective_config(args.out, s)
    seeds = replication_seeds(s.seed, args.seeds)
    results = _run_replications(s, seeds, args.out, with_kmeans=with_kmeans)
    _print_results(results, with_kmeans=with_kmeans)
    print(f"reference result: {REFERENCE_SERVED[0]}/{REFERENCE_SERVED[1]} served")
    if with_kmeans:
        print(f"reference baseline result: {REFERENCE_KMEANS_UNSERVED}"
              f"/{REFERENCE_SERVED[1]} unserved")
    _write_summary(args.out, s, results, with_kmeans=with_kmeans)
    return 0


def _apply_axis(s: Scenario, axis: str, value: float) -> Scenario:
    try:
        if axis == "eta":
            return dataclasses.replace(s, schedule=dataclasses.replace(s.schedule, eta0=value))
        if axis == "q":
            q = int(value)
            if q != value:
                raise CliError(f"axis q needs integer values, got {value}")
            return dataclasses.replace(
                s, schedule=dataclasses.replace(s.schedule, minibatch_size=q))
        if axis == "alpha":
            return dataclasses.replace(
                s, utility=dataclasses.replace(s.utility, softmax_alpha=value))
        if axis == "delta":
            return dataclasses.replace(s, utility=dataclasses.replace(s.utility, delta_db=value))
    except (ValueError, OverflowError) as e:  # int() of nan or inf, or a rejected setting
        raise CliError(f"sweep axis {axis} value {value:g}: {e}")
    raise CliError(f"unknown sweep axis {axis!r}; expected one of {', '.join(SWEEP_AXES)}")


def cmd_sweep(args) -> int:
    if args.replications < 1:
        raise CliError("--replications must be at least 1")
    if args.axis not in SWEEP_AXES:
        raise CliError(f"unknown sweep axis {args.axis!r}; expected one of "
                       f"{', '.join(SWEEP_AXES)}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"could not parse --values {args.values!r} as numbers")
    if not values:
        raise CliError("--values must list at least one number")
    base = _override_seed(load_scenario_file(args.scenario), args.seed)
    # every value is checked before the first one runs
    scenarios = [(value, _apply_axis(base, args.axis, value)) for value in values]
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for value, s in scenarios:
        seeds = replication_seeds(s.seed, args.replications)
        value_dir = os.path.join(args.out, f"{args.axis}_{value:g}")
        results = _run_replications(s, seeds, value_dir)
        for r, res in enumerate(results):
            rows.append((value, r, res["seed"], res["served"], res["total"],
                         res["served"] / res["total"], res["final_oracle_utility"]))
        med = float(np.median([res["served"] for res in results]))
        print(f"{args.axis}={value:g}: median served {med:g}/{results[0]['total']}")
    with open(os.path.join(args.out, "sweep.csv"), "w") as f:
        f.write("axis,value,replication,seed,served,total,served_fraction,"
                "final_oracle_utility\n")
        for value, r, seed, served, total, frac, util in rows:
            f.write(f"{args.axis},{value:g},{r},{seed},{served},{total},"
                    f"{repr(frac)},{repr(util)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="airbs-sgd",
        description="Aerial base station placement by per-agent stochastic "
                    "gradient ascent on packet feedback.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("--scenario", required=True, help="scenario JSON path")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")
    run_p.add_argument("--replications", type=int, default=1,
                       help="independent replications (seeds derived from the master)")
    run_p.add_argument("--out", default="airbs_out", help="output directory")
    run_p.set_defaults(func=cmd_run)

    rp = sub.add_parser("reproduce-paper",
                        help="run the bundled reference scenario and compare")
    rp.add_argument("--seeds", type=int, default=1, help="number of replications")
    rp.add_argument("--baseline", choices=["kmeans"], default=None,
                    help="also place by k-means and report its unserved count")
    rp.add_argument("--out", default="airbs_out", help="output directory")
    rp.set_defaults(func=cmd_reproduce_paper)

    sw = sub.add_parser("sweep", help="sweep one scenario knob over several values")
    sw.add_argument("--scenario", required=True, help="scenario JSON path")
    sw.add_argument("--axis", required=True,
                    help="one of: " + ", ".join(SWEEP_AXES))
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--seed", type=int, default=None, help="master seed override")
    sw.add_argument("--replications", type=int, default=1)
    sw.add_argument("--out", default="airbs_out", help="output directory")
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
