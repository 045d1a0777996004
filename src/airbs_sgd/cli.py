"""Command-line front end.

Three subcommands:

* ``run`` executes a scenario file, optionally over several replications,
  and writes per-replication output bundles plus a summary;
* ``reproduce-paper`` does the same for the bundled reference scenario and
  prints the comparison against the reference study's reported numbers;
* ``sweep`` re-runs a scenario across a list of values on one axis
  (eta, q, alpha, delta) and aggregates the endpoints into a CSV.

Every command makes one two-phase pass over one list of replication jobs,
each a (scenario, seed, bundle directory) triple; a sweep's list holds the
jobs of all its values. The list is split into one contiguous group per
usable core (``taskset`` limits them). On one core the one group runs
in-process and nothing is forked; with more, each group runs both phases
in its own ``os.fork``-ed worker, so its phase-1 records stay in the
process that made them, and the worker reports to the command on a pipe.
Phase 1 computes every number: it advances every group, each consecutive
run of jobs sharing a scenario as one batch
(:func:`simulator.run_replications`, the one judge of a run's health),
and then, for the same batch, the coverage grids, the k-means baselines
(:func:`baseline.kmeans_replications`) and their served counts
(:func:`utility.oracle`). A job fails if it does not advance or its grid
or baseline cannot be evaluated; the command then stops before any bundle
is written, naming the first failing job in list order. Between the
phases the command creates every bundle directory in job order, so a name
taken by a file fails before any file is written, and only then lets the
workers start phase 2. Phase 2 only formats and writes; its one remaining
failure is an ``OSError`` mid-write, such as a full disk. The outputs do
not depend on how the jobs are grouped.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import pickle
import sys
from importlib import resources

import numpy as np

from . import simulator
from .baseline import kmeans_replications
from .channel import CoincidentPositionsError
from .navigator import DivergenceError
from .report import _write_json, coverage_map, render_outputs
from .simulator import Scenario, run_replications, scenario_from_dict, scenario_to_dict
from .utility import oracle

MAP_GRID = 70
REFERENCE_SERVED = (198, 202)
REFERENCE_KMEANS_UNSERVED = 73
# each sweep axis and the (section, key) of the scenario setting it varies
SWEEP_AXES = {"eta": ("schedule", "eta0"), "q": ("schedule", "minibatch_size"),
              "alpha": ("utility", "softmax_alpha"), "delta": ("utility", "delta_db")}


class CliError(Exception):
    """A user-facing failure with an exit code and a diagnostic message."""

    def __init__(self, message, exit_code=2):
        super().__init__(message)
        self.exit_code = exit_code


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read scenario file {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError(f"scenario file {path} is not UTF-8 text: {e}")
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


def _failure(seed: int, rep_dir: str, problem) -> CliError:
    """The exit-2 error of the replication with ``seed``, whose bundle is ``rep_dir``."""
    return CliError(f"replication with seed {seed} failed: {problem} (bundle {rep_dir})")


def _write_failure(seed: int, rep_dir: str, e: OSError) -> CliError:
    return _failure(seed, rep_dir, f"cannot write the bundle: {e.strerror or e}")


def _simulate_one(s: Scenario, seed: int, rep_dir: str, log, coverage, kmeans=None) -> dict:
    """Phase 2 of one replication: write its bundle and, given one, its k-means baseline.

    ``log`` is the replication's ``TrajectoryLog``, ``coverage`` its grid and
    ``kmeans`` None or the (``KMeansResult``, served count) of phase 1.
    """
    total = len(log.users)
    result = {
        "seed": int(seed),
        "served": int(log.served[-1]),
        "total": total,
        "initial_served": int(log.served[0]),
        "final_oracle_utility": float(log.oracle_utility[-1]),
    }
    try:
        render_outputs(log, coverage, rep_dir, s.area, s.utility.p_min_dbm)
        if kmeans is not None:
            km, served = kmeans
            result["kmeans_unserved"] = total - served
            _write_json(os.path.join(rep_dir, "kmeans.json"), {
                "centroids": km.centroids.tolist(),
                "inertia": km.inertia,
                "served": served,
                "unserved": total - served,
            })
    except OSError as e:
        raise _write_failure(seed, rep_dir, e)
    return result


@contextlib.contextmanager
def _command_file(path: str):
    """Yield ``path``, a file of the command's own; an ``OSError`` writing it exits 2 naming it."""
    try:
        yield path
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}")


def _make_out_dir(out: str):
    """Create the command's output directory, or exit 2 naming ``--out``."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise CliError(f"--out {out}: cannot create the output directory: {e.strerror or e}")


def _usable_cores() -> int:
    """How many cores this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _jobs(s: Scenario, count: int, out_dir: str) -> list:
    """The (scenario, seed, rep_dir) jobs of ``count`` replications of ``s`` under ``out_dir``."""
    return [(s, seed, os.path.join(out_dir, f"rep_{r:03d}"))
            for r, seed in enumerate(replication_seeds(s.seed, count))]


def _grids_and_baselines(s: Scenario, seeds, dirs, logs, with_kmeans: bool) -> list:
    """Each advanced job's (log, coverage grid, k-means).

    The k-means is None without ``with_kmeans``, else the ``KMeansResult`` and
    its served count by the oracle's strongest power; the baselines run in
    groups of at most ``simulator.BATCH_PAIRS`` agent-user pairs. A grid point,
    or with ``with_kmeans`` a user, on a transmitter fails the first such job.
    """
    params = s.agent_channel_params()
    group = max(1, simulator.BATCH_PAIRS // (s.num_airbs * s.total_mus))
    done = []
    for k in range(0, len(logs), group):
        part = logs[k:k + group]
        try:
            # one grid per call: two batched calls of 10 measured as fast with the
            # in-place kernel, and slower before it from page faults, not the cache
            grids = [coverage_map(log.positions[-1], s.area, MAP_GRID, params) for log in part]
            kmeans = [None] * len(part)
            if with_kmeans:
                users = np.stack([log.users for log in part])
                kmeans = kmeans_replications(users, s.num_airbs, seeds[k:k + group],
                                             max_iters=100, height_m=s.fixed_height_m)
                _, best = oracle(np.stack([km.centroids for km in kmeans]), users,
                                 s.traffic.as_array(), s.utility, params)
                served = np.sum(best >= s.utility.p_min_dbm, axis=1).tolist()
                kmeans = list(zip(kmeans, served))
        except CoincidentPositionsError as e:
            if len(part) == 1:
                raise _failure(seeds[k], dirs[k], e)
            # the jobs are independent, so the first to fail alone is the first that failed
            for j in range(k, k + len(part)):
                _grids_and_baselines(s, seeds[j:j + 1], dirs[j:j + 1], logs[j:j + 1],
                                     with_kmeans)
            raise
        done += zip(part, grids, kmeans)
    return done


def _advance_group(with_kmeans: bool, jobs) -> list:
    """Phase 1 of one group: each job's (log, coverage grid, k-means), each run of jobs
    sharing a scenario as one batch."""
    done = []
    for _, batch in itertools.groupby(jobs, key=lambda job: id(job[0])):
        scenarios, seeds, dirs = zip(*batch)
        s = scenarios[0]
        try:
            logs = run_replications(s, seeds)
        except (CoincidentPositionsError, DivergenceError) as e:
            # a job before the one that failed to advance fails first if its grid
            # or baseline does
            k = seeds.index(e.seed)
            _grids_and_baselines(s, seeds, dirs, run_replications(s, seeds[:k]), with_kmeans)
            raise _failure(e.seed, dirs[k], e)
        done += _grids_and_baselines(s, seeds, dirs, logs, with_kmeans)
    return done


def _finish_group(jobs, records) -> list:
    """Phase 2 of one group: write each job's bundle, given its phase-1 record."""
    return [_simulate_one(s, seed, rep_dir, *record)
            for (s, seed, rep_dir), record in zip(jobs, records)]


def _make_bundle_dirs(jobs):
    """Create every job's bundle directory in job order; one that cannot be made fails
    its job."""
    for _, seed, rep_dir in jobs:
        try:
            os.makedirs(rep_dir, exist_ok=True)
        except OSError as e:
            raise _write_failure(seed, rep_dir, e)


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker, chained as its cause."""

    def __str__(self):
        return self.args[0]


def _send(reports, error=None, value=None):
    """Write one (error, value) report to the command, whole."""
    reports.write(pickle.dumps((error, value)))
    reports.flush()


def _worker(with_kmeans: bool, group, status: int, go: int, inherited):
    """Both phases of one group in a forked worker, which ends here and never returns.

    Phase 1 runs at once and reports on ``status``. Phase 2 waits for the
    parent's go byte on ``go``, writes the bundles from the records in this
    process's memory and reports their results; at EOF on ``go`` the worker
    ends without writing. A failure is reported as the exception and its
    traceback text. ``inherited`` are the parent's pipe ends, which the
    worker closes so that the parent closing its own is an EOF here.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(status, "wb") as reports:
            try:
                records = _advance_group(with_kmeans, group)
                _send(reports)
                if os.read(go, 1):
                    _send(reports, value=_finish_group(group, records))
            except BaseException as e:  # the parent raises it
                import traceback
                _send(reports, e, "".join(traceback.format_exception(e)))
        code = 0
    finally:
        os._exit(code)


def _receive(worker, live: set):
    """The value of ``worker``'s next report. Raise the failure it reports instead, and
    if it ended without a report, a ``CliError`` naming its first bundle and how it
    ended."""
    pid, reports, _, rep_dir = worker
    try:
        error, value = pickle.load(reports)
    except (EOFError, pickle.UnpicklingError):
        live.discard(pid)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
        raise CliError(f"the worker of the group from bundle {rep_dir} ended without "
                       f"a report: {how}", exit_code=1)
    if isinstance(error, CliError):
        raise error
    if error is not None:
        raise error from _RemoteTraceback(value)
    return value


def _in_workers(groups, with_kmeans: bool) -> list:
    """Run each group's two phases in its own forked worker; the results in job order.

    Phase-1 reports are read in group order and the first failure is raised;
    no bundle is written until every group has passed phase 1 and every
    bundle directory exists. Every worker ends before this returns or raises.
    """
    workers, live = [], set()  # (pid, report reader, go fd, first bundle); unreaped pids
    try:
        for group in groups:
            status_r, status_w = os.pipe()
            go_r, go_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(with_kmeans, group, status_w, go_r,
                        [status_r, go_w, *(fd for _, r, go, _ in workers
                                           for fd in (r.fileno(), go))])
            live.add(pid)
            os.close(status_w)
            os.close(go_r)
            workers.append((pid, open(status_r, "rb"), go_w, group[0][2]))
        for worker in workers:
            _receive(worker, live)
        _make_bundle_dirs(itertools.chain.from_iterable(groups))
        for _, _, go, _ in workers:
            # a worker that has died is named when its results are read
            with contextlib.suppress(BrokenPipeError):
                os.write(go, b"g")
        return [result for worker in workers for result in _receive(worker, live)]
    finally:
        for _, reports, go, _ in workers:
            os.close(go)
            reports.close()
        for pid in live:
            os.waitpid(pid, 0)


def _run_jobs(jobs, with_kmeans: bool = False) -> list:
    """Run ``jobs`` in one contiguous group per usable core; results in job order.

    One group runs in-process; more each run in their own forked worker (fork,
    not spawn: the command starts no thread of its own, and a spawned worker
    would import numpy and the package again).
    """
    n = min(_usable_cores(), len(jobs))
    if n == 1:
        records = _advance_group(with_kmeans, jobs)
        _make_bundle_dirs(jobs)
        return _finish_group(jobs, records)
    return _in_workers([jobs[len(jobs) * g // n:len(jobs) * (g + 1) // n] for g in range(n)],
                       with_kmeans)


def _median(values) -> float:
    """The median, bit for bit as ``np.median`` computes it, which would import
    ``numpy.ma`` (16 ms per command): the middle value or the mean of the two."""
    v, n = sorted(values), len(values)
    # + 0.0: numpy's mean sums from +0.0, so its median is never -0.0
    return (v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2) + 0.0


def _summarize(out_dir: str, scenario: Scenario, results, with_kmeans: bool):
    """Print each replication's result and the medians; write them all to summary.json."""
    summary = {
        "master_seed": int(scenario.seed),
        "replications": len(results),
        "results": results,
        "median_served": _median([r["served"] for r in results]),
        "median_final_oracle_utility": _median([r["final_oracle_utility"] for r in results]),
    }
    if with_kmeans:
        summary["median_kmeans_unserved"] = _median([r["kmeans_unserved"] for r in results])
    for r, res in enumerate(results):
        line = (f"rep {r:03d} seed {res['seed']}: served {res['served']}/{res['total']}, "
                f"final oracle utility {res['final_oracle_utility']:.6f}")
        if with_kmeans:
            line += f", kmeans unserved {res['kmeans_unserved']}/{res['total']}"
        print(line)
    if len(results) > 1:
        total = results[0]["total"]
        line = (f"median over {len(results)} replications: served {summary['median_served']:g}"
                f"/{total}, final oracle utility {summary['median_final_oracle_utility']:.6f}")
        if with_kmeans:
            line += f", kmeans unserved {summary['median_kmeans_unserved']:g}/{total}"
        print(line)
    with _command_file(os.path.join(out_dir, "summary.json")) as path:
        _write_json(path, summary)


def _replicate(s: Scenario, count: int, out_dir: str, with_kmeans: bool = False):
    """Run ``count`` replications of ``s`` into ``out_dir``, with its config and summary."""
    _make_out_dir(out_dir)
    with _command_file(os.path.join(out_dir, "effective_config.json")) as path:
        _write_json(path, scenario_to_dict(s))
    _summarize(out_dir, s, _run_jobs(_jobs(s, count, out_dir), with_kmeans), with_kmeans)


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
    _replicate(s, args.replications, args.out)
    return 0


def cmd_reproduce_paper(args) -> int:
    if args.seeds < 1:
        raise CliError("--seeds must be at least 1")
    with_kmeans = args.baseline == "kmeans"
    _replicate(reference_scenario(), args.seeds, args.out, with_kmeans)
    print(f"reference result: {REFERENCE_SERVED[0]}/{REFERENCE_SERVED[1]} served")
    if with_kmeans:
        print(f"reference baseline result: {REFERENCE_KMEANS_UNSERVED}"
              f"/{REFERENCE_SERVED[1]} unserved")
    return 0


def _apply_axis(s: Scenario, axis: str, value: float) -> Scenario:
    """``s`` with ``axis`` set to ``value``, checked as the same key of a scenario file is."""
    d = scenario_to_dict(s)
    section, key = SWEEP_AXES[axis]
    d[section][key] = value
    try:
        return scenario_from_dict(d)
    except ValueError as e:
        raise CliError(f"sweep axis {axis} value {value:g}: {e}")


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
    jobs, named = [], {}
    for value in values:
        name = f"{value:g}"
        if name in named:
            raise CliError(f"sweep values {named[name]!r} and {value!r} share the name "
                           f"{args.axis}_{name}")
        named[name] = value
        jobs += _jobs(_apply_axis(base, args.axis, value), args.replications,
                      os.path.join(args.out, f"{args.axis}_{name}"))
    _make_out_dir(args.out)
    results, n = _run_jobs(jobs), args.replications
    with _command_file(os.path.join(args.out, "sweep.csv")) as path, open(path, "w") as f:
        f.write("axis,value,replication,seed,served,total,served_fraction,"
                "final_oracle_utility\n")
        for k, name in enumerate(named):
            part = results[k * n:(k + 1) * n]
            for r, res in enumerate(part):
                f.write(f"{args.axis},{name},{r},{res['seed']},{res['served']},{res['total']},"
                        f"{repr(res['served'] / res['total'])},"
                        f"{repr(res['final_oracle_utility'])}\n")
            med = _median([res["served"] for res in part])
            print(f"{args.axis}={name}: median served {med:g}/{part[0]['total']}")
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
