"""Command-line front end.

Three subcommands:

* ``run`` executes a scenario file, optionally over several replications,
  and writes per-replication output bundles plus a summary;
* ``reproduce-paper`` does the same for the bundled reference scenario and
  prints the comparison against the reference study's reported numbers;
* ``sweep`` re-runs a scenario across a list of values on one axis
  (eta, q, alpha, delta), records each value's effective config, and
  aggregates the endpoints into a CSV.

Every command makes one two-phase pass over one list of replication jobs,
each a (scenario, seed, bundle directory) triple; a sweep's list holds the
jobs of all its values. The list is split into one contiguous group per
usable core (``taskset`` limits them). The command runs the first group
itself and forks one ``os.fork``-ed worker for each other group, which
runs both phases of its group, so its phase-1 records stay in the process
that made them, and reports to the command on a pipe; on one core nothing
is forked. Phase 1 computes every number: each group cuts each
consecutive run of jobs sharing a scenario into batches of at most
``BATCH_PAIRS`` agent-user pairs, advances each batch
(:func:`simulator.run_replications`, the one judge of a run's health), and
then, for the same batch, computes the coverage grids, the k-means baselines
(:func:`baseline.kmeans_replications`) and their served counts, which
:func:`utility.oracle` decides. A job fails if it does not advance, its
arrays do not fit in memory, or its grid or baseline cannot be evaluated;
the batch's jobs then advance again one at a time, and the command stops
before any bundle is written, naming the first failing job in list order.
Between the phases the command creates every bundle directory in job
order, so a name taken by a file fails before any file is written, and
only then lets the workers start phase 2, one byte each down one shared
go pipe.
Phase 2 only formats and writes; its one remaining failure is an
``OSError`` mid-write, such as a full disk. The outputs do not depend on
how the jobs are grouped. ``python -m airbs_sgd.cli`` and the ``airbs-sgd``
script end through :func:`run_and_exit`, which guards stdout and stderr
against a reader that has closed, flushes them and ends the process
without tearing the interpreter down.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import pickle
import sys
from importlib import resources

import numpy as np

from .baseline import kmeans_replications
from .report import _json_text, coverage_map, render_outputs
from .simulator import Scenario, run_replications, scenario_from_dict, scenario_to_dict
from .utility import oracle

MAP_GRID = 70
# Upper bound on the agent-user pairs (R * B * max(M, Q)) of one batch of R
# replications: it bounds the working set, not the results, which do not
# depend on the batching.
BATCH_PAIRS = 1 << 18
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


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key it sets twice raises ``ValueError`` naming it."""
    d = {}
    for key, v in pairs:
        if key in d:
            raise ValueError(f"duplicate key {key!r}")
        d[key] = v
    return d


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise CliError(f"cannot read scenario file {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError(f"scenario file {path} is not UTF-8 text: {e}")
    except (ValueError, RecursionError) as e:  # also a duplicate key, deep nesting, a long int
        raise CliError(f"malformed scenario file {path}: {e}")
    try:
        return scenario_from_dict(data)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"invalid scenario in {path}: {e}")
    except MemoryError:  # such as the uniform shares of too many users; it has no message
        raise CliError(f"invalid scenario in {path}: out of memory")


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
    """Phase 2 of one replication: write its bundle and return its summary row.

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
    if kmeans is not None:
        result["kmeans_unserved"] = total - kmeans[1]
    try:
        render_outputs(log, coverage, rep_dir, s.area, s.utility.p_min_dbm, kmeans)
    except OSError as e:
        raise _write_failure(seed, rep_dir, e)
    return result


def _command_file(path: str, text: str):
    """Write ``text`` to ``path``, the command's own file; an ``OSError`` exits 2 naming it."""
    try:
        with open(path, "w") as f:
            f.write(text)
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


def _phase_one(s: Scenario, seeds, with_kmeans: bool) -> list:
    """Each seed's (log, coverage grid, k-means) for a run of jobs of ``s``.

    The seeds advance as one batch; the k-means is None without
    ``with_kmeans``, else the ``KMeansResult`` and the oracle's served count
    for its centroids; all the run's baselines are one Lloyd program.
    """
    logs = run_replications(s, seeds)
    # one grid per call: two batched calls of 10 measured as fast with the
    # in-place kernel, and slower before it from page faults, not the cache
    grids = [coverage_map(log.positions[-1], s.area, MAP_GRID, s.budget_dbm) for log in logs]
    kmeans = [None] * len(logs)
    if with_kmeans:
        users = np.stack([log.users for log in logs])
        kmeans = kmeans_replications(users, s.num_airbs, seeds, height_m=s.fixed_height_m)
        served = oracle(np.stack([km.centroids for km in kmeans]), users,
                        s.traffic.as_array(), s.utility, s.budget_dbm)[1]
        kmeans = list(zip(kmeans, served.tolist()))
    return list(zip(logs, grids, kmeans))


def _advance_group(with_kmeans: bool, jobs) -> list:
    """Phase 1 of one group: each job's (log, coverage grid, k-means), each run of jobs
    sharing a scenario cut into batches of at most ``BATCH_PAIRS`` agent-user pairs.

    A job fails if it does not advance, its arrays do not fit in memory, or a
    grid point or, with ``with_kmeans``, a user lies on a transmitter; the
    first failing job in list order is named.
    """
    done = []
    for _, run in itertools.groupby(jobs, key=lambda job: id(job[0])):
        run = list(run)
        s = run[0][0]
        size = max(1, BATCH_PAIRS // (s.num_airbs * max(s.total_mus, s.schedule.minibatch_size)))
        for k in range(0, len(run), size):
            _, seeds, dirs = zip(*run[k:k + size])
            try:
                done += _phase_one(s, seeds, with_kmeans)
            except (ValueError, MemoryError):
                # the jobs are independent, so the first to fail alone is the first that failed
                for seed, rep_dir in zip(seeds, dirs):
                    try:
                        _phase_one(s, [seed], with_kmeans)
                    except (ValueError, MemoryError) as e:
                        raise _failure(seed, rep_dir, e)
                raise
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

    Phase 1 runs at once and reports on ``status``. Phase 2 waits for one go
    byte on ``go``, which all workers share, writes the bundles from the
    records in this process's memory and reports their results; at EOF on
    ``go`` the worker ends without writing. A failure is reported as the
    exception and its traceback text. ``inherited`` are the parent's pipe
    ends, which the worker closes so that the parent closing its own is an EOF.
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
    pid, reports, rep_dir = worker
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


def _run_jobs(jobs, with_kmeans: bool = False) -> list:
    """Run ``jobs`` in one contiguous group per usable core; results in job order.

    The command runs the first group's two phases itself and forks one
    worker for each other group (fork, not spawn: the command starts no
    thread of its own, and a spawned worker would import numpy and the
    package again). Phase-1 reports are read in group order, the command's
    own first, and the first failure is raised; no bundle is written until
    every group has passed phase 1 and every bundle directory exists. The
    command holds the go pipe's read end, so its write cannot fail. Every
    worker ends before this returns or raises.
    """
    n = min(_usable_cores(), len(jobs))
    groups = [jobs[len(jobs) * g // n:len(jobs) * (g + 1) // n] for g in range(n)]
    workers, live = [], set()  # (pid, report reader, first bundle); unreaped pids
    go_r, go_w = os.pipe()
    try:
        for group in groups[1:]:
            status_r, status_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(with_kmeans, group, status_w, go_r,
                        [status_r, go_w, *(r.fileno() for _, r, _ in workers)])
            live.add(pid)
            os.close(status_w)
            workers.append((pid, open(status_r, "rb"), group[0][2]))
        records = _advance_group(with_kmeans, groups[0])
        for worker in workers:
            _receive(worker, live)
        _make_bundle_dirs(jobs)
        os.write(go_w, b"g" * len(workers))
        return _finish_group(groups[0], records) + [
            result for worker in workers for result in _receive(worker, live)]
    finally:
        os.close(go_w)
        os.close(go_r)
        for _, reports, _ in workers:
            reports.close()
        for pid in live:
            os.waitpid(pid, 0)


def _median(values) -> float:
    """The median, bit for bit as ``np.median`` computes it, which would import
    ``numpy.ma`` (16 ms per command): the middle value or the mean of the two."""
    v, n = sorted(values), len(values)
    # + 0.0: numpy's mean sums from +0.0, so its median is never -0.0
    return (v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2) + 0.0


def _summarize(out_dir: str, scenario: Scenario, results, with_kmeans: bool):
    """Write each replication's result and the medians to summary.json, then print them."""
    summary = {
        "master_seed": int(scenario.seed),
        "replications": len(results),
        "results": results,
        "median_served": _median([r["served"] for r in results]),
        "median_final_oracle_utility": _median([r["final_oracle_utility"] for r in results]),
    }
    if with_kmeans:
        summary["median_kmeans_unserved"] = _median([r["kmeans_unserved"] for r in results])
    _command_file(os.path.join(out_dir, "summary.json"), _json_text(summary))
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


def _write_config(out_dir: str, s: Scenario):
    """Write ``s`` as ``out_dir``'s effective_config.json."""
    _command_file(os.path.join(out_dir, "effective_config.json"), _json_text(scenario_to_dict(s)))


def _replicate(s: Scenario, count: int, out_dir: str, with_kmeans: bool = False):
    """Run ``count`` replications of ``s`` into ``out_dir``, with its config and summary."""
    _make_out_dir(out_dir)
    _write_config(out_dir, s)
    _summarize(out_dir, s, _run_jobs(_jobs(s, count, out_dir), with_kmeans), with_kmeans)


def _override_seed(s: Scenario, seed) -> Scenario:
    """``s`` with the ``--seed`` override applied, if one was given."""
    if seed is None:
        return s
    try:
        return dataclasses.replace(s, seed=seed)
    except ValueError as e:
        raise CliError(f"--seed {seed}: {e}")


def _check_count(flag: str, count: int):
    """Exit 2 unless ``count``, the value of ``flag``, is at least 1 and below 2**63,
    as a scenario's counts are."""
    if count < 1:
        raise CliError(f"{flag} must be at least 1")
    if count >= 2 ** 63:
        raise CliError(f"{flag} must be below 2**63")


def cmd_run(args) -> int:
    _check_count("--replications", args.replications)
    s = _override_seed(load_scenario_file(args.scenario), args.seed)
    _replicate(s, args.replications, args.out)
    return 0


def cmd_reproduce_paper(args) -> int:
    _check_count("--seeds", args.seeds)
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
    _check_count("--replications", args.replications)
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
    for s, _, rep_dir in jobs[::n]:
        _write_config(os.path.dirname(rep_dir), s)
    parts = {name: results[k * n:(k + 1) * n] for k, name in enumerate(named)}
    _command_file(os.path.join(args.out, "sweep.csv"), "".join(
        ["axis,value,replication,seed,served,total,served_fraction,final_oracle_utility\n"]
        + [f"{args.axis},{name},{r},{res['seed']},{res['served']},{res['total']},"
           f"{repr(res['served'] / res['total'])},{repr(res['final_oracle_utility'])}\n"
           for name, part in parts.items() for r, res in enumerate(part)]))
    for name, part in parts.items():
        print(f"{args.axis}={name}: median served {_median([res['served'] for res in part]):g}"
              f"/{part[0]['total']}")
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


def _watched() -> bool:
    """Whether a profiler, a tracer or a ``sys.monitoring`` tool (coverage's, on
    Python 3.12 and later) is installed: each writes its output at exit."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


class _Guarded:
    """A stream whose writes, once one meets a closed reader (``reader_closed``),
    go to ``os.devnull``."""

    def __init__(self, stream):
        self.stream, self.reader_closed = stream, False

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text):
        return self._guard(self.stream.write, text)

    def flush(self):
        self._guard(self.stream.flush)

    def _guard(self, op, *args):
        try:
            return op(*args)
        except BrokenPipeError:
            self.reader_closed = True
            os.dup2(os.open(os.devnull, os.O_WRONLY), self.stream.fileno())


def run_and_exit(argv=None):
    """The command's entry point: run :func:`main` and end the process with its code.

    Once stdout and stderr are flushed, the process ends by ``os._exit``, as
    a forked worker does, without tearing the interpreter down, which would
    free every object of every module, numpy's among them. That is safe
    because every file the command writes is closed by a ``with`` block
    before ``main`` returns, and every worker has been reaped; keep it so.
    It ends by ``sys.exit`` instead when a flush fails, so the interpreter
    reports that at exit as before, and when :func:`_watched`, so that
    ``python -m cProfile`` and coverage still write their output.
    Argparse's ``SystemExit`` gives the status as ``main``'s return does.
    stdout and stderr are each wrapped in a :class:`_Guarded` stream, so a
    reader that has closed, as ``| head -1`` does, sends the rest of that
    stream to ``os.devnull`` and prints no traceback. A closed stdout ends
    the command with status 1; a closed stderr keeps the status (2 for a
    ``CliError`` or a usage error). Any other exception propagates.
    """
    sys.stdout, sys.stderr = (s if s is None else _Guarded(s) for s in (sys.stdout, sys.stderr))
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's, whose status is an int
        code = e.code
    flushed = True
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # no stream, a failed write, a closed one
            flushed = False
    if getattr(sys.stdout, "reader_closed", False):
        code = 1
    if flushed and not _watched():
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run_and_exit()
