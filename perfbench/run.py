"""Benchmark of the airbs-sgd command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run from a checkout: every pass launches the CLI from the checkout's
``src/`` in a fresh interpreter, as a user would, and checks what it wrote.
With ``--trace 0`` the run repeats the workload's command while the next
pass should still end within ``--seconds``, times set-up twice before each
pass, and reports the end-to-end metrics as medians. Timings are scaled to
the reference core speed by ``SpeedProbe`` (see there); the raw ones are
printed and logged beside them. With ``--trace 1`` it runs the
command once plain and once under ``traced_cli.py`` and reports the
per-layer metrics. The last line of output is the result as one JSON
object; every run is also appended, with the machine it ran on, to
``.perfbench/results.jsonl``, which is what ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import compare
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "airbs_sgd"
REFERENCE = PACKAGE / "scenarios" / "reference.json"
WORK = ROOT / ".perfbench"

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PER_PASS = 2
BUNDLE = ("trajectory.csv", "trajectory.json", "metrics.json", "coverage.csv",
          "map.svg", "hist_initial.svg", "hist_final.svg", "kmeans.json")
# criterion 1 and 2 gates on the reference batch
MIN_MEDIAN_SERVED = 192
MIN_MEDIAN_KMEANS_UNSERVED = 30
REPLICATIONS = 20
CLI_ARGS = ["reproduce-paper", "--seeds", str(REPLICATIONS), "--baseline", "kmeans"]
SETUP_CODE = "import airbs_sgd.cli as c; c.reference_scenario()"
PROBE_PERIOD_S = 0.1
# thread CPU seconds one probe sample takes at the reference speed: about its
# median on the 2-core Xeon box of the baseline; it only fixes the unit
PROBE_REF_S = 0.006


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# workload -> replication-pool size; both run the criterion-1 command on the
# bundled reference scenario, whose inputs are fixed, so --seed changes nothing
WORKLOADS = {"paper-batch": 1, "paper-batch-pool": nproc()}


class SpeedProbe:
    """Samples the speed of the cores a child runs on, while it runs.

    On a shared box a core's speed wanders by up to 2x in phases of a few
    seconds, and the cores do not wander together, so a pass's own time
    mixes the program's cost with the phases it happened to meet. This
    thread wakes every PROBE_PERIOD_S, moves to the next of the child's
    cores, and records the thread CPU time of one ``_work()`` there (thread
    CPU time leaves out the time the child preempts it). A launch's
    ``scale`` is PROBE_REF_S over the mean of the samples taken while it
    ran; a time times its scale is the time at the reference speed. On the
    baseline box the probe costs the child's cores about 6% of their time.
    """

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0))
        self.samples = []  # (perf_counter at the start, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        rng = np.random.default_rng(0)
        self._array = rng.random(1_000_000)  # 8 MB, more than a core's L2
        self._gather = rng.integers(0, len(self._array), 20_000)
        self._records = [{"v": float(x)} for x in self._array[:60_000]]
        self._walk = rng.permutation(len(self._records))[:4000].tolist()

    def _work(self) -> float:
        """A fixed piece of the kinds of work the simulator does: scattered
        reads over more memory than a core's cache, a walk over Python
        dicts, small-array numpy calls and plain Python arithmetic. Without
        the memory-bound half, the program slowed 1.3 times as much as the
        probe when the host did."""
        acc = 0.0
        for _ in range(2):
            acc += float(self._array[self._gather].sum())
        for j in self._walk:
            acc += self._records[j]["v"]
        a = np.arange(5.0) / 5
        for i in range(150):
            acc += float((np.exp(-a * (i % 7)) + a).dot(a))
        for i in range(2000):
            acc = (acc + i * i) % 1000003
        return acc

    def __enter__(self):
        self._thread.start()
        while not self.samples and self._thread.is_alive():  # every launch gets a sample
            time.sleep(0.001)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        turn = 0
        while True:
            cores = self.cores
            os.sched_setaffinity(0, {cores[turn % len(cores)]})  # this thread only
            turn += 1
            start, cpu = time.perf_counter(), time.thread_time()
            self._work()
            self.samples.append((start, time.thread_time() - cpu))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe cost from t0 to t1; at least the
        three samples nearest the interval count, so short launches get one."""
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return PROBE_REF_S / statistics.fmean(inside)


@dataclasses.dataclass
class Launch:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    scale: float


@dataclasses.dataclass
class Pass:
    launch: Launch
    failed: int
    summary: dict | None
    digest: str | None
    problems: list


def cores_for(workers: int) -> set:
    """The last ``workers`` of the cores this process may use: a one-worker
    child shares one core with the probe, an all-core child uses them all."""
    return set(sorted(os.sched_getaffinity(0))[-workers:])


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["AIRBS_SGD_THREADS"] = str(threads)
    # the replication pool is the only parallelism measured: BLAS helper
    # threads would spin on the same cores and double the child's CPU time
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def launch(argv, env, deadline: float, log: Path, probe: SpeedProbe, cores) -> Launch:
    """Run one child on ``cores`` to exit; wall from launch to exit, CPU and
    peak RSS from wait4, and the probe's scale over that time."""
    probe.cores = sorted(cores)
    everywhere = os.sched_getaffinity(0)
    with open(log, "wb") as err:
        os.sched_setaffinity(0, cores)  # the child inherits this thread's cores
        t0 = time.perf_counter()
        try:
            child = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                     stderr=err)
        finally:
            os.sched_setaffinity(0, everywhere)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  child.returncode, probe.scale(t0, t0 + wall))


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def check_outputs(out: Path, code: int):
    """Failed replications of one pass, its summary, and what was wrong."""
    if code != 0:
        return REPLICATIONS, None, [f"exit code {code}"]
    reps = [f"rep_{r:03d}" for r in range(REPLICATIONS)]
    if sorted(p.name for p in out.glob("rep_*")) != reps:
        return REPLICATIONS, None, ["replication directories differ from rep_000.."]
    try:
        summary = json.loads((out / "summary.json").read_text())
        results = summary["results"]
    except (OSError, ValueError, KeyError) as e:
        return REPLICATIONS, None, [f"summary.json unreadable: {e}"]
    if summary.get("replications") != REPLICATIONS or len(results) != REPLICATIONS:
        return REPLICATIONS, summary, ["summary.json lists the wrong replication count"]
    if not (out / "effective_config.json").is_file():
        return REPLICATIONS, summary, ["effective_config.json missing"]
    if summary["median_served"] < MIN_MEDIAN_SERVED:
        return REPLICATIONS, summary, [f"median served {summary['median_served']} "
                                       f"< {MIN_MEDIAN_SERVED}"]
    if summary["median_kmeans_unserved"] < MIN_MEDIAN_KMEANS_UNSERVED:
        return REPLICATIONS, summary, ["k-means median unserved below "
                                       f"{MIN_MEDIAN_KMEANS_UNSERVED}"]
    problems, failed = [], set()
    for r, rep in enumerate(reps):
        missing = [f for f in BUNDLE
                   if not (out / rep / f).is_file() or (out / rep / f).stat().st_size == 0]
        if missing:
            failed.add(r)
            problems.append(f"{rep} lacks {', '.join(missing)}")
        if results[r]["kmeans_unserved"] <= results[r]["total"] - results[r]["served"]:
            failed.add(r)
            problems.append(f"{rep}: k-means not worse than the agents")
    return len(failed), summary, problems


def source_key() -> str:
    h = hashlib.sha256()
    for p in sorted(PACKAGE.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(PACKAGE)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def consistency(workload: str, passes) -> list:
    """Every pass, at either pool size, must write the same bytes (criterion 10).

    Each run stores its digest under the sources' hash and compares it with
    the other workload's, when that one has run on the same sources.
    """
    digests = {p.digest for p in passes if p.digest}
    if len(digests) > 1:
        return ["passes of one run wrote different outputs"]
    if not digests:
        return []
    dig = digests.pop()
    store = WORK / "digests"
    store.mkdir(parents=True, exist_ok=True)
    key = source_key()
    tmp = store / f"{key}.{workload}.tmp"
    tmp.write_text(dig)
    tmp.replace(store / f"{key}.{workload}")
    for other in WORKLOADS:
        known = store / f"{key}.{other}"
        if other != workload and known.is_file() and known.read_text() != dig:
            return [f"outputs differ from {other}'s"]
    return []


def run_pass(workload: str, deadline: float, probe: SpeedProbe, traced: bool = False) -> Pass:
    work = WORK / workload
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(work / "spans.npz")]
    else:
        argv = [sys.executable, "-m", "airbs_sgd.cli"]
    workers = WORKLOADS[workload]
    run = launch(argv + CLI_ARGS + ["--out", str(out)], child_env(workers),
                 deadline, work / "stderr.txt", probe, cores_for(workers))
    failed, summary, problems = check_outputs(out, run.code)
    dig = digest(out) if run.code == 0 else None
    shutil.rmtree(out, ignore_errors=True)
    if problems:
        problems.append("stderr tail: " + (work / "stderr.txt").read_text(errors="replace")[-2000:])
    return Pass(run, failed, summary, dig, problems)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def measure(workload: str, seconds: int, deadline: float, probe: SpeedProbe):
    env = child_env(WORKLOADS[workload])

    def setup_once():  # set-up is single-threaded at any pool size
        return launch([sys.executable, "-c", SETUP_CODE], env, deadline,
                      WORK / workload / "setup.txt", probe, cores_for(1))

    setup_once()  # fills caches
    # set-up samples are spread over the run, as the box's speed wanders
    setup, passes = [], []
    t0 = time.perf_counter()
    while not passes or (
            time.perf_counter() - t0 + statistics.mean(p.launch.wall for p in passes) <= seconds
            and time.monotonic() + max(p.launch.wall for p in passes) < deadline):
        setup += [setup_once() for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(workload, deadline, probe))
    problems = [f"setup exit code {s.code}" for s in setup if s.code != 0]
    problems += consistency(workload, passes)
    attempted = REPLICATIONS * len(passes)
    failed = attempted if problems else sum(p.failed for p in passes)
    samples = {
        "wall_ref_s": [p.launch.wall * p.launch.scale for p in passes],
        "cpu_ref_s": [p.launch.cpu * p.launch.scale for p in passes],
        "setup_s": [s.wall * s.scale for s in setup],
        "peak_rss_mb": [p.launch.rss_mb for p in passes],
        "served_frac_median": [p.summary["median_served"] / p.summary["results"][0]["total"]
                               if p.summary else 0.0 for p in passes],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    # as measured, before scaling; logged, not part of the result
    samples.update(raw_wall_s=[p.launch.wall for p in passes],
                   raw_cpu_s=[p.launch.cpu for p in passes],
                   raw_setup_s=[s.wall for s in setup],
                   pass_scale=[p.launch.scale for p in passes])
    print("raw medians: " + ", ".join(f"{k[4:]} {statistics.median(samples[k]):.4f} s"
                                      for k in ("raw_wall_s", "raw_cpu_s", "raw_setup_s"))
          + f"; median scale {statistics.median(samples['pass_scale']):.4f}")
    metrics["succeeded_frac"] = 1.0 - failed / attempted
    problems += [q for p in passes for q in p.problems]
    return attempted, failed, metrics, samples, problems


def trace(workload: str, deadline: float, probe: SpeedProbe):
    spans_path = WORK / workload / "spans.npz"
    plain = run_pass(workload, deadline, probe)
    spans_path.unlink(missing_ok=True)
    traced = run_pass(workload, deadline, probe, traced=True)
    problems = consistency(workload, [plain, traced]) + plain.problems + traced.problems
    attempted = 2 * REPLICATIONS
    failed = attempted if problems else plain.failed + traced.failed
    scenario = json.loads(REFERENCE.read_text())
    iterations = REPLICATIONS * scenario["iterations"]
    sp = spans.load(spans_path)
    metrics = spans.per_layer_metrics(
        sp, iterations=iterations, packets=iterations * scenario["schedule"]["minibatch_size"],
        workers=min(WORKLOADS[workload], REPLICATIONS),
        wall_traced=traced.launch.wall * traced.launch.scale,
        wall_untraced=plain.launch.wall * plain.launch.scale)
    own = spans.layer_self_times(sp)
    busy = sum(own.values())
    root = sp["parent"] < 0
    command = float(np.sum(sp["end"][root] - sp["start"][root]))
    print("layer self-time shares: " + ", ".join(f"{k} {v / busy:.1%}" for k, v in own.items()))
    print(f"layer self times add up to {busy:.4f} thread-s over a {command:.4f} s traced command")
    logged = {"raw_wall_s": [plain.launch.wall, traced.launch.wall],
              "pass_scale": [plain.launch.scale, traced.launch.scale]}
    return attempted, failed, metrics, logged, problems


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def report(declared: dict, metrics: dict, samples: dict) -> dict:
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
                           f"{sorted(declared)}")
    for name, m in declared.items():
        line = f"  {name:40s} {metrics[name]:.6g} {m['unit']}"
        if name in samples:
            line += f"  (median of {len(samples[name])})"
            t = tail(samples[name])
            if t:
                line += f", p{t[0]} {t[1]:.6g} {m['unit']}"
        print(line)
    return {name: {"value": metrics[name], "unit": m["unit"]} for name, m in declared.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="accepted; the inputs are fixed")
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two results.jsonl files instead of running")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare.main(bench, *args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no airbs_sgd sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workload = args.workload
    deadline = time.monotonic() + DEADLINE_S
    (WORK / workload).mkdir(parents=True, exist_ok=True)
    host, load_start = machine(), os.getloadavg()
    print(f"machine: {json.dumps(host)}; load average {load_start[0]:.2f}")
    print(f"workload {workload}, seed {args.seed}, {REPLICATIONS} replications, "
          f"{WORKLOADS[workload]} thread(s), trace {args.trace}")
    with SpeedProbe() as probe:
        if args.trace:
            attempted, failed, metrics, samples, problems = trace(workload, deadline, probe)
            declared = {m["name"]: m for m in bench["per_layer"]}
        else:
            attempted, failed, metrics, samples, problems = measure(workload, args.seconds,
                                                                    deadline, probe)
            declared = {m["name"]: m for m in bench["end_to_end"]}
    for p in problems:
        print(f"check failed: {p}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g}  ({failed} of {attempted} "
          f"replications)")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": report(declared, metrics, samples)}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, "load_start": load_start,
              "load_end": os.getloadavg(), "samples": samples, "result": result}
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
