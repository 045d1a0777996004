"""Tests of the benchmark's own code: span arithmetic, tracing, and verdicts.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def synthetic_tree():
    # thread 0 runs the command; threads 1 and 2 each run one replication
    # that the command's span waits for, overlapping between 6.5 s and 9 s
    rows = [  # name, start, end, parent, thread
        ("cli.main", 0.0, 10.0, -1, 0),
        ("simulator.run", 1.0, 6.0, 0, 0),
        ("simulator.init_scenario", 1.5, 2.5, 1, 0),  # nested in its own layer
        ("channel.received_power_matrix", 2.0, 2.25, 2, 0),
        ("utility.user_utility", 3.0, 4.0, 1, 0),
        ("cli._simulate_one", 6.0, 9.0, 0, 1),
        ("traffic.sample_recipient", 7.0, 8.0, 5, 1),
        ("cli._simulate_one", 6.5, 9.5, 0, 2),
    ]
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "name": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows]),
        "end": np.array([r[2] for r in rows]),
        "parent": np.array([r[3] for r in rows]),
        "thread": np.array([r[4] for r in rows]),
    }


def test_self_times_nested_layers_and_threads():
    sp = synthetic_tree()
    own = spans.self_times(sp["start"], sp["end"], sp["parent"], sp["thread"])
    # the command waited on the pool from 6 s to 9.5 s and on run from 1 s to 6 s
    assert own.tolist() == pytest.approx([1.5, 3.0, 0.75, 0.25, 1.0, 2.0, 1.0, 3.0])
    layers = spans.layer_self_times(sp)
    assert layers == pytest.approx({"cli": 6.5, "simulator": 3.75, "traffic": 1.0,
                                    "navigator": 0.0, "utility": 1.0, "channel": 0.25,
                                    "baseline": 0.0, "report": 0.0})
    # busy time per thread: 10 - 3.5 on the command's thread, 3 on each worker
    assert sum(layers.values()) == pytest.approx(12.5)


def tiny_scenario(tmp_path) -> Path:
    d = json.loads(run.REFERENCE.read_text())
    d.update(num_mus=30, iterations=5, seed=11)
    d["schedule"]["minibatch_size"] = 4
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(d))
    return path


def test_traced_run_writes_the_same_bundles(tmp_path):
    scenario = tiny_scenario(tmp_path)
    env = run.child_env(2)
    args = ["run", "--scenario", str(scenario), "--replications", "3", "--out"]
    plain = [sys.executable, "-m", "airbs_sgd.cli", *args, str(tmp_path / "plain")]
    traced = [sys.executable, str(run.HERE / "traced_cli.py"), str(tmp_path / "spans.npz"),
              *args, str(tmp_path / "traced")]
    for argv in (plain, traced):
        subprocess.run(argv, env=env, cwd=run.ROOT, check=True, capture_output=True, timeout=120)
    assert run.digest(tmp_path / "plain") == run.digest(tmp_path / "traced")

    sp = spans.load(tmp_path / "spans.npz")
    assert len(sp["meta"]["seeds"]) == 3
    m = spans.per_layer_metrics(sp, iterations=15, packets=60, workers=2,
                                wall_traced=1.0, wall_untraced=1.0)
    assert m["simulator.init_scenario.calls_per_rep"] == 2
    assert m["utility.partials_calls_per_iter"] == 4
    assert m["report.files_per_rep"] == 7
    assert spans.self_times(sp["start"], sp["end"], sp["parent"], sp["thread"]).min() > -1e-9


def test_speed_probe_scale():
    probe = run.SpeedProbe()
    probe.samples = [(0.0, 0.010), (1.0, 0.005), (2.0, 0.005), (3.0, 0.010), (9.0, 0.0025)]
    # a launch from 0.5 s to 3.5 s met the samples costing 5, 5 and 10 ms
    assert probe.scale(0.5, 3.5) == pytest.approx(run.PROBE_REF_S / (0.020 / 3))
    # a shorter launch counts the three samples nearest its middle
    assert probe.scale(8.9, 9.1) == pytest.approx(run.PROBE_REF_S / (0.0175 / 3))


def test_launch_pins_the_child_and_scales_its_times(tmp_path):
    everywhere = os.sched_getaffinity(0)
    core = run.cores_for(1)
    check = f"import os; assert os.sched_getaffinity(0) == {core!r}"
    with run.SpeedProbe() as probe:
        done = run.launch([sys.executable, "-c", check], run.child_env(1),
                          time.monotonic() + 60, tmp_path / "err.txt", probe, core)
        assert probe.cores == sorted(core)
    assert done.code == 0
    assert 0 < done.scale < math.inf
    assert os.sched_getaffinity(0) == everywhere


@pytest.mark.parametrize("parent, change, bound, expected", [
    ([10.0] * 10, [8.0] * 10, 0.1, "improved"),
    ([10.0] * 10, [13.0] * 10, 0.1, "worse"),
    ([10.0] * 10, [10.5] * 10, 0.1, "unchanged"),
    ([8.0, 12.0] * 5, [9.0, 11.0] * 5, 0.1, "unresolved"),
    ([10.0, 11.0] * 5, [8.0, 7.0] * 2, 0.1, "unchanged"),  # too few pairs to claim a gain
    ([10.0] * 10, [13.0] * 4, 0.1, "unresolved"),  # too few pairs to claim a loss
    ([10.0] * 10, [13.0] * 6 + [9.0] * 4, 0.1, "unresolved"),  # lost only 6 of 10 pairs
    # without a bound, the parent's quartile spread is the threshold
    ([10.0, 10.2] * 5, [11.0] * 10, 0.0, "worse"),
    ([10.0, 10.2] * 5, [10.25] * 10, 0.0, "unchanged"),
    ([10.0, 10.2] * 5, [9.0] * 10, 0.0, "improved"),
    ([5.0] * 10, [6.0] * 10, 0.0, "worse"),
    ([5.0] * 10, [5.0] * 10, 0.0, "unchanged"),
])
def test_compare_verdicts(parent, change, bound, expected):
    assert compare.verdict(parent, change, bound, "lower")[0] == expected
