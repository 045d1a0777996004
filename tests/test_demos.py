"""Every script under demos/ and the README's library example run to
completion against the package sources, the waypoint post-processing demo's
helpers do what they say, and the package root re-exports only names the
README's library section or a demo uses."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
LIBRARY = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


waypoints = load_demo("waypoint_postprocessing")


def test_demos_found():
    assert DEMOS


def test_package_root_exports_only_used_names():
    tree = ast.parse((ROOT / "src" / "airbs_sgd" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = "\n".join([LIBRARY, *(demo.read_text() for demo in DEMOS)])
    assert exported
    unused = sorted(name for name in exported if not re.search(rf"\b{name}\b", used))
    assert not unused, f"re-exported by airbs_sgd but in no demo or README example: {unused}"


def run_script(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_script([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", LIBRARY, re.DOTALL)
    assert len(blocks) == 1
    proc = run_script(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"\d+ of 50 served\n", proc.stdout), proc.stdout


def test_smooth_waypoints_identity_and_constant():
    pts = np.array([[float(i), float(i * i), 5.0] for i in range(6)])
    assert np.array_equal(waypoints.smooth_waypoints(pts, 1), pts)
    const = np.tile([3.0, 4.0, 5.0], (7, 1))
    assert np.array_equal(waypoints.smooth_waypoints(const, 3), const)


def test_smooth_waypoints_alternating():
    pts = np.array([[x, 0.0, 0.0] for x in (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0)])
    out = waypoints.smooth_waypoints(pts, 3)
    assert out.shape == pts.shape
    for p in out[1:-1]:
        assert abs(p[0]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.array_equal(out[0], pts[0]) and np.array_equal(out[-1], pts[-1])


def test_smooth_waypoints_window_validation():
    pts = np.zeros((3, 3))
    for bad in (0, -1, 2, 4):
        with pytest.raises(ValueError):
            waypoints.smooth_waypoints(pts, bad)


def test_clamp_speed():
    clamp_speed = waypoints.clamp_speed
    a = np.zeros(3)
    near = np.array([3.0, 4.0, 0.0])
    assert np.array_equal(clamp_speed(a, near, 10.0), near)
    far = np.array([100.0, 0.0, 0.0])
    assert np.array_equal(clamp_speed(a, far, 10.0), [10.0, 0.0, 0.0])
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = np.array([*rng.uniform(-100, 100, 2), rng.uniform(0, 100)])
        q = np.array([*rng.uniform(-100, 100, 2), rng.uniform(0, 100)])
        vmax = rng.uniform(0.5, 50.0)
        assert math.dist(p, clamp_speed(p, q, vmax)) <= vmax + 1e-9
    with pytest.raises(ValueError):
        clamp_speed(a, near, 0.0)
