import json
import os
import time
from types import SimpleNamespace

import pytest

import helpers
from airbs_sgd.cli import main as cli_main


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(helpers.ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every command, failing or not, has ended and reaped its forked workers."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def paper_batch(tmp_path_factory):
    """One 20-seed reference reproduction with the k-means baseline.

    Shared by the statistical acceptance checks so the expensive batch
    runs exactly once. Times the CLI call itself.
    """
    out = tmp_path_factory.mktemp("paper_batch")
    t0 = time.perf_counter()
    rc = cli_main(["reproduce-paper", "--seeds", "20", "--baseline", "kmeans",
                   "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    traces = []
    for r in range(summary["replications"]):
        lines = (out / f"rep_{r:03d}" / "trajectory.csv").read_text().splitlines()
        by_iter = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_iter[int(parts[0])] = float(parts[5])
        traces.append(by_iter)
    return SimpleNamespace(out=out, summary=summary, elapsed=elapsed,
                           utility_traces=traces)
