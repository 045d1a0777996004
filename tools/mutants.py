#!/usr/bin/env python3
"""Require the tests to catch each listed mutant of the source.

    python tools/mutants.py

A mutant is a file, an exact text that must occur in it once, the text that
replaces it, and the tier-1 tests that must catch it. The tool first checks
every text of the list against this checkout. It then copies the checkout
(without its dot-directories and caches) to a temporary directory and runs all
the named tests there once, unmutated, which must pass. Then, one mutant at a
time, it writes the mutated file into the copy, runs that mutant's tests with
``pytest -x`` and puts the file back. A mutant is killed when its tests fail.

Exits 0 when every mutant is killed. Exits 1 when a text does not occur
exactly once, when the unmutated tests do not pass, or when a mutant survives
or its tests cannot run; a refactor that moves a text updates the list in the
same change, and a survivor is killed by a new test, not dropped. Needs only
the standard library and the tier-1 test dependencies.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str      # relative to the checkout
    text: str      # must occur exactly once in the file
    replacement: str
    tests: tuple   # pytest node ids, relative to the checkout


CHANNEL, NAV, SIM, CLI, KMEANS, UTIL, REPORT = (f"src/airbs_sgd/{name}.py" for name in (
    "channel", "navigator", "simulator", "cli", "baseline", "utility", "report"))
ANCHOR = ("tests/test_anchor.py",)
HIST_FIGURES = ("tests/test_report.py::test_histogram_figures_match_the_recorded_texts",)
DIVERGENCE = "tests/test_simulator.py::test_divergence_names_the_agent_that_broke_a_bound"
BOUND_LOADS = "tests/test_simulator.py::test_a_coordinate_or_height_exactly_on_the_bound_loads"

MUTANTS = (
    # the power at distance d: the power at 1 m, less 10*log10(d**2)
    Mutant("20*log10 of the squared distance", CHANNEL,
           "np.multiply(10.0, p, out=p)", "np.multiply(20.0, p, out=p)",
           ("tests/test_channel.py::test_power_at_reference_distance",)),
    Mutant("the power at 1 m without 20*log10 of the reference distance", SIM,
           "(p + self.channel.ref_gain_db) + ref for p", "p + self.channel.ref_gain_db for p",
           ("tests/test_simulator.py::test_link_budgets_are_each_power_plus_the_gain_and_read_only",
            *ANCHOR)),
    # the agents' step
    Mutant("packets summed in reverse", NAV,
           "np.add.reduce(contrib, axis=0, initial=0.0)",
           "np.add.reduce(contrib[::-1], axis=0, initial=0.0)",
           ("tests/test_simulator.py::test_batched_step_matches_per_agent_reference",
            "tests/test_simulator.py::test_one_and_nine_agents_replay_alone")),
    Mutant("1e-9 of the agents' mean position added to every row", NAV,
           "new[..., :2] += eta * (total / powers.shape[-1])",
           "new[..., :2] += eta * (total / powers.shape[-1]) "
           "+ 1e-9 * positions[..., :2].mean(axis=-2, keepdims=True)",
           ("tests/test_acceptance.py::test_criterion_08_noncooperation_barrier",)),
    # the coordinate bound is inclusive: an agent exactly on it may stay, and a
    # DivergenceError names the first agent past it, not one exactly on it
    Mutant("an agent exactly on the coordinate bound refused", NAV,
           "np.maximum.reduce(np.abs(new), axis=None, initial=0.0) <= MAX_COORD_M",
           "np.maximum.reduce(np.abs(new), axis=None, initial=0.0) < MAX_COORD_M",
           ("tests/test_navigator.py::test_apply_update_zero_gradient",)),
    Mutant("an agent exactly on the coordinate bound named", NAV,
           "np.all(np.abs(new) <= MAX_COORD_M, axis=-1)",
           "np.all(np.abs(new) < MAX_COORD_M, axis=-1)",
           (f"{DIVERGENCE}[at_the_coordinate_bound]",)),
    # the other absolute limits are inclusive too: a value exactly on one is accepted
    Mutant("a coordinate exactly MAX_COORD_M refused", SIM,
           "if not abs(v) <= MAX_COORD_M:", "if not abs(v) < MAX_COORD_M:",
           (BOUND_LOADS,)),
    Mutant("an altitude exactly MAX_COORD_M refused", SIM,
           "0.0 <= self.fixed_height_m <= MAX_COORD_M",
           "0.0 <= self.fixed_height_m < MAX_COORD_M", (BOUND_LOADS,)),
    Mutant("a scenario count of exactly 2**63 accepted", SIM,
           "if getattr(self, count) >= 2 ** 63:", "if getattr(self, count) > 2 ** 63:",
           ("tests/test_simulator.py::test_a_bad_scenario_field_raises_its_message"
            "[iterations_of_2_to_the_63]",)),
    Mutant("a minibatch_size of exactly 2**63 accepted", NAV,
           "if self.minibatch_size >= 2 ** 63:", "if self.minibatch_size > 2 ** 63:",
           ("tests/test_navigator.py::test_step_schedule",)),
    Mutant("a transmitter exactly EPS_DISTANCE_M from a point refused", CHANNEL,
           "< EPS_DISTANCE_M * EPS_DISTANCE_M:", "<= EPS_DISTANCE_M * EPS_DISTANCE_M:",
           ("tests/test_channel.py::test_a_transmitter_exactly_at_the_guard_distance_is_allowed",)),
    Mutant("a coverage grid of 2 refused", REPORT,
           "if grid_resolution < 2:", "if grid_resolution <= 2:",
           ("tests/test_simulator.py::test_coverage_map_bad_inputs",)),
    # the simulation's draws and steps
    Mutant("noise drawn before the recipients", SIM,
           "        for rng, row in zip(rngs, uniforms):\n"
           "            rng.random(out=row)\n"
           "        idx = profile.recipients(uniforms)\n"
           "        powers, grads = received_power_matrix(L, budget, users[rep, idx], "
           "gradient=True)\n"
           "        if sigma > 0.0:\n"
           "            # and its (Q, B) normals, drawn into its row as well\n"
           "            for rng, row in zip(rngs, normals):\n"
           "                rng.standard_normal(out=row)\n"
           "            powers += sigma * normals\n",
           "        if sigma > 0.0:\n"
           "            for rng, row in zip(rngs, normals):\n"
           "                rng.standard_normal(out=row)\n"
           "        for rng, row in zip(rngs, uniforms):\n"
           "            rng.random(out=row)\n"
           "        idx = profile.recipients(uniforms)\n"
           "        powers, grads = received_power_matrix(L, budget, users[rep, idx], "
           "gradient=True)\n"
           "        if sigma > 0.0:\n"
           "            powers += sigma * normals\n",
           ("tests/test_simulator.py::test_noisy_packets_follow_documented_draw_order",)),
    Mutant("every replication given the first one's users", SIM,
           "L, users = np.stack(starts), np.stack(users)",
           "L, users = np.stack(starts), np.stack([users[0]] * len(users))",
           ("tests/test_simulator.py::test_each_replication_of_a_batch_equals_its_seed_alone",)),
    Mutant("users drawn before agents", SIM,
           "    axy = rng.uniform((r.x_min, r.y_min), (r.x_max, r.y_max), size=(s.num_airbs, 2))\n"
           "    a = s.area\n"
           "    mxy = rng.uniform((a.x_min, a.y_min), (a.x_max, a.y_max), size=(s.num_mus, 2))\n",
           "    a = s.area\n"
           "    mxy = rng.uniform((a.x_min, a.y_min), (a.x_max, a.y_max), size=(s.num_mus, 2))\n"
           "    axy = rng.uniform((r.x_min, r.y_min), (r.x_max, r.y_max), size=(s.num_airbs, 2))\n",
           ANCHOR),
    Mutant("the next iteration's step size", SIM,
           "s.schedule.eta(i)", "s.schedule.eta(i + 1)", ANCHOR),
    Mutant("a dumper that alters one value", SIM,
           "return dataclasses.asdict(s)",
           'return {**dataclasses.asdict(s), "seed": s.seed + 1}',
           ("tests/test_simulator.py::test_scenario_dict_round_trip_bytes",)),
    # the command
    Mutant("the last failing job named", CLI,
           "for job in jobs for record in _phase_one(with_kmeans, [job])]",
           "for job in jobs[::-1] for record in _phase_one(with_kmeans, [job])]",
           ("tests/test_simulator.py::test_first_failing_seed_is_named_in_list_order",)),
    Mutant("the sweep's name check dropped", CLI,
           "if name in named:", "if False:",
           ("tests/test_cli.py::test_bad_override_exits_2_naming_it",)),
    Mutant("the k-means served counts zipped in the wrong order", CLI,
           "inertia.tolist(), served.tolist())", "inertia.tolist(), served.tolist()[::-1])",
           ("tests/test_cli.py::test_kmeans_served_is_the_oracles_count_for_the_centroids",)),
    Mutant("a 64-point coverage grid", CLI,
           "MAP_GRID = 70", "MAP_GRID = 64", ANCHOR),
    # the k-means baseline
    Mutant("a Lloyd loop that ignores MAX_PASSES", KMEANS,
           "    for p in range(MAX_PASSES + 1):\n",
           "    MAX_PASSES = 100\n    for p in range(MAX_PASSES + 1):\n",
           ("tests/test_baseline.py::test_batched_lloyd_is_each_replication_alone_bit_for_bit",)),
    # who is served, in the oracle's count and the map: a power exactly on the target meets it
    Mutant("a user on the target left unserved", UTIL,
           "best_dbm >= p_min_dbm", "best_dbm > p_min_dbm",
           ("tests/test_utility.py::test_oracle_served_count_pinned_cases",
            "tests/test_report.py::test_map_draws_a_user_on_the_power_target_as_served")),
    # the histogram figure's target marker, on each end of HIST_RANGE
    Mutant("no marker for a target on the histogram's low end", REPORT,
           "lo <= p_min_dbm", "lo < p_min_dbm", HIST_FIGURES),
    Mutant("no marker for a target on the histogram's high end", REPORT,
           "p_min_dbm <= hi", "p_min_dbm < hi", HIST_FIGURES),
)


def text_problems(mutants) -> list:
    """One line for each mutant whose text does not occur exactly once in its file."""
    problems = []
    for m in mutants:
        path = ROOT / m.path
        n = path.read_text().count(m.text) if path.is_file() else 0
        if n != 1:
            problems.append(f"{m.name}: its text occurs {n} times in {m.path}, not once")
    return problems


def pytest(copy, tests) -> subprocess.CompletedProcess:
    """``pytest -x`` of ``tests`` in ``copy``, importing the copy's package; no bytecode is
    written, so a restored file is never run from its mutant's cached bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def tail(result, lines=15) -> str:
    return "\n".join("    " + line for line in result.stdout.splitlines()[-lines:])


def main(mutants=MUTANTS) -> int:
    problems = text_problems(mutants)
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=lambda _, names: [
            n for n in names if n.startswith(".") or n == "__pycache__" or n.endswith(".egg-info")])
        tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
        start = time.monotonic()
        unmutated = pytest(copy, tests)
        if unmutated.returncode != 0:
            print(f"the unmutated tests do not pass (pytest status {unmutated.returncode}):")
            print(tail(unmutated))
            return 1
        print(f"unmutated: the {len(tests)} named tests pass ({time.monotonic() - start:.1f} s)")
        survived = 0
        for m in mutants:
            path = copy / m.path
            original = path.read_text()
            path.write_text(original.replace(m.text, m.replacement))
            start = time.monotonic()
            try:
                result = pytest(copy, m.tests)
            finally:
                path.write_text(original)
            took = f"({time.monotonic() - start:.1f} s)"
            # pytest's status 1 is a failed test; any other failure means the tests did not run
            if result.returncode == 1:
                print(f"killed    {m.name} {took}")
            else:
                survived += 1
                verdict = "SURVIVED" if result.returncode == 0 else "NOT RUN "
                print(f"{verdict}  {m.name} {took} (pytest status {result.returncode})")
                print(tail(result))
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
