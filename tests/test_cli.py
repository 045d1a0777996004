import dataclasses
import errno
import json
import math
import os
import re
import signal
import sys
import traceback
from importlib import resources
from pathlib import Path
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (diverges, extra_user_packets, run_python, runaway_message,
                     runaway_scenario)

from airbs_sgd import cli
from airbs_sgd.channel import ChannelParams, CoincidentPositionsError, received_power_matrix
from airbs_sgd.cli import main, replication_seeds
from airbs_sgd.navigator import StepSchedule
from airbs_sgd.report import coverage_map
from airbs_sgd.simulator import (Rect, Scenario, init_scenario, run, scenario_from_dict,
                                 scenario_to_dict)
from airbs_sgd.utility import Family, UtilityConfig, oracle


def small_scenario_dict(**overrides):
    base = dict(
        area=Rect(0.0, 0.0, 2000.0, 2000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1000.0, 1000.0),
        fixed_height_m=30.0,
        num_mus=10,
        utility=UtilityConfig("threshold_sigmoid_unicast", -112.4, -91.0, 2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=6, eta_scale=1e6),
        iterations=5,
        seed=11,
        channel=ChannelParams(-94.0, 1000.0),
    )
    base.update(overrides)
    return scenario_to_dict(Scenario(**base))


def write_scenario(tmp_path, name="scen.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(small_scenario_dict(**overrides), indent=2) + "\n")
    return path


def test_missing_scenario_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["run", "--scenario", str(missing), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(missing) in err


def test_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert str(bad) in capsys.readouterr().err


def _replacing(old, new):
    """Write the small scenario's file text with ``old``, which it holds once, as ``new``."""
    def make(p):
        text = json.dumps(small_scenario_dict())
        assert text.count(old) == 1
        p.write_text(text.replace(old, new))
    return make


@pytest.mark.parametrize("make, named", [
    (lambda p: p.mkdir(), "Is a directory"),
    (lambda p: p.write_bytes(b"\xff\xfe{"), "not UTF-8 text"),
    (lambda p: p.write_text("[" * 100_000 + "]" * 100_000), "malformed scenario file"),
    # longer than int() reads from text, 4300 digits
    (_replacing('"iterations": 5', '"iterations": ' + "1" * 5001), "malformed scenario file"),
    # json alone would keep the last value and run with it
    (_replacing('"iterations": 5', '"iterations": 5, "iterations": 50'),
     "duplicate key 'iterations'"),
    (_replacing('"eta0": 5.0', '"eta0": 5.0, "eta0": 500.0'),
     "duplicate key 'eta0'"),
], ids=["directory", "not_utf8", "deeply_nested", "long_integer", "duplicate_key",
        "duplicate_nested_key"])
def test_unreadable_scenario_file_exits_2_naming_path(tmp_path, capsys, make, named):
    path = tmp_path / "scen.json"
    make(path)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, out", [
    (["reproduce-paper", "--seeds", "1"], "file"),
    (["run", "--scenario", "SCEN"], "file/sub"),
    (["sweep", "--scenario", "SCEN", "--axis", "eta", "--values", "1,5"], "file"),
], ids=["reproduce_paper", "run_under_a_file", "sweep"])
def test_out_that_is_a_file_exits_2_naming_out(tmp_path, capsys, argv, out):
    scen = write_scenario(tmp_path)
    (tmp_path / "file").write_text("a file\n")
    argv = [str(scen) if a == "SCEN" else a for a in argv]
    rc = main([*argv, "--out", str(tmp_path / out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--out {tmp_path / out}" in err and len(err.splitlines()) == 1
    assert (tmp_path / "file").read_text() == "a file\n"


def test_invalid_scenario_contents(tmp_path, capsys):
    d = small_scenario_dict()
    del d["channel"]
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(d))
    rc = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert str(p) in capsys.readouterr().err


def _rename_eta_scale(d):
    d["schedule"]["eta_scal"] = d["schedule"].pop("eta_scale")


def _overflow_link_budget(d):
    d["tx_powers_dbm"] = [1e308] * len(d["tx_powers_dbm"])
    d["channel"]["ref_gain_db"] = 1e308


def _overflow_margin(key):
    def mutate(d):
        d["tx_powers_dbm"] = [1e308] * len(d["tx_powers_dbm"])
        d["utility"][key] = -1e308
    return mutate


@pytest.mark.parametrize("mutate, key", [
    (lambda d: d.update(fixed_height_m=math.nan), "fixed_height_m"),
    (lambda d: d["area"].update(x_max=math.inf), "area.x_max"),
    (_rename_eta_scale, "eta_scal"),
    (lambda d: d.update(extra_mu_positions=[[0, 0, -5]]),
     "extra_mu_positions[0]: position altitude must be nonnegative"),
    # a nested section's own check is prefixed with the section's path
    (lambda d: d["area"].update(x_min=d["area"]["x_max"] + 1.0), "area: rectangle must have"),
    (lambda d: d["init_region"].update(y_min=d["init_region"]["y_max"] + 1.0),
     "init_region: rectangle must have"),
    (lambda d: d["schedule"].update(eta0=-1.0), "schedule: eta0 must be"),
    # a coordinate whose squared distances could overflow is refused at input
    (lambda d: d["area"].update(x_max=1e300), "area: x_max must be"),
    (lambda d: d["init_region"].update(x_max=1e300), "init_region: x_max must be"),
    (lambda d: d.update(fixed_height_m=1e300), "fixed_height_m must be"),
    (lambda d: d.update(extra_mu_positions=[[1e200, 0, 0]]), "extra_mu_positions[0][0] must be"),
    # each factor of the step size is finite, their product is not
    (lambda d: d["schedule"].update(eta_scale=1e308), "schedule: eta0 * eta_scale must be"),
    # so are a transmitter's power and the channel gain, as link budgets
    (_overflow_link_budget, "tx_powers_dbm[0] + channel.ref_gain_db must be finite"),
    # and so is a link budget's margin over the noise floor and the power target
    (_overflow_margin("noise_dbm"),
     "tx_powers_dbm[0] + channel.ref_gain_db - utility.noise_dbm must be finite"),
    (_overflow_margin("p_min_dbm"),
     "tx_powers_dbm[0] + channel.ref_gain_db - utility.p_min_dbm must be finite"),
    # a separation over a reference distance this small could overflow
    (lambda d: d["channel"].update(ref_distance_m=1e-300),
     "channel: ref_distance_m must be finite and at least 1e-150 m"),
    # so could the soft maximum's ln(B) / alpha at a subnormal temperature
    (lambda d: d["utility"].update(softmax_alpha=5e-324),
     "utility: softmax_alpha must be finite and at least 1e-300, got 5e-324"),
    # and so is the soft maximum's margin over the noise floor at the lowest temperature
    (lambda d: d["utility"].update(family="unicast_rate", softmax_alpha=1e-300,
                                   noise_dbm=-sys.float_info.max),
     "ln(num_airbs) / utility.softmax_alpha - utility.noise_dbm must be finite"),
    # the two closed sets of names
    (lambda d: d["utility"].update(family="unicast"),
     "utility.family must be one of unicast_rate, broadcast_rate, threshold_sigmoid_unicast, "
     "threshold_sigmoid_broadcast"),
    (lambda d: d["schedule"].update(decay="linear"),
     "schedule.decay must be one of constant, harmonic"),
    # an integer too large for a float is refused as inf is
    (lambda d: d["schedule"].update(eta0=10 ** 400), "schedule.eta0 must be a finite number"),
    (lambda d: d.update(extra_mu_positions=[[0, 0, 10 ** 400]]),
     "extra_mu_positions[0][2] must be a finite number"),
], ids=["nan_height", "infinite_area", "misspelled_key", "negative_extra_altitude",
        "inverted_area", "inverted_init_region", "negative_eta0", "far_area",
        "far_init_region", "far_height", "far_extra_user", "overflowing_step_size",
        "overflowing_link_budget", "overflowing_noise_margin", "overflowing_target_margin",
        "tiny_ref_distance", "subnormal_softmax_alpha", "overflowing_soft_maximum_margin",
        "unknown_family", "unknown_decay", "huge_eta0", "huge_extra_altitude"])
def test_bad_scenario_value_names_key(tmp_path, capsys, mutate, key):
    d = small_scenario_dict()
    mutate(d)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))  # writes NaN and Infinity literals, as Python's json reads them
    rc = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_a_channel_tx_power_key_exits_2(tmp_path, capsys):
    # the channel's base power was overridden by tx_powers_dbm and read by nothing;
    # a file that still sets it is refused, not run with the setting ignored
    d = small_scenario_dict()
    d["channel"]["tx_power_dbm"] = 30.0
    p = tmp_path / "old.json"
    p.write_text(json.dumps(d))
    rc = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: invalid scenario in {p}: unknown key(s) in channel: tx_power_dbm\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["run", "--seed", "-1"], "--seed -1"),
    (["run", "--seed", str(2 ** 64)], f"--seed {2 ** 64}"),
    (["sweep", "--seed", "-1", "--axis", "eta", "--values", "1"], "--seed -1"),
    (["sweep", "--axis", "eta", "--values", "-1"], "sweep axis eta"),
    (["sweep", "--axis", "q", "--values", "0"], "sweep axis q"),
    (["sweep", "--axis", "q", "--values", "inf"], "sweep axis q"),
    (["sweep", "--axis", "alpha", "--values", "nan"], "sweep axis alpha"),
    (["sweep", "--axis", "delta", "--values", "inf"], "sweep axis delta"),
    (["sweep", "--axis", "delta", "--values", "2,inf"], "sweep axis delta"),
    (["sweep", "--axis", "eta", "--values", "1e303"], "sweep axis eta"),
    # each value names its directory and CSV cell by its {value:g} form
    (["sweep", "--axis", "eta", "--values", "5.0000001,5.0000002"],
     "sweep values 5.0000001 and 5.0000002 share the name eta_5"),
    (["sweep", "--axis", "eta", "--values", "1,5,5"],
     "sweep values 5.0 and 5.0 share the name eta_5"),
    (["sweep", "--axis", "eta", "--values", "a,b"],
     "error: could not parse --values 'a,b' as numbers\n"),
    (["sweep", "--axis", "eta", "--values", ","],
     "error: --values must list at least one number\n"),
], ids=["negative_seed", "seed_over_64_bits", "sweep_negative_seed", "negative_eta",
        "zero_q", "infinite_q", "nan_alpha", "infinite_delta", "infinite_delta_second",
        "overflowing_eta", "sweep_values_same_name", "sweep_value_repeated",
        "sweep_values_not_numbers", "sweep_values_empty"])
def test_bad_override_exits_2_naming_it(tmp_path, capsys, argv, named):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = main([argv[0], "--scenario", str(scen), *argv[1:], "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    # nothing ran: every value is checked before the first one runs
    assert not list(out.glob("**/rep_000"))


def test_point_area_exits_2_line_area_renders(tmp_path, capsys):
    point = write_scenario(tmp_path, "point.json")
    d = json.loads(point.read_text())
    d["area"] = {"x_min": 500.0, "y_min": 500.0, "x_max": 500.0, "y_max": 500.0}
    point.write_text(json.dumps(d))
    assert main(["run", "--scenario", str(point), "--out", str(tmp_path / "p")]) == 2
    assert "area" in capsys.readouterr().err
    line = write_scenario(tmp_path, "line.json", area=Rect(0.0, 500.0, 2000.0, 500.0))
    assert main(["run", "--scenario", str(line), "--out", str(tmp_path / "l")]) == 0
    assert (tmp_path / "l" / "rep_000" / "map.svg").stat().st_size > 0


@pytest.mark.parametrize("argv, blocker, bundle", [
    (["reproduce-paper", "--seeds", "1"], "rep_000", "rep_000"),
    (["sweep", "--scenario", "SCEN", "--axis", "eta", "--values", "1,5"], "eta_5",
     "eta_5/rep_000"),
], ids=["reproduce_paper", "sweep"])
def test_unwritable_bundle_exits_2_naming_it(tmp_path, capsys, argv, blocker, bundle):
    # a file where a bundle directory goes
    scen, out = write_scenario(tmp_path), tmp_path / "out"
    out.mkdir()
    (out / blocker).write_text("a file\n")
    rc = main([str(scen) if a == "SCEN" else a for a in argv] + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: replication with seed ") and len(err.splitlines()) == 1
    assert "cannot write the bundle" in err and f"(bundle {out / bundle})" in err
    assert (out / blocker).read_text() == "a file\n"


@pytest.mark.parametrize("cores", [1, 2])
def test_a_taken_bundle_name_fails_before_any_bundle_is_written(tmp_path, capsys, monkeypatch,
                                                                cores):
    # eta_1 comes first and could be written; the file named eta_5 stops the command first
    scen, out = write_scenario(tmp_path), tmp_path / "out"
    out.mkdir()
    (out / "eta_5").write_text("a file\n")
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    rc = main(["sweep", "--scenario", str(scen), "--axis", "eta", "--values", "1,5",
               "--out", str(out)])
    assert rc == 2
    seed = replication_seeds(11, 1)[0]
    assert capsys.readouterr().err == (
        f"error: replication with seed {seed} failed: cannot write the bundle: "
        f"{os.strerror(errno.ENOTDIR)} (bundle {out / 'eta_5' / 'rep_000'})\n")
    assert [p for p in out.rglob("*") if p.is_file()] == [out / "eta_5"]


# the core counts, each at the default batch bound and with every job advancing alone
GROUPINGS = pytest.mark.parametrize("cores, pairs", [
    (1, cli.BATCH_PAIRS), (3, cli.BATCH_PAIRS), (1, 1), (3, 1)],
    ids=["1", "3", "1-alone", "3-alone"])


@GROUPINGS
def test_a_grid_point_on_an_agent_fails_before_any_bundle_is_written(tmp_path, capsys,
                                                                     monkeypatch, cores, pairs):
    # agents start, and stay, on the ground within 0.12 m of the grid point (0, 0): a
    # replication fails where one is within the 0.1 m guard of it, and the first
    # replication that does not is written first at no grouping
    grid = Rect(0.0, 0.0, 690.0, 690.0)  # grid points every 10 m
    base = dataclasses.replace(scenario_from_dict(small_scenario_dict()), area=grid,
                               init_region=Rect(0.0, 0.0, 0.12, 0.12), fixed_height_m=0.0,
                               iterations=0)

    def grid_error(s, seed):
        try:
            coverage_map(init_scenario(s, seed)[0], grid, cli.MAP_GRID, s.budget_dbm)
        except CoincidentPositionsError as e:
            return e

    for master in range(100):
        seeds = replication_seeds(master, 3)
        errors = [grid_error(base, seed) for seed in seeds]
        if errors[0] is None and any(errors):
            break
    first = next(r for r, e in enumerate(errors) if e)
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(base, seed=master))))
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "BATCH_PAIRS", pairs)
    rc = main(["run", "--scenario", str(scen), "--replications", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: replication with seed {seeds[first]} failed: {errors[first]} "
        f"(bundle {out / f'rep_{first:03d}'})\n")
    assert [p.name for p in out.rglob("*") if p.is_file()] == ["effective_config.json"]


@GROUPINGS
def test_an_earlier_grid_failure_is_named_before_a_later_divergence(tmp_path, capsys,
                                                                   monkeypatch, cores, pairs):
    # the runaway agent 5 cm above the grid point (0, 0): a replication that hears
    # the extra user is flung, one that does not stays on that grid point
    s = runaway_scenario()
    extra = s.extra_mu_positions[0]
    p_extra = float(received_power_matrix([[0.0, 0.0, 0.05]], s.budget_dbm, [extra])[0, 0])
    s = dataclasses.replace(s, area=Rect(0.0, 0.0, 6900.0, 6900.0),
                            init_region=Rect(0.0, 0.0, 0.0, 0.0), fixed_height_m=0.05,
                            utility=dataclasses.replace(s.utility, p_min_dbm=p_extra - 0.25))
    for master in range(100):
        seeds = replication_seeds(master, 3)
        flung = [any(extra_user_packets(s, seed)) for seed in seeds]
        if not flung[0] and any(flung):
            break
    log = run(dataclasses.replace(s, seed=seeds[0]))
    with pytest.raises(CoincidentPositionsError) as grid:
        coverage_map(log.positions[-1], s.area, cli.MAP_GRID, s.budget_dbm)
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(s, seed=master))))
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "BATCH_PAIRS", pairs)
    rc = main(["run", "--scenario", str(scen), "--replications", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: replication with seed {seeds[0]} failed: "
                                       f"{grid.value} (bundle {out / 'rep_000'})\n")
    assert [p.name for p in out.rglob("*") if p.is_file()] == ["effective_config.json"]


def test_batches_of_one_run_the_kmeans_program_once_per_replication(tmp_path, capsys,
                                                                   monkeypatch):
    calls, kmeans = [], cli.kmeans_replications

    def recording_kmeans(users, num_clusters, seeds, **kwargs):
        calls.append(list(seeds))
        return kmeans(users, num_clusters, seeds, **kwargs)

    monkeypatch.setattr(cli, "kmeans_replications", recording_kmeans)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    seeds = replication_seeds(cli.reference_scenario().seed, 3)
    argv = ["reproduce-paper", "--seeds", "3", "--baseline", "kmeans", "--out"]
    assert main(argv + [str(tmp_path / "batch")]) == 0
    assert calls == [seeds]
    printed = capsys.readouterr().out
    calls.clear()
    monkeypatch.setattr(cli, "BATCH_PAIRS", 1)
    assert main(argv + [str(tmp_path / "alone")]) == 0
    assert calls == [[seed] for seed in seeds]
    assert capsys.readouterr().out == printed
    assert _files(tmp_path / "alone") == _files(tmp_path / "batch")


@pytest.mark.parametrize("argv, name", [
    (["run"], "effective_config.json"),
    (["run"], "summary.json"),
    (["sweep", "--axis", "eta", "--values", "1,5"], "sweep.csv"),
], ids=["effective_config", "summary", "sweep_csv"])
def test_unwritable_command_file_exits_2_naming_it(tmp_path, capsys, argv, name):
    # a directory where one of the command's own files goes
    scen, out = write_scenario(tmp_path), tmp_path / "out"
    (out / name).mkdir(parents=True)
    rc = main(argv + ["--scenario", str(scen), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: cannot write {out / name}: "
                                       f"{os.strerror(errno.EISDIR)}\n")


@pytest.mark.parametrize("cores", [1, 2])
def test_sweep_stops_before_any_bundle_when_a_value_diverges(tmp_path, capsys, monkeypatch,
                                                             cores):
    # eta 0 holds the agent still; eta 1 flings it on the first packet
    s = runaway_scenario()
    seed = next(seed for seed in range(100) if diverges(s, seed))
    s = dataclasses.replace(s, seed=seed)
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(scenario_to_dict(s)))
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    rc = main(["sweep", "--scenario", str(scen), "--axis", "eta", "--values", "0,1",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == runaway_message(s, seed, out / "eta_1" / "rep_000")
    assert not any(out.iterdir())


def test_diverging_run_exits_2(tmp_path, capsys):
    s = runaway_scenario()
    seed = next(seed for seed in range(100) if diverges(s, seed))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario_to_dict(dataclasses.replace(s, seed=seed))))
    with np.errstate(all="ignore"):  # the flung agent's powers are -inf dBm
        rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"seed {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("family", get_args(Family))
def test_every_family_handles_a_huge_link_budget(tmp_path, family):
    # 1e4 dBm is a finite power whose SNR in linear units overflows every float;
    # the suite turns any overflow warning into a failure
    ref = json.loads(resources.files("airbs_sgd").joinpath("scenarios/reference.json").read_text())
    d = dict(ref, iterations=2, num_mus=20, tx_powers_dbm=[1e4] * ref["num_airbs"],
             utility=dict(ref["utility"], family=family))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(d))
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 0
    log = run(scenario_from_dict(d))
    for logged in (log.positions, log.oracle_utility, log.max_power_dbm):
        assert np.all(np.isfinite(logged))


@pytest.mark.parametrize("key, size", [("iterations", 2 ** 55), ("iterations", 2 ** 62),
                                       ("num_mus", 2 ** 55)],
                         ids=["iterations_2_55", "iterations_2_62", "num_mus_2_55"])
def test_an_oversized_scenario_exits_2(tmp_path, capsys, key, size):
    # each needs 2**57 bytes or more, beyond any address space, so its first
    # allocation fails at once: a MemoryError, or numpy's ValueError for an array
    # too big to index. Only the snapshots of 2**55 or 2**62 iterations get as far
    # as phase 1, and fail its one job; the users' uniform shares fail the load
    ref = json.loads(resources.files("airbs_sgd").joinpath("scenarios/reference.json").read_text())
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    scen.write_text(json.dumps(dict(ref, **{key: size})))
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    named = f"(bundle {out / 'rep_000'})" if key == "iterations" else f"invalid scenario in {scen}"
    assert named in err and len(err.splitlines()) == 1
    assert not list(out.glob("rep_*"))


def test_run_repeat_byte_identical(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--scenario", str(scen), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(scen), "--seed", "7", "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "metrics.json", "coverage.csv"):
        assert (out1 / "rep_000" / name).read_bytes() == (out2 / "rep_000" / name).read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_run_replications_output(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scen), "--replications", "3",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rep_lines = [l for l in lines if l.startswith("rep ")]
    assert len(rep_lines) == 3
    assert any(l.startswith("median over 3 replications") for l in lines)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 3
    assert len(summary["results"]) == 3
    assert {r["seed"] for r in summary["results"]} == set(replication_seeds(11, 3))
    for r in range(3):
        assert (out / f"rep_{r:03d}" / "trajectory.csv").is_file()


def test_effective_config_round_trip(tmp_path):
    scen = write_scenario(tmp_path)
    out1 = tmp_path / "o1"
    assert main(["run", "--scenario", str(scen), "--out", str(out1)]) == 0
    cfg = out1 / "effective_config.json"
    assert cfg.is_file()
    out2 = tmp_path / "o2"
    assert main(["run", "--scenario", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "rep_000" / "trajectory.csv").read_bytes() == \
        (out2 / "rep_000" / "trajectory.csv").read_bytes()


def test_seed_override_recorded(tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scen), "--seed", "99", "--out", str(out)]) == 0
    cfg = json.loads((out / "effective_config.json").read_text())
    assert cfg["seed"] == 99
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"][0]["seed"] == 99


def test_sweep_single_value_matches_run(tmp_path):
    scen = write_scenario(tmp_path)
    run_out = tmp_path / "run_out"
    sweep_out = tmp_path / "sweep_out"
    assert main(["run", "--scenario", str(scen), "--out", str(run_out)]) == 0
    assert main(["sweep", "--scenario", str(scen), "--axis", "eta",
                 "--values", "5", "--out", str(sweep_out)]) == 0
    assert (run_out / "rep_000" / "trajectory.csv").read_bytes() == \
        (sweep_out / "eta_5" / "rep_000" / "trajectory.csv").read_bytes()


def test_sweep_csv_rows(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scen), "--axis", "eta",
                 "--values", "1,5,25", "--replications", "2", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("axis,value,replication,seed,served,total,"
                       "served_fraction,final_oracle_utility")
    assert len(lines) == 1 + 3 * 2
    assert all(l.startswith("eta,") for l in lines[1:])
    printed = capsys.readouterr().out
    assert printed.count("median served") == 3
    for v in ("1", "5", "25"):
        assert (out / f"eta_{v}" / "rep_000" / "metrics.json").is_file()


def test_a_sweep_records_each_values_scenario(tmp_path):
    scen, out = write_scenario(tmp_path), tmp_path / "out"
    assert main(["sweep", "--scenario", str(scen), "--axis", "q", "--values", "2,5",
                 "--replications", "2", "--out", str(out)]) == 0
    base = cli.load_scenario_file(str(scen))
    for value in (2.0, 5.0):
        d = json.loads((out / f"q_{value:g}" / "effective_config.json").read_text())
        assert scenario_from_dict(d) == cli._apply_axis(base, "q", value)
    # the sweep's own directory holds no scenario of its own
    assert sorted(p.name for p in out.iterdir()) == ["q_2", "q_5", "sweep.csv"]


def test_sweep_unknown_axis(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    rc = main(["sweep", "--scenario", str(scen), "--axis", "height",
               "--values", "10", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "height" in capsys.readouterr().err


def test_sweep_non_integer_q(tmp_path, capsys):
    scen = write_scenario(tmp_path)
    rc = main(["sweep", "--scenario", str(scen), "--axis", "q",
               "--values", "2.5", "--out", str(tmp_path / "out")])
    assert rc == 2
    # a sweep value gets the checks and the messages of the same key in a file
    assert ("sweep axis q value 2.5: schedule.minibatch_size must be an integer, got 2.5"
            in capsys.readouterr().err)


# only counts of 2**63 and more: should the check let one through, numpy and
# tuple repetition still refuse it before allocating, where a moderately large
# count would try to allocate; replication seeds are drawn one at a time, so
# drawing any fails at once rather than running on
@pytest.mark.parametrize("argv, key", [
    (["run"], "num_airbs"),
    (["run"], "num_mus"),
    (["run"], "iterations"),
    (["run"], "minibatch_size"),
    (["sweep", "--axis", "q", "--values", "1e300"], "minibatch_size"),
    (["run", "--replications", str(2 ** 63)], "--replications"),
    (["sweep", "--axis", "eta", "--values", "1", "--replications", str(2 ** 63)],
     "--replications"),
    (["reproduce-paper", "--seeds", str(2 ** 63)], "--seeds"),
], ids=["num_airbs", "num_mus", "iterations", "minibatch_size", "sweep_q",
        "run_replications", "sweep_replications", "seeds"])
def test_count_too_large_to_index_exits_2(tmp_path, capsys, monkeypatch, argv, key):
    def no_seeds(*args):
        raise AssertionError("replication seeds drawn for an unchecked count")

    monkeypatch.setattr(cli, "replication_seeds", no_seeds)
    d = dict(small_scenario_dict(), traffic=None)
    if argv == ["run"]:
        (d["schedule"] if key == "minibatch_size" else d)[key] = 1e300
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(d))
    out = tmp_path / "out"
    scenario = [] if argv[0] == "reproduce-paper" else ["--scenario", str(p)]
    assert main([argv[0], *scenario, *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be below 2**63" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--scenario", "SCEN", "--replications", "0"], "--replications"),
    (["reproduce-paper", "--seeds", "0"], "--seeds"),
], ids=["run_replications", "seeds"])
def test_a_count_below_1_exits_2(tmp_path, capsys, argv, flag):
    scen, out = write_scenario(tmp_path), tmp_path / "out"
    argv = [str(scen) if a == "SCEN" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least 1\n"
    assert not out.exists()


def key_paths(value, path=""):
    """Every key path below ``value``, dotted, with list indices in brackets."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        sub = f"{path}[{k}]" if isinstance(k, int) else (f"{path}.{k}" if path else k)
        yield sub, v
        yield from key_paths(v, sub)


def test_every_bad_value_names_its_key_path(tmp_path, capsys):
    s = dataclasses.replace(cli.reference_scenario(), num_mus=20, traffic=None)
    ref = json.loads(json.dumps(scenario_to_dict(s)))
    paths = [path for path, _ in key_paths(ref)]
    assert "traffic.pi[21]" in paths and "extra_mu_positions[1][2]" in paths
    p, out = tmp_path / "bad.json", tmp_path / "out"
    for path in paths:
        for bad in (math.nan, "text"):
            d = json.loads(json.dumps(ref))
            *parents, last = re.findall(r"\w+", path)
            holder = d
            for k in parents:
                holder = holder[int(k) if k.isdigit() else k]
            holder[int(last) if last.isdigit() else last] = bad
            p.write_text(json.dumps(d))
            assert main(["run", "--scenario", str(p), "--out", str(out)]) == 2, (path, bad)
            assert f"{path} " in capsys.readouterr().err, (path, bad)
    assert not out.exists()


def test_sweep_zero_step_is_fixed_point(tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scen), "--axis", "eta",
                 "--values", "0", "--out", str(out)]) == 0
    metrics = json.loads((out / "eta_0" / "rep_000" / "metrics.json").read_text())
    assert metrics["initial"] == metrics["final"]


def test_reproduce_paper_single_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce-paper", "--seeds", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "reference result: 198/202 served" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 1
    assert summary["results"][0]["total"] == 202
    assert (out / "rep_000" / "map.svg").is_file()


def test_kmeans_served_is_the_oracles_count_for_the_centroids(paper_batch):
    s = cli.reference_scenario()
    for r, res in enumerate(paper_batch.summary["results"]):
        km = json.loads((paper_batch.out / f"rep_{r:03d}" / "kmeans.json").read_text())
        users = init_scenario(s, res["seed"])[1]
        served = oracle(np.array(km["centroids"]), users, s.traffic.as_array(), s.utility,
                        s.budget_dbm)[1]
        assert (km["served"], km["unserved"]) == (served, res["total"] - served)
        assert res["kmeans_unserved"] == km["unserved"]


def test_replication_seeds_scheme():
    assert replication_seeds(5, 1) == [5]
    s3 = replication_seeds(5, 3)
    assert len(set(s3)) == 3
    assert s3 == replication_seeds(5, 3)
    assert s3[:2] == replication_seeds(5, 2)  # prefix-stable in the count


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; every command pays for what the CLI imports
    # nor the process pool: a command on one core forks nothing
    proc = run_python("-c", "import airbs_sgd.cli, sys; assert not "
                      "{'scipy', 'multiprocessing', 'concurrent.futures'} & set(sys.modules)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("user", [None, "2"], ids=["unset", "set"])
def test_the_package_runs_blas_on_one_thread_unless_the_user_set_a_count(monkeypatch, user):
    # the package sets each count before numpy starts its BLAS threads; a count the
    # user set wins
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    env = {} if user is None else {names[0]: user}
    want = [user or "1", "1", "1"]
    threads = "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc') else 0)"
    proc = run_python("-c", f"import os, airbs_sgd; print(*(os.environ[k] for k in {names!r}))"
                      f"; {threads}", env=env)
    assert proc.returncode == 0, proc.stderr
    got, count = proc.stdout.splitlines()
    assert got.split() == want
    # as many threads as numpy starts with each count set before it is imported
    proc = run_python("-c", f"import os, numpy; {threads}", env=dict(zip(names, want)))
    assert proc.stdout == f"{count}\n"


def test_a_command_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma, 16 ms of every command
    proc = run_python("-c", "import sys; from airbs_sgd.cli import main; "
                      f"main(['reproduce-paper', '--seeds', '3', '--out', {str(tmp_path)!r}]); "
                      "assert 'numpy.ma' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


# stdout block-buffered, as it is at a pipe or file unless PYTHONUNBUFFERED is set:
# what the command printed reaches its reader only if it is flushed before the exit
BUFFERED = {"PYTHONUNBUFFERED": ""}


def _files(root):
    """Every file under ``root``, by its path relative to it, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _script_call():
    """``python -c`` code that calls the ``airbs-sgd`` script's function, named in
    pyproject.toml, as the generated console script does."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^airbs-sgd = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import sys; from {module} import {func}; sys.exit({func}())"


@pytest.mark.parametrize("launch", [["-m", "airbs_sgd.cli"], ["-c", _script_call()]],
                         ids=["module", "script"])
def test_a_command_in_a_fresh_interpreter_writes_what_main_writes(tmp_path, capsys, launch):
    # the command ends without tearing the interpreter down, after flushing stdout
    scen = write_scenario(tmp_path)
    argv = ["run", "--scenario", str(scen), "--replications", "2"]
    assert main(argv + ["--out", str(tmp_path / "main")]) == 0
    printed = capsys.readouterr().out
    proc = run_python(*launch, *argv, "--out", str(tmp_path / "fresh"), env=BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed and len(printed.splitlines()) == 3
    assert _files(tmp_path / "fresh") == _files(tmp_path / "main")


def test_an_exit_2_error_prints_its_whole_line_in_a_fresh_interpreter(tmp_path, capsys):
    argv = ["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    printed = capsys.readouterr().err
    assert printed.startswith("error: cannot read scenario file ") and printed.endswith("\n")
    proc = run_python("-m", "airbs_sgd.cli", *argv, env=BUFFERED)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", printed)


# how a fresh interpreter installs each kind of watcher before the command runs
WATCHERS = {"plain": "", "traced": "sys.settrace(lambda *args: None)\n",
            "monitored": "sys.monitoring.use_tool_id(sys.monitoring.COVERAGE_ID, 'probe')\n"}


@pytest.mark.parametrize("watcher", [
    "plain", "traced",
    pytest.param("monitored", marks=pytest.mark.skipif(
        sys.version_info < (3, 12), reason="sys.monitoring is new in Python 3.12")),
])
def test_a_command_skips_interpreter_teardown_unless_traced(tmp_path, watcher):
    # os._exit runs no atexit handler, and coverage writes its data in one: under a
    # tracer, a profiler or a sys.monitoring tool the command exits through sys.exit
    code = ("import atexit, sys\n" + WATCHERS[watcher]
            + "atexit.register(print, 'atexit handlers ran')\n"
            "from airbs_sgd.cli import run_and_exit\nrun_and_exit()\n")
    proc = run_python("-c", code, "run", "--scenario", str(write_scenario(tmp_path)),
                      "--out", str(tmp_path / "out"), env=BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("rep 000 seed 11: served ")
    assert proc.stdout.endswith("atexit handlers ran\n") == (watcher != "plain")


def test_a_profiled_command_still_prints_the_profile(tmp_path):
    proc = run_python("-m", "cProfile", "-m", "airbs_sgd.cli", "run", "--scenario",
                      str(write_scenario(tmp_path)), "--replications", "2",
                      "--out", str(tmp_path / "out"), env=BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("rep 000 seed ")
    assert "function calls" in proc.stdout and "ncalls  tottime  percall" in proc.stdout
    assert sorted(p.name for p in (tmp_path / "out").glob("rep_*")) == ["rep_000", "rep_001"]


@pytest.mark.parametrize("env", [BUFFERED, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path, env):
    # buffered, the final flush meets the closed pipe; unbuffered, the first print
    # does. Either way every file is written first, summary.json included
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_python("-m", "airbs_sgd.cli", "run", "--scenario",
                          str(write_scenario(tmp_path)), "--replications", "2",
                          "--out", str(tmp_path / "out"), env=env, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert (tmp_path / "out" / "summary.json").is_file()
    assert sorted(p.name for p in (tmp_path / "out").glob("rep_*/map.svg")) == ["map.svg"] * 2


def test_help_on_a_closed_stdout_pipe_exits_1_without_a_traceback():
    # buffered, argparse's SystemExit(0) comes first, then the final flush meets the
    # closed pipe; unbuffered, the help's own write does, which argparse would swallow
    for env in (BUFFERED, {"PYTHONUNBUFFERED": "1"}):
        for argv in (["--help"], ["run", "--help"]):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = run_python("-m", "airbs_sgd.cli", *argv, env=env, stdout=write)
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (1, ""), (env, argv)


@pytest.mark.parametrize("env", [BUFFERED, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stderr_pipe_keeps_the_exit_status(tmp_path, env):
    # the diagnostic cannot be read, but a missing scenario file still exits 2, and
    # so does a usage error (no --scenario), which argparse reports by SystemExit(2)
    for argv in (["--scenario", str(tmp_path / "missing.json")], []):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_python("-m", "airbs_sgd.cli", "run", *argv, "--out",
                              str(tmp_path / "out"), env=env, stderr=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert not (tmp_path / "out").exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.integers(0, 10**6), min_size=1, max_size=9),
                 st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=9)))
def test_median_is_numpys_bit_for_bit(values):
    assert cli._median(values).hex() == float(np.median(values)).hex()


@pytest.mark.parametrize("cores, forks", [(1, 0), (2, 1)])
def test_one_core_runs_in_process_and_more_fork_one_worker_per_group(tmp_path, monkeypatch,
                                                                     cores, forks):
    forked, fork = [], os.fork

    def counting_fork():
        forked.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scen), "--replications", "3",
                 "--out", str(out)]) == 0
    assert len(forked) == forks
    assert sorted(p.name for p in out.glob("rep_*")) == ["rep_000", "rep_001", "rep_002"]
    # a sweep's values share the command's own group and one worker per other group too
    forked.clear()
    assert main(["sweep", "--scenario", str(scen), "--axis", "eta", "--values", "1,5,25",
                 "--replications", "3", "--out", str(tmp_path / "sweep")]) == 0
    assert len(forked) == forks
    assert len(list((tmp_path / "sweep").glob("eta_*/rep_*"))) == 9


def test_a_command_on_two_cores_loads_no_process_pool(tmp_path):
    # its workers come from os.fork and report on os.pipe
    scen, out = write_scenario(tmp_path), tmp_path / "out"
    argv = ["run", "--scenario", str(scen), "--replications", "2", "--out", str(out)]
    proc = run_python("-c", "import sys; from airbs_sgd import cli; "
                      f"cli._usable_cores = lambda: 2; assert cli.main({argv!r}) == 0; "
                      "assert not {'multiprocessing', 'concurrent.futures'} & set(sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.glob("rep_*")) == ["rep_000", "rep_001"]


@pytest.mark.parametrize("phase, cores, end, how", [
    ("_advance_group", 2, lambda: os._exit(3), "exit status 3"),
    ("_advance_group", 3, lambda: os._exit(3), "exit status 3"),
    ("_advance_group", 2, lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ("_finish_group", 3, lambda: os._exit(4), "exit status 4"),
], ids=["phase1-2", "phase1-3", "phase1-killed", "phase2-3"])
def test_a_worker_that_ends_without_a_report_fails_the_command(tmp_path, capsys, monkeypatch,
                                                               phase, cores, end, how):
    parent = os.getpid()
    scen, out = write_scenario(tmp_path), tmp_path / "out"

    def die(*args):
        # only forked workers die; the command runs the first group, and writes nothing
        if os.getpid() == parent:
            jobs = args[1] if phase == "_advance_group" else args[0]
            assert jobs[0][2] == str(out / "rep_000"), "a later group ran in-process"
            return None
        end()

    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, phase, die)
    rc = main(["run", "--scenario", str(scen), "--replications", "3", "--out", str(out)])
    assert rc == 1
    # the first forked group's worker is read first
    assert capsys.readouterr().err == (f"error: the worker of the group from bundle "
                                       f"{out / 'rep_001'} ended without a report: {how}\n")
    assert [p.name for p in out.rglob("*") if p.is_file()] == ["effective_config.json"]


def test_an_unexpected_worker_error_keeps_its_worker_traceback(tmp_path, monkeypatch):
    # the command writes the first group's bundles itself; only the forked worker fails
    parent, simulate_one = os.getpid(), cli._simulate_one

    def divide(*args):
        return simulate_one(*args) if os.getpid() == parent else 1 / 0

    scen = write_scenario(tmp_path)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(cli, "_simulate_one", divide)
    with pytest.raises(ZeroDivisionError) as e:
        main(["run", "--scenario", str(scen), "--replications", "3",
              "--out", str(tmp_path / "out")])
    text = "".join(traceback.format_exception(e.value))
    assert "in _finish_group\n" in text and "in divide\n" in text
    assert isinstance(e.value.__cause__, cli._RemoteTraceback)
