import dataclasses
import json
import math
import re

import pytest

from helpers import run_python

from airbs_sgd import cli
from airbs_sgd.channel import ChannelParams
from airbs_sgd.cli import main, replication_seeds
from airbs_sgd.navigator import StepSchedule
from airbs_sgd.simulator import Rect, Scenario, scenario_to_dict
from airbs_sgd.utility import UtilityConfig, UtilityFamily


def small_scenario_dict(**overrides):
    base = dict(
        area=Rect(0.0, 0.0, 2000.0, 2000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1000.0, 1000.0),
        fixed_height_m=30.0,
        num_mus=10,
        utility=UtilityConfig(UtilityFamily.THRESHOLD_SIGMOID_UNICAST, -112.4, -91.0, 2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=6, eta_scale=1e6),
        iterations=5,
        seed=11,
        channel=ChannelParams(-94.0, 1000.0, 0.0),
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
], ids=["nan_height", "infinite_area", "misspelled_key", "negative_extra_altitude",
        "inverted_area", "inverted_init_region", "negative_eta0", "far_area",
        "far_init_region", "far_height", "far_extra_user"])
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
    # each value names its directory and CSV cell by its {value:g} form
    (["sweep", "--axis", "eta", "--values", "5.0000001,5.0000002"],
     "sweep values 5.0000001 and 5.0000002 share the name eta_5"),
    (["sweep", "--axis", "eta", "--values", "1,5,5"],
     "sweep values 5.0 and 5.0 share the name eta_5"),
], ids=["negative_seed", "seed_over_64_bits", "sweep_negative_seed", "negative_eta",
        "zero_q", "infinite_q", "nan_alpha", "infinite_delta", "infinite_delta_second",
        "sweep_values_same_name", "sweep_value_repeated"])
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


def test_diverging_run_exits_2(tmp_path, capsys):
    scen = write_scenario(tmp_path, schedule=StepSchedule(eta0=5.0, minibatch_size=6,
                                                          eta_scale=1e308))
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed 11" in capsys.readouterr().err


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
# count would try to allocate
@pytest.mark.parametrize("argv, key", [
    (["run"], "num_airbs"),
    (["run"], "num_mus"),
    (["run"], "iterations"),
    (["run"], "minibatch_size"),
    (["sweep", "--axis", "q", "--values", "1e300"], "minibatch_size"),
], ids=["num_airbs", "num_mus", "iterations", "minibatch_size", "sweep_q"])
def test_count_too_large_to_index_exits_2(tmp_path, capsys, argv, key):
    d = dict(small_scenario_dict(), traffic=None)
    if argv == ["run"]:
        (d["schedule"] if key == "minibatch_size" else d)[key] = 1e300
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main([argv[0], "--scenario", str(p), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be below 2**63" in err
    assert "Traceback" not in err
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


@pytest.mark.parametrize("cores, pools", [(1, []), (2, [2])])
def test_one_core_runs_in_process_and_more_share_one_pool(tmp_path, monkeypatch, cores, pools):
    import concurrent.futures

    built = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scen), "--replications", "3",
                 "--out", str(out)]) == 0
    assert built == pools
    assert sorted(p.name for p in out.glob("rep_*")) == ["rep_000", "rep_001", "rep_002"]
