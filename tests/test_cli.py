import json
import math

import pytest

from airbs_sgd.channel import ChannelParams
from airbs_sgd.cli import main, replication_seeds
from airbs_sgd.navigator import StepSchedule
from airbs_sgd.simulator import Rect, Scenario, scenario_to_dict
from airbs_sgd.utility import UtilityConfig, UtilityFamily


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("AIRBS_SGD_THREADS", raising=False)


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
], ids=["nan_height", "infinite_area", "misspelled_key"])
def test_bad_scenario_value_names_key(tmp_path, capsys, mutate, key):
    d = small_scenario_dict()
    mutate(d)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))  # writes NaN and Infinity literals, as Python's json reads them
    rc = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err
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
], ids=["negative_seed", "seed_over_64_bits", "sweep_negative_seed", "negative_eta",
        "zero_q", "infinite_q", "nan_alpha", "infinite_delta", "infinite_delta_second"])
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
    assert "q" in capsys.readouterr().err


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


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    scen = write_scenario(tmp_path)
    monkeypatch.setenv("AIRBS_SGD_THREADS", "many")
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "AIRBS_SGD_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("AIRBS_SGD_THREADS", "0")
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out2")])
    assert rc == 2
    assert "AIRBS_SGD_THREADS" in capsys.readouterr().err


def test_replication_seeds_scheme():
    assert replication_seeds(5, 1) == [5]
    s3 = replication_seeds(5, 3)
    assert len(set(s3)) == 3
    assert s3 == replication_seeds(5, 3)
    assert s3[:2] == replication_seeds(5, 2)  # prefix-stable in the count
