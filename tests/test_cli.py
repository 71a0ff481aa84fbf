"""Command-line interface: reports, CSV artifacts, exit codes,
reproducibility."""

import csv
import json
import os

import pytest

from minkval import integral_geom
from minkval.cli import load_body, load_spec, main


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    with open(out) as fh:
        return code, json.load(fh)


def test_multipliers_command_and_csv(tmp_path):
    csv_path = tmp_path / "mult.csv"
    code, rep = run(tmp_path, "multipliers", "--n", "3", "--berg", "3",
                    "--kmax", "8", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    k2 = next(r for r in rows if r["k"] == "2")
    assert float(k2["berg_native"]) == -0.5
    assert float(k2["box"]) == -2.0
    assert len(rows) == 9


def test_area_measure_command(tmp_path):
    code, rep = run(tmp_path, "area-measure", "--body", "cube", "--i", "1")
    assert code == 0
    assert rep["total_mass"] == pytest.approx(3 * 3.141592653589793, abs=1e-9)
    assert rep["pass"] is True
    assert rep["arcs"] == 12


def test_evaluate_command(tmp_path):
    code, rep = run(tmp_path, "evaluate", "--spec", "projection_body",
                    "--body", "cube", "--dir", "1,0,0")
    assert code == 0
    assert rep["values"][0] == pytest.approx(1.0, abs=1e-10)


def test_evaluate_crosscheck(tmp_path):
    code, rep = run(tmp_path, "evaluate", "--spec", "mean_width_ball",
                    "--body", "cube", "--dir", "0,0,1", "--crosscheck",
                    "--band", "16")
    assert code == 0
    assert rep["crosscheck_deviation"] < 1e-6


def test_check_valuation_command(tmp_path):
    code, rep = run(tmp_path, "check-valuation", "--spec", "projection_body",
                    "--body", "cube", "--plane", "0,0,1,0.5", "--seed", "5")
    assert code == 0
    assert rep["residual"] < 1e-7


def test_crofton_command(tmp_path):
    code, rep = run(tmp_path, "crofton", "--body", "cube", "--i", "2",
                    "--j", "0", "--N", "20000", "--seed", "7")
    assert code == 0
    assert rep["target"] == pytest.approx(3.0)
    assert abs(rep["z"]) <= 3.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def test_missed_target_with_zero_stderr_writes_null_z(tmp_path):
    # points sampled in the ball about the origin never hit a unit cube
    # 1000 away: estimate 0 with stderr 0 against target 1, so z is infinite
    body = tmp_path / "far_cube.json"
    body.write_text(json.dumps({"dimension": 3, "vertices": [
        [x + 1000.0, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}))
    out = tmp_path / "report.json"
    code = main(["crofton", "--body", str(body), "--i", "3", "--j", "0",
                 "--N", "2000", "--seed", "1", "--out", str(out)])
    rep = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert code == 1
    assert rep["stderr"] == 0.0 and rep["estimate"] != rep["target"]
    assert rep["z"] is None


def test_kinematic_command(tmp_path):
    code, rep = run(tmp_path, "kinematic", "--body", "cube", "--other", "cube",
                    "--j", "0", "--N", "20000", "--seed", "11")
    assert code == 0
    assert rep["target"] == pytest.approx(11.0)


def test_kinematic_hadwiger_command_estimates_the_motions_once(tmp_path, monkeypatch):
    # the report's estimate is the left side of the Hadwiger decomposition
    calls = []
    kinematic_check = integral_geom.kinematic_check

    def counted(*args, **kwargs):
        calls.append(args)
        return kinematic_check(*args, **kwargs)

    monkeypatch.setattr(integral_geom, "kinematic_check", counted)
    code, rep = run(tmp_path, "kinematic", "--body", "cube", "--other", "cube",
                    "--j", "0", "--N", "2000", "--seed", "11", "--hadwiger")
    assert len(calls) == 1
    assert rep["N"] == 2000 and "hadwiger" in rep
    assert rep["hadwiger"]["difference"] == pytest.approx(rep["estimate"] - rep["hadwiger"]["rhs"])


def test_kinematic_valuation_command(tmp_path):
    code, rep = run(tmp_path, "kinematic", "--body", "cube", "--other", "cube",
                    "--spec", "projection_body", "--dir", "0,0,1",
                    "--N", "600", "--seed", "17")
    assert code == 0
    assert rep["consistent_3sigma"] is True
    assert rep["lhs_stderr"] > 0


def test_crofton_mv_command(tmp_path):
    csv_path = tmp_path / "mv.csv"
    code, rep = run(tmp_path, "crofton-mv", "--body", "cube", "--mu", "dirac_pole",
                    "--i", "1", "--j", "1", "--N", "8000", "--seed", "5",
                    "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["0", "2", "3", "4"]
    assert all(set(r) == {"k", "lhs", "rhs", "stderr", "berg_bar"} for r in rows)


def test_lemma52_command(tmp_path):
    code, rep = run(tmp_path, "lemma52", "--n", "3", "--samples", "10",
                    "--seed", "3")
    assert code == 0
    assert rep["max_flux_residual"] <= 1e-8
    assert rep["rejected"] == 0
    assert all(r > 0 for r in rep["ratios"])


def test_seed_mandatory_for_stochastic(tmp_path):
    code, rep = run(tmp_path, "crofton", "--body", "cube", "--i", "1", "--j", "1",
                    "--N", "100")
    assert code == 2
    assert "seed" in rep["error"]


MC_COMMANDS = [
    ["crofton", "--body", "cube", "--i", "1", "--j", "1"],
    ["crofton-mv", "--body", "cube"],
    ["kinematic", "--body", "cube", "--other", "cube"],
]


@pytest.mark.parametrize("argv", MC_COMMANDS)
def test_single_shard_is_an_input_error(tmp_path, argv):
    # one shard has no spread: the stderr would be NaN
    code, rep = run(tmp_path, *argv, "--N", "100", "--seed", "1", "--shards", "1")
    assert code == 2
    assert "--shards" in rep["error"]


@pytest.mark.parametrize("argv", MC_COMMANDS)
def test_fewer_than_two_samples_per_shard_is_an_input_error(tmp_path, argv):
    # empty shards made the estimate and z NaN
    code, rep = run(tmp_path, *argv, "--N", "10", "--seed", "1", "--shards", "20")
    assert code == 2
    assert "--N" in rep["error"]


@pytest.mark.parametrize("argv,flag", [
    (["crofton-mv", "--body", "cube", "--i", "2", "--N", "100", "--seed", "1"], "--i"),
    (["crofton", "--body", "cube", "--i", "4", "--j", "0", "--N", "100", "--seed", "1"], "--i"),
    (["kinematic", "--body", "cube", "--j", "5", "--N", "100", "--seed", "1"], "--j"),
    (["area-measure", "--body", "cube", "--i", "3"], "--i"),
    (["check-valuation", "--spec", "projection_body", "--body", "cube",
      "--plane", "0,0,1,0.5", "--seed", "5", "--num-dirs", "0"], "--num-dirs"),
    (["crofton-mv", "--body", "cube", "--degrees", "40", "--N", "100", "--seed", "1"],
     "--degrees"),
    (["crofton-mv", "--body", "cube", "--degrees", "0,a", "--N", "100", "--seed", "1"],
     "--degrees"),
    (["kinematic", "--body", "cube", "--spec", "projection_body", "--hadwiger",
      "--N", "100", "--seed", "1"], "--hadwiger"),
    (["kinematic", "--body", "cube", "--spec", "projection_body", "--j", "2",
      "--N", "100", "--seed", "1"], "--j"),
])
def test_out_of_range_argument_is_an_input_error(tmp_path, argv, flag):
    # each ended in a traceback, or --hadwiger or --j was silently ignored
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert set(rep) == {"error"} and flag in rep["error"]


@pytest.mark.parametrize("vec", ["0,0,0", "nan,0,1", "1,inf,0"])
def test_zero_or_nonfinite_direction_is_an_input_error(tmp_path, vec):
    code, rep = run(tmp_path, "evaluate", "--spec", "projection_body",
                    "--body", "cube", f"--dir={vec}")
    assert code == 2
    assert "nonzero" in rep["error"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_body_coordinate_is_an_input_error(tmp_path, bad):
    # a NaN vertex ended in a LinAlgError traceback with exit code 1
    body = tmp_path / "bad.json"
    body.write_text('{"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], '
                    f'[0, 0, 1], [1, 1, {bad}]]}}')
    out = tmp_path / "report.json"
    assert main(["area-measure", "--body", str(body), "--i", "0", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert "finite" in rep["error"]


def test_input_error_unknown_body(tmp_path):
    code, rep = run(tmp_path, "evaluate", "--spec", "projection_body",
                    "--body", "nonexistent_body")
    assert code == 2
    assert "error" in rep


def test_reports_are_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["crofton", "--body", "cube", "--i", "2", "--j", "0",
            "--N", "4000", "--seed", "21"]
    main([*argv, "--out", str(a)])
    main([*argv, "--out", str(b)])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_reports_round_trip_as_json(tmp_path):
    out = tmp_path / "r.json"
    main(["multipliers", "--n", "3", "--kmax", "4", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["config"]["command"] == "multipliers"
    again = json.dumps(rep, indent=2, sort_keys=True) + "\n"
    assert again == out.read_text()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "kmax": 4, "berg": 3}))
    code, rep = run(tmp_path, "multipliers", "--config", str(cfg), "--kmax", "6")
    assert code == 0
    assert rep["config"]["kmax"] == 6      # flag wins
    assert rep["config"]["berg"] == 3      # from file
    assert len(rep["rows"]) == 7


def test_data_dir_env_override(tmp_path, monkeypatch):
    body_file = tmp_path / "mybody.json"
    body_file.write_text(json.dumps(
        {"dimension": 3, "vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0],
                                      [0, 0, 2], [2, 2, 0], [2, 0, 2],
                                      [0, 2, 2], [2, 2, 2]]}))
    monkeypatch.setenv("MINKVAL_DATA", str(tmp_path))
    body = load_body("mybody")
    assert body.num_vertices == 8
    assert body.support([1, 0, 0]) == 2.0


def test_packaged_corpus_loads():
    for name in ("cube", "simplex", "octahedron"):
        body = load_body(name)
        assert body.dim == 3
    ball = load_body("ball:2")
    assert ball.num_vertices > 50
    rnd = load_body("random:9")
    assert rnd.dim == 3


def test_load_spec_from_file(tmp_path):
    spec = load_spec("projection_body", kmax=16)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    spec2 = load_spec(str(path), kmax=16)
    assert spec2.n == 3 and spec2.f_top is not None
