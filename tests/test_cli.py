"""Command-line interface: reports, CSV artifacts, exit codes,
reproducibility."""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

import minkval
from minkval import convex, integral_geom, valuation
from minkval.cli import load_body, load_spec, main
from minkval.valuation import MinkowskiValuationSpec, builtin_spec
from minkval.zonal import ZonalObject


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


def test_area_measure_of_a_thin_slab_tiles_the_sphere(tmp_path):
    # a slab 1e-8 thick: the fan of facet normals about their sum, which
    # meet nearly antipodal at its rim, left a residual of 5.5e-3 and exit 1
    body = tmp_path / "slab.json"
    points = np.random.default_rng(0).standard_normal((40, 3)) * [1.0, 1.0, 1e-8]
    body.write_text(json.dumps({"dimension": 3, "vertices": points.tolist()}))
    code, rep = run(tmp_path, "area-measure", "--body", str(body), "--i", "0")
    assert code == 0 and rep["pass"] is True
    assert rep["residual"] <= 1e-14


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


@pytest.mark.parametrize("path", ["auto", "pointwise", "spectral"])
def test_crosscheck_evaluates_each_path_once(tmp_path, monkeypatch, path):
    # the path already run is reused for its side of the comparison, and
    # the report is the one of both paths evaluated afresh
    calls = []
    evaluate = valuation.evaluate
    monkeypatch.setattr(valuation, "evaluate",
                        lambda *args, **kw: calls.append(kw["path"]) or evaluate(*args, **kw))
    dirs = [[0.0, 0.6, 0.8], [0.36, -0.48, 0.8]]
    code, rep = run(tmp_path, "evaluate", "--spec", "projection_body", "--body", "cube",
                    "--dir=0,0.6,0.8", "--dir=0.36,-0.48,0.8", "--path", path, "--crosscheck")
    assert code == 0 and len(calls) == 2
    spec, body = builtin_spec("projection_body"), convex.cube()
    a = evaluate(spec, body, dirs, path="pointwise")
    b = evaluate(spec, body, dirs, path="spectral")
    assert rep["values"] == (b if path == "spectral" else a).values.tolist()
    assert rep["crosscheck_deviation"] == float(max(abs(a.values - b.values)))
    scale = float(max(abs(a.values) + abs(b.values)))
    assert rep["crosscheck_tolerance"] == b.truncation_tail + 1e-6 * scale


def test_check_valuation_command(tmp_path):
    code, rep = run(tmp_path, "check-valuation", "--spec", "projection_body",
                    "--body", "cube", "--plane", "0,0,1,0.5", "--seed", "5")
    assert code == 0
    assert rep["residual"] < 1e-7


@pytest.mark.parametrize("spec", ["projection_body", "mean_section:2"])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_check_valuation_gate_is_relative_to_the_body(tmp_path, spec, scale):
    # the residual is the rounding of values of size scale^2: an absolute
    # --tol failed the split at 1e6 (residual 1.5e-3) and passed any
    # residual below 1e-6 at 1e-6
    body = tmp_path / "hull.json"
    body.write_text(json.dumps(convex.random_hull(42, 14, scale=scale).to_json()))
    code, rep = run(tmp_path, "check-valuation", "--spec", spec, "--body", str(body),
                    f"--plane=0.3,-0.5,0.81,{0.1 * scale!r}", "--seed", "1")
    assert code == 0 and rep["pass"] is True and rep["reason"] == ""
    assert 0.0 < rep["residual"] <= 1e-12 * rep["scale"]
    code, rep = run(tmp_path, "check-valuation", "--spec", spec, "--body", str(body),
                    f"--plane=0.3,-0.5,0.81,{0.1 * scale!r}", "--seed", "1",
                    "--tol", repr(0.5 * rep["residual"] / rep["scale"]))
    assert code == 1 and rep["pass"] is False


def test_crofton_command(tmp_path):
    code, rep = run(tmp_path, "crofton", "--body", "cube", "--i", "2",
                    "--j", "0", "--N", "20000", "--seed", "7")
    assert code == 0
    assert rep["target"] == pytest.approx(3.0)
    assert abs(rep["z"]) <= 3.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def test_missed_target_with_zero_stderr_writes_null_z(tmp_path, monkeypatch):
    # an estimate 0 with stderr 0 against target 1 (as points drawn about the
    # origin gave for a cube far from it): z is infinite, the report writes
    # null and the run fails
    missed = integral_geom.EstimateReport(estimate=0.0, stderr=0.0, target=1.0, n_samples=2000, seed=1)
    assert missed.to_json()["z"] is None and not missed.within(3.0)
    monkeypatch.setattr(integral_geom, "crofton_intrinsic", lambda *args, **kwargs: missed)
    out = tmp_path / "report.json"
    code = main(["crofton", "--body", "cube", "--i", "3", "--j", "0",
                 "--N", "2000", "--seed", "1", "--out", str(out)])
    rep = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert code == 1 and rep["pass"] is False
    assert rep["stderr"] == 0.0 and rep["estimate"] != rep["target"]
    assert rep["z"] is None


def test_zero_stderr_estimate_passes_within_rounding_of_its_target():
    # points uniform in the coordinate box of the cube all hit it: 1.0 +- 0
    # against V_3 = 0.9999999999999999 from the facet sums, a miss by
    # rounding alone
    rep = integral_geom.crofton_intrinsic(convex.cube(), 3, 0, 20000, 330)
    assert rep.stderr == 0.0 and rep.estimate == 1.0 and rep.estimate != rep.target
    assert rep.within(3.0) and rep.z == 0.0
    assert main(["crofton", "--i", "3", "--j", "0", "--body", "cube", "--N", "20000",
                 "--seed", "330"]) == 0
    # a zero-stderr miss beyond rounding still fails
    for target in (1.0 - 2e-12, 1.0 + 2e-12):
        off = integral_geom.EstimateReport(1.0, 0.0, target, n_samples=2, seed=1)
        assert not off.within(3.0) and off.z == math.inf


def test_kinematic_command(tmp_path):
    code, rep = run(tmp_path, "kinematic", "--body", "cube", "--other", "cube",
                    "--j", "0", "--N", "20000", "--seed", "11")
    assert code == 0
    assert rep["target"] == pytest.approx(11.0)
    assert "window" not in rep   # the box law of motions has no window to report


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


def test_kinematic_valuation_command_on_a_far_body(tmp_path):
    # the motions follow the box law wherever the body lies; the cube about
    # the origin they were drawn from missed this body, and the check failed
    body = tmp_path / "far_cube.json"
    body.write_text(json.dumps(convex.cube().translated([100.0, 0.0, 0.0]).to_json()))
    code, rep = run(tmp_path, "kinematic", "--body", str(body), "--spec", "projection_body",
                    "--N", "600", "--seed", "17")
    assert code == 0 and rep["lhs"] > 0.0


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


# ratios, sup_ratio and max_flux_residual of two lemma52 runs, written when
# the probe ran one profile at a time; the blocks of profiles give the same bits
LEMMA52_PINS = [
    (["--n", "3", "--samples", "50", "--seed", "3"], [
        1.6515178089824913, 1.727515545367327, 1.7100610998621484, 1.6709701744893248,
        2.06876204119232, 1.771412513314533, 1.7361736396241203, 1.7322899605910056,
        1.735613453341247, 1.6174497132194907, 2.4224210837955376, 1.7711218188043591,
        1.6690212928808472, 1.6977820707771436, 1.74147145454119, 1.6600535545157202,
        1.6708239758771923, 1.7694546036589502, 2.572250833610119, 1.6506018126945803,
        1.650760833607235, 2.7527079382017665, 1.6160280338221704, 1.7350729858809115,
        2.643744624272897, 1.8492913140771103, 1.6118334905713416, 1.7892182305034268,
        1.892349794558669, 1.7345761160170394, 1.7916723821421443, 1.7052523881748065,
        1.6892520919590084, 1.6958090481420733, 1.7238755723297918, 1.622107678753988,
        1.7103450078842946, 1.6885077408084515, 1.6302837675002826, 1.6510126572243102,
        1.7971038671127577, 1.6599078652973915, 1.6622626454379035, 2.4680716393836533,
        2.694013731769298, 1.7302054302377348, 1.6432119315275628, 1.667070595055648,
        1.7035132457152584, 1.823837160096645,
    ], 2.7527079382017665, 3.348432642269472e-13),
    (["--n", "5", "--q", "-1", "--band", "12", "--samples", "30", "--seed", "4"], [
        0.541652434823077, 0.5364829974451809, 0.5770881866060774, 0.5438776051291647,
        0.5422808921723175, 0.5371288026882775, 0.5388813670061342, 0.5351408855850278,
        0.544997018012922, 0.5395176369921597, 0.5738693475371264, 0.5421322889397021,
        0.5351188954086261, 0.553931886539708, 0.541542848456597, 0.5399826328356009,
        0.5342491955778942, 0.5642710280632204, 0.5441387319624316, 0.5384997119871461,
        0.5598523794002493, 0.5391890093230296, 0.556601400441722, 0.5345470710394107,
        0.6016241066195562, 0.5451679561036818, 0.5447535822969791, 0.5376774614057991,
        0.5363590120410328, 0.5335038045073256,
    ], 0.6016241066195562, 1.34781075189494e-13),
]


@pytest.mark.parametrize("argv,ratios,sup_ratio,max_flux", LEMMA52_PINS)
def test_lemma52_report_pinned(tmp_path, argv, ratios, sup_ratio, max_flux):
    code, rep = run(tmp_path, "lemma52", *argv)
    assert code == 0
    assert rep["ratios"] == ratios
    assert rep["sup_ratio"] == sup_ratio
    assert rep["max_flux_residual"] == max_flux


def test_lemma52_with_every_profile_annihilated_is_an_input_error(tmp_path):
    # with --band 1 every profile is a constant, which D_0 maps to 0
    code, rep = run(tmp_path, "lemma52", "--band", "1", "--q", "0", "--samples", "2",
                    "--seed", "1")
    assert code == 2
    assert set(rep) == {"error"} and "annihilated" in rep["error"]


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
    (["kinematic", "--body", "cube", "--spec", "projection_body", "--dir", "0,0,1",
      "--dir", "1,0,0", "--N", "100", "--seed", "1"], "--dir"),
])
def test_out_of_range_argument_is_an_input_error(tmp_path, argv, flag):
    # each ended in a traceback, or --hadwiger, --j or every --dir after the
    # first with --spec was silently ignored
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert set(rep) == {"error"} and flag in rep["error"]


@pytest.mark.parametrize("argv", [
    ["crofton", "--body", "random:1:3", "--i", "1", "--j", "1"],
    ["kinematic", "--body", "random:1:3", "--j", "1"],
    ["kinematic", "--body", "random:1:3", "--hadwiger"],
    ["kinematic", "--body", "random:1:3", "--spec", "projection_body"],
    ["kinematic", "--body", "cube", "--other", "square.json"],
    ["crofton-mv", "--body", "random:1:3"],
])
def test_lower_dimensional_body_is_an_input_error(tmp_path, argv, monkeypatch):
    # the Monte-Carlo kernels read the bodies' facets: a triangle (three
    # random points) or a square ended in a traceback with exit code 1
    monkeypatch.chdir(tmp_path)
    Path("square.json").write_text(json.dumps(
        {"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}))
    code, rep = run(tmp_path, *argv, "--N", "100", "--seed", "1")
    bad = "square.json" if "--other" in argv else "random:1:3"
    assert code == 2
    assert set(rep) == {"error"}
    assert rep["error"].startswith(f"bad body {bad!r}") and "full-dimensional" in rep["error"]


@pytest.mark.parametrize("seed,error", [(1, "facet boundary is not a single cycle"),
                                        (3, "facet boundary touches itself")])
def test_lattice_build_failure_is_an_input_error(tmp_path, capsys, monkeypatch, seed, error):
    # facets merged across normals 0.3 apart are not disks: the build's own
    # checks reject them, and the command reports the body as bad input
    monkeypatch.setattr(convex, "MERGE_TOL", 0.3)
    with pytest.raises(ValueError, match=error):
        convex.random_hull(seed, 200)
    capsys.readouterr()
    code, rep = run(tmp_path, "area-measure", "--body", f"random:{seed}:200", "--i", "0")
    assert code == 2
    assert rep == {"error": f"bad body 'random:{seed}:200': {error}"}
    assert "Traceback" not in "".join(capsys.readouterr())


SIMPLEX = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def strict_run(tmp_path, *argv):
    """The exit code and the report of a run, read as strict JSON."""
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("vertices,command,error", [
    (SIMPLEX + [[1e308, 0.0, 0.0]], ["area-measure", "--i", "1"], "at most 1e+150"),
    (SIMPLEX + [[1e308, 0.0, 0.0]], ["evaluate", "--spec", "projection_body"], "at most 1e+150"),
    (np.multiply(SIMPLEX, 1e100).tolist(), ["area-measure", "--i", "1"], "extent 7.5e+99"),
    (np.multiply(SIMPLEX, 1e-100).tolist(), ["area-measure", "--i", "2"], "extent 7.5e-101"),
])
def test_body_outside_the_domain_is_an_input_error(tmp_path, capsys, vertices, command, error):
    # the vertex 1e308 ended in a ValueError traceback of the JSON writer
    # (area-measure) or gave the value 0.0 with exit 0 (evaluate); legs of
    # 1e100 ended in a QhullError traceback, and legs of 1e-100 reported
    # V_2 = V_3 = 0.0 with exit 0
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"dimension": 3, "vertices": vertices}))
    code, rep = strict_run(tmp_path, command[0], "--body", str(body), *command[1:])
    assert code == 2
    assert set(rep) == {"error"} and error in rep["error"]
    assert "Traceback" not in "".join(capsys.readouterr())


@pytest.mark.parametrize("leg", [1.3e20, 1.4e-20])
def test_bodies_at_the_ends_of_the_domain_scale(tmp_path, leg):
    # the simplex of legs 1 and leg: V_i scales as leg^i, and the S_1 mass
    # as leg, to rounding
    reports = []
    for scale in (1.0, leg):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"dimension": 3, "vertices": (np.multiply(SIMPLEX, scale)).tolist()}))
        code, rep = strict_run(tmp_path, "area-measure", "--body", str(body), "--i", "1")
        assert code == 0
        reports.append(rep)
    unit, scaled = reports
    assert scaled["total_mass"] == pytest.approx(leg * unit["total_mass"], rel=1e-14)
    assert scaled["intrinsic_volumes"] == pytest.approx(
        [v * leg ** i for i, v in enumerate(unit["intrinsic_volumes"])], rel=1e-14)


def test_qhull_failure_is_an_input_error(tmp_path, capsys, monkeypatch):
    def failing(points):
        raise QhullError("QH6154 Qhull precision error: Initial simplex is flat")
    monkeypatch.setattr(convex, "ConvexHull", failing)
    code, rep = strict_run(tmp_path, "area-measure", "--body", "random:1:20", "--i", "1")
    assert code == 2
    assert rep == {"error": "bad body 'random:1:20': QH6154 Qhull precision error: "
                            "Initial simplex is flat"}
    assert "Traceback" not in "".join(capsys.readouterr())


@pytest.mark.parametrize("argv", [["--body", "ball:3"], ["--body", "cube", "--crosscheck"]])
def test_nonfinite_result_is_an_input_error(tmp_path, capsys, argv):
    # a profile of 1e308 overflows to inf (and inf - inf to nan in the
    # cross-check): both ended in a ValueError traceback of the JSON writer
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "cn": 1e308}')
    code, rep = strict_run(tmp_path, "evaluate", "--spec", str(spec), *argv)
    assert code == 2
    assert set(rep) == {"error"} and "not a finite number" in rep["error"]
    assert "Traceback" not in "".join(capsys.readouterr())

@pytest.mark.parametrize("content", [[[0, 0, 0]], {"dimension": 3}])
def test_malformed_body_file_is_an_input_error(tmp_path, capsys, content):
    # a top level that is not an object ended in an AttributeError
    # traceback, and an object without "vertices" in a KeyError traceback,
    # both with exit code 1
    body = tmp_path / "body.json"
    body.write_text(json.dumps(content))
    out = tmp_path / "report.json"
    code = main(["area-measure", "--body", str(body), "--i", "1", "--out", str(out)])
    rep = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert code == 2
    assert set(rep) == {"error"} and '"vertices"' in rep["error"]
    assert "Traceback" not in "".join(capsys.readouterr())


def test_switches_turn_off_with_their_no_flags(tmp_path):
    # the box column is on by default, and --box could only set it on
    code, rep = run(tmp_path, "multipliers", "--no-box")
    assert code == 0 and rep["columns"] == ["k"] and rep["config"]["box"] is False
    # the flags still override the config file, either way
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"box": False}))
    code, rep = run(tmp_path, "multipliers", "--box", "--config", str(path))
    assert code == 0 and rep["columns"] == ["k", "box"]
    path.write_text(json.dumps({"hadwiger": True}))
    code, rep = run(tmp_path, "kinematic", "--body", "cube", "--N", "100", "--seed", "1",
                    "--no-hadwiger", "--config", str(path))
    assert code in (0, 1) and "hadwiger" not in rep and rep["config"]["hadwiger"] is False


CROFTON_11 = ["crofton", "--body", "cube", "--i", "1", "--j", "1", "--N", "100"]


@pytest.mark.parametrize("argv,config,flag", [
    (CROFTON_11 + ["--seed", "-1"], None, "--seed"),
    (["kinematic", "--body", "cube", "--N", "100", "--seed", "-1"], None, "--seed"),
    (["crofton-mv", "--body", "cube", "--N", "100", "--seed", "-1"], None, "--seed"),
    (["check-valuation", "--spec", "projection_body", "--body", "cube",
      "--plane", "0,0,1,0.5", "--seed", "-1"], None, "--seed"),
    (["lemma52", "--samples", "2", "--seed", "-1"], None, "--seed"),
    (CROFTON_11, {"seed": 1.7}, "--seed"),
    (CROFTON_11, {"seed": True}, "--seed"),
    (CROFTON_11, {"seed": "3"}, "--seed"),
    (CROFTON_11[:-2] + ["--seed", "1"], {"N": "abc"}, "--N"),
    (CROFTON_11[:-2] + ["--seed", "1"], {"N": 100.5}, "--N"),
])
def test_bad_integer_option_is_an_input_error(tmp_path, argv, config, flag):
    # a negative seed ended in a numpy traceback, "N": "abc" in a ValueError
    # from int(), and "seed": 1.7 ran silently as seed 1
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert set(rep) == {"error"} and flag in rep["error"]


def test_integral_float_option_from_config_is_accepted(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 7.0}))
    code, rep = run(tmp_path, *CROFTON_11, "--config", str(path))
    assert code == 0 and rep["seed"] == 7


EVALUATE = ["evaluate", "--spec", "projection_body", "--body", "cube"]
CHECK_VALUATION = ["check-valuation", "--spec", "projection_body", "--body", "cube",
                   "--plane", "0,0,1,0.5", "--seed", "5"]
NO_PLANE = CHECK_VALUATION[:5] + ["--seed", "5"]
AREA_MEASURE = ["area-measure", "--body", "cube", "--i", "1"]
LEMMA52 = ["lemma52", "--samples", "2", "--seed", "1"]
KINEMATIC_SPEC = ["kinematic", "--body", "cube", "--spec", "projection_body",
                  "--N", "100", "--seed", "1"]
KINEMATIC = ["kinematic", "--body", "cube", "--N", "100", "--seed", "1"]


@pytest.mark.parametrize("argv,config,flag", [
    (["lemma52", "--seed", "1"], {"samples": "abc"}, "--samples"),
    (["lemma52", "--seed", "1"], {"samples": 0}, "--samples"),
    (["lemma52", "--seed", "1"], {"band": 0}, "--band"),
    (["lemma52", "--seed", "1"], {"band": 191}, "--band"),
    (["lemma52", "--seed", "1"], {"n": 1}, "--n"),
    (["multipliers", "--n", "3"], {"berg": 99}, "--berg"),
    (["multipliers"], {"berg": 1}, "--berg"),
    (["multipliers"], {"kmax": 2.5}, "--kmax"),
    (["multipliers"], {"kmax": -3}, "--kmax"),
    (["multipliers"], {"kmax": 100000}, "--kmax"),
    (["multipliers"], {"n": "3"}, "--n"),
    (EVALUATE, {"band": -1}, "--band"),
    (EVALUATE, {"band": 33}, "--band"),
    (EVALUATE, {"kmax": 100000}, "--kmax"),
    (EVALUATE, {"kmax": 0}, "--kmax"),
    (CHECK_VALUATION, {"kmax": 2.5}, "--kmax"),
    (["kinematic", "--body", "cube", "--spec", "projection_body", "--N", "100",
      "--seed", "1"], {"kmax": 100000}, "--kmax"),
    (["crofton-mv", "--body", "cube", "--N", "100", "--seed", "1"], {"kmax": -3}, "--kmax"),
    (AREA_MEASURE, {"tol": "abc"}, "--tol"),
    (AREA_MEASURE, {"tol": None}, "--tol"),
    (AREA_MEASURE, {"tol": math.nan}, "--tol"),
    (AREA_MEASURE, {"tol": 0}, "--tol"),
    (EVALUATE, {"tol": "abc"}, "--tol"),
    (CHECK_VALUATION, {"tol": True}, "--tol"),
    (LEMMA52, {"q": "abc"}, "--q"),
    (LEMMA52, {"q": math.inf}, "--q"),
    (LEMMA52, {"flux-tol": "x"}, "--flux-tol"),
    (LEMMA52, {"flux-tol": -1e-8}, "--flux-tol"),
    (EVALUATE, {"path": "nosuch"}, "--path"),
    (EVALUATE, {"dir": [1, 2, 3]}, "--dir"),
    (EVALUATE, {"dir": "0,0,1"}, "--dir"),
    (KINEMATIC_SPEC, {"dir": [1, 2, 3]}, "--dir"),
    (KINEMATIC_SPEC, {"dir": "0,0,1"}, "--dir"),
    (KINEMATIC, {"hadwiger": "no"}, "--hadwiger"),
    (EVALUATE, {"crosscheck": "no"}, "--crosscheck"),
    (["multipliers"], {"box": "false"}, "--box"),
    (CHECK_VALUATION, {"num-dirs": 1e300}, "--num-dirs"),
    (CHECK_VALUATION, {"num-dirs": 10001}, "--num-dirs"),
    (["lemma52", "--seed", "1"], {"samples": 10001}, "--samples"),
    (CROFTON_11 + ["--seed", "1"], {"shards": 10001}, "--shards"),
    (CROFTON_11[:-2] + ["--seed", "1"], {"N": 1e300}, "--N"),
    (CROFTON_11[:-2] + ["--seed", "1", "--shards", "2"], {"N": 2000001}, "--N"),
    (AREA_MEASURE, {"tol": 10**400}, "--tol"),
])
def test_integer_option_out_of_its_range_is_an_input_error(tmp_path, argv, config, flag):
    # from a config file, "samples": "abc" and "berg": 99 ended in
    # tracebacks, "kmax": 2.5 ran as kmax 2, "kmax": -3 printed no rows,
    # "band": -1 was ignored and "kmax": 100000 ran for minutes; the float
    # options ("tol": "abc", null, NaN or an integer too large for a float,
    # "q": "abc") and "dir": [1, 2, 3] ended in tracebacks, "path": "nosuch"
    # ran the spectral path, and "dir": "0,0,1" was read one character at a
    # time; "hadwiger", "crosscheck" and "box" were read by truthiness, so
    # "no" ran the Hadwiger check and the crosscheck and "false" printed the
    # box column; "num-dirs": 1e300 and "N": 1e300 ended in tracebacks, and
    # "samples", "shards" and the samples per shard had no upper bound
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, rep = run(tmp_path, *argv, "--config", str(path))
    assert code == 2
    assert set(rep) == {"error"} and flag in rep["error"]


CROFTON_MV = ["crofton-mv", "--body", "cube", "--N", "100", "--seed", "5"]


@pytest.mark.parametrize("argv,config", [
    (CROFTON_MV + ["--mu", "nosuch"], None),
    (CROFTON_MV, {"mu": "nosuch"}),
    (CROFTON_MV + ["--mu", "berg:x"], None),
    (CROFTON_MV + ["--mu", "const:nan"], None),
])
def test_unknown_zonal_builtin_is_an_input_error(tmp_path, argv, config):
    # the lookup ended in a KeyError or ValueError traceback with exit code
    # 1, and const:nan in a ValueError of the JSON writer
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert set(rep) == {"error"} and "zonal" in rep["error"]


@pytest.mark.parametrize("argv,config", [
    (["crofton", "--seed", "1", "--N", "100"], {"body": "cube", "i": 1, "j": 1}),
    (["area-measure"], {"body": "cube", "i": 1}),
    (["evaluate", "--dir=0,0,1"], {"spec": "projection_body", "body": "cube"}),
    (["check-valuation", "--seed", "5"],
     {"spec": "projection_body", "body": "cube", "plane": "0,0,1,0.5"}),
    (["kinematic", "--j", "0", "--N", "100", "--seed", "1"], {"body": "cube"}),
    # seed 6: at seed 5 the lattice of directions puts the k = 2 row at
    # z = 4.15, the largest |z| of seeds 0-399 (a t_19 tail of about 1 in
    # 2000), and the gate's exit 1 is not what this test checks
    (["crofton-mv", "--N", "100", "--seed", "6"], {"body": "cube"}),
])
def test_required_options_may_come_from_the_config(tmp_path, argv, config):
    # argparse refused the command: "required: --body, --i, --j"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, rep = run(tmp_path, *argv, "--config", str(path))
    code_flags, rep_flags = run(tmp_path, *argv, *(f"--{k}={v}" for k, v in config.items()))
    rep.pop("wall_time_s", None), rep_flags.pop("wall_time_s", None)
    assert code == code_flags == 0 and rep == rep_flags
    code, rep = run(tmp_path, *argv)
    assert code == 2
    assert set(rep) == {"error"} and all(f"--{key}" in rep["error"] for key in config)


@pytest.mark.parametrize("argv,flag", [
    (["crofton", "--body", "cube", "--i", "x", "--j", "1", "--N", "100", "--seed", "1"], "--i"),
    (["lemma52", "--seed", "1", "--q", "abc"], "--q"),
    (["evaluate", "--spec", "projection_body", "--body", "cube", "--path", "nosuch"], "--path"),
    (["crofton", "--body", "cube", "--nosuch", "1"], "--nosuch"),
    (["nosuch"], "nosuch"),
    ([], "cmd"),
])
def test_argparse_errors_carry_the_error_json(capsys, argv, flag):
    # argparse printed a usage message to stderr and no error JSON
    assert main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert set(rep) == {"error"} and flag in rep["error"]
    assert err == ""


@pytest.mark.parametrize("plane", ["x,0,1,0.5", "0,0,0,0.5", "nan,0,1,0.5", "0,0,1,inf",
                                   "0,0,1"])
def test_bad_plane_is_an_input_error(tmp_path, plane):
    # "x,..." ended in a ValueError traceback, and a zero or NaN normal
    # passed silently as "plane misses the body"
    code, rep = run(tmp_path, *NO_PLANE, f"--plane={plane}")
    assert code == 2
    assert set(rep) == {"error"} and "--plane" in rep["error"]


def test_plane_from_config_is_accepted(tmp_path):
    # argparse demanded --plane although the config file gave it
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plane": "0,0,1,0.5"}))
    code, rep = run(tmp_path, *NO_PLANE, "--config", str(path))
    assert code == 0 and rep["config"]["plane"] == "0,0,1,0.5"
    assert rep == run(tmp_path, *CHECK_VALUATION)[1]
    code, rep = run(tmp_path, *NO_PLANE)
    assert code == 2 and "--plane" in rep["error"]


@pytest.mark.parametrize("spec", [[1, 2], {"n": 3, "mu": {"1": {"kind": "nosuch"}}},
                                  {"n": 3, "mu": [{"kind": "nosuch"}]}, {"n": 3, "f_top": 1}])
def test_malformed_spec_file_is_an_input_error(tmp_path, spec):
    # the first two ended in a TypeError and an AttributeError traceback
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, rep = run(tmp_path, "evaluate", "--spec", str(path), "--body", "cube", "--dir=0,0,1")
    assert code == 2
    assert set(rep) == {"error"} and "spec" in rep["error"]


def test_evaluate_errors_of_the_spec_are_input_errors(tmp_path):
    # a degree-1 datum with atoms on the pointwise path (asked for, or by
    # --crosscheck) ended in a ValueError traceback with exit code 1
    spec = tmp_path / "atoms.json"
    mu = ZonalObject(3, atoms=[(1, 1), (-1, 1)], kmax=16).centered()
    spec.write_text(json.dumps(MinkowskiValuationSpec(n=3, mu={1: mu}).to_json()))
    argv = ["evaluate", "--spec", str(spec), "--body", "cube", "--dir=0,0,1"]
    for extra in (["--path", "pointwise"], ["--crosscheck"]):
        code, rep = run(tmp_path, *argv, *extra)
        assert code == 2
        assert set(rep) == {"error"} and "atoms" in rep["error"]
    code, rep = run(tmp_path, *argv)
    assert code == 0 and rep["path"] == "spectral"


@pytest.mark.parametrize("argv", [
    ["evaluate", "--body", "cube", "--dir=0,0,1"],
    ["check-valuation", "--body", "cube", "--plane=0,0,1,0.5", "--seed", "5"],
    ["kinematic", "--body", "cube", "--N", "100", "--seed", "1"],
])
def test_spec_of_another_dimension_is_an_input_error(tmp_path, argv):
    # each ended in a ValueError traceback with exit code 1
    spec = tmp_path / "spec4.json"
    spec.write_text(json.dumps(builtin_spec("projection_body", n=4).to_json()))
    code, rep = run(tmp_path, *argv, "--spec", str(spec))
    assert code == 2
    assert set(rep) == {"error"} and "n = 4" in rep["error"]


@pytest.mark.parametrize("spec,flag,says", [
    ("projection_body", "--out", ["cannot write the output"]),
    ("projection_body", "--csv", ["cannot write the output"]),
    ("nosuch", "--out", ["unknown valuation builtin", "cannot write --out"]),
])
def test_output_path_that_cannot_be_opened_is_an_input_error(tmp_path, capsys, spec, flag, says):
    # a FileNotFoundError traceback with exit code 1, on the report path
    # and on the error path; stdout now holds the error JSON alone
    missing = str(tmp_path / "nonexistent" / "x")
    argv = ["evaluate", "--spec", spec, "--body", "cube", "--dir=0,0,1", flag, missing]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert set(rep) == {"error"} and "nonexistent" in rep["error"]
    assert all(s in rep["error"] for s in says)
    assert err == ""


def test_config_file_that_is_not_an_object_is_an_input_error(tmp_path):
    # a JSON list was silently ignored, and a string made `key in file`
    # a substring test ("kmax" ended in a TypeError traceback)
    for top in ([1, 2], "kmax"):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(top))
        code, rep = run(tmp_path, "multipliers", "--config", str(path))
        assert code == 2
        assert set(rep) == {"error"} and "JSON object" in rep["error"]


@pytest.mark.parametrize("vec", ["0,0,0", "nan,0,1", "1,inf,0", "1e-200,0,0", "1e200,0,0"])
def test_zero_or_nonfinite_direction_is_an_input_error(tmp_path, vec):
    # a length that squares to 0 (1e-200) ended in a ValueError of the JSON
    # writer, inf in the report
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
    # ball:99 ran out of memory in a traceback, ball:-1 silently built the
    # octahedron, and random:1:-5 and random:1:10000000000 ended in numpy
    # tracebacks
    for body in ["nonexistent_body", "ball:99", "ball:7", "ball:-1", "ball:x", "ball:1:2",
                 "random:1:0", "random:1:-5", "random:1:100001", "random:1:10000000000",
                 "random:x", "random:-1"]:
        code, rep = run(tmp_path, "evaluate", "--spec", "projection_body",
                        "--body", body)
        assert code == 2
        assert "error" in rep and body in rep["error"]


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


def test_module_entry_point_matches_main(capsys):
    argv = ["area-measure", "--body", "cube", "--i", "1"]
    src = str(Path(minkval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "minkval", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == main(argv) == 0
    ours, theirs = json.loads(capsys.readouterr().out), json.loads(proc.stdout)
    ours.pop("wall_time_s", None), theirs.pop("wall_time_s", None)
    assert theirs == ours


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


def test_help_states_each_range_default_and_need(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crofton", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--j J an integer in [0, 3 - i]; required, also from --config" in text
    assert ("--N N number of samples: an integer in [2 * shards, 1000000 * shards]; "
            "default 200000") in text


# every key of every command, with values that make a run of that command
# (small sample counts, so that each call ends in a fraction of a second)
PLAUSIBLE = {
    "body": ["cube", "simplex", "ball:1", "random:3:20"],
    "other": ["cube", "simplex"],
    "spec": ["projection_body", "difference_body", "mean_section:2"],
    "mu": ["dirac_pole", "berg:3"],
    "i": [1], "j": [1], "n": [3], "kmax": [4, 8], "band": [2, 4], "berg": [2, 3],
    "N": [40], "seed": [1], "shards": [2, 4], "samples": [3], "num-dirs": [5],
    "dir": [["0,0,1"], ["1,1,0", "0,1,0"]], "probe": ["0,0,1"], "plane": ["0,0,1,0.5"],
    "degrees": ["0,2"], "path": ["auto", "pointwise", "spectral"], "q": [0.5],
    "tol": [1e-6], "flux-tol": [1e-8], "box": [True, False], "hadwiger": [True, False],
    "crosscheck": [True, False],
}
COMMAND_KEYS = {
    "multipliers": ["n", "kmax", "berg", "box"],
    "area-measure": ["body", "i", "tol"],
    "evaluate": ["spec", "body", "dir", "band", "path", "kmax", "crosscheck", "tol"],
    "check-valuation": ["spec", "body", "plane", "num-dirs", "seed", "tol", "kmax"],
    "crofton": ["body", "i", "j", "n", "N", "seed", "shards"],
    "kinematic": ["body", "other", "j", "N", "seed", "hadwiger", "spec", "dir", "kmax",
                  "shards"],
    "crofton-mv": ["body", "mu", "i", "j", "N", "seed", "degrees", "probe", "kmax", "shards"],
    "lemma52": ["n", "samples", "seed", "q", "band", "flux-tol"],
}
# any JSON value; integral numbers stay small or far out of every range
ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.sampled_from([1e12, 1e300, 10**400]),
    st.floats().filter(lambda x: not x.is_integer() or abs(x) <= 40 or abs(x) >= 1e12),
    st.text(max_size=10),
    st.lists(st.one_of(st.text(max_size=8), st.integers(-2, 5)), max_size=3))


@st.composite
def cli_configs(draw):
    """A command, a config over its keys, and whether to write the report
    to --out.  Four in five keys are given (N always, so that no run takes
    the default 200000 samples), four in five with a plausible value."""
    cmd = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    config = {}
    for key in COMMAND_KEYS[cmd]:
        if key == "N" or draw(st.integers(0, 4)):
            plausible = draw(st.integers(0, 4))
            config[key] = draw(st.sampled_from(PLAUSIBLE[key]) if plausible else ANY_JSON)
    return cmd, config, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@example(("check-valuation", {"spec": "projection_body", "body": "cube",
                              "plane": "0,0,1,0.5", "seed": 1, "num-dirs": 1e300}, False))
@example(("crofton", {"body": "cube", "i": 1, "j": 1, "seed": 1, "N": 1e300}, True))
@example(("area-measure", {"body": "cube", "i": 1, "tol": 10**400}, True))
@example(("multipliers", {"kmax": 0, "berg": 2}, False))
@example(("crofton", {"body": "random:1:3", "i": 1, "j": 1, "seed": 1, "N": 40}, False))
@example(("lemma52", {"band": 1, "q": 0, "samples": 2, "seed": 1}, False))
@given(cli_configs())
def test_any_config_exits_0_1_or_2_with_strict_json(drawn):
    cmd, config, use_out = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "config.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(config))
        argv = [cmd, "--config", str(path), *(["--out", str(out)] if use_out else [])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)       # an exception here is a traceback
        text = out.read_text() if use_out else stdout.getvalue()
    assert code in (0, 1, 2)
    rep = json.loads(text, parse_constant=_reject_constant)
    assert (set(rep) == {"error"}) == (code == 2)
    assert not (use_out and stdout.getvalue())
    assert "Traceback" not in stderr.getvalue()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every command of the README's command block exits 0 with strict JSON;
    # its --csv files land in tmp_path
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("minkval ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 0 and "error" not in rep, line
