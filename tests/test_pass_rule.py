"""The pass rule of every check (`integral_geom.agrees`), and the checks of
the command line on bodies of any size and place: a check that passes on
the unit body passes on its scaled and translated copies."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkval.cli import load_body, main
from minkval.convex import Polytope, cube, random_hull
from minkval.integral_geom import (ROUNDING_RTOL, agrees, crofton_minkowski,
                                   crofton_minkowski_rhs, moment_row)
from minkval.zonal import ZonalObject

# a volume-only valuation, 1.7 V_3: a kinematic check whose both sides are
# closed forms, with a stderr of rounding size
VOLUME_SPEC = {"n": 3, "c0": 0.0, "mu": [None], "f_top": None, "cn": 1.7}


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_gate_is_relative_to_the_scale(scale):
    gap = 1e-10 * scale
    assert not agrees(gap, 0.0, scale, ROUNDING_RTOL)
    assert not agrees(-gap, 0.0, scale, 1e-11)
    assert agrees(gap, 0.0, scale, 1e-9) and agrees(gap, gap, 0.0, 0.0)
    value = 0.1 * scale
    assert agrees(value - value, 0.0, 2.0 * value, 0.0)


def test_crofton_mv_rows_pass_within_rounding_of_the_moments_mass():
    # the cube's odd rows vanish by central symmetry, so both sides are
    # rounding: lhs 8.4e-20 +- 1.1e-19 against rhs -6.2e-18 on the k = 3 row
    # at seed 5 and N 200000 missed 3 stderr plus rounding relative to the
    # row's own values; the floor is relative to the moments' mass, the
    # multiplier times the k = 0 moment of each side (|P_k| <= 1)
    mu = ZonalObject.dirac_pole(3, kmax=16)
    res = crofton_minkowski(cube(), mu, 1, 1, 4000, seed=5, degrees=(0, 1, 3, 5))
    lhs0 = res["rows"][0]["lhs"]
    mult = crofton_minkowski_rhs(3, 1, 1, mu).multipliers
    assert res["all_pass"]
    for row in res["rows"][1:]:
        assert abs(row["lhs"]) <= 1e-15 * lhs0 and abs(row["rhs"]) <= 1e-15 * lhs0, row
    mass = abs(mu.multipliers[3]) * lhs0 + abs(mult[3]) * 6.0   # S_2 of the cube: mass 6
    assert not agrees(8.4e-20 + 6.2e-18, 3.0 * 1.1e-19, 8.4e-20 + 6.2e-18)
    assert moment_row(3, 8.4e-20, 1.1e-19, -6.2e-18, 0.0, mass)["pass"]
    for gap in (1e-10 * mass, -1e-10 * mass):
        assert not moment_row(3, gap, 1.1e-19, 0.0, 0.0, mass)["pass"]


def _report(argv: list[str], tmp: str) -> tuple[int, dict]:
    out = Path(tmp, "report.json")
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def _write(P: Polytope, tmp: str, name: str) -> str:
    path = Path(tmp, f"{name}.json")
    path.write_text(json.dumps(P.to_json()))
    return str(path)


@st.composite
def hulls(draw, max_shift) -> Polytope:
    """random_hull(seed, points, scale=lambda), lambda log-uniform in
    [1e-6, 1e6], shifted by up to max_shift(lambda) along each axis."""
    lam = 10.0 ** draw(st.floats(-6.0, 6.0))
    P = random_hull(draw(st.integers(0, 10_000)), draw(st.integers(8, 30)), scale=lam)
    shift = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))) * max_shift(lam)
    return P.translated(shift)


@settings(max_examples=25, deadline=None)
@example(body=random_hull(42, 14, scale=1e6), other=random_hull(7))
@example(body=cube(), other=load_body("random_hull_7"))
@given(body=hulls(lambda lam: 1e6), other=hulls(lambda lam: 1e6))
def test_checks_pass_on_bodies_of_any_size_and_place(body, other):
    # at 1e6 an absolute --tol failed area-measure --i 2 (residual 9.8e-4)
    # and the crosscheck of mean_section:2 (deviation 1.2e-4 on values of
    # 6e11); the volume-only kinematic check failed on rounding of 4.4e-16
    # against a stderr of 5.1e-17 on the cube
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "volume.json")
        spec.write_text(json.dumps(VOLUME_SPEC))
        path = _write(body, tmp, "body")
        runs = [["area-measure", "--body", path, "--i", str(i)] for i in (0, 1, 2)]
        runs += [["evaluate", "--spec", name, "--body", path, "--crosscheck", "--band", "32",
                  "--dir=0.36,-0.48,0.8", "--dir=0,0,1"]
                 for name in ("difference_body", "mean_section:2")]
        runs.append(["kinematic", "--body", path, "--other", _write(other, tmp, "other"),
                     "--spec", str(spec), "--N", "40", "--seed", "1"])
        for argv in runs:
            code, rep = _report(argv, tmp)
            assert code == 0, (argv[0], rep)


# The split runs about the body's vertex centroid, with one plane for the
# halves and the section: split in world coordinates, random_hull(3)
# scaled by 1e-6 and shifted by (1e6, -3e5, 7e5) kept only ulp(1e6) of its
# vertices and of its halves' (residuals of 3.3e-5 and 4.6e-5 of the scale
# at 0.3 of the support interval along unit(0.3, -0.5, 0.81)), and its
# plane at 2e-4 of the interval lay two ulps from a vertex, a split skipped
# as tangent.  Centred, with the section through a point of the plane far
# from the body, the residuals were 2.8e-6 and 1.9e-6.
@settings(max_examples=25, deadline=None)
@example(body=cube().scaled(1e-6), normal=(0.0, 0.0, 1.0))
@example(body=random_hull(3).scaled(1e-6).translated((1e6, -3e5, 7e5)), normal=(0.3, -0.5, 0.81))
@given(body=hulls(lambda lam: 1e6),
       normal=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1))
def test_split_checks_pass_on_bodies_of_any_size(body, normal):
    # the plane at 2e-4 of the cube of size 1e-6 lies 2e-10 from its facet,
    # where an absolute cut of 1e-9 took the split as tangent and skipped it
    a = np.asarray(normal) / np.linalg.norm(normal)
    proj = body.vertices @ a
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(body, tmp, "body")
        for t in (2e-4, 0.3):
            offset = float(proj.min() + t * (proj.max() - proj.min()))
            plane = ",".join(repr(float(x)) for x in (*a, offset))
            for name in ("projection_body", "mean_section:2"):
                code, rep = _report(["check-valuation", "--spec", name, "--body", path,
                                     f"--plane={plane}", "--seed", "1"], tmp)
                assert code == 0 and rep["pass"] is True, (t, name, rep)
                assert rep["skipped"] is False and rep["reason"] == "", (t, name, rep)
