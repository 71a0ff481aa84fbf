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
from minkval.integral_geom import ROUNDING_RTOL, agrees

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


# A body far from the origin compared with its size holds its vertices,
# and those of its halves, only to ulp(|shift|): the split of
# random_hull(3) scaled by 1e-6 and shifted by 1e6 leaves residuals of
# up to 5e-5 of the scale, and its plane at 2e-4 of the support interval lies two
# ulps from a vertex.  So the halves are checked at up to 1e6 body sizes
# from the origin, where the residual stays below 4e-11 of the scale.
@settings(max_examples=25, deadline=None)
@example(body=cube().scaled(1e-6), normal=(0.0, 0.0, 1.0))
@given(body=hulls(lambda lam: 1e6 * min(1.0, lam)),
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
