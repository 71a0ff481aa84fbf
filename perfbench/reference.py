"""Reference values computed without minkval, and the per-command checks.

Bodies are the generated point clouds; their intrinsic volumes come from
``scipy.spatial.ConvexHull``: V3 is the hull volume, V2 half its area and V1
the sum over edges of length times exterior dihedral angle over 2 pi
(edges between coplanar triangles add 0).  The centred unit cube uses its
closed forms.

Tolerances:

* Monte-Carlo estimates must lie within ``SIGMAS`` reported standard errors
  of the independent target.  The CLI's own gate is 3 sigma, which a correct
  estimator misses in about 0.3 % of checks (more with 20 shards); such a
  command exits 1, and that exit is accepted only when the report says
  ``"pass": false`` and the 5-sigma reference check holds.
* Exact quantities (targets, total masses, intrinsic volumes, projection
  body support values, rotation equivariance) must match to ``EXACT`` relative
  to the largest reference value.
* ``difference_body`` is evaluated through its degree-32 Berg expansion,
  whose truncation error grows with the sharpness of the body: up to 0.5 %
  of the largest width on the 30- and 100-vertex hulls, and up to 1.0 % on
  the cube and the 12-vertex icosahedra (40 seeds).  It must match
  ``max V.u - min V.u`` to ``BERG`` relative to the largest width.
* Identities whose exact value is 0 (finite additivity, the boundary flux of
  lemma 5.2) use the program's own default tolerances (1e-6 and 1e-8).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

SIGMAS = 5.0
EXACT = 1e-9
BERG = 2e-2
ANGLE_TOL = 1e-9


def kappa(m: float) -> float:
    return math.pi ** (m / 2.0) / math.gamma(1.0 + m / 2.0)


def flag(a: int, b: int) -> float:
    return math.comb(a, b) * kappa(a) / (kappa(b) * kappa(a - b))


class Solid:
    """Facets, edges and intrinsic volumes of the hull of a point cloud."""

    def __init__(self, pts: np.ndarray, cube: bool = False):
        self.pts = pts
        hull = ConvexHull(pts)
        tri = pts[hull.simplices]
        self.normals = hull.equations[:, :3]
        self.areas = 0.5 * np.linalg.norm(
            np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
        v1 = 0.0
        edges = 0
        parent = list(range(len(hull.simplices)))

        def root(s):
            while parent[s] != s:
                parent[s] = parent[parent[s]]
                s = parent[s]
            return s

        for s, simplex in enumerate(hull.simplices):
            for k in range(3):
                nb = int(hull.neighbors[s, k])
                if nb < s:
                    continue
                n1, n2 = self.normals[s], self.normals[nb]
                ang = math.atan2(float(np.linalg.norm(np.cross(n1, n2))),
                                 float(np.dot(n1, n2)))
                if ang <= ANGLE_TOL:
                    parent[root(s)] = root(nb)
                    continue
                a, b = simplex[(k + 1) % 3], simplex[(k + 2) % 3]
                v1 += float(np.linalg.norm(pts[a] - pts[b])) * ang
                edges += 1
        self.num_vertices = len(hull.vertices)
        self.num_edges = edges
        self.num_facets = len({root(s) for s in range(len(parent))})
        if cube:
            self.iv = (1.0, 3.0, 3.0, 1.0)
        else:
            self.iv = (1.0, v1 / (2.0 * math.pi), hull.area / 2.0, float(hull.volume))

    def projection_support(self, dirs: np.ndarray) -> np.ndarray:
        """h(Pi K, u) = 1/2 sum_F area_F |u . n_F|."""
        return 0.5 * np.abs(dirs @ self.normals.T) @ self.areas

    def width(self, dirs: np.ndarray) -> np.ndarray:
        """h(DK, u) = max V.u - min V.u."""
        proj = dirs @ self.pts.T
        return proj.max(axis=1) - proj.min(axis=1)


def kinematic_target(p: Solid, q: Solid, j: int) -> float:
    return sum(flag(i + j, j) / flag(3, i) * p.iv[i + j] * q.iv[3 - i]
               for i in range(0, 4 - j))


def _close(value, ref, scale=None, tol=EXACT) -> bool:
    scale = abs(ref) if scale is None else scale
    return bool(np.all(np.abs(np.asarray(value, float) - np.asarray(ref, float))
                       <= tol * max(scale, 1e-300)))


def _within(est, ref, se, slack=0.0) -> bool:
    return math.isfinite(se) and se > 0 and abs(est - ref) <= SIGMAS * se + slack


class Checker:
    """Checks the reports of one workload run against independent values."""

    def __init__(self, bodies: dict[str, np.ndarray]):
        self.solids = {name: Solid(pts, cube=(name == "cube"))
                       for name, pts in bodies.items()}

    def check(self, cmd: dict, rc, report: dict, reports: dict) -> tuple[list[str], float | None]:
        """Problems found in one command's result (empty when it is correct)
        and the relative standard error that enters mc_time_to_1pct_s."""
        kind, chk = cmd["kind"], cmd["check"]
        mc = cmd["mc_samples"] > 0
        if rc not in ((0, 1) if mc else (0,)):
            return [f"exit code {rc}"], None
        if "pass" in report and bool(report["pass"]) != (rc == 0):
            return [f"exit code {rc} disagrees with pass={report['pass']}"], None
        method = getattr(self, "_" + kind.replace("-", "_"))
        return method(chk, report, reports)

    def _crofton(self, chk, rep, _):
        s = self.solids[chk["body"]]
        i, j = chk["i"], chk["j"]
        ref = flag(i + j, j) * s.iv[i + j]
        probs = []
        if not _close(rep["target"], ref):
            probs.append(f"target {rep['target']} != {ref}")
        if not _within(rep["estimate"], ref, rep["stderr"]):
            probs.append(f"estimate {rep['estimate']} +- {rep['stderr']} misses {ref}")
        return probs, rep["stderr"] / abs(ref)

    def _crofton_mv(self, chk, rep, _):
        # k = 0: int pi V1(P n E) dE = pi [2;1] V2(P) = pi^2/2 V2(P), times
        # a_0 = 1 for the Dirac measure at the pole.
        ref = math.pi ** 2 / 2.0 * self.solids[chk["body"]].iv[2]
        probs = []
        rows = {r["k"]: r for r in rep["rows"]}
        r0 = rows[0]
        if not _close(r0["rhs"], ref, tol=EXACT + r0["berg_bar"] / ref):
            probs.append(f"k=0 rhs {r0['rhs']} != {ref}")
        if not _within(r0["lhs"], ref, r0["stderr"], r0["berg_bar"]):
            probs.append(f"k=0 lhs {r0['lhs']} +- {r0['stderr']} misses {ref}")
        for k, r in rows.items():
            if k and not (abs(r["lhs"] - r["rhs"]) <= SIGMAS * r["stderr"] + r["berg_bar"]):
                probs.append(f"k={k} lhs {r['lhs']} +- {r['stderr']} misses rhs {r['rhs']}")
        return probs, r0["stderr"] / abs(ref)

    def _kinematic(self, chk, rep, _):
        p, q = self.solids[chk["body"]], self.solids[chk["other"]]
        ref = kinematic_target(p, q, chk["j"])
        probs = []
        if not _close(rep["target"], ref):
            probs.append(f"target {rep['target']} != {ref}")
        if not _within(rep["estimate"], ref, rep["stderr"]):
            probs.append(f"estimate {rep['estimate']} +- {rep['stderr']} misses {ref}")
        if chk["hadwiger"]:
            h = rep["hadwiger"]
            if not _within(h["difference"], 0.0, h["combined_stderr"]):
                probs.append(f"hadwiger difference {h['difference']} +- {h['combined_stderr']}")
            if not _within(h["rhs"], ref, h["rhs_stderr"]):
                probs.append(f"hadwiger rhs {h['rhs']} +- {h['rhs_stderr']} misses {ref}")
        return probs, rep["stderr"] / abs(ref)

    def _kinematic_spec(self, chk, rep, _):
        probs = []
        if not _within(rep["difference"], 0.0, rep["combined_stderr"]):
            probs.append(f"difference {rep['difference']} +- {rep['combined_stderr']}")
        return probs, rep["combined_stderr"] / abs(rep["rhs"])

    def _evaluate(self, chk, rep, reports):
        vals = np.array(rep["values"], dtype=float)
        dirs = np.array(rep["directions"], dtype=float)
        probs = []
        if "same_as" in chk:
            ref = np.array(reports[chk["same_as"]]["values"], dtype=float)
            tol = EXACT
        elif chk["spec"] == "projection_body":
            ref = self.solids[chk["body"]].projection_support(dirs)
            tol = EXACT
        elif chk["spec"] == "difference_body":
            ref = self.solids[chk["body"]].width(dirs)
            tol = BERG
        else:
            ref, tol = vals, EXACT    # checked through its rotated twin
        if vals.shape != ref.shape or not np.all(np.isfinite(vals)):
            return [f"values of shape {vals.shape}, expected {ref.shape}"], None
        scale = float(np.max(np.abs(ref)))
        if not _close(vals, ref, scale, tol):
            dev = float(np.max(np.abs(vals - ref))) / scale
            probs.append(f"values deviate {dev:.3g} (relative) from the reference")
        if "crosscheck_deviation" in rep and not (
                rep["crosscheck_deviation"] <= rep["crosscheck_tolerance"]):
            probs.append("crosscheck beyond its tolerance")
        return probs, None

    def _check_valuation(self, chk, rep, _):
        if rep["skipped"] or rep["reason"]:
            return [f"split not exercised: {rep['reason']}"], None
        if not (rep["residual"] is not None and rep["residual"] <= 1e-6):
            return [f"additivity residual {rep['residual']}"], None
        return [], None

    def _area_measure(self, chk, rep, _):
        s = self.solids[chk["body"]]
        i = chk["i"]
        mass = 3.0 * kappa(3 - i) * s.iv[i] / math.comb(3, i)
        probs = []
        if not _close(rep["total_mass"], mass):
            probs.append(f"total mass {rep['total_mass']} != {mass}")
        if not _close(rep["intrinsic_volumes"], s.iv, max(s.iv)):
            probs.append(f"intrinsic volumes {rep['intrinsic_volumes']} != {s.iv}")
        pieces = {0: ("patches", s.num_vertices), 1: ("arcs", s.num_edges),
                  2: ("atoms", s.num_facets)}[i]
        if rep[pieces[0]] != pieces[1]:
            probs.append(f"{rep[pieces[0]]} {pieces[0]}, expected {pieces[1]}")
        return probs, None

    def _multipliers(self, chk, rep, _):
        n = chk["n"]
        cols = rep["columns"]
        rows = np.array(rep["rows"], dtype=float)
        col = {name: rows[:, idx] for idx, name in enumerate(cols)}
        k = col["k"]
        box_n = (1.0 - k) * (k + n - 1.0) / (n - 1.0)
        box_j = (1.0 - k) * (k + chk["berg"] - 1.0) / (chk["berg"] - 1.0)
        probs = []
        if not _close(col["box"], box_n, float(np.max(np.abs(box_n)))):
            probs.append("box multipliers differ from (1-k)(k+n-1)/(n-1)")
        # the Berg kernel inverts the box operator of its own dimension
        inv = np.delete(col["berg_native"] * box_j, 1)
        if not _close(inv, 1.0, 1.0):
            probs.append("berg_native * box_j != 1 away from k = 1")
        if n == chk["berg"] and not _close(col["berg_ambient"], col["berg_native"], 1.0):
            probs.append("ambient and native Berg multipliers differ for j = n")
        if not (np.all(np.isfinite(col["berg_ambient"])) and np.all(col["berg_bar"] >= 0)):
            probs.append("non-finite ambient Berg multipliers or bars")
        return probs, None

    def _lemma52(self, chk, rep, _):
        probs = []
        if not (rep["max_flux_residual"] is not None and rep["max_flux_residual"] <= 1e-8):
            probs.append(f"flux residual {rep['max_flux_residual']}")
        ratios = np.array(rep["ratios"], dtype=float)
        if rep["rejected"] or not (np.all(np.isfinite(ratios)) and np.all(ratios > 0)):
            probs.append("rejected profiles or non-finite C2/C0 ratios")
        return probs, None
