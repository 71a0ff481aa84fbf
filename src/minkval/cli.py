"""Command-line entry points.

One binary with subcommands; every run emits a JSON report that embeds the
fully resolved configuration (flags override a --config file, which
overrides defaults), so reruns are reproducible byte for byte apart from
the wall_time_s field.  Any option, the mandatory ones included, may come
from the config file.  Exit status: 0 when all declared checks pass, 1 on
a check failure, 2 on input errors (with a machine-readable error JSON),
command-line errors that argparse finds included.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import convex, integral_geom, valuation, zonal
from .constants import berg_multiplier_frac, box_multiplier_frac, kappa
from .harmonics import FLUX_QUAD_ORDER, ZonalPolynomial, regularity_probe

DATA_ENV = "MINKVAL_DATA"
BUILTIN_BODIES = ("cube", "simplex", "octahedron",
                  "random_hull_7", "random_hull_42")
MAX_DIM = 64   # largest ambient dimension n of multipliers and lemma52
REQUIRED = "(required, also from --config)"   # help of the options a command needs


class InputError(Exception):
    pass


def _data_dir() -> str | None:
    return os.environ.get(DATA_ENV)


def load_body(name: str) -> convex.Polytope:
    """Resolve a body argument: a JSON path, a corpus name (cube, simplex,
    octahedron -- looked up under $MINKVAL_DATA first, then the packaged
    data), "ball:depth", or "random:seed[:points]".  A body the lattice
    build rejects (such as one with non-finite coordinates) is an input
    error."""
    try:
        return _resolve_body(name)
    except ValueError as exc:
        raise InputError(f"bad body {name!r}: {exc}") from None


def _resolve_body(name: str) -> convex.Polytope:
    if os.path.exists(name):
        with open(name) as fh:
            return convex.Polytope.from_json(json.load(fh))
    stem = name[:-5] if name.endswith(".json") else name
    candidates = []
    if _data_dir():
        candidates.append(os.path.join(_data_dir(), stem + ".json"))
    for cand in candidates:
        if os.path.exists(cand):
            with open(cand) as fh:
                return convex.Polytope.from_json(json.load(fh))
    if stem in BUILTIN_BODIES:
        from importlib.resources import files
        text = files("minkval.data").joinpath(stem + ".json").read_text()
        return convex.Polytope.from_json(json.loads(text))
    if stem.startswith("ball:"):
        return convex.ball_polytope(int(stem.split(":")[1]))
    if stem.startswith("random:"):
        parts = stem.split(":")
        seed = int(parts[1])
        num = int(parts[2]) if len(parts) > 2 else 14
        return convex.random_hull(seed, num)
    raise InputError(f"cannot resolve body {name!r}")


def load_spec(name: str, kmax: int) -> valuation.MinkowskiValuationSpec:
    """Resolve a valuation spec: a JSON file in the schema of
    MinkowskiValuationSpec.to_json, or a builtin name.  A file that is not
    such JSON, an unknown builtin, or a spec of another dimension than the
    bodies' n = 3, is an input error."""
    try:
        if os.path.exists(name):
            with open(name) as fh:
                spec = valuation.MinkowskiValuationSpec.from_json(json.load(fh), kmax=kmax)
        else:
            spec = valuation.builtin_spec(name, kmax=kmax)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad valuation spec {name!r}: {exc}") from None
    if spec.n != 3:
        raise InputError(f"bad valuation spec {name!r}: bodies live in R^3, the spec has n = {spec.n}")
    return spec


def load_zonal(name: str, kmax: int) -> zonal.ZonalObject:
    """A builtin zonal measure on S^2 by name; an unknown or malformed name
    is an input error."""
    try:
        return zonal.builtin_zonal(name, n=3, kmax=kmax)
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad zonal measure {name!r}: {exc.args[0]}") from None


def _parse_vec(text: str) -> np.ndarray:
    try:
        v = [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse vector {text!r}") from None
    if len(v) != 3:
        raise InputError(f"expected 3 components, got {text!r}")
    if not all(map(math.isfinite, v)) or not any(v):
        raise InputError(f"need a finite nonzero vector, got {text!r}")
    return np.array(v)


def _parse_plane(text: str) -> tuple[np.ndarray, float]:
    """The plane nx,ny,nz,c of --plane: a finite nonzero normal, as
    _parse_vec reads it, and a finite offset."""
    parts = text.split(",")
    try:
        if len(parts) == 4 and math.isfinite(offset := float(parts[3])):
            return _parse_vec(",".join(parts[:3])), offset
    except (InputError, ValueError):
        pass
    raise InputError("--plane expects nx,ny,nz,c with a finite nonzero normal and a "
                     f"finite offset c, got {text!r}")


def _int_option(cfg: RunConfig, key: str, lo: int, hi: float = math.inf,
                default: int | None = None) -> int:
    """Integer option --key of the run, which must lie in [lo, hi].  A config
    file may give it as a JSON integer or an integral float; a string, a
    boolean or a fraction is an input error, not a truncation."""
    value = cfg.values.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"--{key} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        bound = f"at least {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise InputError(f"--{key} must be {bound}, got {value}")
    return value


def _float_option(cfg: RunConfig, key: str, default: float | None = None,
                  positive: bool = False) -> float:
    """Float option --key of the run: a finite number, and a positive one
    when `positive` (the tolerances).  From a config file a string, a
    boolean or null is an input error."""
    value = cfg.values.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise InputError(f"--{key} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise InputError(f"--{key} must be positive, got {value!r}")
    return float(value)


def _dir_option(cfg: RunConfig, default: str) -> list[str]:
    """The x,y,z texts of --dir: repeated flags, or a JSON list of such
    strings in a config file."""
    dirs = cfg.values.get("dir") or [default]
    if not isinstance(dirs, list) or not all(isinstance(d, str) for d in dirs):
        raise InputError(f"--dir must be a list of x,y,z strings, got {dirs!r}")
    return dirs


def _seed(cfg: RunConfig) -> int:
    """The --seed of a stochastic command: mandatory, a non-negative integer."""
    if cfg.values.get("seed") is None:
        raise InputError("--seed is mandatory for stochastic commands")
    return _int_option(cfg, "seed", 0)


def _spec_kmax(cfg: RunConfig) -> int:
    """The --kmax of a valuation spec or zonal measure: its multipliers run
    up to degree kmax, at most the Berg expansions' BERG_NATIVE_KMAX."""
    return _int_option(cfg, "kmax", 1, zonal.BERG_NATIVE_KMAX, zonal.DEFAULT_KMAX)


def _mc_size(cfg: RunConfig) -> tuple[int, int]:
    """Sample count N and shard count of a Monte-Carlo command: the standard
    error needs two shards, and every shard at least two samples."""
    shards = _int_option(cfg, "shards", 2, default=integral_geom.DEFAULT_SHARDS)
    return _int_option(cfg, "N", 2 * shards, default=200000), shards


def _write_outputs(report: dict, out: str | None, csv_rows=None,
                   csv_path: str | None = None, csv_header=None) -> None:
    """Write the report to `out` (stdout without it) and the rows to
    `csv_path`.  Both files are opened before anything is written, so a
    path that cannot be opened (OSError) leaves stdout empty."""
    payload = json.dumps(report, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
    csv_fh = open(csv_path, "w", newline="") if csv_path and csv_rows is not None else None
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        if csv_fh is not None:
            writer = csv.writer(csv_fh)
            if csv_header:
                writer.writerow(csv_header)
            writer.writerows(csv_rows)
    finally:
        if csv_fh is not None:
            csv_fh.close()


@dataclass
class RunConfig:
    """Resolved run configuration: merged defaults, config file, and flags."""

    command: str
    values: dict = field(default_factory=dict)

    def as_json(self) -> dict:
        return {"command": self.command, **self.values}


def _resolve_config(args, keys: list[str], required: tuple[str, ...] = ()) -> RunConfig:
    """Merge the flags of `keys` over the config file; the `required` keys
    must be given by one of them."""
    file_vals = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"bad config file: {exc}") from None
        if not isinstance(file_vals, dict):
            raise InputError("bad config file: the top level must be a JSON object, "
                             f"got {type(file_vals).__name__}")
    vals = {}
    for key in keys:
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val is not None:
            vals[key] = flag_val
        elif key in file_vals:
            vals[key] = file_vals[key]
    missing = [f"--{key}" for key in required if vals.get(key) is None]
    if missing:
        raise InputError(f"{args.cmd} needs {', '.join(missing)} (as flags or from --config)")
    # output destinations are not run parameters; keep the embedded config
    # byte-identical across reruns that only redirect their artifacts
    vals.pop("out", None)
    vals.pop("csv", None)
    return RunConfig(command=args.cmd, values=vals)


# -- subcommand handlers ------------------------------------------------------


def cmd_multipliers(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["n", "kmax", "berg", "box", "out", "csv"])
    n = _int_option(cfg, "n", 2, MAX_DIM, 3)
    kmax = _int_option(cfg, "kmax", 0, zonal.BERG_NATIVE_KMAX, 8)
    rows = []
    header = ["k"]
    want_berg = cfg.values.get("berg") is not None
    want_box = bool(cfg.values.get("box", True))
    table: dict[str, list] = {}
    if want_berg:
        j = _int_option(cfg, "berg", 2, n)
        _, ambient = zonal.berg(j, kmax=kmax, n=n)
        table["berg_native"] = [float(berg_multiplier_frac(j, k)) for k in range(kmax + 1)]
        table["berg_ambient"] = [float(v) for v in ambient.values]
        table["berg_bar"] = [0.0] * (kmax + 1) if ambient.error is None else \
            [float(e) for e in ambient.error]
        header += ["berg_native", "berg_ambient", "berg_bar"]
    if want_box:
        table["box"] = [float(box_multiplier_frac(n, k)) for k in range(kmax + 1)]
        header.append("box")
    for k in range(kmax + 1):
        rows.append([k] + [table[col][k] for col in header[1:]])
    report = {"config": cfg.as_json(), "columns": header, "rows": rows}
    return 0, report, rows, header


def cmd_area_measure(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["body", "i", "out", "csv", "tol"], required=("body", "i"))
    body = load_body(str(cfg.values["body"]))
    i = _int_option(cfg, "i", 0, 2)
    tol = _float_option(cfg, "tol", 1e-9, positive=True)
    meas = convex.area_measure(body, i)
    # S_0 is held as the uniform measure; the report lists the vertices'
    # normal cones instead, whose masses must tile the sphere
    atom_mass, arc_mass = (m.tolist() for m in meas.piece_masses())
    cone_mass = convex.normal_cone_masses(body).tolist() if i == 0 else []
    iv = convex.intrinsic_volumes(body)
    target = 3 * kappa(3 - i) * iv[i] / math.comb(3, i)
    total = sum(atom_mass) + sum(arc_mass) + sum(cone_mass)
    residual = abs(total - target)
    report = {
        "config": cfg.as_json(),
        "degree": i,
        "total_mass": total,
        "steiner_target": target,
        "residual": residual,
        "atoms": len(meas.atoms),
        "arcs": len(meas.arcs),
        "patches": len(cone_mass),
        "intrinsic_volumes": list(iv.as_tuple()),
        "pass": residual <= tol,
    }
    rows = [["atom", m, *map(float, u)] for (u, _), m in zip(meas.atoms, atom_mass)]
    rows += [["arc", m, *map(float, a.a), *map(float, a.b)] for a, m in zip(meas.arcs, arc_mass)]
    rows += [["patch", m] for m in cone_mass]
    return (0 if residual <= tol else 1), report, rows, ["piece", "mass", "data"]


def cmd_evaluate(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["spec", "body", "dir", "band", "path", "kmax",
                                 "crosscheck", "tol", "out", "csv"], required=("spec", "body"))
    kmax = _spec_kmax(cfg)
    spec = load_spec(str(cfg.values["spec"]), kmax)
    body = load_body(str(cfg.values["body"]))
    dirs = [_parse_vec(d) for d in _dir_option(cfg, "1,0,0")]
    band = None if cfg.values.get("band") is None else _int_option(cfg, "band", 0, kmax)
    path = cfg.values.get("path", "auto")
    if path not in valuation.PATHS:
        raise InputError(f"--path must be one of {', '.join(valuation.PATHS)}, got {path!r}")
    tol = _float_option(cfg, "tol", 1e-6, positive=True)
    res = _evaluate(spec, body, dirs, band=band, path=path)
    report = {
        "config": cfg.as_json(),
        "path": res.path,
        "band": res.band,
        "truncation_tail": res.truncation_tail,
        "directions": [list(map(float, d)) for d in res.directions],
        "values": [float(v) for v in res.values],
    }
    status = 0
    if cfg.values.get("crosscheck"):
        a = _evaluate(spec, body, dirs, path="pointwise")
        b = _evaluate(spec, body, dirs, path="spectral", band=band)
        dev = float(np.max(np.abs(a.values - b.values)))
        report["crosscheck_deviation"] = dev
        report["crosscheck_tolerance"] = tol + b.truncation_tail
        status = 0 if dev <= tol + b.truncation_tail else 1
    rows = [[*map(float, d), float(v)] for d, v in zip(res.directions, res.values)]
    return status, report, rows, ["x", "y", "z", "value"]


def _evaluate(spec, body, dirs, **options) -> valuation.SupportFunctionResult:
    """valuation.evaluate, whose errors are the input's (a datum with atoms
    on the pointwise path, a band beyond a datum): input errors here."""
    try:
        return valuation.evaluate(spec, body, np.array(dirs), **options)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_check_valuation(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["spec", "body", "plane", "num-dirs", "seed",
                                 "tol", "kmax", "out", "csv"], required=("spec", "body", "plane"))
    seed = _seed(cfg)
    kmax = _spec_kmax(cfg)
    spec = load_spec(str(cfg.values["spec"]), kmax)
    body = load_body(str(cfg.values["body"]))
    normal, offset = _parse_plane(str(cfg.values["plane"]))
    m = _int_option(cfg, "num-dirs", 1, default=50)
    tol = _float_option(cfg, "tol", 1e-6, positive=True)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((m, 3))
    point = normal / np.dot(normal, normal) * offset
    rep = valuation.valuation_identity_check(spec, body, point, normal, dirs)
    report = {
        "config": cfg.as_json(),
        "residual": rep.residual,
        "skipped": rep.skipped,
        "reason": rep.reason,
        "n_directions": rep.n_directions,
        "pass": rep.skipped or (rep.residual is not None and rep.residual <= tol),
    }
    return (0 if report["pass"] else 1), report, [], []


def cmd_crofton(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["body", "i", "j", "n", "N", "seed",
                                 "shards", "out", "csv"], required=("body", "i", "j"))
    seed = _seed(cfg)
    _int_option(cfg, "n", 3, 3, 3)   # geometric Crofton runs are restricted to n = 3
    N, shards = _mc_size(cfg)
    i = _int_option(cfg, "i", 1, 3)
    j = _int_option(cfg, "j", 0, 3 - i)
    body = load_body(str(cfg.values["body"]))
    rep = integral_geom.crofton_intrinsic(body, i, j, N, seed, shards=shards)
    ok = rep.within(3.0)
    report = {"config": cfg.as_json(), **rep.to_json(), "pass": ok}
    return (0 if ok else 1), report, [], []


def cmd_kinematic(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["body", "other", "j", "N", "seed", "hadwiger",
                                 "spec", "dir", "kmax", "shards", "out", "csv"], required=("body",))
    seed = _seed(cfg)
    N, shards = _mc_size(cfg)
    body = load_body(str(cfg.values["body"]))
    other = load_body(str(cfg.values.get("other", cfg.values["body"])))
    j = _int_option(cfg, "j", 0, 3, 0)
    if cfg.values.get("spec"):
        if cfg.values.get("hadwiger"):
            raise InputError("--hadwiger checks V_j runs; it does not apply with --spec")
        if "j" in cfg.values:
            raise InputError("--j selects V_j runs; it does not apply with --spec")
        # valuation-valued kinematic formula at a fixed direction
        spec = load_spec(str(cfg.values["spec"]), _spec_kmax(cfg))
        res = integral_geom.kinematic_minkowski_check(
            spec, body, other, _parse_vec(_dir_option(cfg, "0,0,1")[0]), N, seed, shards=shards)
        report = {"config": cfg.as_json(), **res, "pass": res["consistent_3sigma"]}
        return (0 if res["consistent_3sigma"] else 1), report, [], []
    if cfg.values.get("hadwiger"):
        # the left side of the decomposition is the kinematic estimate itself
        h = integral_geom.hadwiger_check(body, other, j, N, seed, shards=shards)
        rep = h["lhs"]
    else:
        rep = integral_geom.kinematic_check(body, other, j, N, seed, shards=shards)
    ok = rep.within(3.0)
    report = {"config": cfg.as_json(), **rep.to_json(), "pass": ok}
    if cfg.values.get("hadwiger"):
        report["hadwiger"] = {
            "rhs": h["rhs"], "rhs_stderr": h["rhs_stderr"],
            "difference": h["difference"],
            "combined_stderr": h["combined_stderr"],
            "consistent_3sigma": h["consistent_3sigma"],
        }
        ok = ok and h["consistent_3sigma"]
        report["pass"] = ok
    return (0 if ok else 1), report, [], []


def cmd_crofton_mv(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["body", "mu", "i", "j", "N", "seed", "degrees",
                                 "probe", "kmax", "shards", "out", "csv"], required=("body",))
    seed = _seed(cfg)
    N, shards = _mc_size(cfg)
    kmax = _spec_kmax(cfg)
    body = load_body(str(cfg.values["body"]))
    mu = load_zonal(str(cfg.values.get("mu", "dirac_pole")), kmax)
    degrees = str(cfg.values.get("degrees", "0,2,3,4")).split(",")
    if not all(k.strip().isdecimal() and int(k) <= kmax for k in degrees):
        raise InputError(f"--degrees must be integers in [0, kmax = {kmax}], "
                         f"got {','.join(degrees)}")
    degrees = [int(k) for k in degrees]
    probe = _parse_vec(str(cfg.values.get("probe", "0.36,-0.48,0.8")))
    i, j = _int_option(cfg, "i", 1, 1, 1), _int_option(cfg, "j", 1, 1, 1)
    res = integral_geom.crofton_minkowski(body, mu, i, j, N, seed,
                                          degrees=degrees, probe=probe, kmax=kmax,
                                          shards=shards)
    report = {"config": cfg.as_json(), **{k: v for k, v in res.items() if k != "rows"},
              "rows": res["rows"]}
    report["pass"] = res["all_pass"]
    csv_rows = [[r["k"], r["lhs"], r["rhs"], r["stderr"], r["berg_bar"]]
                for r in res["rows"]]
    return (0 if res["all_pass"] else 1), report, csv_rows, \
        ["k", "lhs", "rhs", "stderr", "berg_bar"]


def cmd_lemma52(args) -> tuple[int, dict, list, list]:
    cfg = _resolve_config(args, ["n", "samples", "seed", "q", "band",
                                 "flux-tol", "out", "csv"])
    seed = _seed(cfg)
    n = _int_option(cfg, "n", 2, MAX_DIM, 3)
    count = _int_option(cfg, "samples", 1, default=50)
    # the flux rule integrates profiles of degree band + 1 exactly
    band = _int_option(cfg, "band", 1, 2 * FLUX_QUAD_ORDER - 2, 8)
    q = None if cfg.values.get("q") is None else _float_option(cfg, "q")
    flux_tol = _float_option(cfg, "flux-tol", 1e-8, positive=True)
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(count):
        coeffs = rng.normal(size=band + 1)
        coeffs[1] = 0.0
        profiles.append(ZonalPolynomial(n, coeffs))
    rep = regularity_probe(profiles, n, q=q)
    ok = rep["max_flux_residual"] is not None and rep["max_flux_residual"] <= flux_tol
    report = {
        "config": cfg.as_json(),
        "operator": rep["operator"],
        "sup_ratio": rep["sup_ratio"],
        "max_flux_residual": rep["max_flux_residual"],
        "rejected": len(rep["rejected"]),
        "ratios": rep["ratios"],
        "pass": ok,
    }
    rows = [[k, r, f] for k, (r, f) in enumerate(zip(rep["ratios"], rep["flux_residuals"]))]
    return (0 if ok else 1), report, rows, ["sample", "ratio", "flux_residual"]


HANDLERS = {
    "multipliers": cmd_multipliers,
    "area-measure": cmd_area_measure,
    "evaluate": cmd_evaluate,
    "check-valuation": cmd_check_valuation,
    "crofton": cmd_crofton,
    "kinematic": cmd_kinematic,
    "crofton-mv": cmd_crofton_mv,
    "lemma52": cmd_lemma52,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors, reported as the
    error JSON with exit code 2 instead of a usage message."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="minkval", description="Minkowski valuation calculus on convex polytopes")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file (flags take precedence)")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--csv", help="write tabular output as CSV")

    sp = sub.add_parser("multipliers", help="dump multiplier tables (box, Berg)")
    sp.add_argument("--n", type=int)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--berg", type=int, help="Berg kernel dimension j")
    sp.add_argument("--box", action="store_const", const=True)
    common(sp)

    sp = sub.add_parser("area-measure", help="area measure summary of a body")
    sp.add_argument("--body", help=REQUIRED)
    sp.add_argument("--i", type=int, help=REQUIRED)
    sp.add_argument("--tol", type=float)
    common(sp)

    sp = sub.add_parser("evaluate", help="evaluate a valuation on a body")
    sp.add_argument("--spec", help=REQUIRED)
    sp.add_argument("--body", help=REQUIRED)
    sp.add_argument("--dir", action="append")
    sp.add_argument("--band", type=int)
    sp.add_argument("--path", choices=valuation.PATHS)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--crosscheck", action="store_const", const=True)
    sp.add_argument("--tol", type=float)
    common(sp)

    sp = sub.add_parser("check-valuation", help="finite-additivity residual under a split")
    sp.add_argument("--spec", help=REQUIRED)
    sp.add_argument("--body", help=REQUIRED)
    sp.add_argument("--plane", help=f"nx,ny,nz,c {REQUIRED}")
    sp.add_argument("--num-dirs", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--kmax", type=int)
    common(sp)

    sp = sub.add_parser("crofton", help="Monte-Carlo Crofton formula check")
    sp.add_argument("--body", help=REQUIRED)
    sp.add_argument("--i", type=int, help=REQUIRED)
    sp.add_argument("--j", type=int, help=REQUIRED)
    sp.add_argument("--n", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--shards", type=int)
    common(sp)

    sp = sub.add_parser("kinematic", help="Monte-Carlo kinematic formula check")
    sp.add_argument("--body", help=REQUIRED)
    sp.add_argument("--other")
    sp.add_argument("--j", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--hadwiger", action="store_const", const=True)
    sp.add_argument("--spec", help="check the valuation-valued formula instead of V_j")
    sp.add_argument("--dir", action="append", help="probe direction for --spec")
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--shards", type=int)
    common(sp)

    sp = sub.add_parser("crofton-mv", help="per-degree Crofton check for a Minkowski valuation")
    sp.add_argument("--body", help=REQUIRED)
    sp.add_argument("--mu")
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--degrees")
    sp.add_argument("--probe")
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--shards", type=int)
    common(sp)

    sp = sub.add_parser("lemma52", help="regularity probe: flux identity and C2/C0 ratios")
    sp.add_argument("--n", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--q", type=float)
    sp.add_argument("--band", type=int)
    sp.add_argument("--flux-tol", type=float)
    common(sp)

    return p


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        status, report, csv_rows, csv_header = HANDLERS[args.cmd](args)
    except InputError as exc:
        # a command line that argparse rejects has no --out to trust
        return _fail(str(exc), getattr(args, "out", None))
    try:
        _write_outputs(report, getattr(args, "out", None),
                       csv_rows=csv_rows, csv_path=getattr(args, "csv", None),
                       csv_header=csv_header)
    except OSError as exc:
        return _fail(f"cannot write the output: {exc}", None)
    return status


def _fail(message: str, out: str | None) -> int:
    """Write the error JSON to `out`, or to stdout when there is no `out`
    or it cannot be written; the exit code of an input error."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(_error_json(message))
            return 2
        except OSError as exc:
            message = f"{message}; cannot write --out: {exc}"
    sys.stdout.write(_error_json(message))
    return 2


def _error_json(message: str) -> str:
    return json.dumps({"error": message}, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.exit(main())
