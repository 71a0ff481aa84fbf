"""Command-line entry points.

One binary with subcommands; every run emits a JSON report that embeds its
configuration as given (flags override a --config file, which overrides
defaults; the defaults are not embedded), so reruns are reproducible byte
for byte apart from the wall_time_s field.  Each option of a command is
declared once, in COMMANDS: its name, type, range, default and whether the
command needs it.  That table builds the argument parser and its --help
texts, merges the flags over the config file and checks every value, so
any option, the mandatory ones included, may come from the config file.
Exit status: 0 when all declared checks pass, 1 on a check failure, 2 on
input errors (with a machine-readable error JSON), command-line errors that
argparse finds included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np

from . import convex, integral_geom, valuation, zonal
from .constants import berg_multiplier_frac, box_multiplier_frac, kappa
from .harmonics import FLUX_QUAD_ORDER, ZonalPolynomial, regularity_probe
from .integral_geom import agrees

DATA_ENV = "MINKVAL_DATA"
BUILTIN_BODIES = ("cube", "simplex", "octahedron",
                  "random_hull_7", "random_hull_42")
MAX_DIM = 64          # largest ambient dimension n of multipliers and lemma52
MAX_SHARD_N = 10**6   # most samples per shard
MAX_SHARDS = 10_000   # largest --shards: the shard reduction holds O(shards) arrays
MAX_COUNT = 10_000    # largest --num-dirs and --samples
MAX_BALL_DEPTH = 6    # ball:6 has 16386 vertices; each level has 4x as many
MAX_POINTS = 100_000  # largest POINTS of random:SEED:POINTS


class InputError(Exception):
    pass


def load_body(name: str, full_dimensional: bool = False) -> convex.Polytope:
    """Resolve a body argument: a JSON path, a corpus name (cube, simplex,
    octahedron -- looked up under $MINKVAL_DATA first, then the packaged
    data), "ball:DEPTH" (DEPTH in [0, MAX_BALL_DEPTH]), or
    "random:SEED[:POINTS]" (POINTS in [1, MAX_POINTS]).  A body the lattice
    build rejects (such as one with non-finite coordinates) is an input
    error, and so is a lower-dimensional one where the command samples it
    by Monte Carlo (`full_dimensional`)."""
    try:
        body = _resolve_body(name)
        if full_dimensional:
            integral_geom.check_full_dimensional(body)
        return body
    except ValueError as exc:
        raise InputError(f"bad body {name!r}: {exc}") from None


def _resolve_body(name: str) -> convex.Polytope:
    stem = name[:-5] if name.endswith(".json") else name
    data = os.environ.get(DATA_ENV)
    for path in (name, os.path.join(data, stem + ".json")) if data else (name,):
        if os.path.exists(path):
            with open(path) as fh:
                return convex.Polytope.from_json(json.load(fh))
    if stem in BUILTIN_BODIES:
        from importlib.resources import files
        text = files("minkval.data").joinpath(stem + ".json").read_text()
        return convex.Polytope.from_json(json.loads(text))
    if stem.startswith("ball:"):
        return convex.ball_polytope(_bounded(stem[5:], "DEPTH", 0, MAX_BALL_DEPTH))
    if stem.startswith("random:"):
        seed, _, num = stem[7:].partition(":")
        return convex.random_hull(int(seed), _bounded(num or "14", "POINTS", 1, MAX_POINTS))
    raise InputError(f"cannot resolve body {name!r}")


def _bounded(text: str, what: str, lo: int, hi: int) -> int:
    """The integer `text` of a body generator, which must lie in [lo, hi]."""
    value = int(text)
    if not lo <= value <= hi:
        raise ValueError(f"{what} must be in [{lo}, {hi}], got {value}")
    return value


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


# -- option types: each reads the JSON value of a config file ---------------


def _number(v) -> bool:
    """A JSON number; a boolean is not one."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _text(v) -> bool:
    return isinstance(v, str) and v != ""


def _parse_vec(text: str) -> np.ndarray:
    """A vector x,y,z whose squared length is a finite nonzero float, so
    that it can be normalized."""
    v = [float(x) for x in text.split(",")]
    if len(v) != 3 or not 0 < sum(x * x for x in v) < math.inf:
        raise ValueError(text)
    return np.array(v)


def _parse_plane(text: str) -> tuple[np.ndarray, float]:
    """The plane nx,ny,nz,c: a normal as _parse_vec reads it, and a finite
    offset."""
    *normal, offset = text.split(",")
    if not math.isfinite(offset := float(offset)):
        raise ValueError(text)
    return _parse_vec(",".join(normal)), offset


@dataclass(frozen=True)
class Type:
    """How an option is read: a JSON value (from a config file, or from the
    flag, which argparse reads with the keywords `flag`) that passes `test`
    is `what`, and the handler uses `convert` of it, which may still raise
    ValueError.  An integral float is an integer, a boolean is not a
    number, and nothing is truncated."""

    what: str
    test: Callable[[object], bool]
    convert: Callable = lambda v: v
    flag: dict = field(default_factory=dict)


INT = Type("an integer", lambda v: _number(v) and v == int(v), int, {"type": int})
FLOAT = Type("a finite number", lambda v: _number(v) and math.isfinite(v), float,
             {"type": float})
POSITIVE = Type("a positive finite number", lambda v: _number(v) and math.isfinite(v) and v > 0,
                float, {"type": float})
BOOL = Type("true or false", lambda v: isinstance(v, bool),
            flag={"action": argparse.BooleanOptionalAction})
TEXT = Type("a nonempty string", _text)
VEC = Type("a vector x,y,z of finite nonzero length", _text, _parse_vec)
PLANE = Type("nx,ny,nz,c with a normal of finite nonzero length and a finite offset c",
             _text, _parse_plane)
DIRS = Type("vectors x,y,z of finite nonzero length (repeat the flag; a JSON list of "
            "such strings in --config)",
            lambda v: isinstance(v, list) and v and all(map(_text, v)),
            lambda dirs: [_parse_vec(d) for d in dirs], {"action": "append"})
DEGREES = Type("comma-separated integers", _text, lambda t: [int(k) for k in t.split(",")])
PATH = Type(f"one of {', '.join(valuation.PATHS)}", lambda v: v in valuation.PATHS)


@dataclass(frozen=True)
class Bound:
    """A bound that other options set: `text` names it in help and errors,
    `of` computes it from their values."""

    text: str
    of: Callable[[dict], int]


@dataclass(frozen=True)
class Option:
    """An option --name of a command: its type; the range [lo, hi] of an
    integer, or of each degree (a Bound where other options set it, no hi
    where it has no upper bound); its default; and whether the command
    needs it.  A default of None leaves the option unset, and a null in
    --config means the same."""

    name: str
    type: Type
    lo: int | Bound | None = None
    hi: int | Bound | None = None
    default: object = None
    required: bool = False
    help: str = ""

    def read(self, raw, values: dict):
        """What the handler uses of `raw`, the option's JSON value, checked
        against the type and the range; `values` holds those of the options
        declared before it, which its Bounds read."""
        if raw is None and self.default is None:
            return None
        try:
            if self.type.test(raw):
                value = self.type.convert(raw)
                lo, hi = (b.of(values) if isinstance(b, Bound) else b for b in (self.lo, self.hi))
                if lo is None or all(lo <= v and (hi is None or v <= hi)
                                     for v in (value if isinstance(value, list) else [value])):
                    return value
        except (TypeError, ValueError, OverflowError):
            pass
        raise InputError(f"--{self.name} must be {self.what(values)}, got {raw!r}")

    def what(self, values: dict | None = None) -> str:
        """The type and range, as help and errors state them; errors show
        the values of the Bounds too."""
        if self.lo is None:
            return self.type.what
        lo, hi = (b if not isinstance(b, Bound) else b.text if values is None
                  else f"{b.text} = {b.of(values)}" for b in (self.lo, self.hi))
        return f"{self.type.what} " + (f"at least {lo}" if hi is None else f"in [{lo}, {hi}]")

    def describe(self) -> str:
        """The --help text: meaning, type, range, and default or need."""
        text = self.what()
        if self.required:
            text += "; required, also from --config"
        elif self.default is not None:
            text += f"; default {json.dumps(self.default)}"
        return f"{self.help}: {text}" if self.help else text


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
    """The options of a run as given, flags over the config file (the
    report's "config"), and as read (`cfg[name]`), defaults included."""

    given: dict
    values: dict

    def __getitem__(self, name: str):
        return self.values[name]


def _resolve_config(args, options: tuple[Option, ...]) -> RunConfig:
    """Merge the flags of the command's options over the config file, and
    read every option in declaration order; the required ones must be
    given by one of them."""
    file_vals = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_vals = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"bad config file: {exc}") from None
        if not isinstance(file_vals, dict):
            raise InputError("bad config file: the top level must be a JSON object, "
                             f"got {type(file_vals).__name__}")
    given = {}
    for opt in options:
        flag_val = getattr(args, opt.name.replace("-", "_"))
        if flag_val is not None:
            given[opt.name] = flag_val
        elif opt.name in file_vals:
            given[opt.name] = file_vals[opt.name]
    missing = [f"--{opt.name}" for opt in options if opt.required and given.get(opt.name) is None]
    if missing:
        raise InputError(f"{args.cmd} needs {', '.join(missing)} (as flags or from --config)")
    values = {}
    for opt in options:
        values[opt.name] = opt.read(given.get(opt.name, opt.default), values)
    return RunConfig(given, values)


# -- subcommand handlers ------------------------------------------------------


def cmd_multipliers(cfg: RunConfig) -> tuple[int, dict, list, list]:
    n, kmax, j = cfg["n"], cfg["kmax"], cfg["berg"]
    rows = []
    header = ["k"]
    table: dict[str, list] = {}
    if j is not None:
        _, ambient = zonal.berg(j, kmax=kmax, n=n)
        table["berg_native"] = [float(berg_multiplier_frac(j, k)) for k in range(kmax + 1)]
        table["berg_ambient"] = [float(v) for v in ambient.values]
        table["berg_bar"] = [0.0] * (kmax + 1) if ambient.error is None else \
            [float(e) for e in ambient.error]
        header += ["berg_native", "berg_ambient", "berg_bar"]
    if cfg["box"]:
        table["box"] = [float(box_multiplier_frac(n, k)) for k in range(kmax + 1)]
        header.append("box")
    for k in range(kmax + 1):
        rows.append([k] + [table[col][k] for col in header[1:]])
    report = {"columns": header, "rows": rows}
    return 0, report, rows, header


def _rows(kind: str, *columns) -> list[list]:
    """CSV rows: `kind`, then the Python floats of the columns."""
    return np.column_stack([np.full(len(columns[0]), kind, dtype=object), *columns]).tolist()


def cmd_area_measure(cfg: RunConfig) -> tuple[int, dict, list, list]:
    body = load_body(cfg["body"])
    i, tol = cfg["i"], cfg["tol"]
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
        "degree": i,
        "total_mass": total,
        "steiner_target": target,
        "residual": residual,
        "atoms": len(atom_mass),
        "arcs": len(arc_mass),
        "patches": len(cone_mass),
        "intrinsic_volumes": list(iv.as_tuple()),
        "pass": agrees(residual, 0.0, abs(total) + abs(target), tol),
    }
    rows = [*_rows("atom", atom_mass, meas.atoms.normal),
            *_rows("arc", arc_mass, meas.arcs.a, meas.arcs.b), *_rows("patch", cone_mass)]
    return (0 if report["pass"] else 1), report, rows, ["piece", "mass", "data"]


def cmd_evaluate(cfg: RunConfig) -> tuple[int, dict, list, list]:
    spec = load_spec(cfg["spec"], cfg["kmax"])
    body = load_body(cfg["body"])
    dirs, band, tol = cfg["dir"], cfg["band"], cfg["tol"]
    res = _evaluate(spec, body, dirs, band=band, path=cfg["path"])
    report = {
        "path": res.path,
        "band": res.band,
        "truncation_tail": res.truncation_tail,
        "directions": [list(map(float, d)) for d in res.directions],
        "values": [float(v) for v in res.values],
    }
    status = 0
    if cfg["crosscheck"]:
        if res.path == "spectral":
            a, b = _evaluate(spec, body, dirs, path="pointwise"), res
        else:
            a, b = res, _evaluate(spec, body, dirs, path="spectral", band=band)
        dev = float(np.max(np.abs(a.values - b.values)))
        scale = float(np.max(np.abs(a.values) + np.abs(b.values)))
        report["crosscheck_deviation"] = dev
        report["crosscheck_tolerance"] = b.truncation_tail + tol * scale
        status = 0 if agrees(dev, b.truncation_tail, scale, tol) else 1
    rows = [[*map(float, d), float(v)] for d, v in zip(res.directions, res.values)]
    return status, report, rows, ["x", "y", "z", "value"]


def _evaluate(spec, body, dirs, **options) -> valuation.SupportFunctionResult:
    """valuation.evaluate, whose errors are the input's (a datum with atoms
    on the pointwise path, a band beyond a datum): input errors here."""
    try:
        return valuation.evaluate(spec, body, np.array(dirs), **options)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_check_valuation(cfg: RunConfig) -> tuple[int, dict, list, list]:
    spec = load_spec(cfg["spec"], cfg["kmax"])
    body = load_body(cfg["body"])
    normal, offset = cfg["plane"]
    rng = np.random.default_rng(cfg["seed"])
    dirs = rng.standard_normal((cfg["num-dirs"], 3))
    point = normal / np.dot(normal, normal) * offset
    rep = valuation.valuation_identity_check(spec, body, point, normal, dirs)
    report = {
        "residual": rep.residual,
        "skipped": rep.skipped,
        "reason": rep.reason,
        "n_directions": rep.n_directions,
        "scale": rep.scale,
        "pass": rep.skipped or agrees(rep.residual, 0.0, rep.scale, cfg["tol"]),
    }
    return (0 if report["pass"] else 1), report, [], []


def cmd_crofton(cfg: RunConfig) -> tuple[int, dict, list, list]:
    body = load_body(cfg["body"], full_dimensional=True)
    rep = integral_geom.crofton_intrinsic(body, cfg["i"], cfg["j"], cfg["N"], cfg["seed"],
                                          shards=cfg["shards"])
    ok = rep.within(3.0)
    report = {**rep.to_json(), "pass": ok}
    return (0 if ok else 1), report, [], []


def cmd_kinematic(cfg: RunConfig) -> tuple[int, dict, list, list]:
    N, seed, shards, hadwiger = cfg["N"], cfg["seed"], cfg["shards"], cfg["hadwiger"]
    body = load_body(cfg["body"], full_dimensional=True)
    other = load_body(cfg["other"] or cfg["body"], full_dimensional=True)
    if cfg["spec"] is not None:
        if hadwiger:
            raise InputError("--hadwiger checks V_j runs; it does not apply with --spec")
        if "j" in cfg.given:
            raise InputError("--j selects V_j runs; it does not apply with --spec")
        if len(cfg["dir"]) > 1:
            raise InputError(f"--spec checks the formula at one --dir, got {len(cfg['dir'])}")
        # valuation-valued kinematic formula at a fixed direction
        spec = load_spec(cfg["spec"], cfg["kmax"])
        res = integral_geom.kinematic_minkowski_check(
            spec, body, other, cfg["dir"][0], N, seed, shards=shards)
        report = {**res, "pass": res["consistent_3sigma"]}
        return (0 if res["consistent_3sigma"] else 1), report, [], []
    if hadwiger:
        # the left side of the decomposition is the kinematic estimate itself
        h = integral_geom.hadwiger_check(body, other, cfg["j"], N, seed, shards=shards)
        rep = h["lhs"]
    else:
        rep = integral_geom.kinematic_check(body, other, cfg["j"], N, seed, shards=shards)
    ok = rep.within(3.0)
    report = {**rep.to_json(), "pass": ok}
    if hadwiger:
        report["hadwiger"] = {key: h[key] for key in ("rhs", "rhs_stderr", "difference",
                                                      "combined_stderr", "consistent_3sigma")}
        report["pass"] = ok = ok and h["consistent_3sigma"]
    return (0 if ok else 1), report, [], []


def cmd_crofton_mv(cfg: RunConfig) -> tuple[int, dict, list, list]:
    kmax = cfg["kmax"]
    body = load_body(cfg["body"], full_dimensional=True)
    mu = load_zonal(cfg["mu"], kmax)
    res = integral_geom.crofton_minkowski(body, mu, cfg["i"], cfg["j"], cfg["N"], cfg["seed"],
                                          degrees=cfg["degrees"], probe=cfg["probe"],
                                          kmax=kmax, shards=cfg["shards"])
    report = {**res, "pass": res["all_pass"]}
    csv_rows = [[r["k"], r["lhs"], r["rhs"], r["stderr"], r["berg_bar"]]
                for r in res["rows"]]
    return (0 if res["all_pass"] else 1), report, csv_rows, \
        ["k", "lhs", "rhs", "stderr", "berg_bar"]


def cmd_lemma52(cfg: RunConfig) -> tuple[int, dict, list, list]:
    n, band = cfg["n"], cfg["band"]
    rng = np.random.default_rng(cfg["seed"])
    profiles = []
    for _ in range(cfg["samples"]):
        coeffs = rng.normal(size=band + 1)
        coeffs[1] = 0.0
        profiles.append(ZonalPolynomial(n, coeffs))
    rep = regularity_probe(profiles, n, q=cfg["q"])
    if not rep["ratios"]:
        reasons = sorted({r["reason"] for r in rep["rejected"]})
        raise InputError(f"lemma52 has no ratio: the probe rejected every profile "
                         f"({', '.join(reasons)}; --band {band}, --q {rep['q']})")
    flux = rep["max_flux_residual"]
    ok = flux is not None and agrees(flux, cfg["flux-tol"], 0.0)
    report = {
        "operator": rep["operator"],
        "sup_ratio": rep["sup_ratio"],
        "max_flux_residual": rep["max_flux_residual"],
        "rejected": len(rep["rejected"]),
        "ratios": rep["ratios"],
        "pass": ok,
    }
    rows = [[k, r, f] for k, (r, f) in enumerate(zip(rep["ratios"], rep["flux_residuals"]))]
    return (0 if ok else 1), report, rows, ["sample", "ratio", "flux_residual"]


# -- the options of every command ---------------------------------------------


@dataclass(frozen=True)
class Command:
    """A subcommand: its handler, its --help line, and its options in the
    order they are read (an option's Bounds read options before it)."""

    run: Callable[[RunConfig], tuple[int, dict, list, list]]
    help: str
    options: tuple[Option, ...]


BODY = Option("body", TEXT, required=True,
              help="JSON path, corpus name, ball:DEPTH or random:SEED[:POINTS]")
SPEC = Option("spec", TEXT, required=True, help="valuation spec: JSON path or builtin name")
SPEC_KMAX = Option("kmax", INT, 1, zonal.BERG_NATIVE_KMAX, zonal.DEFAULT_KMAX,
                   help="highest degree of the multipliers")
SEED = Option("seed", INT, 0, required=True)
# the standard error needs two shards, and every shard at least two samples
MONTE_CARLO = (
    Option("shards", INT, 2, MAX_SHARDS, integral_geom.DEFAULT_SHARDS),
    Option("N", INT, Bound("2 * shards", lambda v: 2 * v["shards"]),
           Bound(f"{MAX_SHARD_N} * shards", lambda v: MAX_SHARD_N * v["shards"]), 200000,
           help="number of samples"),
    SEED)
KMAX_BOUND = Bound("kmax", itemgetter("kmax"))

COMMANDS = {
    "multipliers": Command(cmd_multipliers, "dump multiplier tables (box, Berg)", (
        Option("n", INT, 2, MAX_DIM, 3),
        Option("kmax", INT, 0, zonal.BERG_NATIVE_KMAX, 8),
        Option("berg", INT, 2, Bound("n", itemgetter("n")), help="Berg kernel dimension j"),
        Option("box", BOOL, default=True))),
    "area-measure": Command(cmd_area_measure, "area measure summary of a body", (
        BODY,
        Option("i", INT, 0, 2, required=True),
        Option("tol", POSITIVE, default=1e-9,
               help="largest residual relative to |total_mass| + |steiner_target|"))),
    "evaluate": Command(cmd_evaluate, "evaluate a valuation on a body", (
        SPEC, BODY,
        Option("dir", DIRS, default=["1,0,0"]),
        SPEC_KMAX,
        Option("band", INT, 0, KMAX_BOUND, help="band limit of the spectral path"),
        Option("path", PATH, default="auto"),
        Option("crosscheck", BOOL, default=False,
               help="compare the pointwise and spectral paths"),
        Option("tol", POSITIVE, default=1e-6,
               help="largest deviation beyond the truncation tail, relative to the "
                    "largest |pointwise| + |spectral| value"))),
    "check-valuation": Command(cmd_check_valuation, "finite-additivity residual under a split", (
        SPEC, BODY,
        Option("plane", PLANE, required=True),
        Option("num-dirs", INT, 1, MAX_COUNT, 50),
        SEED,
        Option("tol", POSITIVE, default=1e-6,
               help="largest residual relative to the reported scale of the values"),
        SPEC_KMAX)),
    "crofton": Command(cmd_crofton, "Monte-Carlo Crofton formula check", (
        BODY,
        Option("i", INT, 1, 3, required=True),
        Option("j", INT, 0, Bound("3 - i", lambda v: 3 - v["i"]), required=True),
        # geometric Crofton runs are restricted to n = 3
        Option("n", INT, 3, 3, 3),
        *MONTE_CARLO)),
    "kinematic": Command(cmd_kinematic, "Monte-Carlo kinematic formula check", (
        BODY,
        Option("other", TEXT, help="the moving body, --body without it"),
        Option("j", INT, 0, 3, 0),
        *MONTE_CARLO,
        Option("hadwiger", BOOL, default=False),
        Option("spec", TEXT, help="check the valuation-valued formula instead of V_j"),
        Option("dir", DIRS, default=["0,0,1"], help="probe direction for --spec"),
        SPEC_KMAX)),
    "crofton-mv": Command(cmd_crofton_mv, "per-degree Crofton check for a Minkowski valuation", (
        BODY,
        Option("mu", TEXT, default="dirac_pole", help="builtin zonal measure"),
        Option("i", INT, 1, 1, 1),
        Option("j", INT, 1, 1, 1),
        *MONTE_CARLO,
        SPEC_KMAX,
        Option("degrees", DEGREES, 0, KMAX_BOUND, default="0,2,3,4"),
        Option("probe", VEC, default="0.36,-0.48,0.8"))),
    "lemma52": Command(cmd_lemma52, "regularity probe: flux identity and C2/C0 ratios", (
        Option("n", INT, 2, MAX_DIM, 3),
        Option("samples", INT, 1, MAX_COUNT, 50),
        SEED,
        Option("q", FLOAT),
        # the flux rule integrates profiles of degree band + 1 exactly
        Option("band", INT, 1, 2 * FLUX_QUAD_ORDER - 2, 8),
        Option("flux-tol", POSITIVE, default=1e-8))),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors, reported as the
    error JSON with exit code 2 instead of a usage message."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built from COMMANDS on the first call
    and shared by the later ones (parse_args leaves it unchanged)."""
    p = _Parser(prog="minkval", description="Minkowski valuation calculus on convex polytopes")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help)
        for opt in command.options:
            sp.add_argument(f"--{opt.name}", default=None, help=opt.describe(),
                            **opt.type.flag)
        sp.add_argument("--config", help="JSON config file (flags take precedence)")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--csv", help="write tabular output as CSV")
    return p


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.cmd]
        cfg = _resolve_config(args, command.options)
        status, report, csv_rows, csv_header = command.run(cfg)
    except InputError as exc:
        # a command line that argparse rejects has no --out to trust
        return _fail(str(exc), getattr(args, "out", None))
    try:
        _write_outputs({"config": {"command": args.cmd, **cfg.given}, **report}, args.out,
                       csv_rows=csv_rows, csv_path=args.csv, csv_header=csv_header)
    except OSError as exc:
        return _fail(f"cannot write the output: {exc}", None)
    return status


def _fail(message: str, out: str | None) -> int:
    """Write the error JSON to `out`, or to stdout when there is no `out`
    or it cannot be written; the exit code of an input error."""
    try:
        _write_outputs({"error": message}, out)
    except OSError as exc:
        _write_outputs({"error": f"{message}; cannot write --out: {exc}"}, None)
    return 2


if __name__ == "__main__":
    sys.exit(main())
