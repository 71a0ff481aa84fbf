"""Benchmark of the minkval command line.

    python3 perfbench/run.py --workload {sections,motions,analytic} \
        --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed (workloads.py), computes their
reference values without minkval (reference.py), and starts a fresh process
(measure.py) that drives ``minkval.cli.main`` through the workload's
commands, one after another, for about S seconds.  Every report is checked;
the last line of stdout is one JSON object with the verdict and the metrics
that BENCHMARK.json lists: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (one untraced and one traced process, S/2
seconds each).  A full record, and with --trace 1 the spans, go to
perfbench/_out/.

Run it from the root of a checkout that holds src/minkval; without the
program it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import Checker  # noqa: E402

SETUP_PROBES = 5        # fresh imports timed per run; setup_s is their median
DEADLINE_S = 170.0      # the whole run ends before this, or fails
# Times are reported at the speed where measure.calibrate() takes this long
# (about this machine's fast phase): t * REFERENCE_CAL_S / c, with c the
# calibration time measured around t.
REFERENCE_CAL_S = 0.025


class RunFailed(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MINKVAL_DATA", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # the measuring process runs on one core (see measure.py), so one thread
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def measure(work: Path, seconds: float, deadline: float, *, probes: int = 0,
            trace: bool = False, spans: Path | None = None) -> dict:
    out = work / ("traced.json" if trace else "untraced.json")
    argv = [sys.executable, str(HERE / "measure.py"), "--plan", str(work / "plan.json"),
            "--out", str(out), "--seconds", repr(seconds), "--probes", str(probes)]
    if trace:
        argv += ["--trace", "--spans", str(spans)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("time budget spent before a measuring process could start")
    # its own process group, so that a timeout also stops its setup probes
    proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunFailed("the measuring process ran past the time budget") from None
    if code != 0:
        raise RunFailed(f"the measuring process exited with code {code}")
    return json.loads(out.read_text())


def speed_factor(result: dict) -> float:
    """REFERENCE_CAL_S over the median calibration of one measuring process:
    the scale of the setup probes, which run in a process of their own."""
    cals = [c for run in result["passes"] for c in run["calibration_s"]]
    cals += [c for p in result["probes"] for c in p["calibration_s"]]
    return REFERENCE_CAL_S / statistics.median(cals)


def command_times(commands: list[dict], passes: list[dict]) -> dict:
    """Each command's median over the passes of its time scaled by the
    calibrations just before and after it."""
    return {c["cid"]: statistics.median(REFERENCE_CAL_S * run["records"][k]["wall"]
                                        / statistics.mean(run["calibration_s"][k:k + 2])
                                        for run in passes)
            for k, c in enumerate(commands)}


def strip_wall(obj):
    """A report without its wall_time_s fields, which alone may differ
    between reruns."""
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [strip_wall(v) for v in obj]
    return obj


class Tally:
    """Verdicts over every command run in one benchmark run."""

    def __init__(self, commands: list[dict], checker: Checker):
        self.commands = commands
        self.checker = checker
        self.problems: list[str] = []
        self.attempted = self.failed = self.trips = 0

    def assess(self, passes: list[dict], label: str, first: dict | None = None):
        """Check every command of every pass against the references and,
        apart from wall_time_s, against `first` (the reports of the first
        untraced pass).  Returns the relative standard errors and `first`."""
        rses = {}
        for p, run in enumerate(passes):
            reports = {}
            for cmd, rec in zip(self.commands, run["records"]):
                probs, rse, report = self._check(cmd, rec, reports)
                if report is not None:
                    reports[cmd["cid"]] = report
                    if first is not None and strip_wall(report) != first.get(cmd["cid"]):
                        probs.append("report differs from the first untraced pass")
                self.attempted += 1
                if probs:
                    self.failed += 1
                    self.problems.append(f"{label} pass {p} {cmd['cid']}: " + "; ".join(probs))
                elif rec["rc"] == 1:
                    self.trips += 1
                rses.setdefault(cmd["cid"], rse)
            if first is None:
                first = {cid: strip_wall(r) for cid, r in reports.items()}
        return rses, first

    def _check(self, cmd, rec, reports):
        if rec["error"]:
            return ["raised " + rec["error"].strip().splitlines()[-1]], None, None
        try:
            report = json.loads(rec["stdout"], parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"report is not strict JSON ({exc}); exit code {rec['rc']}"], None, None
        try:
            probs, rse = self.checker.check(cmd, rec["rc"], report, reports)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            probs, rse = [f"report lacks an expected field: {exc!r}"], None
        return probs, rse, report


def time_metrics(commands: list[dict], walls: dict, rses: dict) -> dict:
    def total(select, field=None):
        return sum(c[field] if field else walls[c["cid"]] for c in commands if select(c))

    def mc(c):
        return c["mc_samples"] > 0

    def ev(c):
        return c["values"] > 0

    return {
        "wall_s": total(lambda c: True),
        "mc_samples_per_s": total(mc, "mc_samples") / total(mc),
        "mc_time_to_1pct_s": sum(walls[c["cid"]] * (rses[c["cid"]] / 0.01) ** 2
                                 for c in commands
                                 if c["steady"] and rses[c["cid"]] is not None),
        "eval_values_per_s": total(ev, "values") / total(ev),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "minkval").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def sanity(workload: str, commands: dict) -> dict:
    """Findings of an earlier profile that the trace should reproduce
    (reported, not gated: later changes are meant to move them)."""
    def total(prefix, name, col):
        return sum(rows.get(name, [0, 0.0, 0.0])[col]
                   for cid, rows in commands.items() if cid.startswith(prefix))

    def samples(prefix):
        return sum(rows.get("samples", 0) for cid, rows in commands.items()
                   if cid.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    if workload == "motions":
        j1 = "kinematic-cube-cube-j1"
        return {"kinematic_j1.from_vertices_per_sample":
                ratio(total(j1, "convex.from_vertices", 0), samples(j1)),
                "kinematic_j1.from_vertices_share_of_time":
                ratio(total(j1, "convex.from_vertices", 1), total(j1, "cli.main", 1))}
    if workload == "analytic":
        cid = "evaluate-mid-difference_body"
        return {"difference_body.legendre_share_of_time":
                ratio(total(cid, "harmonics.legendre_recurrence", 1),
                      total(cid, "cli.main", 1))}
    sec = ("crofton-cube-i1", "crofton-hull-i1", "crofton-mv")
    return {"sections.edge_index_pairs_per_sample":
            ratio(sum(total(p, "convex.Polytope.edge_index_pairs", 0) for p in sec),
                  sum(samples(p) for p in sec))}


def run(args, spec: dict, work: Path, deadline: float, spans: Path) -> dict:
    built = workloads.build(args.workload, args.seed, work)
    commands = [c.as_json() for c in built.commands]
    (work / "plan.json").write_text(json.dumps({"src": str(ROOT / "src"),
                                                "commands": commands}))
    tally = Tally(commands, Checker(built.bodies))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {"workload": args.workload, "why": why.get(args.workload, ""),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(), "src_sha256": source_digest(),
              "nproc": len(os.sched_getaffinity(0)), "loop": "closed, one client",
              "reference_calibration_s": REFERENCE_CAL_S}
    if args.trace:
        plain = measure(work, args.seconds / 2, deadline)
        traced = measure(work, args.seconds / 2, deadline, trace=True, spans=spans)
    else:
        plain = measure(work, args.seconds, deadline, probes=SETUP_PROBES)
    for key in ("python", "numpy", "scipy", "blas_threads", "cpu"):
        record[key] = plain[key]
    rses, first = tally.assess(plain["passes"], "untraced")
    walls = command_times(commands, plain["passes"])
    values = time_metrics(commands, walls, rses)
    record.update(passes=len(plain["passes"]), commands_per_pass=len(commands),
                  command_times_s=walls, rse=rses,
                  raw_walls_s=[[r["wall"] for r in run["records"]] for run in plain["passes"]],
                  calibration_s=[run["calibration_s"] for run in plain["passes"]])
    if args.trace:
        tally.assess(traced["passes"], "traced", first)
        tally.assess([{"records": traced["memory_pass"]}], "tracemalloc", first)
        if traced["missed"]:
            tally.problems.append("traced functions still bound untraced at: "
                                  + ", ".join(traced["missed"]))
        traced_walls = command_times(commands, traced["passes"])
        derived = {"trace.overhead_frac":
                   sum(traced_walls.values()) / values["wall_s"] - 1.0,
                   "trace.tracemalloc_peak_mb": max(traced["tracemalloc_peak_mb"].values())}
        values = {}
        for m in spec["per_layer"]:
            name = m["name"]
            values[name] = derived[name] if name in derived else \
                statistics.median(layers[name] for layers in traced["layers"])
        record.update(replaced=traced["replaced"], missing=traced["missing"],
                      missed=traced["missed"], traced_command_times_s=traced_walls,
                      tracemalloc_peak_mb=traced["tracemalloc_peak_mb"],
                      sanity=sanity(args.workload, traced["commands"][0]),
                      commands_trace=traced["commands"][0])
        listed = spec["per_layer"]
    else:
        factor = speed_factor(plain)
        probes = [p["import_s"] * factor for p in plain["probes"]]
        values.update(setup_s=statistics.median(probes), peak_rss_mb=plain["maxrss_mb"])
        record.update(setup_probes_s=probes, speed_factor=factor,
                      raw_setup_probes_s=[p["import_s"] for p in plain["probes"]],
                      probe_calibration_s=[p["calibration_s"] for p in plain["probes"]],
                      import_s_in_run=plain["import_s"])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record.update(problems=tally.problems, attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / tally.attempted, gate_trips=tally.trips)
    record["result"] = {"correct": not tally.problems, "attempted": tally.attempted,
                        "failed": tally.failed, "metrics": metrics}
    return record


def print_record(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['passes']} passes x {rec['commands_per_pass']} commands, "
          f"{rec['loop']}")
    print(f"  git {rec['git_sha']}  src {rec['src_sha256']}  python {rec['python']}  "
          f"numpy {rec['numpy']}  scipy {rec['scipy']}  nproc {rec['nproc']}  "
          f"blas_threads {rec['blas_threads']}")
    for name, m in rec["result"]["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {rec['failed_frac']:.6g} 1 "
          f"({rec['failed']} of {rec['attempted']} commands)")
    print(f"  {'gate_trips':48s} {rec['gate_trips']} count "
          f"(estimates past the CLI's 3-sigma gate, within 5 sigma of the reference)")
    for key, value in rec.get("sanity", {}).items():
        print(f"  sanity {key} = {value:.4g}")
    for line in rec["problems"][:20]:
        print(f"  PROBLEM {line}")
    print(f"  correct: {str(rec['result']['correct']).lower()}")
    print(json.dumps(rec["result"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "minkval" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'minkval'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    outdir = HERE / "_out"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args, spec, work, deadline, outdir / f"{tag}-spans.json")
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (outdir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
