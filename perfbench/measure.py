"""Measuring process of one benchmark run.

Started fresh by run.py: imports minkval.cli, then drives ``cli.main(argv)``
in-process through the planned commands, one after another, repeating the
whole list while another pass fits in the time budget (at least two passes).
Every command is timed from outside and its JSON report captured from
stdout.  A fixed calibration loop runs before the first command and after
every command; run.py scales each command's time by the calibrations around
it to a reference machine speed (see ``calibrate``).  Between passes the process
times fresh imports of minkval.cli in child processes (the setup probes).
With --trace the public functions of each module are wrapped first (see
tracer.py), and one more pass runs under tracemalloc.  Results go to the
--out JSON file.

    python3 perfbench/measure.py --plan PLAN --out OUT --seconds S \
        [--probes K] [--trace [--spans SPANS]]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

PROBE = ("import time; t = time.perf_counter(); import minkval.cli; "
         "print(repr(time.perf_counter() - t))")
_CAL_AXIS = np.array([0.1, 0.2, 0.3])
_CAL_CLOUD = np.random.default_rng(0).standard_normal((30, 3))


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work minkval does: Python
    bytecode and dict updates, tiny numpy calls, qhull on a small cloud and
    one memory-bound vector operation.

    The host's speed drifts by up to 2x in phases lasting seconds to minutes
    (measured on a 2-vCPU VM, with CPU time tracking wall time, so the
    process runs but slower).  A command's time divided by the calibration
    times around it follows that drift far less."""
    t0 = time.perf_counter()
    s = 0
    for i in range(15000):
        s += i * i
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    v = np.ones(3)
    for _ in range(700):
        v = np.cross(v, _CAL_AXIS) + 1.0
        np.linalg.norm(v)
    for _ in range(20):
        ConvexHull(_CAL_CLOUD)
    a = np.arange(150000.0)
    float(np.sqrt(a * a + 1.0).sum())
    return time.perf_counter() - t0


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its API."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_command(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:          # argparse rejected the arguments
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
    wall = time.perf_counter() - t0
    return {"rc": rc, "wall": wall, "stdout": buf.getvalue(), "error": error}


def run_pass(cli, commands: list[dict], tracer=None) -> dict:
    records, cals = [], [calibrate()]
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd["cid"]
        records.append(run_command(cli, cmd["argv"]))
        cals.append(calibrate())
    return {"records": records, "calibration_s": cals}


def probe() -> dict:
    """Import time of minkval.cli in a fresh process, with the calibration
    times around it."""
    before = calibrate()
    out = subprocess.run([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return {"import_s": float(out), "calibration_s": [before, calibrate()]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--probes", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the spans of the last traced pass here")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    # One core for the commands, the calibration loop and the setup probes
    # (children inherit it): the two vCPUs of a shared host drift apart, and
    # a calibration taken on one says little about work done on the other.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    t0 = time.perf_counter()
    import minkval.cli as cli
    import_s = time.perf_counter() - t0
    src = Path(plan["src"]).resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"minkval was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import scipy

    out = {"import_s": import_s, "passes": [], "probes": [],
           "python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__, "blas_threads": blas_threads(),
           "cpu": cpu}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        out.update(replaced=tracer.replaced, missing=tracer.missing,
                   missed=tracer.missed_bindings(), layers=[], commands=[])

    if args.probes:
        probe()                       # warms the bytecode and file caches
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t_pass = time.perf_counter()
        out["passes"].append(run_pass(cli, plan["commands"], tracer))
        t_pass = time.perf_counter() - t_pass
        if tracer is not None:
            layers, commands = tracer.summary()
            out["layers"].append(layers)
            out["commands"].append(commands)
        if len(out["probes"]) < args.probes:
            out["probes"].append(probe())
        if len(out["passes"]) >= 2 and time.perf_counter() - start + t_pass > args.seconds:
            break
    while len(out["probes"]) < args.probes:
        out["probes"].append(probe())
    if tracer is not None:
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.span_dump()))
        # tracemalloc slows the Python-loop kernels several times over, so it
        # gets a pass of its own that no timing is taken from
        import tracemalloc
        tracemalloc.start()
        records, peaks = [], {}
        for cmd in plan["commands"]:
            tracemalloc.reset_peak()
            records.append(run_command(cli, cmd["argv"]))
            peaks[cmd["cid"]] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        out.update(memory_pass=records, tracemalloc_peak_mb=peaks)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
