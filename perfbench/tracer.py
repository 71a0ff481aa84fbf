"""Per-layer tracing from outside the program.

The tracer replaces each traced function wherever a minkval module holds a
reference to it: in its defining module, at every ``from .x import f``
binding and, for methods, on the class.  Each call records a span (name,
start, end, parent span, command id) and a few work counts, all in memory;
``summary`` turns the spans of one pass into the per-layer metrics.  Self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "integral_geom", "convex", "valuation", "zonal", "harmonics")

# (metric prefix, module, attribute) of every traced function.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.load_body", "cli", "load_body"),
    ("integral_geom.crofton_intrinsic", "integral_geom", "crofton_intrinsic"),
    ("integral_geom.crofton_minkowski", "integral_geom", "crofton_minkowski"),
    ("integral_geom.kinematic_check", "integral_geom", "kinematic_check"),
    ("integral_geom.kinematic_minkowski_check", "integral_geom", "kinematic_minkowski_check"),
    ("integral_geom.hadwiger_check", "integral_geom", "hadwiger_check"),
    ("convex.from_vertices", "convex", "Polytope.from_vertices"),
    ("convex.Polytope.edge_index_pairs", "convex", "Polytope.edge_index_pairs"),
    ("convex.intersect", "convex", "intersect"),
    ("convex.clip_halfspace", "convex", "clip_halfspace"),
    ("convex.section_plane", "convex", "section_plane"),
    ("convex.section_line", "convex", "section_line"),
    ("convex.intrinsic_volumes", "convex", "intrinsic_volumes"),
    ("convex.area_measure", "convex", "area_measure"),
    ("convex.AreaMeasure.node_cloud", "convex", "AreaMeasure.node_cloud"),
    ("convex.AreaMeasure.zonal_moments", "convex", "AreaMeasure.zonal_moments"),
    ("convex.AreaMeasure.integrate_zonal", "convex", "AreaMeasure.integrate_zonal"),
    ("valuation.evaluate", "valuation", "evaluate"),
    ("valuation.valuation_identity_check", "valuation", "valuation_identity_check"),
    ("zonal.builtin_zonal", "zonal", "builtin_zonal"),
    ("zonal.berg", "zonal", "berg"),
    ("zonal.ZonalObject.density", "zonal", "ZonalObject.density"),
    ("harmonics.legendre_recurrence", "harmonics", "legendre_recurrence"),
    ("harmonics.jacobi_quadrature", "harmonics", "jacobi_quadrature"),
    ("harmonics.regularity_probe", "harmonics", "regularity_probe"),
)

# Monte-Carlo entry points and how many samples one call draws per unit of its
# n_samples argument (the valuation-valued check draws motions, planes and
# lines).  hadwiger_check draws through its children.
MC_DRAWS = {
    "integral_geom.crofton_intrinsic": 1,
    "integral_geom.crofton_minkowski": 1,
    "integral_geom.kinematic_check": 1,
    "integral_geom.kinematic_minkowski_check": 3,
    "integral_geom.hadwiger_check": 0,
}


def _arg(fn, name: str, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Records spans and counts of the traced functions while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.originals: dict[str, object] = {}
        self.replaced: list[str] = []
        self.missing: list[str] = []
        self.command = ""
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        # span: (name id, start, end, parent index, command, nested, mc root)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.active = [0] * len(self.names)
        self.mc_root = -1
        self.samples: dict[int, int] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.last_nodes = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"minkval.{m}") for m in MODULES}
        for prefix, modname, attr in TARGETS:
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                cls = getattr(mods[modname], owner_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._wrap(prefix, fn)
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                self.originals[prefix] = fn
                self.replaced.append(f"{modname}.{attr}")
                continue
            orig = getattr(mods[modname], attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(prefix, orig)
            self.originals[prefix] = orig
            for mod in self._minkval_modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self.replaced.append(f"{mod.__name__.split('.', 1)[-1]}.{key}")

    @staticmethod
    def _minkval_modules():
        return [m for name, m in sorted(sys.modules.items())
                if (name == "minkval" or name.startswith("minkval.")) and m is not None]

    def missed_bindings(self) -> list[str]:
        """References to an original traced function that survived
        installation: module globals, values inside module-level containers,
        class attributes and default arguments.  Each would drop calls from
        the trace silently."""
        originals = list(self.originals.values())

        def hit(obj) -> bool:
            return any(obj is o for o in originals)

        def scan(label, obj, out, depth=0):
            if hit(obj):
                out.append(label)
            elif isinstance(obj, (classmethod, staticmethod)) and hit(obj.__func__):
                out.append(label)
            elif depth == 0 and isinstance(obj, dict):
                for k, v in obj.items():
                    scan(f"{label}[{k!r}]", v, out, 1)
            elif depth == 0 and isinstance(obj, (list, tuple)):
                for k, v in enumerate(obj):
                    scan(f"{label}[{k}]", v, out, 1)
            if inspect.isfunction(obj):
                for k, v in enumerate(obj.__defaults__ or ()):
                    scan(f"{label}.__defaults__[{k}]", v, out, 1)

        out: list[str] = []
        for mod in self._minkval_modules():
            short = mod.__name__.split(".", 1)[-1]
            for key, val in vars(mod).items():
                scan(f"{short}.{key}", val, out)
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    for ck, cv in vars(val).items():
                        scan(f"{short}.{key}.{ck}", cv, out, 1)
        return out

    # -- recording ----------------------------------------------------------

    def _wrap(self, prefix: str, fn):
        nid = self.names.index(prefix)
        after = self._counter(prefix)
        draws = MC_DRAWS.get(prefix)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = tracer.active[nid] > 0
            outer_mc = tracer.mc_root
            if draws is not None and outer_mc < 0:
                tracer.mc_root = idx
            if draws:
                tracer.samples[idx] = draws * int(_arg(fn, "n_samples", args, kwargs))
            stack.append(idx)
            tracer.active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[prefix + ".errors"] += 1
                raise
            finally:
                t1 = clock()
                tracer.active[nid] -= 1
                stack.pop()
                tracer.mc_root = outer_mc
                spans[idx] = (nid, t0, t1, parent, tracer.command, nested,
                              idx if draws is not None and outer_mc < 0 else outer_mc)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__qualname__ = getattr(fn, "__qualname__", prefix)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, prefix: str):
        # reset() swaps the dicts, so the hooks look them up on every call
        t = self
        if prefix == "convex.from_vertices":
            def after(args, kwargs, result):
                pts = args[1] if len(args) > 1 else kwargs["points"]
                t.counts[prefix + ".points"] += np.size(pts) // 3
        elif prefix == "convex.intersect":
            def after(args, kwargs, result):
                t.counts[prefix + ".nonempty"] += not result.is_empty
        elif prefix == "harmonics.legendre_recurrence":
            def after(args, kwargs, result):
                rows, pts = result[0].shape
                t.counts[prefix + ".points"] += pts
                t.peak(prefix + ".bytes", 3 * rows * pts * 8)
        elif prefix == "convex.AreaMeasure.node_cloud":
            def after(args, kwargs, result):
                t.last_nodes = result[0].shape[0]
                t.counts[prefix + ".nodes"] += t.last_nodes
        elif prefix == "convex.AreaMeasure.zonal_moments":
            def after(args, kwargs, result):
                rows, ndirs = result.shape
                t.peak("convex.AreaMeasure.temp_bytes", t.last_nodes * ndirs * 8 * rows)
        elif prefix == "convex.AreaMeasure.integrate_zonal":
            def after(args, kwargs, result):
                t.peak("convex.AreaMeasure.temp_bytes", t.last_nodes * result.size * 8)
        elif prefix == "valuation.evaluate":
            def after(args, kwargs, result):
                t.counts[prefix + ".values"] += result.values.size
        else:
            after = None
        return after

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    # -- summaries ----------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """Per-layer metrics of the spans recorded since the last reset, and
        a per-command breakdown {command: {name: [calls, total_s, self_s]}}
        with the samples each command drew under "samples"."""
        spans = self.spans
        n = len(spans)
        dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        own = dur - child
        calls = defaultdict(int)
        total = defaultdict(float)
        selfs = defaultdict(float)
        per_cmd: dict[str, dict] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        root_samples = defaultdict(int)
        fv_roots = set()
        fv_in_mc = 0
        fv = self.names.index("convex.from_vertices")
        for idx, s in enumerate(spans):
            name = self.names[s[0]]
            calls[name] += 1
            selfs[name] += own[idx]
            row = per_cmd[s[4]][name]
            row[0] += 1
            row[2] += own[idx]
            if not s[5]:
                total[name] += dur[idx]
                row[1] += dur[idx]
            if idx in self.samples:
                root_samples[s[6]] += self.samples[idx]
                per_cmd[s[4]]["samples"] = per_cmd[s[4]].get("samples", 0) + self.samples[idx]
            if s[0] == fv and s[6] >= 0:
                fv_in_mc += 1
                fv_roots.add(s[6])
        samples = sum(self.samples.values())
        mc_time = sum(dur[r] for r in root_samples)
        fv_samples = sum(root_samples[r] for r in fv_roots)
        counts = self.counts
        m = {}
        for prefix in self.names:
            m[prefix + ".calls"] = calls[prefix]
            m[prefix + ".total_s"] = total[prefix]
            m[prefix + ".self_s"] = selfs[prefix]
        m.update({
            "integral_geom.samples": samples,
            "integral_geom.us_per_sample": 1e6 * mc_time / samples if samples else 0.0,
            "integral_geom.kinematic.hit_frac":
                counts["convex.intersect.nonempty"] / calls["convex.intersect"]
                if calls["convex.intersect"] else 0.0,
            "convex.from_vertices.points": counts["convex.from_vertices.points"],
            "convex.from_vertices.errors": counts["convex.from_vertices.errors"],
            "convex.from_vertices.per_sample": fv_in_mc / fv_samples if fv_samples else 0.0,
            "convex.AreaMeasure.node_cloud.nodes": counts["convex.AreaMeasure.node_cloud.nodes"],
            "convex.AreaMeasure.temp_bytes": self.peaks["convex.AreaMeasure.temp_bytes"],
            "valuation.evaluate.values": counts["valuation.evaluate.values"],
            "harmonics.legendre_recurrence.points": counts["harmonics.legendre_recurrence.points"],
            "harmonics.legendre_recurrence.bytes": self.peaks["harmonics.legendre_recurrence.bytes"],
        })
        cmds = {cid: {k: (list(v) if isinstance(v, list) else v) for k, v in rows.items()}
                for cid, rows in per_cmd.items()}
        return m, cmds

    def span_dump(self) -> dict:
        """The recorded spans in a compact, JSON-ready form."""
        return {"names": self.names,
                "fields": ["name", "start", "end", "parent", "command", "nested", "mc_root"],
                "spans": [list(s) for s in self.spans],
                "samples": {str(k): v for k, v in self.samples.items()}}
