"""Per-layer tracing of momangle from outside the package.

`install` wraps the public functions of momangle's modules at their module
attributes, and under every other name a momangle module imports them as
(e.g. `whitehead.zk_chain_complex`, `zigzag.solve_integer`), plus a few
methods on their classes.  Each call records a span (name, start, end,
parent, job) in memory; counters are taken at the same boundaries.  A
layer is a module; its self time is the time in its spans less the time in
their child spans.  `metrics` turns this into the per-layer metrics of
BENCHMARK.json, `write` saves the spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

LAYERS = ("cli", "complexes", "moment_angle", "exactalg", "taylor", "whitehead", "zigzag")

# (module, attribute, timed metric or None); the module is the layer
WRAPPED = [
    ("cli", "main", None),
    ("cli", "load_complex", None),
    ("complexes", "SimplicialComplex.__init__", "build"),
    ("complexes", "SimplicialComplex.from_facets", "build"),
    ("complexes", "SimplicialComplex.faces_within", None),
    ("complexes", "substitute", "substitute"),
    ("complexes", "reduced_chain_complex", None),
    ("complexes", "is_subcomplex", None),
    ("moment_angle", "hochster_table", "hochster"),
    ("exactalg", "ChainComplex.__init__", None),
    ("exactalg", "ChainComplex.check_squares_to_zero", "d2_check"),
    ("exactalg", "ChainComplex.homology", None),
    ("exactalg", "ChainComplex.class_of", "class_of"),
    ("exactalg", "solve_integer", "solve"),
    ("exactalg", "direct_sum", None),
    ("taylor", "taylor_face_complex", "face_complex"),
    ("taylor", "taylor_homology", "homology"),
    ("taylor", "nested_taylor_cycle", "nested_cycle"),
    ("taylor", "taylor_boundary", None),
    ("whitehead", "single_product_status", "status"),
    ("whitehead", "nested_shape_status", "status"),
    ("whitehead", "realises_sufficient", "realises"),
    ("whitehead", "delta_w", "delta_w"),
    ("whitehead", "hurewicz_chain", "hurewicz"),
    ("whitehead", "parse_whitehead", None),
]

# Calls counted as `<layer>.<name>_calls`, by wrapped attribute.
CALL_COUNTS = {
    "cli.load_complex": "cli.load_complex_calls",
    "complexes.reduced_chain_complex": "complexes.reduced_chain_complex_calls",
    "moment_angle.hochster_table": "moment_angle.hochster_calls",
    "exactalg.ChainComplex.homology": "exactalg.homology_calls",
    "exactalg.ChainComplex.class_of": "exactalg.class_of_calls",
    "exactalg.solve_integer": "exactalg.solve_calls",
}

# (name, unit, better) in the order of BENCHMARK.json
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.load_complex_calls", "count", "lower"),
    ("complexes.self_s", "s", "lower"),
    ("complexes.build_s", "s", "lower"),
    ("complexes.missing_faces_s", "s", "lower"),
    ("complexes.substitute_s", "s", "lower"),
    ("complexes.missing_faces_calls", "count", "lower"),
    ("complexes.reduced_chain_complex_calls", "count", "lower"),
    ("moment_angle.self_s", "s", "lower"),
    ("moment_angle.zk_assembly_s", "s", "lower"),
    ("moment_angle.zk_cells", "count", "lower"),
    ("moment_angle.zk_cache_hits", "count", "higher"),
    ("moment_angle.hochster_calls", "count", "lower"),
    ("moment_angle.hochster_s", "s", "lower"),
    ("exactalg.self_s", "s", "lower"),
    ("exactalg.snf_s", "s", "lower"),
    ("exactalg.snf_calls", "count", "lower"),
    ("exactalg.snf_nnz", "count", "lower"),
    ("exactalg.snf_max_side", "count", "lower"),
    ("exactalg.snf_transform_s", "s", "lower"),
    ("exactalg.snf_transform_calls", "count", "lower"),
    ("exactalg.snf_transform_nnz", "count", "lower"),
    ("exactalg.homology_calls", "count", "lower"),
    ("exactalg.d2_check_s", "s", "lower"),
    ("exactalg.class_of_calls", "count", "lower"),
    ("exactalg.solve_calls", "count", "lower"),
    ("exactalg.class_of_s", "s", "lower"),
    ("exactalg.solve_s", "s", "lower"),
    ("taylor.self_s", "s", "lower"),
    ("taylor.face_complex_s", "s", "lower"),
    ("taylor.components_s", "s", "lower"),
    ("taylor.homology_s", "s", "lower"),
    ("taylor.blocks", "count", "lower"),
    ("taylor.words", "count", "lower"),
    ("taylor.nested_cycle_s", "s", "lower"),
    ("whitehead.self_s", "s", "lower"),
    ("whitehead.status_s", "s", "lower"),
    ("whitehead.realises_s", "s", "lower"),
    ("whitehead.delta_w_s", "s", "lower"),
    ("whitehead.hurewicz_s", "s", "lower"),
    ("zigzag.self_s", "s", "lower"),
    ("zigzag.translate_s", "s", "lower"),
    ("zigzag.steps", "count", "lower"),
]


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self):
        self.job = -1
        self.spans = []           # [name, start, end, parent index, job]
        self.counts = Counter()
        self.self_time = Counter()
        self.timed = Counter()    # metric -> time in its outermost spans
        self._stack = []          # [span index, time in child spans]
        self._depth = Counter()

    def call(self, name, layer, metric, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.job]
        self.spans.append(span)
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        if metric:
            self._depth[metric] += 1
        span[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = end = perf_counter()
            took = end - start
            self._stack.pop()
            self.self_time[layer] += took - frame[1]
            if self._stack:
                self._stack[-1][1] += took
            if metric:
                self._depth[metric] -= 1
                if not self._depth[metric]:
                    self.timed[metric] += took

    def wrap(self, name, layer, metric, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if name in CALL_COUNTS:
                self.counts[CALL_COUNTS[name]] += 1
            return self.call(name, layer, metric, fn, args, kwargs)
        return traced

    def metrics(self, scale=1.0):
        """Per-layer metrics, times multiplied by `scale`."""
        out = {}
        values = dict(self.counts)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = scale * self.self_time[layer]
        for metric, took in self.timed.items():
            values[f"{metric}_s"] = scale * took
        for name, unit, _ in PER_LAYER:
            out[name] = {"value": values.get(name, 0), "unit": unit}
        return out

    def write(self, path, summary):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(summary) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, job]) + "\n")


def _replace(modules, old, new):
    """Point every momangle module attribute bound to `old` at `new`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer):
    """Wrap momangle's layers in the modules currently imported."""
    mods = {name: sys.modules[f"momangle.{name}"] for name in LAYERS}
    everyone = list(mods.values())
    for layer, attr, metric in WRAPPED:
        name = f"{layer}.{attr}"
        full = f"{layer}.{metric}" if metric else None
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(mods[layer], owner)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, layer, full, raw.__func__)))
            else:
                setattr(cls, method, tracer.wrap(name, layer, full, raw))
        else:
            fn = getattr(mods[layer], attr)
            _replace(everyone, fn, tracer.wrap(name, layer, full, fn))
    _install_counted(tracer, mods, everyone)


def _install_counted(tracer, mods, everyone):
    """Wrappers whose counters need the call's arguments or result."""
    ex, ma, ty, cx, zz = (mods[n] for n in ("exactalg", "moment_angle", "taylor",
                                            "complexes", "zigzag"))

    snf = ex.smith_normal_form

    def smith_normal_form(A, transforms=True):
        kind = "snf_transform" if transforms else "snf"
        tracer.counts[f"exactalg.{kind}_calls"] += 1
        tracer.counts[f"exactalg.{kind}_nnz"] += A.nnz()
        if not transforms:
            side = max(A.rows, A.cols)
            tracer.counts["exactalg.snf_max_side"] = max(
                tracer.counts["exactalg.snf_max_side"], side)
        return tracer.call("exactalg.smith_normal_form", "exactalg",
                           f"exactalg.{kind}", snf, (A, transforms), {})
    _replace(everyone, snf, smith_normal_form)

    zk = ma.zk_chain_complex

    def zk_chain_complex(K):
        hits = zk.cache_info().hits
        start = perf_counter()
        C = tracer.call("moment_angle.zk_chain_complex", "moment_angle", None, zk, (K,), {})
        if zk.cache_info().hits > hits:
            tracer.counts["moment_angle.zk_cache_hits"] += 1
        else:
            tracer.timed["moment_angle.zk_assembly"] += perf_counter() - start
            tracer.counts["moment_angle.zk_cells"] += sum(map(len, C.basis.values()))
        return C
    _replace(everyone, zk, zk_chain_complex)

    comps = ty.taylor_components

    def taylor_components(K):
        misses = comps.cache_info().misses
        out = tracer.call("taylor.taylor_components", "taylor", "taylor.components",
                          comps, (K,), {})
        if comps.cache_info().misses > misses:
            tracer.counts["taylor.blocks"] += len(out)
            tracer.counts["taylor.words"] += sum(C.dim(d) for C in out.values()
                                                 for d in C.basis)
        return out
    _replace(everyone, comps, taylor_components)

    mf = cx.SimplicialComplex.missing_faces

    def missing_faces(self):
        if self._mf is not None:
            return self._mf
        tracer.counts["complexes.missing_faces_calls"] += 1
        return tracer.call("complexes.SimplicialComplex.missing_faces", "complexes",
                           "complexes.missing_faces", mf, (self,), {})
    cx.SimplicialComplex.missing_faces = missing_faces

    k2t = zz.koszul_to_taylor

    def koszul_to_taylor(K, z):
        cycle, trace = tracer.call("zigzag.koszul_to_taylor", "zigzag", "zigzag.translate",
                                   k2t, (K, z), {})
        tracer.counts["zigzag.steps"] += len(trace.steps)
        return cycle, trace
    _replace(everyone, k2t, koszul_to_taylor)
