"""Spans and counters recorded around embedlab's public callables.

A traced invocation imports ``embedlab.cli``, calls :func:`install` to
replace each public function and method of the nine package modules with
a timing wrapper, runs the CLI, and writes its spans and counters as JSON
when it ends.  The package source is not touched: wrappers are installed
by rebinding module and class attributes at run time.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
``parent`` the index of the enclosing span (-1 at top level).  Names are
``<layer>.<qualified name>``, so the layer is the text before the first
dot.  :func:`self_times_per_span` gives each span's self time: its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "metric_core", "gaussian", "mazur", "glue", "moduli",
          "amenable", "finite_geometry", "report")

# Public callables that run once per lattice point, tree vertex or schedule
# index.  A span around each would cost more than the work inside it, so
# their time stays in the self time of the span that calls them.
UNWRAPPED = frozenset({
    "amenable.ZkModel.mul", "amenable.ZkModel.inv", "amenable.ZkModel.metric",
    "amenable.HeisenbergModel.mul", "amenable.HeisenbergModel.inv",
    "amenable.HeisenbergModel.gauge", "amenable.HeisenbergModel.metric",
    "amenable.HeisenbergModel.ball_count",
    "amenable.TreeModel.metric", "amenable.TreeModel.zeros_prefix",
    "amenable.TreeModel.check_node",
    "amenable.ZkFolnerSystem.r", "amenable.ZkFolnerSystem.eps",
    "amenable.ZkFolnerSystem.a_eps", "amenable.ZkFolnerSystem.half_side",
    "amenable.ZkFolnerSystem.rad", "amenable.ZkFolnerSystem.size",
    "amenable.ZkFolnerSystem.sym_diff_count",
    "amenable.TreeACollection.r", "amenable.TreeACollection.eps",
    "amenable.TreeACollection.a_eps", "amenable.TreeACollection.size",
    "amenable.TreeACollection.rad", "amenable.TreeACollection.sym_diff_count",
    "amenable.box_intersection_count",
    # Entry point and parser: argument parsing is part of the remainder.
    "cli.main", "cli.build_parser",
})

# Private callables the per-layer metrics need by name.
EXTRA = ("gaussian._rff_table",)

# Constructors timed as set-up work (glue.build_s).
CONSTRUCTORS = ("glue.GaussianBlockFamily.__init__", "glue.GluedEmbedding.__init__")

ENGINE_FACTORIES = ("moduli.fast_rff_engine", "moduli.exact_kernel_engine",
                    "moduli.coordinate_engine")


def _rows(a) -> int:
    """Leading dimension of a 2-D result; a single point counts as one row."""
    shape = getattr(a, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


# span name -> [(counter, f(args, kwargs, result) -> increment)]
COUNTERS = {
    "gaussian.rff_coordinates_batch": [("gaussian.rff_coord_rows", lambda a, k, r: _rows(r))],
    "gaussian.exp_coordinates_batch": [("gaussian.exp_coord_rows", lambda a, k, r: _rows(r[0]))],
    "mazur.sample_sphere_pairs": [("mazur.sample_rows", lambda a, k, r: _rows(r[0]))],
    "mazur.mazur_map": [("mazur.map_rows", lambda a, k, r: _rows(r))],
    "glue.GluedEmbedding.distance_interval": [
        ("glue.interval_pair_blocks", lambda a, k, r: len(r[0]) * len(a[0].bandwidths))],
    "glue.per_pair_bounds_check": [("glue.audit_pairs", lambda a, k, r: r.n_pairs)],
    "moduli.PairSampler.sample": [("moduli.sampled_pairs", lambda a, k, r: len(r[2]))],
    "amenable.TreeACollection.encoded_pair": [
        ("amenable.encoded_vertices", lambda a, k, r: len(r[0]) + len(r[1]))],
    "amenable.char_embedding_bound_check": [("amenable.char_checks", lambda a, k, r: r.n_checks)],
    "amenable.ZkFolnerSystem.set_at": [("amenable.support_points", lambda a, k, r: len(r))],
    "amenable.TreeACollection.set_at": [("amenable.support_points", lambda a, k, r: len(r))],
    "finite_geometry.probe_audit": [("finite_geometry.audited_pairs", lambda a, k, r: r.n_pairs)],
}


class Tracer:
    """In-memory span list plus named counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def wrap(self, name: str, fn, counters=(), on_result=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = cache_info() if cache_info else None
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if before is not None:
                after = cache_info()
                self.counts[name + ".misses"] += after.misses - before.misses
                self.counts[name + ".hits"] += after.hits - before.hits
            for counter, f in counters:
                self.counts[counter] += int(f(args, kwargs, result))
            return on_result(args, result) if on_result else result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _engine_counters(args):
    """Shape-derived work counts of an engine built over embedding ``args[0]``."""
    e = args[0]
    blocks = len(e.block_ids)
    counters = [("moduli.engine_pair_blocks", lambda a, k, r: len(r) * blocks)]
    fam = e.family
    if getattr(fam, "backend", None) == "rff":
        # Per pair and block: two (1 x dim) @ (dim x D) products, and the
        # two float32 feature rows of D entries they produce.
        dim, d = fam.ambient_dim, fam.n_features
        counters.append(("moduli.engine_flops_computed",
                         lambda a, k, r: len(r) * blocks * 2 * 2 * dim * d))
        counters.append(("moduli.engine_bytes_computed",
                         lambda a, k, r: len(r) * blocks * 2 * d * 4))
    return counters


def _public_callables(layer: str, mod):
    """(span name, owner, attribute, callable) for the layer's public API."""
    for name, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, val in list(vars(obj).items()):
                qual = f"{layer}.{name}.{attr}"
                public = not attr.startswith("_") or qual in CONSTRUCTORS
                if public and isinstance(val, (classmethod, staticmethod)):
                    yield qual, obj, attr, val
                elif public and inspect.isfunction(val):
                    yield qual, obj, attr, val
        elif callable(obj):
            qual = f"{layer}.{name}"
            if not name.startswith("_") or qual in EXTRA:
                yield qual, mod, name, obj


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables in ``tracer`` spans."""

    def wrap_engine(args, engine):
        return tracer.wrap("moduli.engine", engine, _engine_counters(args))

    modules = {layer: importlib.import_module(f"embedlab.{layer}") for layer in LAYERS}
    replaced = {}  # id(original function) -> (original, wrapper)
    for layer, mod in modules.items():
        for qual, owner, attr, obj in list(_public_callables(layer, mod)):
            if qual in UNWRAPPED or (layer == "cli" and not attr.startswith("cmd_")):
                continue
            on_result = wrap_engine if qual in ENGINE_FACTORIES else None
            counters = COUNTERS.get(qual, ())
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(owner, attr, type(obj)(tracer.wrap(qual, obj.__func__, counters, on_result)))
                continue
            wrapper = tracer.wrap(qual, obj, counters, on_result)
            setattr(owner, attr, wrapper)
            if owner is mod:
                replaced[id(obj)] = (obj, wrapper)
    # Names bound by ``from .x import f`` in other modules must see the wrapper.
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


# ---------------------------------------------------------------------------
# analysis (runs in bench/run.py)


def attribute_support_audit(spans: list[list]) -> list[list]:
    """Add an ``amenable.support_audit`` span inside each bound check.

    ``char_embedding_bound_check`` audits support radii after its pair
    loop: it materialises supports with ``set_at`` and measures how far
    they reach.  The audit is taken to run from the first ``set_at`` call
    to the end of the check; the new span covers that interval and adopts
    the check's children that start inside it.
    """
    out = [list(s) for s in spans]
    for idx, (name, start, end, parent) in enumerate(spans):
        if name != "amenable.char_embedding_bound_check":
            continue
        kids = [j for j, s in enumerate(out) if s[3] == idx]
        firsts = [out[j][1] for j in kids if out[j][0].endswith(".set_at")]
        if not firsts:
            continue
        audit_start = min(firsts)
        audit = len(out)
        out.append(["amenable.support_audit", audit_start, end, idx])
        for j in kids:
            if out[j][1] >= audit_start:
                out[j][3] = audit
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_per_span(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children.get(i, []), start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


# Named per-layer times: each is the self time of spans whose nearest
# same-layer ancestor-or-self carries one of the listed names, so the
# named times of a layer are disjoint and sum to at most its self time.
ROOTS = {
    "gaussian.rff_table_s": ("gaussian._rff_table",),
    "gaussian.rff_coords_s": ("gaussian.rff_coordinates_batch", "gaussian.rff_coordinates"),
    "gaussian.exp_coords_s": ("gaussian.exp_coordinates_batch", "gaussian.exp_coordinates"),
    "mazur.constants_s": ("mazur.mazur_constants", "mazur.signed_power_constant"),
    "mazur.sample_s": ("mazur.sample_sphere_pairs",),
    "mazur.map_s": ("mazur.mazur_map",),
    "mazur.bounds_check_s": ("mazur.mazur_bounds_check",),
    "glue.build_s": ("glue.preset_schedule", "glue.glue", "glue.GaussianBlockFamily.__init__",
                     "glue.GluedEmbedding.__init__"),
    "glue.interval_s": ("glue.GluedEmbedding.distance_interval",),
    "glue.audit_s": ("glue.per_pair_bounds_check",),
    "moduli.sample_s": ("moduli.PairSampler.sample",),
    "moduli.engine_build_s": ENGINE_FACTORIES + ("moduli.glued_certifier",),
    "moduli.engine_s": ("moduli.engine",),
    "moduli.envelope_s": ("moduli.estimate_moduli",),
    "moduli.fit_s": ("moduli.fit_exponent",),
    "moduli.render_s": ("moduli.write_moduli_csv",),
    "amenable.block_distance_s": ("amenable.ZkFolnerSystem.block_distance_pth",
                                  "amenable.TreeACollection.block_distance_pth"),
    "amenable.encode_s": ("amenable.TreeACollection.encoded_pair",),
    "amenable.char_check_s": ("amenable.char_embedding_bound_check",),
    "amenable.bounds_check_s": ("amenable.GluedGroupEmbedding.bounds_check",),
    "amenable.defect_s": ("amenable.box_defect", "amenable.a_defect", "amenable.folner_defect",
                          "amenable.ZkModel.ball", "amenable.HeisenbergModel.ball"),
    "amenable.pair_sample_s": ("amenable.sample_zk_pairs", "amenable.sample_tree_pairs"),
    "amenable.support_audit_s": ("amenable.support_audit",),
    "finite_geometry.cube_s": ("finite_geometry.cube_report",
                               "finite_geometry.enflo_type2_certificate"),
    "finite_geometry.probe_audit_s": ("finite_geometry.probe_audit",),
    "report.json_s": ("report.canonical_json", "report.ComparisonTable.to_json"),
    "report.tables_s": ("report.report_tables",),
}

# Named counts: number of calls of the listed spans.
CALLS = {
    "mazur.constants_computed": ("mazur.mazur_constants",),
    "mazur.sample_calls": ("mazur.sample_sphere_pairs",),
    "amenable.block_distance_calls": ROOTS["amenable.block_distance_s"],
    "amenable.defect_evals": ("amenable.box_defect", "amenable.a_defect",
                              "amenable.folner_defect"),
}

# Named counts kept by the wrappers (see COUNTERS and Tracer.wrap).
COUNTED = {
    "gaussian.rff_tables_built": "gaussian._rff_table.misses",
    "gaussian.rff_table_hits": "gaussian._rff_table.hits",
    "gaussian.rff_coord_rows": "gaussian.rff_coord_rows",
    "gaussian.exp_coord_rows": "gaussian.exp_coord_rows",
    "mazur.sample_rows": "mazur.sample_rows",
    "mazur.map_rows": "mazur.map_rows",
    "glue.interval_pair_blocks": "glue.interval_pair_blocks",
    "glue.audit_pairs": "glue.audit_pairs",
    "moduli.sampled_pairs": "moduli.sampled_pairs",
    "moduli.engine_pair_blocks": "moduli.engine_pair_blocks",
    "moduli.engine_flops_computed": "moduli.engine_flops_computed",
    "moduli.engine_bytes_computed": "moduli.engine_bytes_computed",
    "amenable.encoded_vertices": "amenable.encoded_vertices",
    "amenable.char_checks": "amenable.char_checks",
    "amenable.support_points": "amenable.support_points",
    "finite_geometry.audited_pairs": "finite_geometry.audited_pairs",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def named_times(spans: list[list]) -> dict[str, float]:
    """Self time per named metric of :data:`ROOTS` (see its comment)."""
    root_metric = {root: m for m, roots in ROOTS.items() for root in roots}
    own = self_times_per_span(spans)
    out = {m: 0.0 for m in ROOTS}
    for idx, span in enumerate(spans):
        layer = layer_of(span[0])
        j = idx
        while j >= 0:
            name = spans[j][0]
            if layer_of(name) == layer and name in root_metric:
                out[root_metric[name]] += own[idx]
                break
            j = spans[j][3]
    return out


class LayerTotals:
    """Per-layer metrics summed over the traced invocations of one pass."""

    def __init__(self):
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.import_s = 0.0
        self.times = {m: 0.0 for m in ROOTS}
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.engine_wall = 0.0
        self.spans = 0
        self.invocations = 0

    def add(self, dump: dict) -> None:
        spans = attribute_support_audit(dump["spans"])
        own = self_times_per_span(spans)
        for (name, start, end, _), t in zip(spans, own):
            if name == "cli.import":
                self.import_s += t
            else:
                self.layer_self[layer_of(name)] += t
            if name == "moduli.engine":
                self.engine_wall += end - start
            self.calls[name] += 1
        for m, t in named_times(spans).items():
            self.times[m] += t
        for k, v in dump["counts"].items():
            self.counts[k] += v
        self.spans += len(dump["spans"])
        self.invocations += 1

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {
            "cli.import_s": (self.import_s, "s"),
            "cli.invocations": (self.invocations, "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self[layer], "s")
        for m, t in self.times.items():
            out[m] = (t, "s")
        for m, names in CALLS.items():
            out[m] = (sum(self.calls.get(n, 0) for n in names), "count")
        for m, key in COUNTED.items():
            out[m] = (self.counts.get(key, 0), "count")
        out["moduli.engine_flops_computed"] = (out["moduli.engine_flops_computed"][0], "flop")
        out["moduli.engine_bytes_computed"] = (out["moduli.engine_bytes_computed"][0], "B")
        blocks = out["moduli.engine_pair_blocks"][0]
        out["moduli.engine_pair_blocks_per_s"] = (
            blocks / self.engine_wall if self.engine_wall > 0 else 0.0, "1/s")
        covered = self.import_s + sum(self.layer_self.values())
        out["trace.traced_run_s"] = (traced_wall, "s")
        out["trace.untraced_run_s"] = (untraced_wall, "s")
        out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        out["trace.untraced_remainder_s"] = (traced_wall - covered, "s")
        out["trace.spans"] = (self.spans, "count")
        return out
