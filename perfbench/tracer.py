"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces every public function of the seven ``torified``
layer modules, under every name any of those modules binds it to (so
``torified.monoids.faces`` and ``torified.lattice.faces`` both go through the
same wrapper), with a wrapper that records a span.  Cached functions are
wrapped outside their cache, so a hit is a short span.  ``Cone`` and ``Fan``
construction is recorded as ``lattice`` work by wrapping their
``__post_init__``.  Private helpers and the vector primitives in
``VECTOR_PRIMITIVES`` are not wrapped: their time counts toward the public
function that called them.

A span is ``(function id, start, end, parent span, op id)``; spans stay in
memory until ``summarize`` turns them into self times (duration minus the
time covered by child spans) and ``write`` stores them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import types
from time import perf_counter

LAYERS = ("cli", "torify", "counting", "gadgets", "monoids", "lattice", "intlinalg")
VECTOR_PRIMITIVES = frozenset(
    {"vec_gcd", "primitive", "primitive_direction", "dot", "vec_sub", "vec_neg",
     "mat_vec", "mat_mul", "identity"}
)
CACHED = (
    ("lattice", "dual_cone"),
    ("lattice", "facet_normals"),
    ("lattice", "faces"),
    ("lattice", "hilbert_basis"),
    ("lattice", "maximal_cones"),
    ("lattice", "validate_fan"),
    ("monoids", "monoid_of_cone"),
)
LINALG = ("mat_rank", "det", "solve_columns", "invert_unimodular", "kernel_basis", "hnf_rows")


def _is_wrappable(name, obj, modname):
    if name.startswith("_") or name in VECTOR_PRIMITIVES:
        return False
    if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
        return getattr(obj, "__module__", None) == modname
    return False


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.spans: list = []
        self.current = None
        self.op = -1
        self.errors: dict[int, int] = {}
        self.counters = {"torify.tori_built": 0, "gadgets.assignments": 0,
                         "gadgets.homs": 0, "gadgets.points_listed": 0}
        self._torify_depth = 0
        self._originals: dict[tuple[str, str], object] = {}

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, layer, name, after=None):
        fid = len(self.names)
        self.names.append((layer, name))
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[fid] = tracer.errors.get(fid, 0) + 1
                raise
            finally:
                spans[idx] = (fid, start, perf_counter(), parent, tracer.op)
                tracer.current = parent
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _torify_outer(self, fn, layer, name):
        """torify_* wrapper that counts the tori of the outermost call only."""
        inner = self._wrap(fn, layer, name)
        tracer = self

        def outer(*args, **kwargs):
            tracer._torify_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._torify_depth -= 1
            if tracer._torify_depth == 0:
                tracer.counters["torify.tori_built"] += len(result.tori)
            return result

        return outer

    def _after_homs(self, args, result):
        monoid, target = args[0], args[1]
        self.counters["gadgets.assignments"] += target.order ** len(monoid.all_generators())
        self.counters["gadgets.homs"] += len(result)

    def _after_points(self, args, result):
        if result.is_full:
            self.counters["gadgets.points_listed"] += result.total

    def install(self):
        modules = {layer: importlib.import_module(f"torified.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    continue
                home = getattr(obj, "__module__", "") or ""
                home_layer = home.rpartition(".")[2]
                if home_layer not in modules or not _is_wrappable(name, obj, home):
                    continue
                self._originals[(home_layer, name)] = obj
                if name.startswith("torify_"):
                    wrapped[id(obj)] = self._torify_outer(obj, home_layer, name)
                elif name == "enumerate_monoid_homs":
                    wrapped[id(obj)] = self._wrap(obj, home_layer, name, self._after_homs)
                elif name == "cc_points":
                    wrapped[id(obj)] = self._wrap(obj, home_layer, name, self._after_points)
                else:
                    wrapped[id(obj)] = self._wrap(obj, home_layer, name)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        lattice = modules["lattice"]
        for cls in (lattice.Cone, lattice.Fan):
            cls.__post_init__ = self._wrap(cls.__post_init__, "lattice", cls.__name__)

    # -- reporting --------------------------------------------------------

    def summarize(self, op_walls):
        """Per-layer metrics, and per op the layer self times plus the
        unattributed remainder of the op's traced wall time."""
        n = len(self.names)
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by_fn = [0.0] * n
        calls_by_fn = [0] * n
        per_op: dict[int, dict[str, float]] = {}
        for i, (fid, start, end, parent, op) in enumerate(self.spans):
            s = end - start - child[i]
            self_by_fn[fid] += s
            calls_by_fn[fid] += 1
            layer = self.names[fid][0]
            row = per_op.setdefault(op, {})
            row[layer] = row.get(layer, 0.0) + s
        metrics = {}
        for layer in LAYERS:
            ids = [i for i, (lay, _) in enumerate(self.names) if lay == layer]
            metrics[f"{layer}.calls"] = (sum(calls_by_fn[i] for i in ids), "count")
            metrics[f"{layer}.self_s"] = (sum(self_by_fn[i] for i in ids), "s")
            metrics[f"{layer}.errors"] = (sum(self.errors.get(i, 0) for i in ids), "count")
        for fn in LINALG:
            ids = [i for i, key in enumerate(self.names) if key == ("intlinalg", fn)]
            metrics[f"intlinalg.{fn}.calls"] = (sum(calls_by_fn[i] for i in ids), "count")
            metrics[f"intlinalg.{fn}.self_s"] = (sum(self_by_fn[i] for i in ids), "s")
        for layer, fn in CACHED:
            info = self._originals[(layer, fn)].cache_info()
            lookups = info.hits + info.misses
            metrics[f"{layer}.{fn}.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
            metrics[f"{layer}.{fn}.lookups"] = (lookups, "count")
        for key, value in self.counters.items():
            metrics[key] = (value, "count")
        assignments = self.counters["gadgets.assignments"]
        metrics["gadgets.hom_yield"] = (
            self.counters["gadgets.homs"] / assignments if assignments else 0.0, "ratio")
        rows = []
        for op, wall in sorted(op_walls.items()):
            selfs = per_op.get(op, {})
            rest = wall - sum(selfs.values())
            rows.append({"op": op, "wall_s": wall, "self_s": selfs, "unattributed_s": rest})
        metrics["trace.unattributed_s"] = (sum(r["unattributed_s"] for r in rows), "s")
        metrics["trace.spans"] = (len(self.spans), "count")
        return metrics, rows

    def write(self, path, rows):
        """Spans and per-op rows as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.names}) + "\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
