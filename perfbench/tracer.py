"""Span tracing of redhom from outside the package.

`Tracer.install` replaces the public functions and methods of every
redhom module with wrappers that record one span per call: name, start,
end and the index of the enclosing span.  Every module attribute bound to
an original function by `from .x import y` is replaced too, so calls
between modules are seen whichever name they use.  Methods are replaced
on their class only.  Nothing under `src/` is edited, and `uninstall`
restores the originals.

`summarize` turns the recorded spans into the per-layer metrics listed in
BENCHMARK.json.  A span's self time is its duration minus the durations
of its direct children; a layer's self time is the sum over its spans,
so the layers' self times plus the benchmark's own (root span) self time
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("linalg", "algebra", "modules", "resolution", "homalg",
          "invariants", "reducing", "corpus", "workspace", "cli")
ROOT = "bench.job"
# Metric name of each layer's total self time.
LAYER_SELF = {layer: f"{layer}.self_s" for layer in LAYERS}
LAYER_SELF.update(workspace="workspace.load_self_s",
                  corpus="corpus.fixture_self_s")

# Left unwrapped: scalar Field arithmetic used inside element loops, and
# accessors whose span would cost more than the call (Matrix.entry runs
# about 2M times in one deep resolution).  Their time counts as the
# caller's self time.
SKIP = {"linalg.Field", "linalg.Matrix.entry"}
# Private or special methods that carry layer metrics.
EXTRA = {"linalg.Matrix._rref_carry", "linalg.Matrix.__matmul__",
         "linalg.ColumnSolver.__init__", "resolution.ChainResolution.__init__",
         "homalg.ExtTable.__init__", "homalg.Ext1Data.__init__"}


def _betti_len(args):
    return len(getattr(args[0], "_betti", ()))


def _chain_attrs(args, out, before):
    res = args[0]
    betti = getattr(res, "_betti", ())
    top = max(betti, default=0)
    return len(betti) - before, top, top * res.module.algebra.dim


def _elim_attrs(args, out, before):
    mat = args[0]
    carry = args[1] if len(args) > 1 else None
    cols = mat.cols + (carry.cols if carry is not None else 0)
    p = mat.field.p
    kind = "qq" if p is None else {2: "gf2", 3: "gf3"}.get(p, "gfp")
    return kind, mat.rows * cols, cols


# Spans that record attributes: name -> (before(args) or None,
# after(args, result, before) -> attributes read by summarize).
ATTRS = {
    "linalg.Matrix._rref_carry": (None, _elim_attrs),
    "resolution.ChainResolution.__init__": (lambda args: 0, _chain_attrs),
    "resolution.ChainResolution.extend": (_betti_len, _chain_attrs),
    "modules.is_isomorphic": (None, lambda args, out, b: out.kind),
    "invariants.is_totally_reflexive":
        (None, lambda args, out, b: out.kind == "fail" and out.index == 1),
    "reducing.search":
        (None, lambda args, out, b: (out.found, out.exhausted, out.candidates)),
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []

    def span(self, name: str, fn, root: bool = False):
        """Wrap fn so each call records a span; outside a root span the
        wrapper only forwards the call, so input building and checks
        leave no spans."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before_fn, after_fn = ATTRS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            before = before_fn(args) if before_fn is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after_fn is not None:
                rec[4] = after_fn(args, out, before)
            return out

        return traced

    def root(self, fn):
        """fn wrapped in the benchmark's own root span, one per job."""
        return self.span(ROOT, fn, root=True)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            self._collect()
        for owner, name, _, new in self._patches:
            setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old, _ in reversed(self._patches):
            setattr(owner, name, old)

    def _collect(self) -> None:
        mods = [importlib.import_module(f"redhom.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self.span(qual, obj)
                elif (inspect.isclass(obj) and qual not in SKIP
                      and not issubclass(obj, BaseException)):
                    self._collect_class(obj, qual)
        # the defining binding and every `from .x import y` copy
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patches.append((mod, name, obj, wrapped[id(obj)]))

    def _collect_class(self, cls, qual: str) -> None:
        for name, raw in list(vars(cls).items()):
            key = f"{qual}.{name}"
            if key in SKIP or (name.startswith("_") and key not in EXTRA):
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self.span(key, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.span(key, raw)
            else:
                continue
            self._patches.append((cls, name, raw, new))


# -- summary -----------------------------------------------------------------

# Self-time groups: a span belongs to a group when its name equals an
# entry, or starts with an entry that ends in "." or "_".
SELF_GROUPS = {
    "linalg.elim_self_s": ("linalg.Matrix._rref_carry",),
    "linalg.kernel_self_s": ("linalg.Matrix.kernel_data",
                             "linalg.Matrix.kernel_basis"),
    "linalg.rank_self_s": ("linalg.Matrix.rank", "linalg.Matrix.rref",
                           "linalg.column_space_basis"),
    "linalg.solve_self_s": ("linalg.Matrix.solve_columns",
                            "linalg.Matrix.solve", "linalg.Matrix.inverse",
                            "linalg.ColumnSolver.", "linalg.nf_columns"),
    "linalg.matmul_self_s": ("linalg.Matrix.__matmul__",),
    "homalg.ext_self_s": ("homalg.ExtTable.", "homalg.ext_dims",
                          "homalg.ext_dim", "homalg.ext_vanishes_through",
                          "homalg.p_invariant"),
    "homalg.ext1_self_s": ("homalg.Ext1Data.", "homalg.ext1_data",
                           "homalg.extension_from_psi",
                           "homalg.extension_from_class",
                           "homalg.class_of_ses", "homalg.ext_syzygy_map"),
    "homalg.dual_self_s": ("homalg.k_dual", "homalg.canonical_module",
                           "homalg.r_dual", "homalg.DualData.",
                           "homalg.dual_map", "homalg.biduality",
                           "homalg.BidualityData.", "homalg.is_torsionless",
                           "homalg.is_reflexive"),
    "homalg.horseshoe_self_s": ("homalg.horseshoe", "homalg.Horseshoe."),
    "modules.iso_self_s": ("modules.is_isomorphic",),
    "modules.hom_self_s": ("modules.hom_space_matrix", "modules.hom_basis",
                           "modules.hom_dim"),
    "modules.split_free_self_s": ("modules.split_free_summands",),
    "invariants.tr_self_s": ("invariants.is_totally_reflexive",),
    "invariants.theorem_self_s": ("invariants.check_",),
    "reducing.search_self_s": ("reducing.search",),
    "reducing.verify_self_s": ("reducing.verify",),
    "reducing.transform_self_s": ("reducing.transform_",
                                  "reducing.omega_of_map"),
    "algebra.build_self_s": ("algebra.build_algebra",),
}

# Call counts: metric -> span name.
COUNTS = {
    "linalg.matmul_calls": "linalg.Matrix.__matmul__",
    "resolution.resolve_calls": "resolution.resolve",
    "resolution.new_chains": "resolution.ChainResolution.__init__",
    "homalg.ext_tables": "homalg.ExtTable.__init__",
    "homalg.ext_transitions": "homalg.ExtTable.transition",
    "homalg.extensions": "homalg.extension_from_psi",
    "modules.iso_calls": "modules.is_isomorphic",
    "invariants.tr_calls": "invariants.is_totally_reflexive",
    "reducing.searches": "reducing.search",
    "reducing.verify_calls": "reducing.verify",
    "algebra.build_calls": "algebra.build_algebra",
    "workspace.load_calls": "workspace.load_workspace",
}


def _in_group(name: str, entries) -> bool:
    return any(name == e or (e[-1] in "._" and name.startswith(e))
               for e in entries)


def summarize(spans: list[list], untraced_wall_s: float) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)} from the spans of a
    traced pass whose untraced twin took `untraced_wall_s`."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self = dict.fromkeys(LAYERS, 0.0)
    group_self = dict.fromkeys(SELF_GROUPS, 0.0)
    elim_self = dict.fromkeys(("gf2", "gf3", "gfp", "qq"), 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    count_of = {span: metric for metric, span in COUNTS.items()}
    groups_of: dict[str, list[str]] = {}
    elim = {"calls": 0, "entries": 0, "max_cols": 0}
    chain = {"steps": 0, "max_betti": 0, "max_ambient_dim": 0}
    iso = dict.fromkeys(("yes", "no", "unknown"), 0)
    tr_fail_at_1 = 0
    search = {"found": 0, "exhausted": 0, "candidates": 0}
    search_wall = wall = bench_self = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        if name == ROOT:
            wall += dur
            bench_self += own
            continue
        layer_self[name.split(".", 1)[0]] += own
        if name not in groups_of:
            groups_of[name] = [g for g, entries in SELF_GROUPS.items()
                               if _in_group(name, entries)]
        for g in groups_of[name]:
            group_self[g] += own
        if name in count_of:
            counts[count_of[name]] += 1
        if name == "linalg.Matrix._rref_carry":
            kind, entries, cols = attrs
            elim_self[kind] += own
            elim["calls"] += 1
            elim["entries"] += entries
            elim["max_cols"] = max(elim["max_cols"], cols)
        elif name.startswith("resolution.ChainResolution.") and attrs:
            steps, top, ambient = attrs
            chain["steps"] += steps
            chain["max_betti"] = max(chain["max_betti"], top)
            chain["max_ambient_dim"] = max(chain["max_ambient_dim"], ambient)
        elif name == "modules.is_isomorphic":
            iso[attrs] += 1
        elif name == "invariants.is_totally_reflexive":
            tr_fail_at_1 += attrs
        elif name == "reducing.search":
            search["found"] += attrs[0]
            search["exhausted"] += attrs[1]
            search["candidates"] += attrs[2]
            search_wall += dur

    out: dict[str, tuple] = {}
    for metric, val in counts.items():
        out[metric] = (val, "count")
    for metric, val in group_self.items():
        out[metric] = (val, "s")
    for layer, val in layer_self.items():
        out[LAYER_SELF[layer]] = (val, "s")
    for kind, val in elim_self.items():
        out[f"linalg.elim_self_s.{kind}"] = (val, "s")
    for key, val in elim.items():
        out[f"linalg.elim_{key}"] = (val, "count")
    for key, val in chain.items():
        out[f"resolution.{key}"] = (val, "count")
    for kind, val in iso.items():
        out[f"modules.iso_{kind}"] = (val, "count")
    tr_calls = counts["invariants.tr_calls"]
    out["invariants.tr_fail_at_1"] = (
        tr_fail_at_1 / tr_calls if tr_calls else 0.0, "ratio")
    for key, val in search.items():
        out[f"reducing.{key}"] = (val, "count")
    out["reducing.candidates_per_s"] = (
        search["candidates"] / search_wall if search_wall else 0.0, "1/s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.wall_s"] = (wall, "s")
    out["trace.bench_self_s"] = (bench_self, "s")
    out["trace.overhead_ratio"] = (
        wall / untraced_wall_s if untraced_wall_s else 0.0, "ratio")
    return out
