"""Span tracing from outside the program.

The tracer wraps the public functions of each matchcov module at every
module binding that names them (the `from .x import y` copies included) and
the listed `Multigraph` methods on the class, so calls the library makes to
itself are seen too. Each call is one span: name, start, end, parent span
and run id. A generator gives one span per resume, so a span never covers
the consumer's time; its calls and items are counted apart.

Spans stay in compact in-memory arrays until `dump`; self times, counts and
ratios are derived afterwards by `layer_metrics`.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layer -> traced names. "Multigraph.x" names a method; anything else is a
# module-level function of matchcov.<layer>.
LAYERS: dict[str, tuple[str, ...]] = {
    "generate": ("enumerate_connected_graphs", "enumerate_multigraphs", "multiplicity_sweep"),
    "canon": (
        "canonical_form",
        "canonical_labeling",
        "is_isomorphic",
        "automorphisms",
        "vertex_orbits",
    ),
    "multigraph": (
        "Multigraph.__init__",
        "Multigraph.has_pm_mask",
        "Multigraph.contract",
        "vertex_connectivity",
    ),
    "matching": ("enumerate_perfect_matchings", "perfect_matchings", "max_matching", "matching_number"),
    "covered": (
        "is_matching_covered",
        "is_removable_edge",
        "removable_edges",
        "removable_classes",
        "removable_doubletons",
        "is_bicritical",
        "is_brick",
        "is_minimal_mc",
        "is_near_bipartite",
        "has_two_nonadjacent_removable_edges",
    ),
    "cuts": (
        "is_separating",
        "is_robust",
        "is_tight",
        "contractions",
        "barriers",
        "maximal_barriers",
        "is_barrier",
        "two_separations",
    ),
    "decomposition": (
        "is_solid",
        "nontrivial_tight_shores",
        "find_nontrivial_tight_cut",
        "tight_cut_decomposition",
        "brick_count",
        "is_near_brick",
        "is_brace",
        "decomposition_multiset",
    ),
    "bipartite": ("is_removable_bipartite", "minimum_P_set", "all_P_sets"),
    "wheels": (
        "g_family_closure",
        "theta_class_matrices",
        "theta_from_class_matrix",
        "boundary_classes",
        "family_splice_violations",
        "splice",
        "make_wheel",
        "check_odd_wheel_splice",
        "is_wheel_like",
    ),
    "graphio": ("parse_graph_text", "parse_mg", "decode_graph6", "format_mg", "encode_graph6"),
    "campaigns": ("run_campaign", "run_corpus", "analyze_graph"),
}


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self, now=perf_counter) -> None:
        self.now = now
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_ix: array = array("H")
        self.parent: array = array("i")
        self.run: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.brick_keys: set = set()
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        stack, calls = self._stack, self.calls
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        run = self.run
        now = self.now
        tracer = self

        def open_span() -> int:
            idx = len(name_ix)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(now())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = now()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            items = self.items

            def traced_gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_span()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close_span(idx)
                        items[name] += 1
                        yield item
                finally:
                    it.close()

            traced = traced_gen
        elif name == "is_brick":
            keys = self.brick_keys

            def traced_brick(g):
                calls[name] += 1
                keys.add((g.n, g.edges))
                idx = open_span()
                try:
                    return fn(g)
                finally:
                    close_span(idx)

            traced = traced_brick
        else:

            def traced_call(*args, **kwargs):
                calls[name] += 1
                idx = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx)

            traced = traced_call
        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "matchcov") -> None:
        """Wrap every listed function at every binding in the package."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        graph_cls = sys.modules[package + ".multigraph"].Multigraph
        for layer, names in LAYERS.items():
            home = sys.modules[f"{package}.{layer}"]
            for name in names:
                if name.startswith("Multigraph."):
                    attr = name.split(".", 1)[1]
                    fn = graph_cls.__dict__[attr]
                    self._set(graph_cls, attr, self._wrap(fn, name, layer))
                    continue
                fn = getattr(home, name)
                traced = self._wrap(fn, name, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans, gzipped: one JSON header line (names, layer of
        each name, span count, field order and array type codes), then each
        field's array as raw native-endian bytes, in field order."""
        fields = ("name_ix", "parent", "run", "start", "end")
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.name_ix),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                fh.write(getattr(self, f).tobytes())

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds by name, span counts by context). The counts give,
        by name, the spans inside a g_family_closure span, and under the key
        "canonical_form@generate" the canonical_form spans inside a generate
        span."""
        n = len(self.name_ix)
        child = array("d", bytes(8 * n))
        names, layer_of = self.names, self.layer_of
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        closure_ix = names.index("g_family_closure")
        in_closure = bytearray(n)
        in_generate = bytearray(n)
        self_s: Counter = Counter()
        inside: Counter = Counter()
        for i in range(n):
            p = parent[i]
            nid = name_ix[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                pid = name_ix[p]
                in_closure[i] = in_closure[p] or pid == closure_ix
                in_generate[i] = in_generate[p] or layer_of[pid] == "generate"
            if in_closure[i]:
                inside[names[nid]] += 1
            if in_generate[i] and names[nid] == "canonical_form":
                inside["canonical_form@generate"] += 1
        for i in range(n):
            self_s[names[name_ix[i]]] += (end[i] - start[i]) - child[i]
        return dict(self_s), dict(inside)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name: (value, unit)."""
    self_s, inside = tracer.self_times()
    calls, items = tracer.calls, tracer.items

    def s(*names: str) -> float:
        return sum(self_s.get(x, 0.0) for x in names)

    def c(*names: str) -> int:
        return sum(calls.get(x, 0) for x in names)

    def layer_s(layer: str) -> float:
        return s(*LAYERS[layer])

    graphs_out = items.get("enumerate_connected_graphs", 0) + items.get("enumerate_multigraphs", 0)
    return {
        "generate.self_s": (layer_s("generate"), "s"),
        "generate.graphs_out": (graphs_out, "count"),
        "generate.canon_per_graph": (_ratio(inside.get("canonical_form@generate", 0), graphs_out), "ratio"),
        "canon.form_calls": (c("canonical_form"), "count"),
        "canon.labeling_calls": (c("canonical_labeling"), "count"),
        "canon.form_hit_ratio": (
            1.0 - _ratio(c("canonical_labeling"), c("canonical_form")) if c("canonical_form") else 0.0,
            "ratio",
        ),
        "canon.labeling_self_s": (s("canonical_labeling"), "s"),
        "canon.orbits_calls": (c("vertex_orbits", "automorphisms"), "count"),
        "canon.orbits_self_s": (s("vertex_orbits", "automorphisms"), "s"),
        "multigraph.graphs_built": (c("Multigraph.__init__"), "count"),
        "multigraph.pm_queries": (c("Multigraph.has_pm_mask"), "count"),
        "multigraph.pm_self_s": (s("Multigraph.has_pm_mask"), "s"),
        "multigraph.connectivity_calls": (c("vertex_connectivity"), "count"),
        "multigraph.connectivity_self_s": (s("vertex_connectivity"), "s"),
        "multigraph.contract_calls": (c("Multigraph.contract"), "count"),
        "multigraph.contract_self_s": (s("Multigraph.contract"), "s"),
        "matching.pm_enum_calls": (c("enumerate_perfect_matchings"), "count"),
        "matching.pms_out": (items.get("enumerate_perfect_matchings", 0), "count"),
        "matching.pm_enum_self_s": (s("enumerate_perfect_matchings", "perfect_matchings"), "s"),
        "matching.max_matching_self_s": (s("max_matching", "matching_number"), "s"),
        "covered.mc_calls": (c("is_matching_covered"), "count"),
        "covered.mc_self_s": (s("is_matching_covered"), "s"),
        "covered.removable_edge_calls": (c("is_removable_edge"), "count"),
        "covered.removable_self_s": (s("is_removable_edge", "removable_edges", "removable_classes"), "s"),
        "covered.doubleton_self_s": (s("removable_doubletons"), "s"),
        "covered.bicritical_self_s": (s("is_bicritical"), "s"),
        "covered.brick_calls": (c("is_brick"), "count"),
        "covered.brick_self_s": (s("is_brick"), "s"),
        "covered.brick_distinct_ratio": (_ratio(len(tracer.brick_keys), c("is_brick")), "ratio"),
        "cuts.separating_calls": (c("is_separating", "is_robust"), "count"),
        "cuts.separating_self_s": (s("is_separating", "is_robust"), "s"),
        "cuts.tight_calls": (c("is_tight"), "count"),
        "cuts.tight_self_s": (s("is_tight"), "s"),
        "cuts.barrier_self_s": (s("barriers", "maximal_barriers", "is_barrier"), "s"),
        "decomposition.solid_calls": (c("is_solid"), "count"),
        "decomposition.solid_self_s": (s("is_solid"), "s"),
        "decomposition.shores_self_s": (s("nontrivial_tight_shores", "find_nontrivial_tight_cut"), "s"),
        "decomposition.tcd_self_s": (
            s("tight_cut_decomposition", "brick_count", "is_near_brick", "is_brace", "decomposition_multiset"),
            "s",
        ),
        "bipartite.cert_calls": (c("is_removable_bipartite"), "count"),
        "bipartite.cert_self_s": (s("is_removable_bipartite"), "s"),
        "bipartite.pset_self_s": (s("minimum_P_set", "all_P_sets"), "s"),
        "wheels.closure_self_s": (s("g_family_closure"), "s"),
        "wheels.theta_tried": (c("theta_from_class_matrix"), "count"),
        "wheels.violation_checks": (c("family_splice_violations"), "count"),
        "wheels.splices_built": (c("splice"), "count"),
        "wheels.splice_kept_ratio": (
            _ratio(inside.get("splice", 0), inside.get("family_splice_violations", 0)),
            "ratio",
        ),
        "wheels.boundary_classes_calls": (c("boundary_classes"), "count"),
        "wheels.wheel_like_self_s": (s("is_wheel_like"), "s"),
        "graphio.parse_self_s": (s("parse_graph_text", "parse_mg", "decode_graph6"), "s"),
        "graphio.format_calls": (c("format_mg", "encode_graph6"), "count"),
        "campaigns.self_s": (layer_s("campaigns"), "s"),
        "trace.spans": (len(tracer.name_ix), "count"),
    }
