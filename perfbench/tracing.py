"""Traced run, recorded from outside the package.

`Tracer.install` replaces each layer's entry points with wrappers in every
`rainbowpan` namespace that holds them (a function imported by name lives in
several modules at once), and `kernels.find_path` / `find_cycle` on the
kernels module. `uninstall` puts the originals back, so untraced passes run
the package untouched. A wrapper records one span per call (item, span id,
parent span, name, start, end) plus counts at the same boundary: kernel
nodes and statuses, repeated search queries, budget stops, recognizer hits.
Spans stay in memory and are written out when the run ends.

Layer self time is a span's duration minus the time its direct child spans
cover, summed over the layer's spans.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# layer -> (module, entry points); kernels is handled separately
LAYERS = {
    "cli": ("rainbowpan.cli", ("main", "cmd_check", "cmd_classify", "cmd_verify", "cmd_replay", "cmd_gen", "run_campaign")),
    "generate": ("rainbowpan.generate", ("generate", "gen_random_collection", "gen_extremal_F", "gen_cor23_obstruction", "gen_lemma_shape")),
    "analysis": ("rainbowpan.analysis", ("is_rainbow_panconnected", "is_rainbow_ham_connected", "verify_theorem_1_5", "classify_ham_path_obstruction", "is_panconnected_single")),
    "analysis.recognize": ("rainbowpan.analysis", ("recognize_F_family", "recognize_two_cliques", "recognize_join_partition", "recognize_clique_split")),
    "constructions": ("rainbowpan.constructions", ("constructive_panconnect", "construct_short_paths", "rotation_k_path", "near_cycle_k_path", "ham_path_k_path", "two_clique_k_path", "join_partition_k_path", "five_vertex_4path", "endpoint_bound_report")),
    "search": ("rainbowpan.search", ("find_rainbow_path", "find_rainbow_cycle", "find_rainbow_ham_path", "rainbow_distance", "assign_colors")),
    "core.validate": ("rainbowpan.core", ("check_colored_path", "check_colored_cycle")),
    "io": ("rainbowpan.io", ("read_instance", "write_instance", "parse_instance", "format_instance")),
}
QUERIES = ("find_rainbow_path", "find_rainbow_cycle")

PER_LAYER = (
    "search.self_s", "search.queries", "search.repeat_ratio", "search.budget_stops",
    "kernels.calls", "kernels.s", "kernels.nodes", "kernels.nodes_max",
    "kernels.found_ratio", "kernels.nodes_per_s",
    "analysis.recognize.calls", "analysis.recognize.s", "analysis.recognize.hit_ratio",
    "constructions.calls", "constructions.self_s", "constructions.fallback_ratio",
    "core.validate.calls", "core.validate.s", "generate.calls", "generate.s",
    "analysis.self_s", "cli.self_s", "io.s",
)



def unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def _view_key(coll) -> tuple:
    base = getattr(coll, "base", None)
    if base is None:
        return (id(coll), frozenset(), frozenset())
    return (id(base), coll.removed_vertices, coll.removed_colors)


def _query_key(name: str, args, kwargs) -> tuple:
    """Same view, endpoints and length (or cycle length), and forbidden colors."""
    arity = 4 if name == "find_rainbow_path" else 2
    forbidden = args[arity] if len(args) > arity else kwargs.get("forbidden_colors", ())
    return (name, _view_key(args[0]), args[1:arity], frozenset(forbidden))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.item = -1
        self.seen: set = set()
        self.count: dict[str, int] = defaultdict(int)
        self.nodes_max = 0
        self.pass_start = 0
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, layer: str, name: str):
        idx = self._index.setdefault(f"{layer}:{name}", len(self.names))
        if idx == len(self.names):
            self.names.append(f"{layer}:{name}")
            self.layer_of.append(layer)
        spans, stack, count = self.spans, self.stack, self.count
        clock = time.perf_counter
        budget_error = sys.modules["rainbowpan.search"].BudgetExceeded
        found = sys.modules["rainbowpan.kernels"].FOUND
        kind = (
            "kernel" if layer == "kernels"
            else "query" if name in QUERIES
            else "recognize" if layer == "analysis.recognize"
            else "plain"
        )
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            if kind == "query":
                key = _query_key(name, args, kwargs)
                count["queries"] += 1
                if key in tracer.seen:
                    count["repeats"] += 1
                else:
                    tracer.seen.add(key)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if kind == "query":
                    count["budget_stops"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((tracer.item, sid, parent, idx, t0, t1))
            if kind == "kernel":
                nodes = result[3]
                count["kernel_calls"] += 1
                count["kernel_nodes"] += nodes
                count["kernel_found"] += result[0] == found
                if nodes > tracer.nodes_max:
                    tracer.nodes_max = nodes
            elif kind == "recognize":
                count["recognize_calls"] += 1
                count["recognize_hits"] += result is not None
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in every rainbowpan namespace holding it."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == "rainbowpan" or n.startswith("rainbowpan.")]
        for layer, (mod_name, names) in LAYERS.items():
            home = sys.modules[mod_name]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrapper(original, layer, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        kernels = sys.modules["rainbowpan.kernels"]
        for name in ("find_path", "find_cycle"):
            original = getattr(kernels, name)
            self._patches.append((kernels, name, original))
            setattr(kernels, name, self._wrapper(original, "kernels", name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def start_item(self, item: int) -> None:
        self.item = item
        self.seen = set()

    # -- summaries ---------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_start = len(self.spans)
        self.count.clear()
        self.nodes_max = 0

    def pass_metrics(self, extra: dict) -> dict:
        """Per-layer metrics of the spans and counts since `begin_pass`;
        `extra` holds counts taken from the items' outputs."""
        spans = self.spans[self.pass_start:]
        counts, nodes_max = self.count, self.nodes_max
        children = defaultdict(float)
        for _, _, parent, _, t0, t1 in spans:
            children[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for _, sid, _, idx, t0, t1 in spans:
            layer = self.layer_of[idx]
            self_s[layer] += t1 - t0 - children[sid]
            calls[layer] += 1
        queries = counts.get("queries", 0)
        k_calls = counts.get("kernel_calls", 0)
        k_nodes = counts.get("kernel_nodes", 0)
        r_calls = counts.get("recognize_calls", 0)
        k_paths = extra.get("k_paths", 0)
        return {
            "search.self_s": self_s["search"],
            "search.queries": queries,
            "search.repeat_ratio": counts.get("repeats", 0) / queries if queries else 0.0,
            "search.budget_stops": counts.get("budget_stops", 0),
            "kernels.calls": k_calls,
            "kernels.s": self_s["kernels"],
            "kernels.nodes": k_nodes,
            "kernels.nodes_max": nodes_max,
            "kernels.found_ratio": counts.get("kernel_found", 0) / k_calls if k_calls else 0.0,
            "kernels.nodes_per_s": k_nodes / self_s["kernels"] if self_s["kernels"] else 0.0,
            "analysis.recognize.calls": r_calls,
            "analysis.recognize.s": self_s["analysis.recognize"],
            "analysis.recognize.hit_ratio": counts.get("recognize_hits", 0) / r_calls if r_calls else 0.0,
            "constructions.calls": calls["constructions"],
            "constructions.self_s": self_s["constructions"],
            "constructions.fallback_ratio": extra.get("fallback_k_paths", 0) / k_paths if k_paths else 0.0,
            "core.validate.calls": calls["core.validate"],
            "core.validate.s": self_s["core.validate"],
            "generate.calls": calls["generate"],
            "generate.s": self_s["generate"],
            "analysis.self_s": self_s["analysis"],
            "cli.self_s": self_s["cli"],
            "io.s": self_s["io"],
        }

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the span names, then one
        [item, span, parent, name index, start, end] per line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
