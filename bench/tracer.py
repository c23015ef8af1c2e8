"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of each grothkit module (its
layer) and rebinds the wrapper in every grothkit namespace that binds the
function, so calls between modules, within a module and through the
package root all pass through it.  The `tables_equal` methods of the fincat
value classes are wrapped too, since table comparison is a cost of its own.
Generator functions are left alone: their work happens while the caller
iterates, and is counted as the caller's.  So are the naming helpers
`id_name` and `pair_id`, which run once per identifier and would cost more
to trace than they take.

Each call made while `enabled` is a span.  Spans nest on a stack, so every
span knows its parent; a span's self time is its duration minus the time
its child spans cover, including the tracer's own bookkeeping for them.
Spans are folded into per-layer totals as they end instead of being kept,
so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("fincat", "build", "isosearch", "opfib", "groth", "indexed", "dsl", "cli")
UNTRACED = {"id_name", "pair_id"}
TABLE_CLASSES = ("FinCat", "FunctorData", "NatTransData", "CatDiagram")
PARSERS = {"parse_workspace", "parse_files"}
PRINTERS = {"print_workspace", "render_dot"}


def composable_triples(cat) -> int:
    """Triples (h, g, f) with tgt f = src g and tgt g = src h, counted from the tables."""
    into: dict[str, int] = defaultdict(int)
    out_of: dict[str, int] = defaultdict(int)
    for m in cat.mors:
        into[cat.tgt[m]] += 1
        out_of[cat.src[m]] += 1
    return sum(into[cat.src[g]] * out_of[cat.tgt[g]] for g in cat.mors)


def parsed_bytes(name: str, args: tuple) -> int:
    if name == "parse_workspace":
        return len(args[0].encode("utf-8"))
    return sum(os.path.getsize(p) for p in args[0])


class Tracer:
    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[int]] = []   # per open span: [time covered by its children]
        self.searching = 0                 # open isosearch spans
        self.self_ns: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)       # named quantities, in ns
        self.count: dict[str, int] = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self, gk) -> None:
        # by module name: the package binds the function `groth` over its submodule `groth`
        modules = {layer: sys.modules[f"{gk.__name__}.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
                        and name not in UNTRACED and not inspect.isgeneratorfunction(fn)):
                    wrapped[id(fn)] = self.wrap(fn, layer, name)
        namespaces = [gk] + [m for n, m in sys.modules.items() if n.startswith(gk.__name__ + ".")]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(ns, name, wrapped[id(value)])
        for cls_name in TABLE_CLASSES:
            cls = getattr(modules["fincat"], cls_name)
            cls.tables_equal = self.wrap(cls.tables_equal, "fincat", "tables_equal")

    def wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(fn, layer, name, args, kwargs)

        return traced

    # -- spans --------------------------------------------------------------

    def span(self, fn, layer: str, name: str, args: tuple, kwargs: dict):
        enter = time.perf_counter_ns()
        frame = [0]
        self.stack.append(frame)
        searching = layer == "isosearch"
        self.searching += searching
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.searching -= searching
            self.account(layer, name, end - start, end - start - frame[0], args, result)
            if self.stack:
                self.stack[-1][0] += time.perf_counter_ns() - enter

    def account(self, layer: str, name: str, dur: int, own: int, args: tuple, result) -> None:
        self.self_ns[layer] += own
        if layer == "fincat" and self.searching:
            self.ns["witness"] += own
        if name == "validate_category":
            self.ns["validate_category"] += dur
            if result is not None:
                self.count["triples"] += composable_triples(result)
        elif name == "validate_functor":
            self.ns["validate_functor"] += dur
        elif name == "tables_equal":
            self.ns["tables_equal"] += own
        elif layer == "groth" and name == "groth":
            if result is not None:
                self.count["total_mors"] += len(result.total.mors)
        elif layer == "isosearch":
            if result is not None:
                self.count["nodes"] += result.nodes
                self.count[f"nodes_{result.status}"] += result.nodes
        elif name in PARSERS:
            self.ns["parse_self"] += own
            self.count["parse_bytes"] += parsed_bytes(name, args)
        elif name in PRINTERS:
            self.ns["print"] += dur

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        return dict(self.self_ns)

    def metrics(self, rounds: int, setup_self_ns: dict[str, int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round of the workload's job list."""
        def per_round(ns: int) -> float:
            return ns / 1e6 / rounds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def nodes(key: str) -> float:
            total = self.count[key]
            return total // rounds if total % rounds == 0 else total / rounds

        out = {f"{layer}.self_ms": (per_round(self.self_ns[layer]), "ms") for layer in LAYERS}
        out.update({
            "fincat.validate_category_ms": (per_round(self.ns["validate_category"]), "ms"),
            "fincat.ns_per_triple": (ratio(self.ns["validate_category"], self.count["triples"]), "ns"),
            "fincat.validate_functor_ms": (per_round(self.ns["validate_functor"]), "ms"),
            "fincat.tables_equal_ms": (per_round(self.ns["tables_equal"]), "ms"),
            "groth.us_per_total_mor": (ratio(self.self_ns["groth"] / 1e3, self.count["total_mors"]), "us"),
            "isosearch.nodes": (nodes("nodes"), "count"),
            "isosearch.nodes_found": (nodes("nodes_found"), "count"),
            "isosearch.nodes_none": (nodes("nodes_none"), "count"),
            "isosearch.us_per_node": (ratio(self.self_ns["isosearch"] / 1e3, self.count["nodes"]), "us"),
            "isosearch.witness_ms": (per_round(self.ns["witness"]), "ms"),
            "dsl.parse_self_ms": (per_round(self.ns["parse_self"]), "ms"),
            "dsl.print_ms": (per_round(self.ns["print"]), "ms"),
            "dsl.parse_kb_per_s": (ratio(self.count["parse_bytes"] / 1e3, self.ns["parse_self"] / 1e9), "kB/s"),
            "setup.fincat_ms": (setup_self_ns.get("fincat", 0) / 1e6, "ms"),
            "setup.build_ms": (setup_self_ns.get("build", 0) / 1e6, "ms"),
        })
        return out
