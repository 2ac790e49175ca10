"""Spans around parataur's public functions, installed from outside.

Every module of the package binds names: its own functions, and names it
imported from other modules (decide's ``instantiate`` is model's function
under decide's binding).  The tracer replaces each public function binding
in each module by a wrapper, so calls through any binding are seen,
including calls inside a module.  ``RegionGraph.reachable`` is wrapped on
its class, for the count of reachable region nodes.

A span is one call: its function's name (``<defining module>.<function>``),
start, end, the span open when it began, and the query being timed; calls
made while no query is being timed are not recorded.  Spans
are kept in flat arrays in memory and written out when the run ends.
A few return values are looked at as they pass, for counts that the spans
alone cannot give (outcomes of inclusion tests, states stored, region
nodes).
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from collections import Counter

LAYERS = ("poly", "symbolic", "regions", "decide", "model", "cli")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_query = -1
        self.facts: Counter = Counter()
        self._probe_pending = False
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, package) -> None:
        import importlib
        observers = {
            "poly.includes": _on_includes,
            "poly.quick_inclusion": _on_quick_inclusion,
            "poly.sample_point": _on_sample_point,
            "poly.contains": _on_contains,
            "symbolic.explore": _on_explore,
            "regions.build_region_graph": _on_region_graph,
        }
        for short in LAYERS:
            module = importlib.import_module(f"{package}.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith(package + ".")):
                    continue
                span = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                self._replace(module, attr, self._wrap(span, fn,
                                                       observers.get(span)))
        graph_cls = importlib.import_module(f"{package}.regions").RegionGraph
        self._replace(graph_cls, "reachable",
                      self._wrap("regions.RegionGraph.reachable",
                                 graph_cls.reachable, _on_reachable))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn, observe):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_query < 0:
                return fn(*args, **kwargs)
            idx = len(self.name)
            parent = stack[-1] if stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.query.append(self.current_query)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _clock()
                stack.pop()
            if observe is not None:
                observe(self, parent, result)
            return result

        return traced

    def parent_is(self, parent: int, span: str) -> bool:
        return parent >= 0 and self.names[self.name[parent]] == span

    # -- results --------------------------------------------------------

    def summary(self, factors: dict[int, float]) -> dict[str, float]:
        """Counts and normalized self times of the spans; ``factors`` maps
        each query id to its normalization factor."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            span = self.names[self.name[i]]
            own = (self.end[i] - self.start[i] - child[i]) * factors[self.query[i]]
            calls[span] += 1
            self_s[span] += own
            self_s[span.split(".", 1)[0]] += own
        return {"calls": calls, "self_s": self_s, "facts": self.facts}

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([self.names[self.name[i]],
                                     round(self.start[i], 7), round(self.end[i], 7),
                                     self.parent[i], self.query[i]]))
                fh.write("\n")


# -- observers: run after the wrapped call returns ------------------------


def _on_includes(tr: Tracer, parent: int, result) -> None:
    if result:
        tr.facts["poly.includes.true"] += 1
    if tr.parent_is(parent, "symbolic.explore"):
        tr.facts["symbolic.includes"] += 1


def _on_quick_inclusion(tr: Tracer, parent: int, result) -> None:
    if result is None:
        tr.facts["poly.quick_inclusion.undecided"] += 1


def _on_sample_point(tr: Tracer, parent: int, result) -> None:
    # Inside explore, sample_point is only the subsumption probe.
    if tr.parent_is(parent, "symbolic.explore"):
        tr.facts["symbolic.probes"] += 1
        tr._probe_pending = True


def _on_contains(tr: Tracer, parent: int, result) -> None:
    # A probe is useful when some candidate needed it: explore then tests
    # the probe point with contains before the next probe is drawn.
    if tr._probe_pending and tr.parent_is(parent, "symbolic.explore"):
        tr.facts["symbolic.probes_useful"] += 1
        tr._probe_pending = False


def _on_explore(tr: Tracer, parent: int, result) -> None:
    stored = len(result.states)
    tr.facts["symbolic.states_stored"] += stored
    if stored:
        tr.facts["symbolic.successors_subsumed"] += len(result.edges) - (stored - 1)
    if not result.complete:
        tr.facts["symbolic.budget_hits"] += 1
    tr._probe_pending = False


def _on_region_graph(tr: Tracer, parent: int, result) -> None:
    tr.facts["regions.nodes_built"] += len(result.nodes)


def _on_reachable(tr: Tracer, parent: int, result) -> None:
    tr.facts["regions.nodes_reachable"] += len(result[0])


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a summary."""
    calls, self_s, facts = summary["calls"], summary["self_s"], summary["facts"]

    def share(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for span in ("poly.is_empty", "poly.includes", "poly.minimized",
                 "poly.sample_point", "poly.difference", "symbolic.succ",
                 "decide.verify_witness", "model.instantiate", "cli.main"):
        out[f"{span}.calls"] = calls[span]
    for span in ("poly.includes", "poly.minimized", "poly.sample_point",
                 "poly.time_elapse", "poly.reset", "poly.project_params",
                 "decide.ef_synth_int", "decide.deadlock_region",
                 "model.parse_model"):
        out[f"{span}.self_s"] = self_s[span]
    out["poly.includes.true_share"] = share(facts["poly.includes.true"],
                                            calls["poly.includes"])
    out["poly.quick_inclusion.undecided"] = facts["poly.quick_inclusion.undecided"]
    stored = facts["symbolic.states_stored"]
    out["symbolic.states_stored"] = stored
    out["symbolic.successors_subsumed"] = facts["symbolic.successors_subsumed"]
    out["symbolic.budget_hits"] = facts["symbolic.budget_hits"]
    out["symbolic.includes_per_stored"] = share(facts["symbolic.includes"], stored)
    out["symbolic.probe_useful_share"] = share(facts["symbolic.probes_useful"],
                                               facts["symbolic.probes"])
    out["regions.graphs_built"] = calls["regions.build_region_graph"]
    out["regions.nodes_built"] = facts["regions.nodes_built"]
    out["regions.nodes_reachable"] = facts["regions.nodes_reachable"]
    out["regions.reachable_share"] = share(facts["regions.nodes_reachable"],
                                           facts["regions.nodes_built"])
    return out
