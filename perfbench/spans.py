"""Span tracing of urmatch from the outside.

``Tracer.install`` replaces each traced function, in every loaded ``urmatch``
module that holds a reference to it, with a wrapper that records a span:
name, start, end, parent span and the id of the workload graph being decided.
Spans are kept in memory in flat arrays; ``write`` saves them as a table and
``layer_metrics`` derives per-layer time, self time and counters from them.
Nothing inside the library changes, and ``uninstall`` puts every original
function back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute) of every traced function; a span is named after the
# module that defines the function, whichever module calls it.
TRACED = (
    ("decomposition", "gallai_edmonds"),
    ("matching", "missable_vertices"),
    ("matching", "unique_perfect_matching"),
    ("matching", "edge_in_some_maximum_matching"),
    ("matching", "maximum_matching_bipartite"),
    ("matching", "max_independent_set_bipartite"),
    ("ur_core", "build_matching_digraph"),
    ("ur_core", "is_acyclic"),
    ("ur_core", "is_uniquely_restricted"),
    ("graph_core", "is_forest"),
    ("graph_core", "bipartition"),
    ("graph_core", "induced_subgraph"),
    ("graph_core", "blocks_are_odd_cycles"),
    ("graph_core", "connected_components"),
    ("recognition", "allowed_edges"),
    ("recognition", "every_ur_bipartite"),
    ("recognition", "some_ur"),
    ("recognition", "every_ur"),
    ("accessibility", "find_e_good_ordering"),
    ("cli", "parse_graph"),
    ("oracle", "oracle_some_ur"),
    ("oracle", "oracle_every_ur"),
)
FROM_EDGES = "graph_core.Graph.from_edges"
UPM = "matching.unique_perfect_matching"
INDUCED = "graph_core.induced_subgraph"
CHECK = "cli.check"
SELFTEST = "cli.selftest"

# Metric name -> unit, in output order.  ``<span>.calls`` counts spans,
# ``<span>.s`` sums their durations, ``<span>.self_s`` subtracts the time
# covered by child spans.
_SPAN_METRICS = (
    ("decomposition.gallai_edmonds", ("s", "self_s")),
    ("matching.missable_vertices", ("s",)),
    (UPM, ("calls", "s")),
    ("matching.edge_in_some_maximum_matching", ("calls", "s")),
    ("matching.maximum_matching_bipartite", ("calls", "s")),
    ("ur_core.build_matching_digraph", ("s",)),
    ("ur_core.is_acyclic", ("s",)),
    ("graph_core.is_forest", ("s",)),
    ("graph_core.bipartition", ("s",)),
    (INDUCED, ("calls", "s")),
    ("recognition.allowed_edges", ("s",)),
    ("accessibility.find_e_good_ordering", ("s",)),
    ("matching.max_independent_set_bipartite", ("s",)),
    ("graph_core.blocks_are_odd_cycles", ("calls", "s")),
    ("graph_core.connected_components", ("s",)),
    ("recognition.every_ur_bipartite", ("s",)),
    ("recognition.some_ur", ("self_s",)),
    ("recognition.every_ur", ("self_s",)),
    (FROM_EDGES, ("calls", "s")),
    ("cli.parse_graph", ("s",)),
    ("oracle.oracle_some_ur", ("s",)),
    ("oracle.oracle_every_ur", ("s",)),
    ("ur_core.is_uniquely_restricted", ("s",)),
)
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

LAYER_UNITS: dict[str, str] = {}
for _span, _kinds in _SPAN_METRICS:
    for _kind in _kinds:
        LAYER_UNITS[f"{_span}.{_kind}"] = _UNITS[_kind]
LAYER_UNITS.update({
    f"{UPM}.repeat_frac": "ratio",
    f"{INDUCED}.edges_scanned": "count",
    f"{INDUCED}.kept_frac": "ratio",
    "cli.check.other_s": "s",
    "trace.overhead_frac": "ratio",
    "check.exponent": "slope",
})


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.gid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.graph_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # A root span decides one input, except under the self-test, which
        # decides many: unique_perfect_matching arguments seen so far under
        # the current root, or None under the self-test.
        self._upm_seen: set | None = None
        self.counters: Counter = Counter()

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        if self._stack:
            self.parent.append(self._stack[-1])
        else:
            self.parent.append(-1)
            self._upm_seen = None if self.names[nid] == SELFTEST else set()
        self.name.append(nid)
        self.gid.append(self.graph_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self._open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        opened, closed = self._open, self._close
        if name == UPM:
            def count(args, result):
                seen = self._upm_seen
                if seen is None:
                    return
                key = (args[0].n, args[0].edges)
                self.counters["upm_calls"] += 1
                if key in seen:
                    self.counters["upm_repeats"] += 1
                seen.add(key)
        elif name == INDUCED:
            def count(args, result):
                self.counters["induced_scanned"] += args[0].m
                self.counters["induced_kept"] += result[0].m
        else:
            count = None

        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if count is not None:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "urmatch" or k.startswith("urmatch."))]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"urmatch.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        graph_cls = sys.modules["urmatch.graph_core"].Graph
        descriptor = graph_cls.__dict__["from_edges"]
        self._restore.append((graph_cls, "from_edges", descriptor))
        wrapped = self._wrap(FROM_EDGES, descriptor.__func__)
        graph_cls.from_edges = classmethod(wrapped)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, value = self._restore.pop()
            setattr(obj, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Save all spans as a tab-separated table, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tgraph\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.gid[i]}\n")

    def totals(self, graph: int | None = None) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of spans, summed duration, summed self time;
        only over spans of one workload graph if ``graph`` is given."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_total: Counter = Counter()
        for i in range(n):
            if graph is not None and self.gid[i] != graph:
                continue
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_total[name] += dur[i] - child[i]
        return calls, total, self_total

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, as amounts per traced pass over the workload."""
        calls, total, self_total = self.totals()
        kinds = {"calls": calls, "s": total, "self_s": self_total}
        out = {}
        for span, wanted in _SPAN_METRICS:
            for kind in wanted:
                out[f"{span}.{kind}"] = kinds[kind][span] / passes
        c = self.counters
        out[f"{UPM}.repeat_frac"] = (
            c["upm_repeats"] / c["upm_calls"] if c["upm_calls"] else 0.0)
        out[f"{INDUCED}.edges_scanned"] = c["induced_scanned"] / passes
        out[f"{INDUCED}.kept_frac"] = (
            c["induced_kept"] / c["induced_scanned"] if c["induced_scanned"] else 0.0)
        out["cli.check.other_s"] = self_total[CHECK] / passes
        return out
