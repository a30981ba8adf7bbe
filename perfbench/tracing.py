"""Spans around the package's public functions, installed from outside.

Every wrapper is put where its callers look the name up: a module-level
function is replaced in each `tuttemap` module that imported it by name,
and a method on its class. A generator is timed per `next()`. Spans (name,
start, end, parent, job id) stay in flat arrays until `write()`; self time,
call counts and result counts are summed as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name); "Class.attr" wraps a class attribute
FUNCTIONS = [
    ("spanning", "enumerate_spanning_trees", "spanning.enumerate"),
    ("spanning", "SpanningTree.__init__", "spanning.tree_init"),
    ("spanning", "SpanningTree.fundamental_cycle", "spanning.fundamental_cycle"),
    ("spanning", "SpanningTree.fundamental_cocycle", "spanning.fundamental_cocycle"),
    ("activity", "motion_function", "activity.motion_function"),
    ("activity", "embedding_activities", "activity.embedding_activities"),
    ("activity", "order_activities", "activity.order_activities"),
    ("poly", "BivariatePolynomial.__add__", "poly.add"),
    ("poly", "BivariatePolynomial.__radd__", "poly.add"),
    ("poly", "BivariatePolynomial.__mul__", "poly.mul"),
    ("poly", "BivariatePolynomial.__rmul__", "poly.mul"),
    ("poly", "BivariatePolynomial.__pow__", "poly.pow"),
    ("engines", "graph_certificate", "engines.certificate"),
    ("engines", "graphs_isomorphic", "engines.isomorphic"),
    ("engines", "tutte_subgraph_expansion", "engines.evaluators"),
    ("engines", "tutte_deletion_contraction", "engines.evaluators"),
    ("engines", "tutte_order_activities", "engines.evaluators"),
    ("engines", "tutte_embedding_activities", "engines.evaluators"),
    ("engines", "tutte_recursive_map", "engines.evaluators"),
    ("graph", "Multigraph.delete", "graph.minor"),
    ("graph", "Multigraph.contract", "graph.minor"),
    ("graph", "Multigraph.is_isthmus", "graph.is_isthmus"),
    ("graph", "Multigraph.component_count", "graph.component_count"),
    ("graph", "Multigraph.from_text", "graph.from_text"),
    ("cmap", "CombinatorialMap.delete_edge", "cmap.minor"),
    ("cmap", "CombinatorialMap.contract_edge", "cmap.minor"),
    ("cmap", "CombinatorialMap.underlying_graph", "cmap.underlying_graph"),
    ("cmap", "CombinatorialMap.validate", "cmap.validate"),
    ("cmap", "CombinatorialMap.canonical_form", "cmap.canonical_form"),
    ("mapenum", "enumerate_rooted_maps", "mapenum.census"),
    ("mapenum", "partition_function", "mapenum.partition_function"),
    ("cli", "main", "cli.main"),
]

# result counters: span name -> (counter name, value of one result); the
# enumerator's counter counts the items its next() returns
RESULTS = {
    "spanning.enumerate": ("spanning.trees", None),
    "engines.isomorphic": ("engines.isomorphic_true", lambda r: r is True),
    "mapenum.census": ("mapenum.maps", len),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, start, child time]
        self.job = -1
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.results: dict[str, int] = {}
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.ids[name]

    def reset_totals(self) -> None:
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        for key in self.results:  # in place: wrappers hold this dict
            self.results[key] = 0

    def totals(self) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[name + "_s"] = self.self_s[i]
            out[name + "_n"] = self.calls[i]
        for name, n in self.results.items():
            out[name + "_n"] = n
        return out

    def _enter(self, nid: int) -> None:
        stack = self.stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self.job)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(0.0)
        stack.append([len(self.span_end) - 1, t0, 0.0])

    def _leave(self, nid: int) -> None:
        t1 = time.perf_counter()
        idx, t0, child = self.stack.pop()
        self.span_end[idx] = t1
        d = t1 - t0
        self.self_s[nid] += d - child
        self.calls[nid] += 1
        if self.stack:
            self.stack[-1][2] += d

    def wrap(self, fn, name: str):
        nid = self._id(name)
        counted = RESULTS.get(name)
        enter, leave = self._enter, self._leave
        results = self.results
        if counted:
            results.setdefault(counted[0], 0)

        if name == "spanning.enumerate":
            return lambda *a, **k: _TimedIter(self, fn(*a, **k), nid, counted[0])

        def traced(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(nid)
            if counted:
                results[counted[0]] += counted[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of FUNCTIONS in the imported package."""
        for module, attr, name in FUNCTIONS:
            mod = sys.modules["tuttemap." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name))
                else:
                    new = self.wrap(raw, name)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            new = self.wrap(fn, name)
            for other_name, other in list(sys.modules.items()):
                if other_name != "tuttemap" and not other_name.startswith("tuttemap."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._undo.append((other, key, fn))
                        setattr(other, key, new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: Path) -> int:
        """Write the spans recorded so far and drop them from memory: a JSON
        header line, then five raw native-endian arrays of equal length (name
        id, parent span index or -1, job id as int32; start, end as float64
        `perf_counter` seconds). Returns the number of spans."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:i4", "parent:i4", "job:i4", "start:f8", "end:f8"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_job,
                        self.span_start, self.span_end):
                arr.tofile(fh)
                del arr[:]
        return header["spans"]


class _TimedIter:
    __slots__ = ("tracer", "it", "nid", "counter")

    def __init__(self, tracer: Tracer, it, nid: int, counter: str) -> None:
        self.tracer, self.it, self.nid, self.counter = tracer, it, nid, counter

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        tr._enter(self.nid)
        try:
            item = next(self.it)
        finally:
            tr._leave(self.nid)
        tr.results[self.counter] += 1
        return item
