"""Spanning trees, their enumeration, and fundamental cycles/cocycles."""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import GraphError, Multigraph

__all__ = ["SpanningTree", "enumerate_spanning_trees"]


class SpanningTree:
    """A spanning tree of a connected multigraph, held as its edge set.

    Edges inside the tree are internal, the rest external. The fundamental
    cycle of an external edge e is e plus the tree path joining its
    endpoints; the fundamental cocycle of an internal edge e is e plus every
    edge crossing the cut opened by removing e from the tree.
    """

    __slots__ = ("parent", "internal_edges", "_adj")

    def __init__(self, parent: Multigraph, edges: Iterable) -> None:
        chosen = frozenset(edges)
        for e in chosen:
            parent.endpoints(e)
        if (
            len(chosen) != parent.vertex_count - 1
            or parent.component_count(chosen) != 1
        ):
            raise GraphError(
                f"edge set {sorted(chosen, key=str)} is not a spanning tree"
            )
        self.parent = parent
        self.internal_edges = chosen
        self._adj = None

    @classmethod
    def _trusted(cls, parent: Multigraph, edges: Iterable) -> "SpanningTree":
        """A tree whose edges are already known to span: no re-validation."""
        st = cls.__new__(cls)
        st.parent = parent
        st.internal_edges = frozenset(edges)
        st._adj = None
        return st

    def is_internal(self, e) -> bool:
        self.parent.endpoints(e)
        return e in self.internal_edges

    def _adjacency(self) -> dict:
        if self._adj is None:
            adj = {v: [] for v in self.parent.vertices}
            for e in self.internal_edges:
                u, v = self.parent.endpoints(e)
                adj[u].append((v, e))
                adj[v].append((u, e))
            self._adj = adj
        return self._adj

    def fundamental_cycle(self, e) -> frozenset:
        """The external edge e plus the tree path between its endpoints
        (just {e} when e is a loop)."""
        u, v = self.parent.endpoints(e)
        if e in self.internal_edges:
            raise GraphError(
                f"edge {e!r} is internal; fundamental cycles belong to external edges"
            )
        if u == v:
            return frozenset({e})
        adj = self._adjacency()
        back: dict = {u: None}
        frontier = [u]
        while frontier and v not in back:
            nxt = []
            for w in frontier:
                for w2, f in adj[w]:
                    if w2 not in back:
                        back[w2] = (w, f)
                        nxt.append(w2)
            frontier = nxt
        path = set()
        w = v
        while back[w] is not None:
            w, f = back[w]
            path.add(f)
        return frozenset(path | {e})

    def fundamental_cocycle(self, e) -> frozenset:
        """The internal edge e plus every edge with exactly one endpoint in
        the component cut off by removing e from the tree."""
        u, v = self.parent.endpoints(e)
        if e not in self.internal_edges:
            raise GraphError(
                f"edge {e!r} is external; fundamental cocycles belong to internal edges"
            )
        adj = self._adjacency()
        side = {u}
        frontier = [u]
        while frontier:
            nxt = []
            for w in frontier:
                for w2, f in adj[w]:
                    if f != e and w2 not in side:
                        side.add(w2)
                        nxt.append(w2)
            frontier = nxt
        out = set()
        for f in self.parent.edge_ids:
            a, b = self.parent.endpoints(f)
            if (a in side) != (b in side):
                out.add(f)
        return frozenset(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return self.parent == other.parent and self.internal_edges == other.internal_edges

    __hash__ = None

    def __repr__(self) -> str:
        return f"SpanningTree(..., {sorted(self.internal_edges, key=str)!r})"


def _find(parent: dict, v):
    while parent[v] != v:
        v = parent[v]
    return v


def enumerate_spanning_trees(graph: Multigraph) -> Iterator[SpanningTree]:
    """Yield every spanning tree exactly once, in lexicographic order of the
    sorted edge-id sets. Loops are skipped outright; acyclicity pruning cuts
    the subset scan early."""
    if not graph.is_connected():
        raise GraphError("spanning trees need a connected graph")
    need = graph.vertex_count - 1
    pool = [e for e in graph.edge_ids if not graph.is_loop(e)]

    def walk(i: int, chosen: list, parent: dict) -> Iterator[SpanningTree]:
        if len(chosen) == need:
            yield SpanningTree._trusted(graph, chosen)
            return
        for j in range(i, len(pool)):
            if len(pool) - j < need - len(chosen):
                break
            e = pool[j]
            u, v = graph.endpoints(e)
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                continue
            child = dict(parent)
            child[rv] = ru
            yield from walk(j + 1, chosen + [e], child)

    yield from walk(0, [], {v: v for v in graph.vertices})
