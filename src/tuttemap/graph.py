"""Multigraphs with loops and parallel edges.

Edges carry stable caller-chosen ids so that parallel copies stay
distinguishable through deletion and contraction; activity bookkeeping in
the rest of the package depends on that identity. Graphs are immutable:
minor operations return fresh graphs that keep every other edge id.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["GraphError", "Multigraph"]


class GraphError(ValueError):
    """Bad graph input, or an edge operation whose precondition fails."""


class Multigraph:
    """An undirected multigraph over opaque vertex and edge ids.

    Endpoints may coincide (loops) and several edges may join the same
    endpoints. Ids of one graph should be mutually comparable (all strings
    or all ints) so that deterministic sorted orders exist.
    """

    __slots__ = ("_vertices", "_edges", "_ids", "_ends")

    def __init__(self, vertices: Iterable, edges: Mapping | Iterable = ()) -> None:
        verts = frozenset(vertices)
        if not verts:
            raise GraphError("a multigraph needs at least one vertex")
        items = edges.items() if isinstance(edges, Mapping) else edges
        table = {}
        for e, (u, v) in items:
            if e in table:
                raise GraphError(f"duplicate edge id {e!r}")
            if u not in verts:
                raise GraphError(f"edge {e!r} endpoint {u!r} is not a vertex")
            if v not in verts:
                raise GraphError(f"edge {e!r} endpoint {v!r} is not a vertex")
            table[e] = (u, v)
        self._vertices = verts
        self._edges = table
        self._ids = None
        self._ends = None

    # -- views ----------------------------------------------------------

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def edge_ids(self) -> tuple:
        """The edge ids in sorted order, sorted once: the graph is immutable."""
        if self._ids is None:
            self._ids = tuple(sorted(self._edges))
        return self._ids

    def _numbered_ends(self) -> tuple:
        """The endpoints of each edge in ``edge_ids`` order, with vertices
        numbered 0, 1, ... by first appearance; a connected graph with an
        edge thus numbers every vertex. Computed once, for the int-array
        tree kernels."""
        if self._ends is None:
            number: dict = {}
            self._ends = tuple([
                (number.setdefault(u, len(number)), number.setdefault(v, len(number)))
                for u, v in map(self._edges.__getitem__, self.edge_ids)
            ])
        return self._ends

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def endpoints(self, e) -> tuple:
        try:
            return self._edges[e]
        except KeyError:
            raise GraphError(f"unknown edge id {e!r}") from None

    def has_edge(self, e) -> bool:
        return e in self._edges

    # -- predicates -------------------------------------------------------

    def is_loop(self, e) -> bool:
        u, v = self.endpoints(e)
        return u == v

    def is_isthmus(self, e) -> bool:
        """True iff e is not a loop and removing it increases the number of
        components, that is, iff no path of other edges joins its endpoints."""
        if self.is_loop(e):
            return False
        others = [f for f in self._edges if f != e]
        return self.component_count(others) > self.component_count()

    def component_count(self, edge_subset: Iterable | None = None) -> int:
        """Components of the spanning subgraph on the given edges (all
        vertices always participate; None means every edge): union-find
        with path halving."""
        parent = {v: v for v in self._vertices}
        count = len(parent)
        for e in self._edges if edge_subset is None else edge_subset:
            u, v = self.endpoints(e)
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                count -= 1
        return count

    def is_connected(self) -> bool:
        return self.component_count() == 1

    # -- minors -----------------------------------------------------------

    def delete(self, e) -> "Multigraph":
        self.endpoints(e)
        return Multigraph(
            self._vertices,
            {f: uv for f, uv in self._edges.items() if f != e},
        )

    def contract(self, e) -> "Multigraph":
        """Merge the endpoints of e (the smaller id survives) and drop e.

        Every other edge is kept, so contraction may create loops and
        parallel edges.
        """
        u, v = self.endpoints(e)
        if u == v:
            raise GraphError(f"edge {e!r} is a loop and cannot be contracted")
        keep, drop = (u, v) if min(u, v) == u else (v, u)

        def sub(w):
            return keep if w == drop else w

        edges = {
            f: (sub(a), sub(b))
            for f, (a, b) in self._edges.items()
            if f != e
        }
        return Multigraph(self._vertices - {drop}, edges)

    # -- text format --------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        """Parse the line format ``v <id>`` / ``e <id> <u> <v>``;
        ``#`` starts a comment. All parsed ids are strings."""
        verts: list[str] = []
        seen = set()
        edges: dict[str, tuple[str, str]] = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) != 2:
                    raise GraphError(f"line {ln}: vertex lines look like 'v <id>'")
                if parts[1] in seen:
                    raise GraphError(f"line {ln}: duplicate vertex id {parts[1]!r}")
                seen.add(parts[1])
                verts.append(parts[1])
            elif parts[0] == "e":
                if len(parts) != 4:
                    raise GraphError(
                        f"line {ln}: edge lines look like 'e <id> <u> <v>'"
                    )
                name, u, v = parts[1], parts[2], parts[3]
                if name in edges:
                    raise GraphError(f"line {ln}: duplicate edge id {name!r}")
                if u not in seen:
                    raise GraphError(f"line {ln}: unknown vertex {u!r}")
                if v not in seen:
                    raise GraphError(f"line {ln}: unknown vertex {v!r}")
                edges[name] = (u, v)
            else:
                raise GraphError(f"line {ln}: unknown record {parts[0]!r}")
        return cls(verts, edges)

    def to_text(self) -> str:
        """The line format ``from_text`` reads, which gives ids back as
        strings. An id whose text is empty or holds whitespace or ``#``
        would not read back, so it raises GraphError."""
        verts = sorted(self._vertices, key=str)
        edges = sorted(self._edges, key=str)
        for word in map(str, verts + edges):
            if "#" in word or word.split() != [word]:
                raise GraphError(f"id {word!r} is empty or holds whitespace or '#'")
        lines = [f"v {v}" for v in verts]
        for e in edges:
            u, v = sorted(self._edges[e], key=str)
            lines.append(f"e {e} {u} {v}")
        return "\n".join(lines) + "\n"

    # -- equality -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        if self._vertices != other._vertices:
            return False
        if self._edges.keys() != other._edges.keys():
            return False
        return all(
            frozenset(self._edges[e]) == frozenset(other._edges[e])
            for e in self._edges
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Multigraph({sorted(self._vertices, key=str)!r}, "
            f"{dict(sorted(self._edges.items(), key=lambda kv: str(kv[0])))!r})"
        )
