"""Tours of spanning trees in an embedded graph, and edge activities.

Walking around a spanning tree (follow the pairing across tree edges, just
turn at the others) visits every half-edge exactly once. Anchoring that
single cycle at the root linearly orders the half-edges, and edges inherit
the order of their earlier half-edge. An edge is active when it is
order-minimal in its fundamental cycle (external edges) or cocycle
(internal edges); the classical notion takes a fixed linear edge order.

Both notions are decided for a whole tree in one pass. With the tree rooted
once, each external edge walks its tree path up to the lowest common
ancestor of its endpoints: it is active iff its rank is below every rank on
the path (a loop's path is empty). The external edges covering a tree edge
are the rest of its fundamental cocycle, so a tree edge is active iff no
covering edge has a smaller rank. The cost per tree is the rooting plus the
sum of the external path lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cmap import CombinatorialMap, MapError
from .graph import GraphError, Multigraph
from .spanning import SpanningTree

__all__ = [
    "MotionNotCyclicError",
    "TourOrder",
    "ActivitySummary",
    "motion_function",
    "erase_check",
    "embedding_activities",
    "order_activities",
]


class MotionNotCyclicError(RuntimeError):
    """The tree tour failed to close into a single cycle.

    This cannot happen for a valid map and spanning tree; it is raised
    defensively so a structural bug cannot silently corrupt activities.
    """


@dataclass(frozen=True)
class TourOrder:
    """The tour of one spanning tree: successor map, the cycle anchored at
    the root, and the induced ranks on half-edges and edges."""

    motion: Mapping[str, str]
    cycle: tuple[str, ...]
    half_edge_rank: Mapping[str, int]
    edge_rank: Mapping[str, int]

    @property
    def half_edge_order(self) -> tuple[str, ...]:
        return self.cycle

    @property
    def edge_order(self) -> tuple[str, ...]:
        return tuple(sorted(self.edge_rank, key=self.edge_rank.__getitem__))


@dataclass(frozen=True)
class ActivitySummary:
    """Active edge sets of one spanning tree."""

    internal_active: frozenset
    external_active: frozenset

    @property
    def internal_count(self) -> int:
        return len(self.internal_active)

    @property
    def external_count(self) -> int:
        return len(self.external_active)


def _as_spanning_tree(graph: Multigraph, tree) -> SpanningTree:
    if isinstance(tree, SpanningTree) and tree.parent is graph:
        return tree
    ids = tree.internal_edges if isinstance(tree, SpanningTree) else tree
    return SpanningTree(graph, ids)


def _tour(m: CombinatorialMap, st: SpanningTree) -> list[int]:
    """Half-edges in tour order from the root. The successor of h is the
    rotation successor of h (external edge) or of its partner (internal).
    The walk must first come back to the root after exactly n steps; being
    deterministic, it then visited every half-edge exactly once."""
    if m.is_empty:
        raise MapError("the empty map has no tour")
    if m.root is None:
        raise MapError("the tour order needs a rooted map")
    n, ids, internal, sigma = m.n_half_edges, m.edge_ids, st.internal_edges, m.sigma
    seq = []
    h = m.root
    for _ in range(n):
        seq.append(h)
        h = sigma(h ^ 1) if ids[h >> 1] in internal else sigma(h)
        if h == m.root:
            break
    if h != m.root or len(seq) != n:
        raise MotionNotCyclicError(f"tour closed after {len(seq)} of {n} half-edges")
    return seq


def _edge_rank(m: CombinatorialMap, seq: list[int]) -> dict:
    """Edge id -> rank, edges ordered by their earlier half-edge in seq."""
    ids = m.edge_ids
    rank: dict = {}
    for h in seq:
        rank.setdefault(ids[h >> 1], len(rank))
    return rank


def motion_function(m: CombinatorialMap, tree) -> TourOrder:
    """Tour the given spanning tree of a rooted map (see ``_tour``)."""
    seq = _tour(m, _as_spanning_tree(m.underlying_graph(), tree))
    cycle = tuple(m.names[h] for h in seq)
    motion = dict(zip(cycle, cycle[1:] + cycle[:1]))
    he_rank = {nm: r for r, nm in enumerate(cycle)}
    return TourOrder(motion, cycle, he_rank, _edge_rank(m, seq))


def _active_sets(st: SpanningTree, rank: Mapping) -> ActivitySummary:
    """Both activity sets in one pass over the external edges (see the
    module docstring); ``rank`` covers every edge of the graph."""
    graph, internal, adj = st.parent, st.internal_edges, st._adjacency()
    order = [next(iter(graph.vertices))]
    depth = {order[0]: 0}
    up = {}  # vertex -> (parent vertex, parent edge)
    for u in order:
        for w, f in adj[u]:
            if w not in depth:
                depth[w] = depth[u] + 1
                up[w] = (u, f)
                order.append(w)
    cover: dict = {}  # tree edge -> smallest rank of an external edge covering it
    external_active = set()
    for e, r in rank.items():
        if e in internal:
            continue
        u, v = graph.endpoints(e)
        active = True
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, f = up[u]
            if rank[f] < r:
                active = False
            if cover.get(f, r + 1) > r:
                cover[f] = r
        if active:
            external_active.add(e)
    internal_active = frozenset(
        f for f in internal if f not in cover or rank[f] < cover[f]
    )
    return ActivitySummary(internal_active, frozenset(external_active))


def embedding_activities(m: CombinatorialMap, tree) -> ActivitySummary:
    """Activities of one spanning tree w.r.t. the rooted tour order."""
    st = _as_spanning_tree(m.underlying_graph(), tree)
    return _active_sets(st, _edge_rank(m, _tour(m, st)))


def _order_rank(graph: Multigraph, order: Sequence) -> dict:
    """Edge id -> position in ``order``, which must list every edge id of
    the graph exactly once."""
    order = list(order)
    if len(order) != graph.edge_count or set(order) != set(graph.edge_ids):
        raise GraphError("order must list every edge id exactly once")
    return {e: i for i, e in enumerate(order)}


def order_activities(graph: Multigraph, order: Sequence, tree) -> ActivitySummary:
    """Classical activities w.r.t. a total order on the edge ids (given as
    the full edge list, smallest first)."""
    return _active_sets(_as_spanning_tree(graph, tree), _order_rank(graph, order))


def erase_check(m: CombinatorialMap, tree, edge) -> bool:
    """Check that the minor's tour is the original tour with the removed
    edge's two half-edges erased.

    External edges are deleted (same tree), internal edges contracted (tree
    loses the edge); the comparison is cyclic, so it does not depend on
    where the minor is rooted.
    """
    st = _as_spanning_tree(m.underlying_graph(), tree)
    k = m.edge_index(edge) if isinstance(edge, str) else int(edge)
    eid = m.edge_ids[k]
    before = motion_function(m, st)
    h1, h2 = 2 * k, 2 * k + 1
    removed = {m.name(h1), m.name(h2)}
    reroot = None
    if m.root in (h1, h2) and m.n_half_edges > 2:
        reroot = next(h for h in range(m.n_half_edges) if h not in (h1, h2))
    if st.is_internal(eid):
        minor = m.contract_edge(k, reroot=reroot)
        minor_tree: Iterable = st.internal_edges - {eid}
    else:
        minor = m.delete_edge(k, reroot=reroot)
        minor_tree = st.internal_edges
    expected = [nm for nm in before.cycle if nm not in removed]
    if minor.is_empty:
        return not expected
    after = motion_function(minor, minor_tree)
    cyc = list(after.cycle)
    if len(cyc) != len(expected) or set(cyc) != set(expected):
        return False
    i = cyc.index(expected[0])
    return cyc[i:] + cyc[:i] == expected
