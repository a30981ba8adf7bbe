"""Tours of spanning trees in an embedded graph, and edge activities.

Walking around a spanning tree (follow the pairing across tree edges, just
turn at the others) visits every half-edge exactly once. Anchoring that
single cycle at the root linearly orders the half-edges, and edges inherit
the order of their earlier half-edge. An edge is active when it is
order-minimal in its fundamental cycle (external edges) or cocycle
(internal edges); the classical notion takes a fixed linear edge order.

The two notions are decided by two kernels on flat int arrays that share
no logic, so their agreement is a check. The graph is numbered once
(``Multigraph._numbered_ends``) and a tree is its ``flags`` over edge
positions. A kernel is a function ``flags -> (internal, external)``, the
lists of the tree's internal- and external-active edge positions, built
once per graph and order or per map and applied to each tree. Every route
ends in ``_activity_sum``, the one place that counts x^|I| y^|E|; the
single-tree ``order_activities`` and ``embedding_activities`` apply the
same kernels to one tree.

The order kernel (``_order_kernel``) hangs the tree from vertex 0, giving
each vertex the bitmask of its tree path to the root; an external edge's
tree path is the xor of its endpoints' masks. In rank order, an external
edge is active iff its path holds no lower tree edge, and a tree edge iff
no lower external edge's path covers it.

The tour kernel (``_scan``) reads both off one scan of the tour. The two
half-edges of each tree edge nest there like parentheses (Bernardi, EJC 14
(2007) R9), and an edge ranks by the step that opens it. An external
edge's cycle is the tree edges open at exactly one of its two steps, and a
tree edge's cocycle the external edges with exactly one step inside its
span. So an external edge is active iff every tree edge open when it opens
is still open when it closes, and a tree edge iff no external edge opened
before it closes inside its span. The kernel needs only the rotation, the
root and the edge position of each half-edge, so the map census runs it on
bare first-visit rotations, where half-edge h lies on edge h >> 1;
``_tour_kernel`` runs it on a ``CombinatorialMap``.

The erase check (``_erase_walk``) tests the fact the tour order rests on:
deleting an external edge, or contracting a tree edge, erases exactly that
edge's two half-edges from the tour (Bernardi, EJC 15 (2008) R109). It
tours each tree once with ``_tour``, then for each edge tours the minor
with the same flags from the first surviving half-edge. A minor is the
flat rotation with the edge spliced out (``cmap._splice``); it depends only
on the edge and on whether the tree holds it, so a map splices each edge at
most twice, however many trees it checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cmap import CombinatorialMap, MapError, _splice
from .graph import GraphError, Multigraph
from .poly import BivariatePolynomial
from .spanning import SpanningTree, _incidence, _root_paths

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


def _order_kernel(graph: Multigraph, order: Sequence):
    """The order kernel of ``graph`` under ``order``, which must list every
    edge id exactly once, smallest first: a function from the flags of a
    tree to its internal- and external-active edge positions, each edge
    decided from its definition in rank order (see the module docstring)."""
    order = list(order)
    if len(order) != graph.edge_count or set(order) != set(graph.edge_ids):
        raise GraphError("order must list every edge id exactly once")
    index = {e: p for p, e in enumerate(graph.edge_ids)}
    ranked = [index[e] for e in order]
    ends = graph._numbered_ends()
    inc = _incidence(ends, graph.vertex_count)

    def kernel(flags) -> tuple[list, list]:
        paths = _root_paths(inc, flags)
        covered = 0  # the tree edges on the cycles of the lower external edges
        lower = 0  # the lower tree edges
        internal, external = [], []
        for p in ranked:
            if flags[p]:
                if not covered >> p & 1:
                    internal.append(p)
                lower |= 1 << p
            else:
                u, v = ends[p]
                cycle = paths[u] ^ paths[v]
                if not cycle & lower:
                    external.append(p)
                covered |= cycle
        return internal, external

    return kernel


def _half_edge_positions(m: CombinatorialMap) -> list[int]:
    """The edge position, in the underlying graph, of each half-edge."""
    index = {e: p for p, e in enumerate(m.underlying_graph().edge_ids)}
    return [index[e] for e in m.edge_ids for _ in (0, 1)]


def _tour_root(m: CombinatorialMap) -> int:
    """The root of a rooted map, where its tours start."""
    if m.root is None:
        raise MapError("the tour order needs a rooted map")
    return m.root


def _tour(sigma: Sequence[int], start: int, he_pos: list[int], flags) -> list[int]:
    """Half-edges in tour order from ``start``. The successor of h is the
    rotation successor of h (external edge) or of its partner (internal).
    The walk must first come back to ``start`` after exactly n steps; being
    deterministic, it then visited every half-edge exactly once."""
    n = len(sigma)
    seq = []
    h = start
    for _ in range(n):
        seq.append(h)
        h = sigma[h ^ 1] if flags[he_pos[h]] else sigma[h]
        if h == start:
            break
    if h != start or len(seq) != n:
        raise MotionNotCyclicError(f"tour closed after {len(seq)} of {n} half-edges")
    return seq


def _scan(sigma: Sequence[int], root: int, he_pos: Sequence[int]):
    """The tour kernel of the rotation ``sigma`` rooted at ``root``, whose
    half-edge h lies on the edge at position ``he_pos[h]``: a function from
    the flags of a tree to its internal- and external-active edge
    positions, ranked by its tour (see the module docstring). Each stack
    frame holds an open tree edge and the earliest opening step of an
    external edge that closed inside it. The tour must return to the root
    after exactly n steps and close each tree edge on top of the stack, or
    the flags mark no spanning tree."""
    n = len(sigma)
    cross = [sigma[h ^ 1] for h in range(n)]  # the successor across an edge
    ne = n >> 1

    def scan(flags) -> tuple[list, list]:
        opened = [-1] * (ne + 1)  # the step that opened each edge, n once closed
        below = [0] * ne  # an external edge's top frame when it opened
        stack, low = [ne], [n]  # ne is a sentinel frame that never closes
        internal, external = [], []
        h = root
        t = 0
        while True:
            p = he_pos[h]
            s = opened[p]
            if flags[p]:
                if s < 0:
                    opened[p] = t
                    stack.append(p)
                    low.append(t)
                elif stack[-1] != p:
                    raise MotionNotCyclicError(
                        f"tree edges cross: edge {p} closes at step {t} over an open one")
                else:
                    stack.pop()
                    opened[p] = n
                    first = low.pop()
                    if first == s:
                        internal.append(p)
                    elif first < low[-1]:
                        low[-1] = first
                h = cross[h]
            else:
                if s < 0:
                    opened[p] = t
                    below[p] = stack[-1]
                else:
                    if opened[below[p]] < n:
                        external.append(p)
                    if s < low[-1]:
                        low[-1] = s
                h = sigma[h]
            t += 1
            if h == root:
                break
        if t != n:
            raise MotionNotCyclicError(f"tour closed after {t} of {n} half-edges")
        return internal, external

    return scan


def _tour_kernel(m: CombinatorialMap):
    """The tour kernel (``_scan``) of a rooted map, over the edge positions
    of its underlying graph."""
    return _scan(m._sigma, _tour_root(m), _half_edge_positions(m))


def _activity_sum(pairs: Iterable) -> BivariatePolynomial:
    """Sum of x^|I| y^|E| over (internal-active, external-active) pairs,
    one pair per spanning tree, counted once per monomial."""
    counts: Counter = Counter()
    for internal, external in pairs:
        counts[len(internal), len(external)] += 1
    return BivariatePolynomial(counts)


def motion_function(m: CombinatorialMap, tree) -> TourOrder:
    """Tour the given spanning tree of a rooted map (see ``_tour``)."""
    graph = m.underlying_graph()
    st = _as_spanning_tree(graph, tree)
    he_pos = _half_edge_positions(m)
    seq = _tour(m._sigma, _tour_root(m), he_pos, st.flags)
    ranked = dict.fromkeys(he_pos[h] for h in seq)  # by earlier half-edge
    cycle = tuple(m.names[h] for h in seq)
    motion = dict(zip(cycle, cycle[1:] + cycle[:1]))
    he_rank = {nm: r for r, nm in enumerate(cycle)}
    ids = graph.edge_ids
    return TourOrder(motion, cycle, he_rank, {ids[p]: r for r, p in enumerate(ranked)})


def _summary(graph: Multigraph, pair: tuple) -> ActivitySummary:
    """One tree's activity positions, as edge ids."""
    ids = graph.edge_ids
    internal, external = pair
    return ActivitySummary(frozenset(ids[p] for p in internal),
                           frozenset(ids[p] for p in external))


def embedding_activities(m: CombinatorialMap, tree) -> ActivitySummary:
    """Activities of one spanning tree w.r.t. the rooted tour order."""
    graph = m.underlying_graph()
    flags = _as_spanning_tree(graph, tree).flags
    return _summary(graph, _tour_kernel(m)(flags))


def order_activities(graph: Multigraph, order: Sequence, tree) -> ActivitySummary:
    """Classical activities w.r.t. a total order on the edge ids (given as
    the full edge list, smallest first)."""
    flags = _as_spanning_tree(graph, tree).flags
    return _summary(graph, _order_kernel(graph, order)(flags))


def _erase_walk(m: CombinatorialMap):
    """The erase check of a rooted map: a function from the flags of a tree
    and some edge numbers to whether, for each edge k, the tree's tour with
    half-edges 2k and 2k+1 erased is the tour of the minor without k (k
    deleted if external, contracted if a tree edge) under the rest of the
    tree. The tree is toured once; each minor is a spliced rotation, toured
    from the first surviving half-edge, so the comparison is exact. A minor
    depends only on the edge and on whether the tree holds it, so each is
    spliced once per map, on first use, and kept for the later trees."""
    sigma, root = m._sigma, _tour_root(m)
    he_pos = _half_edge_positions(m)
    minors: dict = {}  # (k, contract) -> (spliced rotation, its he_pos)

    def walk(flags, edges: Iterable[int]) -> bool:
        seq = _tour(sigma, root, he_pos, flags)
        for k in edges:
            key = k, flags[he_pos[2 * k]]
            minor = minors.get(key)
            if minor is None:
                minor = minors[key] = (_splice(sigma, *key),
                                       he_pos[:2 * k] + he_pos[2 * k + 2:])
            kept = [h - 2 if h > 2 * k else h for h in seq if h >> 1 != k]
            if kept and _tour(minor[0], kept[0], minor[1], flags) != kept:
                return False
        return True

    return walk


def erase_check(m: CombinatorialMap, tree, edge) -> bool:
    """Check that deleting ``edge`` (if external to ``tree``) or contracting
    it (if internal) erases exactly its two half-edges from the tree's tour
    (see ``_erase_walk``). ``edge`` is an edge number, an edge id or the
    name of either half-edge."""
    st = _as_spanning_tree(m.underlying_graph(), tree)
    return _erase_walk(m)(st.flags, [m._edge_arg(edge)])
