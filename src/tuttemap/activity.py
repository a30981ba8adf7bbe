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
once per graph and order or per map and applied to each tree. Every
per-tree route ends in ``_activity_sum``, the one place that counts
x^|I| y^|E| over trees; the single-tree ``order_activities`` and
``embedding_activities`` apply the same kernels to one tree. Each route
also has a batch kernel over many trees (below), a function from a
chunk's planes (``_planes``) and lane mask ``full`` to lane masks, counted
by ``_lane_sum``. The two batch kernels share the pass that hangs a
chunk's trees from one vertex (``_hang``), the lane gate
``_require_trees`` that takes its reach, and ``_by_count``. A fault there
hits both tree routes alike, and the routes that hang no tree (delcon,
the expansion and the map recursion) still disagree with them.

The order kernel (``_order_kernel``) hangs the tree from vertex 0, giving
each vertex the bitmask of its tree path to the root; an external edge's
tree path is the xor of its endpoints' masks. In rank order, an external
edge is active iff its path holds no lower tree edge, and a tree edge iff
no lower external edge's path covers it.

The batch order kernel (``_order_batch``) decides a chunk of trees at
once. Its lanes are bit-sliced: bit i of every mask belongs to tree i of
the chunk, edge p's plane is the mask of the trees that hold p, and one
big-int operation acts on every tree of the chunk. One breadth-first pass
(``_hang``), a level at a time over each lane's tree edges, hangs every
tree of the chunk from one vertex: it marks each tree edge's half-edge at
its parent end, and a newly reached vertex takes its parent's ancestors,
and itself. Each level reaches a new vertex in every lane it goes on in,
so the pass ends within |V| levels, tree or not, and its reach is the lane
gate's. A vertex y lies below a tree edge g when g is on y's tree path to
the start, that is, when g's child end is y or an ancestor of y. For an
edge f with ends u and v, g is on f's tree path iff exactly one of u and
v lies below g: in the lanes ``below_g[u] ^ below_g[v]``. Where f is a
tree edge, its path is f itself, so the mask is empty there for every g
other than f. Then, in rank order, an external edge f is active where no
g ranked below f has that mask, and a tree edge g where no f ranked below
g has it: g's cocycle is the external edges whose path holds g. A loop's
path is empty, so a loop is always active. The kernel has no root of its
own; it starts the pass at a vertex of largest degree, whose first level
reaches the most vertices. ``_lane_sum`` counts x^|I| y^|E| over the lanes
with bit-sliced counters (``_by_count``), beside ``_activity_sum``.

The tour kernel (``_scan``) reads both off the tour that ``_tour`` walks.
The two half-edges of each tree edge nest there like parentheses
(Bernardi, EJC 14 (2007) R9), and an edge ranks by the step that opens it.
An external edge's cycle is the tree edges open at exactly one of its two
steps, and a tree edge's cocycle the external edges with exactly one step
inside its span. So an external edge is active iff every tree edge open
when it opens is still open when it closes, and a tree edge iff no
external edge opened before it closes inside its span. The kernel needs
only the rotation, the root and the edge position of each half-edge;
``_tour_args`` gives the three of a rooted map.

The batch tour kernel (``_tour_batch``) decides a chunk of trees on the
same lanes and walks no tour. Let r be the root's vertex: the pass hangs
every tree from r. The branches of T - w are the components of T with
vertex w removed, one behind each tree half-edge at w; the direction at w
toward y is the half-edge whose branch holds y. For an external edge f
with ends u and v, its first-reached end x is the end of the half-edge the
tour reaches first, whose step ranks f. The kernel rests on three facts:

1. Branches are the sides of a tree edge. For a tree edge p with ends a
   and b, T - p has two sides: the subtree of p's child end, and the rest.
   y lies below p iff it is in that subtree, that is, iff the child end is
   y or an ancestor of y. The branch of T - a behind p is b's side of
   T - p, since T - p leaves a on the other one: b's subtree if a is p's
   parent end, else all but a's subtree. So the pass's parent ends and
   ancestors give both branches behind p and the vertices below p.
2. Who comes first on a cycle. For a tree edge p on f's tree path, p
   ranks before f iff x lies below p. The tour tours the part below p
   between p's two steps. Exactly one of u, v lies below p. If x does, f
   first steps inside p's span, after p opens. If not, the other end's
   step falls inside the span and after x's, so x's step comes before p
   opens. So f is active iff no p on its path has x below it, and p iff
   every f of its cocycle (those whose path holds p) has x outside p's
   subtree. A loop is its own cycle and in no cocycle: always externally
   active.
3. First-reached end. Let w be the median of r, u and v, the one vertex on
   all three tree paths between them. The tour goes around w's rotation
   from just after its parent half-edge to it (at the root: from the root
   half-edge), and tours the branch behind a child half-edge right after
   it. u and v lie in different branches of T - w, or one of them is w,
   so the tour reaches u first iff the directions from w toward r, u and
   v come in that cyclic order. The direction toward r is w's parent
   half-edge, or at the root a slot just before the root half-edge; the
   direction toward an end that is w is f's own half-edge there. The
   median is the lowest common ancestor of u and v, so a vertex that is
   an ancestor of both ends in no lane is the median in none.

Fact 3 is decided in every lane at once, at each vertex w, from three
marks: u's direction comes strictly after r's in w's rotation, v's after
u's, and r's after v's. Of three distinct slots, exactly two marks hold
iff the order is (r, u, v), else exactly one. If two directions share a
slot, exactly one mark holds whatever the order: the shared pair gives
none, and the other two compare the same two slots both ways round. So
the parity of the three marks is 0 where w is the median and the tour
reaches u first, and 1 wherever w is no median, except where all three
directions share one slot. One pass over w's rotation gives, for every
vertex y, the lanes where y's direction comes after r's and where it is
r's, and the lanes where r's direction comes before each slot. At the
root, r's slot just before the root half-edge is, in the cycle, also just
after the last one, so no direction comes after r's there. The first and
third marks read off these; the second takes one pass per edge over w's
rotation. At an end, say w = u, u's direction is f's own slot k: u
comes after r where r's direction comes before k, and v after u where
v's direction comes after k. There all three share a slot only where f is
a tree edge, whose verdict no rule reads. A lane that marks no spanning
tree raises ``MotionNotCyclicError`` (``_require_trees``), as in ``_scan``.

The erase check (``_erase_walk``) tests the fact the tour order rests on:
deleting an external edge k, or contracting a tree edge k, erases exactly
k's two half-edges from the tour (Bernardi, EJC 15 (2008) R109). The minor
is the rotation with k bypassed (``cmap._bypass``, the rule of the
``recursive`` route's minors). Each tour step reads one rotation entry, a
tour reads each entry once, and ``_bypass`` changes only the entries whose
image lies on k, skipping past k by the tour's own rule at k. So once a
tree's tour steps against the rotation, whether its tour less k is the
minor's depends only on k and on whether the tree holds k: the check tests
each tree's tour, and each of a map's at most 2|E| minors on one tree.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cmap import CombinatorialMap, MapError, _bypass, _cycle_labels
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


class TourOrder(NamedTuple):
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


class ActivitySummary(NamedTuple):
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


def _order_args(graph: Multigraph, order: Sequence) -> tuple:
    """The numbered ends, vertex count and edge positions in rank order that
    ``_order_kernel`` and ``_order_batch`` take. ``order`` must list every
    edge id exactly once, smallest first."""
    order = list(order)
    if len(order) != graph.edge_count or set(order) != set(graph.edge_ids):
        raise GraphError("order must list every edge id exactly once")
    index = {e: p for p, e in enumerate(graph.edge_ids)}
    return graph._numbered_ends(), graph.vertex_count, [index[e] for e in order]


def _order_kernel(ends: list, nv: int, ranked: list[int]):
    """The order kernel of ``_order_args``' graph and order: a function
    from the flags of a tree to its internal- and external-active edge
    positions, each edge decided from its definition in rank order (see
    the module docstring). Flags of no spanning tree raise RuntimeError."""
    inc = _incidence(ends, nv)

    def kernel(flags) -> tuple[list, list]:
        paths = _root_paths(inc, flags)
        if sum(flags) != nv - 1 or -1 in paths:
            raise RuntimeError(f"flags {list(flags)} mark no spanning tree")
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


_LANE_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _planes(chunk: list, ne: int) -> list[int]:
    """Each edge position's lane mask over a chunk of tree flags: bit i of
    plane p is set iff tree i of the chunk holds edge p."""
    buf = b"".join(reversed(chunk))  # tree i lands on bit i
    return [int(buf[p::ne].translate(_LANE_DIGITS), 2) for p in range(ne)]


def _hang(out: list, start: int, planes: list, full: int) -> tuple[list, list, list]:
    """One breadth-first pass from ``start``, a level at a time over each
    lane's tree edges, that hangs every tree of a chunk from ``start``.
    ``out[a]`` lists (half-edge, far end, edge position) for each non-loop
    half-edge at vertex a; half-edges 2k and 2k + 1 share an edge. Returns
    ``down``, the lanes where each half-edge's edge is a tree edge and the
    half-edge is at its parent end; ``anc[y][z]``, the lanes where z is y
    or an ancestor of y; and the reach ``anc[y][start]`` that the lane gate
    takes. A newly reached vertex takes its parent's row, masked by the new
    lanes, at the vertices reached at an earlier level: the row is 0
    elsewhere."""
    nv = len(out)
    anc = [[full if z == y else 0 for z in range(nv)] for y in range(nv)]
    down = [0] * (2 * len(planes))
    fresh = {start: full}  # the lanes where each vertex was reached last level
    seen = [start]  # the vertices reached at an earlier level
    while fresh:
        level = {}
        for a, lanes in fresh.items():
            row = anc[a]
            for h, b, p in out[a]:
                new = lanes & planes[p] & ~anc[b][start]
                if new:
                    down[h] |= new
                    level[b] = level.get(b, 0) | new
                    col = anc[b]
                    for z in seen:
                        col[z] |= row[z] & new
        seen += [b for b in level if b not in seen]
        fresh = level
    return down, anc, [row[start] for row in anc]


def _require_trees(planes: list, full: int, reach: list, error: type) -> None:
    """Raise ``error`` on the first lane of ``full`` that is no spanning
    tree: it holds other than |V| - 1 edges (``_by_count``), or it leaves a
    vertex unreached. ``reach`` is the pass's (``_hang``): for each vertex,
    the lanes where the tree's edges join it to the start."""
    ok = _by_count(planes, full).get(len(reach) - 1, 0)
    for lanes in reach:
        ok &= lanes
    if ok != full:
        bad = full ^ ok
        raise error(f"tree {(bad & -bad).bit_length() - 1} of the chunk is no spanning tree")


def _order_batch(ends: list, nv: int, ranked: list[int]):
    """The order kernel over many trees at once: a function from a chunk's
    planes and lane mask to two lists, by edge position, of lane masks. Bit
    i of ``internal[p]`` (of ``external[p]``) is set iff edge p is
    internally (externally) active in tree i of the chunk. Each edge is
    decided in rank order from the pass (``_hang``) down from a vertex of
    largest degree (see the module docstring). A lane of no spanning tree
    raises RuntimeError."""
    out: list = [[] for _ in range(nv)]
    for p, (u, v) in enumerate(ends):
        if u != v:
            out[u].append((2 * p, v, p))
            out[v].append((2 * p + 1, u, p))
    start = max(range(nv), key=lambda y: len(out[y]))
    links = [(p, *ends[p]) for p in ranked]  # a loop's side is empty

    def batch(planes: list, full: int) -> tuple[list, list]:
        down, anc, reach = _hang(out, start, planes, full)
        _require_trees(planes, full, reach, RuntimeError)
        internal, external = list(planes), [full ^ plane for plane in planes]
        below = []  # by rank among the links: the lanes where y lies below the edge
        for p, u, v in links:
            side = [down[2 * p] & row[v] | down[2 * p + 1] & row[u] for row in anc]
            early = late = 0
            for lower, (_, a, b) in zip(below, links):
                early |= lower[u] ^ lower[v]  # a lower tree edge on p's path
                late |= side[a] ^ side[b]  # p on a lower external edge's path
            external[p] &= ~early
            internal[p] &= ~late
            below.append(side)
        return internal, external

    return batch


def _tour_args(m: CombinatorialMap) -> tuple:
    """A rooted map's rotation, root, and each half-edge's edge position in
    its underlying graph, as ``_scan`` and ``_tour_batch`` take them."""
    if m.root is None:
        raise MapError("the tour order needs a rooted map")
    index = {e: p for p, e in enumerate(m.underlying_graph().edge_ids)}
    return m._sigma, m.root, [index[e] for e in m.edge_ids for _ in (0, 1)]


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
        h = sigma[h ^ flags[he_pos[h]]]  # flags hold 0 or 1
        if h == start:
            break
    if h != start or len(seq) != n:
        raise MotionNotCyclicError(f"tour closed after {len(seq)} of {n} half-edges")
    return seq


def _scan(sigma: Sequence[int], root: int, he_pos: Sequence[int]):
    """The tour kernel of the rotation ``sigma`` rooted at ``root``, whose
    half-edge h lies on the edge at position ``he_pos[h]``: a function from
    the flags of a tree to its internal- and external-active edge
    positions, read off ``_tour``'s walk, whose index is the step (see the
    module docstring). Each stack frame holds an open tree edge and the
    earliest opening step of an external edge that closed inside it. A tree
    edge must close on top of the stack, or the flags mark no spanning tree."""
    n = len(sigma)
    ne = n >> 1

    def scan(flags) -> tuple[list, list]:
        opened = [-1] * (ne + 1)  # the step that opened each edge, n once closed
        below = [0] * ne  # an external edge's top frame when it opened
        stack, low = [ne], [n]  # ne is a sentinel frame that never closes
        internal, external = [], []
        for t, h in enumerate(_tour(sigma, root, he_pos, flags)):
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
            elif s < 0:
                opened[p] = t
                below[p] = stack[-1]
            else:
                if opened[below[p]] < n:
                    external.append(p)
                if s < low[-1]:
                    low[-1] = s
        return internal, external

    return scan


def _tour_batch(sigma: Sequence[int], root: int, he_pos: Sequence[int]):
    """The tour kernel (``_scan``) over many trees at once, with the
    arguments of ``_scan``: a function from a chunk's planes and lane mask
    to lane masks by edge position, as ``_order_batch``'s, decided by the
    three facts of the module docstring from the pass (``_hang``) down from
    the root's vertex. The pass's reach is the lane gate's: it raises
    ``MotionNotCyclicError`` if a lane marks no spanning tree."""
    n = len(sigma)
    vert, nv = _cycle_labels(sigma)  # vertices are the rotation's cycles
    rv = vert[root]
    rot: list = [None] * nv  # each rotation, the root's from the root half-edge
    for h0 in (root, *range(n)):
        if rot[vert[h0]] is None:
            rot[vert[h0]] = cyc = [h0]
            while sigma[cyc[-1]] != h0:
                cyc.append(sigma[cyc[-1]])
    swept = [h for h in range(0, n, 2) if vert[h] != vert[h ^ 1]]  # no loops
    out: list = [[] for _ in range(nv)]  # (half-edge, far end, position) by vertex
    for h in swept:
        out[vert[h]].append((h, vert[h ^ 1], he_pos[h]))
        out[vert[h ^ 1]].append((h ^ 1, vert[h], he_pos[h]))

    def batch(planes: list, full: int) -> tuple[list, list]:
        down, anc, reach = _hang(out, rv, planes, full)
        _require_trees(planes, full, reach, MotionNotCyclicError)
        branch = [[0] * nv] * n  # fact 1; no branch lies behind a loop
        below = []  # by position in swept: the lanes where y lies below its edge
        for h in swept:
            a, b, dh, dt = vert[h], vert[h ^ 1], down[h], down[h ^ 1]
            below.append(side := [dh & row[b] | dt & row[a] for row in anc])
            branch[h] = [y ^ dt for y in side]  # b's side: below p iff a is the parent
            branch[h ^ 1] = [y ^ dh for y in side]
        after_r, same_r, prefix = [], [], []  # fact 3, at each vertex w
        for w, cyc in enumerate(rot):
            seen = 0  # r's direction before each slot
            after, same, pre = [0] * nv, [0] * nv, []
            for h in cyc:
                b = branch[h]
                dr = b[rv]
                pre.append(seen)
                after = [x | y & seen for x, y in zip(after, b)]
                same = [x | y & dr for x, y in zip(same, b)]
                seen |= dr
            pre.append(seen)
            after_r.append(after)
            same_r.append(same)
            prefix.append(pre)
        late = [0] * len(swept)  # lanes where a cocycle edge ranks first
        external = [full ^ plane for plane in planes]  # a loop is always active
        for i, f in enumerate(swept):
            u, v = vert[f], vert[f ^ 1]
            au, av = anc[u], anc[v]
            first = 0  # fact 3: the lanes where the tour reaches f first at u
            for w in range(nv):
                if not au[w] & av[w]:
                    continue  # w is above both ends in no lane
                # first gains where [u after r] ^ [v after u] ^ [r after v] is 0,
                # with [r after y] = full ^ after[y] ^ same[y] and vu = [v after u]
                cyc, after, same = rot[w], after_r[w], same_r[w]
                if w == u:
                    k, vu = cyc.index(f), 0
                    for h in cyc[k + 1:]:
                        vu |= branch[h][v]
                    first |= prefix[w][k] ^ vu ^ after[v] ^ same[v]
                elif w == v:
                    k, vu = cyc.index(f ^ 1), 0
                    for h in cyc[:k]:
                        vu |= branch[h][u]
                    first |= after[u] ^ vu ^ prefix[w][k + 1]
                else:
                    seen_u = vu = 0
                    for h in cyc:
                        b = branch[h]
                        vu |= b[v] & seen_u
                        seen_u |= b[u]
                    first |= (after[u] ^ vu ^ after[v] ^ same[v]) & ~(same[u] & same[v])
            early = 0  # fact 2: the lanes where a tree edge ranks before f
            for j, bg in enumerate(below):
                x = bg[u] ^ bg[v]  # g is on f's tree path
                if x and j != i:
                    ahead = (x & bg[v]) ^ (first & x)  # g ranks before f
                    early |= ahead
                    late[j] |= x ^ ahead
            external[he_pos[f]] &= ~early
        internal = [0] * (n >> 1)
        for g, mask in zip(swept, late):
            internal[he_pos[g]] = planes[he_pos[g]] & ~mask
        return internal, external

    return batch


def _activity_sum(pairs: Iterable) -> BivariatePolynomial:
    """Sum of x^|I| y^|E| over (internal-active, external-active) pairs,
    one pair per spanning tree, counted once per monomial."""
    counts: Counter = Counter()
    for internal, external in pairs:
        counts[len(internal), len(external)] += 1
    return BivariatePolynomial(counts)


def _by_count(masks: Iterable[int], full: int) -> dict[int, int]:
    """The lanes of ``full`` split by how many of ``masks`` hold them, as
    count -> lanes. Each lane's count is a bit-sliced counter: bit k of
    lane i's count is bit i of the counter's k-th plane, and adding a mask
    is one ripple-carry add over the planes, which then split the lanes."""
    planes: list[int] = []
    for carry in masks:
        for k, plane in enumerate(planes):
            if not carry:
                break
            planes[k], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    groups = {0: full}  # count -> the lanes with that count so far
    for k, plane in enumerate(planes):
        split = {}
        for count, mask in groups.items():
            on = mask & plane
            if on:
                split[count | 1 << k] = on
            if on != mask:
                split[count] = mask ^ on
        groups = split
    return groups


def _lane_sum(internal: Iterable[int], external: Iterable[int],
              full: int) -> BivariatePolynomial:
    """Sum of x^|I| y^|E| over the lanes of ``full`` in a batch kernel's
    masks (``_order_batch``, ``_tour_batch``), one lane per spanning tree:
    ``bit_count`` of (|I| = i) & (|E| = e) is the number of trees with that
    monomial."""
    counts = {}
    ext = _by_count(external, full)
    for i, imask in _by_count(internal, full).items():
        for e, emask in ext.items():
            n = (imask & emask).bit_count()
            if n:
                counts[i, e] = n
    return BivariatePolynomial(counts)


def motion_function(m: CombinatorialMap, tree) -> TourOrder:
    """Tour the given spanning tree of a rooted map (see ``_tour``)."""
    graph = m.underlying_graph()
    st = _as_spanning_tree(graph, tree)
    sigma, root, he_pos = _tour_args(m)
    seq = _tour(sigma, root, he_pos, st.flags)
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
    return _summary(graph, _scan(*_tour_args(m))(flags))


def order_activities(graph: Multigraph, order: Sequence, tree) -> ActivitySummary:
    """Classical activities w.r.t. a total order on the edge ids (given as
    the full edge list, smallest first)."""
    flags = _as_spanning_tree(graph, tree).flags
    return _summary(graph, _order_kernel(*_order_args(graph, order))(flags))


def _erase_walk(m: CombinatorialMap):
    """The erase check of a rooted map: a function from the flags of a tree
    and some edge numbers to whether, for each edge k, the tree's tour with
    half-edges 2k and 2k+1 erased is the tour of the minor without k (k
    deleted if external, contracted if a tree edge) under the rest of the
    tree, the rotation with k bypassed (``_bypass``). ``steps`` asks if
    each step of a sequence, cyclically, is a tour step: out of h, to the
    rotation's entry at h ^ 1 if h's edge is in the tree, else at h (at h
    xor h's 0/1 flag).

    Once a tree's tour steps against ``sigma``, its tour less k reads every
    entry off k once. Where sigma's image there is off k, it is the next
    step; where it lies on k, the tour goes on past k by its rule at k, the
    rule ``_bypass`` skips by, and ``_bypass`` changes no other entry. So
    the verdict for k depends only on (k, contract): each such key is
    tested on the first tree that has it and kept once it passes, and a
    key that fails fails again on every later tree that has it."""
    sigma, root, he_pos = _tour_args(m)
    passed: set = set()  # (k, contract) keys whose minor matched its tour

    def steps(seq: list, rot: Sequence[int], flags) -> bool:
        return all(rot[h ^ flags[he_pos[h]]] == t for h, t in zip(seq, seq[1:] + seq[:1]))

    def walk(flags, edges: Iterable[int]) -> bool:
        seq = _tour(sigma, root, he_pos, flags)
        if not steps(seq, sigma, flags):
            return False
        for key in {(k, flags[he_pos[2 * k]]) for k in edges} - passed:
            if not steps([h for h in seq if h >> 1 != key[0]], _bypass(sigma, *key), flags):
                return False
            passed.add(key)
        return True

    return walk


def erase_check(m: CombinatorialMap, tree, edge) -> bool:
    """Check that deleting ``edge`` (if external to ``tree``) or contracting
    it (if internal) erases exactly its two half-edges from the tree's tour
    (see ``_erase_walk``). ``edge`` is an edge number, an edge id or the
    name of either half-edge."""
    st = _as_spanning_tree(m.underlying_graph(), tree)
    return _erase_walk(m)(st.flags, [m._edge_arg(edge)])
