"""Tutte polynomial evaluators and the cross-checking harness.

Five routes to the same polynomial: the explicit sum over all spanning
subgraphs, loop/isthmus deletion-contraction on abstract graphs, the
activity sum for a linear edge order, the activity sum for a rooted
embedding, and a deletion/contraction recursion carried out on the map
itself (pivoting on the edge just before the root, the one place where
rerooting rules are needed). Agreement across routes on the same graph is
the package's correctness argument, so the routes share no code beyond
plumbing: the level sweep, the chunk loop, the activity sums and one
edge order.

The two tree routes draw every tree from ``enumerate_spanning_trees``,
looked up here as a module global, through one chunk loop (``_tree_sum``).
The enumerator reads the trees off the graph's frontier DAG, whose levels
follow ``spanning._pivot_order``, delcon's pivot order: the tree routes
and delcon share that order, and nothing else. The chunk loop draws the
trees once for all the routes it is given, of one family (``_order_route``
or ``_tour_route``), ``TREE_CHUNK`` trees at a time. A
chunk that holds at least a route's crossover of trees per edge
(``ORDER_BATCH_TREES_PER_EDGE``, ``EMBEDDING_BATCH_TREES_PER_EDGE``) goes to
its bit-sliced batch kernel (``activity._order_batch``,
``activity._tour_batch``), summed by ``activity._lane_sum``; a smaller one
(a cycle, a path) goes tree by tree to its per-tree kernel
(``activity._order_kernel``, ``activity._scan``), summed by
``activity._activity_sum``. Each chunk's planes (``activity._planes``) are
built once, here, and every batch route of the draw reads them.

Both deletion-contraction routes run as one iterative sweep (``_sweep``),
one level per edge, over exact minor keys, so equal minors merge with no
isomorphism search and no recursion. A graph minor is keyed by its
*shape*: the endpoints of the remaining edges in pivot order, vertices
renamed by first appearance. The pivot order is chosen from the graph, a
greedy min-frontier vertex elimination, so that the number of distinct
shapes per level stays small; T does not depend on it. A rooted map minor
is keyed by its rotation in first-visit labelling from the root
(``canonical_form``), made in one walk that skips the pivot edge
(``cmap._rooted_minor``). Each state's weight is one int with a fixed slot
per monomial x^i y^j, so a factor x or y is a shift and merging two equal
minors one addition; the int becomes a polynomial once, at the end.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .activity import (_activity_sum, _lane_sum, _order_args, _order_batch, _order_kernel,
                       _planes, _scan, _tour_args, _tour_batch)
from .cmap import CombinatorialMap, MapError, _cycle_labels, _rooted_minor
from .graph import GraphError, Multigraph
from .poly import X, Y, ZERO, BivariatePolynomial
from .spanning import TREE_CHUNK, _pivot_order, enumerate_spanning_trees

__all__ = [
    "tutte_subgraph_expansion",
    "tutte_deletion_contraction",
    "tutte_order_activities",
    "tutte_embedding_activities",
    "tutte_recursive_map",
    "cross_check",
    "graph_certificate",
    "graphs_isomorphic",
    "MAX_EXPANSION_EDGES",
]

# The subgraph expansion sums 2^|E| subsets and doubles its time per edge:
# in-process on a 2-CPU VM with CPython 3.11, 19 edges took 20 s (19
# parallel edges) to 26 s (a 19-edge path), 20 parallel edges 42 s.
MAX_EXPANSION_EDGES = 19

# The order batch kernel costs one breadth-first pass and a few big-int
# operations per pair of edges per chunk, the per-tree kernel about |E|
# steps per tree. On K4, K5, W5, W6, grids 3x3, 4x4 and 2x12, K6, W10, an
# 8-rung ladder and three theta graphs (6-48 edges) they broke even at
# 1-2.5 trees per edge; at 3 the batch kernel took 0.3-0.75 of the
# per-tree time, at 1 it took 0.9-1.8 times it, and on cycles 1.3-1.6 times.
ORDER_BATCH_TREES_PER_EDGE = 3
# The tour batch kernel costs one breadth-first pass and a few big-int
# operations per pair of edges and per (edge, vertex) pair per chunk, _scan
# 2|E| tour steps per tree. A full chunk took 0.04-0.05 of _scan's time on
# grid 4x4, W10 and K7. On those, K5, K6, W6, grids 3x3 and 3x4, an 8-rung
# ladder, a theta graph and grid 2x12 (10-34 edges) they broke even at 3-5
# trees per edge; at 5 the batch kernel took 0.5-0.95 of _scan's time, at 2
# it took 1.0-1.6 times.
EMBEDDING_BATCH_TREES_PER_EDGE = 5


def _require_connected(graph: Multigraph) -> None:
    if not graph.is_connected():
        raise GraphError(
            "Tutte evaluation is defined here for connected graphs only"
        )


def tutte_subgraph_expansion(graph: Multigraph) -> BivariatePolynomial:
    """Direct sum of (x-1)^(c(S)-1) (y-1)^(c(S)+|S|-|V|) over all 2^|E|
    spanning subgraphs S. Bounded at MAX_EXPANSION_EDGES edges."""
    _require_connected(graph)
    if graph.edge_count > MAX_EXPANSION_EDGES:
        raise GraphError(
            f"subgraph expansion bound is {MAX_EXPANSION_EDGES} edges"
            f" (it sums 2^|E| subgraphs; this graph has {graph.edge_count})"
        )
    ids = graph.edge_ids
    nv = graph.vertex_count
    pairs: Counter = Counter()  # (c(S) - 1, c(S) + |S| - |V|) -> subsets
    for mask in range(1 << len(ids)):
        subset = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        c = graph.component_count(subset)
        pairs[c - 1, c + len(subset) - nv] += 1
    return sum((count * (X - 1) ** i * (Y - 1) ** j
                for (i, j), count in pairs.items()), ZERO)


def _shape(ends) -> tuple:
    """The endpoint sequence with vertices renamed 0, 1, 2, ... in order of
    first appearance."""
    names: dict = {}
    return tuple([names.setdefault(w, len(names)) for w in ends])


def _is_isthmus(shape: tuple) -> bool:
    """True iff no path of the other edges joins the ends 0 and 1 of the
    first edge of ``shape``: union-find with path halving, stopped as soon
    as the two ends meet."""
    parent = list(range(len(shape)))
    r0, r1 = 0, 1  # the current roots of the two ends
    for a, b in zip(shape[2::2], shape[3::2]):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            if a == r0:
                r0 = b
            elif a == r1:
                r1 = b
            if r0 == r1:
                return False
    return True


def _graph_pivot(shape: tuple) -> list:
    """One deletion-contraction step on a shape, as (minor, dx, dy) triples."""
    rest = shape[2:]
    if shape[1] == 0:  # a loop (every shape starts at vertex 0)
        return [(_shape(rest), 0, 1)]
    contracted = _shape([0 if w == 1 else w for w in rest])  # 1 merges into 0
    if _is_isthmus(shape):
        return [(contracted, 1, 0)]
    return [(_shape(rest), 0, 0), (contracted, 0, 0)]


def _sweep(start, pivot, levels: int, vertices: int) -> BivariatePolynomial:
    """Deletion-contraction over exact minor keys, one level per edge, of a
    connected graph or map with ``levels`` edges and ``vertices`` vertices.

    Each level maps a state to its weight, with T = sum of weight *
    T(state) over the level. ``pivot(state)`` removes one edge and lists
    (minor, dx, dy), the minor gaining the weight times x^dx y^dy: one
    (minor, 0, 1) for a loop, one (minor, 1, 0) for an isthmus, else the
    deletion and the contraction with (0, 0). Equal keys merge with no
    further check. After ``levels`` levels one empty state holds T.

    A weight is one int (Kronecker substitution): the coefficient of
    x^i y^j sits in slot i * (levels - vertices + 2) + j, as y-degrees stay
    within the nullity, and each slot is levels + 2 bits wide. All
    coefficients are nonnegative and a pivot yields at most two minors, so
    one level's coefficients sum to at most 2^level and no slot carries
    into the next. A factor x^dx y^dy is a left shift, a merge one
    addition, and the int is unpacked into a polynomial once, at the end.
    """
    width = levels - vertices + 2  # slots per power of x
    bits = levels + 2
    xbits = width * bits
    level = {start: 1}
    for _ in range(levels):
        nxt: dict = {}
        get = nxt.get
        for state, weight in level.items():
            for minor, dx, dy in pivot(state):
                nxt[minor] = get(minor, 0) + (
                    weight << dx * xbits + dy * bits if dx or dy else weight)
        level = nxt
    (weight,) = level.values()
    digits = format(weight, "b")  # read in slices, in linear time
    terms = {}
    for slot, end in enumerate(range(len(digits), 0, -bits)):
        coeff = int(digits[max(end - bits, 0):end], 2)
        if coeff:
            terms[divmod(slot, width)] = coeff
    return BivariatePolynomial(terms)


def tutte_deletion_contraction(graph: Multigraph) -> BivariatePolynomial:
    """Loop/isthmus deletion-contraction, as one iterative sweep over
    edge-labelled minors.

    The pivots follow one order chosen from the graph, a greedy
    min-frontier vertex elimination (``spanning._pivot_order``, which also
    orders the levels of the tree routes' frontier DAG); T does not depend
    on the order, only the sweep's cost does. A minor is encoded by its
    *shape*: the endpoints of its remaining edges, in pivot order, as one
    flat tuple with vertices renamed by first appearance. Deletion of a
    non-isthmus and contraction keep the graph connected, so no minor but
    the last has an isolated vertex, and a shape determines its minor as an
    edge-labelled multigraph. Equal shapes thus have equal T, and merging
    them is exact.

    Each level of the sweep pivots every shape once: a loop is deleted with
    a factor y, an isthmus contracted with a factor x, and any other edge
    passes the weight to both its deletion and its contraction.
    """
    _require_connected(graph)
    ends = graph._numbered_ends()
    return _sweep(_shape([w for i in _pivot_order(graph) for w in ends[i]]),
                  _graph_pivot, graph.edge_count, graph.vertex_count)


def _order_route(graph: Multigraph, order: Sequence) -> tuple:
    """An order route for ``_tree_sum``; its batch kernel is built on first use."""
    args = _order_args(graph, order)
    return _order_kernel(*args), lambda: _order_batch(*args), ORDER_BATCH_TREES_PER_EDGE


def _tour_route(m: CombinatorialMap) -> tuple:
    """The tour route of a rooted map, for ``_tree_sum``."""
    tour = _tour_args(m)
    return _scan(*tour), lambda: _tour_batch(*tour), EMBEDDING_BATCH_TREES_PER_EDGE


def _tree_sum(graph: Multigraph, routes: list) -> list[BivariatePolynomial]:
    """Each route's sum of x^|I| y^|E| over the spanning trees of ``graph``,
    all from one draw of ``enumerate_spanning_trees``, ``TREE_CHUNK`` trees
    at a time. A route is (kernel, make_batch, per_edge): a chunk of at
    least ``per_edge`` trees per edge goes to the kernel that ``make_batch()``
    builds on first use, a smaller one tree by tree to ``kernel``. A chunk's
    planes and lane mask are built once, when a route first batches it."""
    batches, totals = [None] * len(routes), [ZERO] * len(routes)
    trees = enumerate_spanning_trees(graph) if routes else ()  # no route, no DAG
    while True:
        # range comes first, so zip draws no tree past a full chunk
        chunk = [st.flags for _, st in zip(range(TREE_CHUNK), trees)]
        if not chunk:
            return totals
        planes = None
        for i, (kernel, make_batch, per_edge) in enumerate(routes):
            if len(chunk) < per_edge * graph.edge_count:
                totals[i] += _activity_sum(map(kernel, chunk))
            else:
                if planes is None:
                    planes, full = _planes(chunk, graph.edge_count), (1 << len(chunk)) - 1
                batches[i] = batches[i] or make_batch()
                totals[i] += _lane_sum(*batches[i](planes, full), full)


def tutte_order_activities(graph: Multigraph,
                           order: Sequence | None = None) -> BivariatePolynomial:
    """Sum of x^i y^e over spanning trees, activities taken with respect to
    a linear order on the edge ids (default: sorted ids)."""
    _require_connected(graph)
    if order is None:
        order = graph.edge_ids
    return _tree_sum(graph, [_order_route(graph, order)])[0]


def tutte_embedding_activities(m: CombinatorialMap) -> BivariatePolynomial:
    """Sum of x^I y^E over spanning trees, activities from the rooted tour."""
    return _tree_sum(m.underlying_graph(), [_tour_route(m)])[0]


def _map_pivot(sigma: tuple) -> list:
    """``_sweep``'s pivot on a rotation in first-visit labelling (root 0,
    partner h ^ 1): its edge k = sigma.index(0) >> 1 carries the half-edge
    just before the root, and each minor is relabelled from its root by one
    walk (``_rooted_minor``). Both reroot rules land there: a root on a loop
    moves to sigma(0), a root alone at a leaf to sigma(1), and in this
    labelling either is half-edge 2, which the splice renumbers 0. The
    pivot carries the root (k == 0) in those cases only."""
    hstar = sigma.index(0)  # the half-edge just before the root
    k, partner = hstar >> 1, hstar ^ 1
    h = 0
    while h != hstar and h != partner:  # around the root's vertex
        h = sigma[h]
    if h == partner:  # a loop
        return [(_rooted_minor(sigma, k, False), 0, 1)]
    if hstar == 0 or sigma[partner] == partner:
        # an isthmus with a leaf end: deleting it would leave the other
        # half-edges connected, so the test below would miss it
        return [(_rooted_minor(sigma, k, True), 1, 0)]
    if k == 0:
        raise RuntimeError(
            "ordinary pivot unexpectedly contains the root; map recursion is broken"
        )
    deleted = _rooted_minor(sigma, k, False)
    contracted = _rooted_minor(sigma, k, True)
    if len(deleted) < len(sigma) - 2:  # the deletion is disconnected
        return [(contracted, 1, 0)]
    return [(contracted, 0, 0), (deleted, 0, 0)]


def tutte_recursive_map(m: CombinatorialMap) -> BivariatePolynomial:
    """Deletion/contraction performed on the rooted map itself: ``_sweep``
    with ``_map_pivot``, whose pivot is the edge carrying the half-edge just
    before the root. Activities are never consulted, so agreement with the
    activity sum is a genuine check.

    Each minor is one flat rotation tuple in first-visit labelling from its
    root (``canonical_form``). A rooted map has no nontrivial automorphism
    fixing its root, so equal tuples mean rooted-isomorphic maps and equal
    polynomials: the level sweep merges them exactly and pivots each
    distinct rooted minor once, with no recursion and no map objects. The
    start is the map's ``canonical_form``, which needs a root.
    """
    start = m.canonical_form()
    return _sweep(start, _map_pivot, m.edge_count, _cycle_labels(start)[1])


# -- multigraph certificates and isomorphism --------------------------------


def _adjacency(graph: Multigraph):
    nb: dict = {v: Counter() for v in graph.vertices}
    loops: Counter = Counter()
    for e in graph.edge_ids:
        u, v = graph.endpoints(e)
        if u == v:
            loops[u] += 1
        else:
            nb[u][v] += 1
            nb[v][u] += 1
    return nb, loops


def _refined_colors(graph: Multigraph) -> dict:
    """Iterated neighborhood refinement; colors are dense ints."""
    nb, loops = _adjacency(graph)
    sig = {
        v: (sum(nb[v].values()) + 2 * loops[v], loops[v]) for v in graph.vertices
    }
    palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
    color = {v: palette[sig[v]] for v in graph.vertices}
    classes = len(palette)
    while True:
        sig2 = {
            v: (color[v], tuple(sorted((color[w], mult) for w, mult in nb[v].items())))
            for v in graph.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig2.values())))}
        if len(palette) == classes:
            return color
        classes = len(palette)
        color = {v: palette[sig2[v]] for v in graph.vertices}


def graph_certificate(graph: Multigraph) -> tuple:
    """Isomorphism-invariant (not complete) fingerprint: refined vertex
    color counts plus the edge multiset over color pairs."""
    colors = _refined_colors(graph)
    vpart = tuple(sorted(Counter(colors.values()).items()))
    epart = []
    for e in graph.edge_ids:
        u, v = graph.endpoints(e)
        cu, cv = colors[u], colors[v]
        epart.append((cu, cv) if cu <= cv else (cv, cu))
    return (graph.vertex_count, graph.edge_count, vpart, tuple(sorted(epart)))


def graphs_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Exact multigraph isomorphism by color-respecting backtracking."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    c1, c2 = _refined_colors(g1), _refined_colors(g2)
    if sorted(Counter(c1.values()).items()) != sorted(Counter(c2.values()).items()):
        return False
    nb1, loops1 = _adjacency(g1)
    nb2, loops2 = _adjacency(g2)
    order = sorted(g1.vertices, key=lambda v: (c1[v], str(v)))
    candidates = {}
    for w in g2.vertices:
        candidates.setdefault(c2[w], []).append(w)
    assignment: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates.get(c1[v], ()):
            if w in used or loops1[v] != loops2[w]:
                continue
            ok = True
            for u, image in assignment.items():
                if nb1[v][u] != nb2[w][image]:
                    ok = False
                    break
            if not ok:
                continue
            assignment[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del assignment[v]
            used.discard(w)
        return False

    return extend(0)


# -- the cross-check harness --------------------------------------------------


def cross_check(graph: Multigraph,
                embeddings: Iterable[CombinatorialMap] = (),
                orders: Iterable[Sequence] = ()) -> dict[str, BivariatePolynomial]:
    """Run every evaluator over the supplied embeddings and edge orders,
    and return their polynomials by method label: ``expansion``,
    ``delcon``, ``order[i]``, ``embedding[i]`` and ``recursive[i]``.

    The two graph routes run first, so a disconnected graph or one over the
    expansion's bound is refused before the isomorphism guard, which
    recurses once per vertex, sees it. Each embedding's underlying graph
    must then be isomorphic to ``graph``; a mismatch is rejected before any
    tree route runs. Embeddings with one edge-labelled graph (edge ids and
    numbered ends) share an isomorphism test and a draw of its trees, and
    all orders share another draw: the families' agreement is the check.
    """
    polys = {
        "expansion": tutte_subgraph_expansion(graph),
        "delcon": tutte_deletion_contraction(graph),
    }
    embeddings = list(embeddings)
    groups: dict = {}  # an edge-labelled graph -> (it, its embeddings' indices)
    for i, m in enumerate(embeddings):
        if m.root is None:
            raise MapError(f"embedding #{i} must be a rooted map")
        g = m.underlying_graph()
        key = g.edge_ids, g._numbered_ends()
        if key not in groups and not graphs_isomorphic(graph, g):
            raise GraphError(f"embedding #{i} is not an embedding of this graph")
        groups.setdefault(key, (g, []))[1].append(i)
    sums = _tree_sum(graph, [_order_route(graph, order) for order in orders])
    polys.update((f"order[{i}]", poly) for i, poly in enumerate(sums))
    tours = {i: poly for g, indices in groups.values() for i, poly in
             zip(indices, _tree_sum(g, [_tour_route(embeddings[j]) for j in indices]))}
    for i, m in enumerate(embeddings):
        polys[f"embedding[{i}]"] = tours[i]
        polys[f"recursive[{i}]"] = tutte_recursive_map(m)
    return polys
