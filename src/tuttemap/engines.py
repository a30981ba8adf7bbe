"""Tutte polynomial evaluators and the cross-checking harness.

Five routes to the same polynomial: the explicit sum over all spanning
subgraphs, loop/isthmus deletion-contraction on abstract graphs, the
activity sum for a linear edge order, the activity sum for a rooted
embedding, and a deletion/contraction recursion carried out on the map
itself (pivoting on the edge just before the root, the one place where
rerooting rules are needed). Agreement across routes on the same graph is
the package's correctness argument, so the routes deliberately share as
little code as possible.

Graph deletion-contraction is an iterative sweep, one level per edge, over
minor *shapes*: the endpoints of the remaining edges in sorted edge-id
order, vertices renamed by first appearance. A shape fixes its (connected)
minor, so equal shapes have equal T and merge with no isomorphism search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .activity import _active_sets, _order_rank, embedding_activities
from .cmap import CombinatorialMap, MapError
from .graph import GraphError, Multigraph
from .poly import ONE, X, Y, ZERO, BivariatePolynomial
from .spanning import enumerate_spanning_trees

__all__ = [
    "tutte_subgraph_expansion",
    "tutte_deletion_contraction",
    "tutte_order_activities",
    "tutte_embedding_activities",
    "tutte_recursive_map",
    "cross_check",
    "EvaluationReport",
    "graph_certificate",
    "graphs_isomorphic",
]


def _require_connected(graph: Multigraph) -> None:
    if not graph.is_connected():
        raise GraphError(
            "Tutte evaluation is defined here for connected graphs only"
        )


def tutte_subgraph_expansion(graph: Multigraph) -> BivariatePolynomial:
    """Direct sum of (x-1)^(c(S)-1) (y-1)^(c(S)+|S|-|V|) over all 2^|E|
    spanning subgraphs S."""
    _require_connected(graph)
    ids = graph.edge_ids
    nv = graph.vertex_count
    xm, ym = X - 1, Y - 1
    xpow = [ONE]
    for _ in range(nv):
        xpow.append(xpow[-1] * xm)
    ypow = [ONE]
    for _ in range(len(ids) + 1):
        ypow.append(ypow[-1] * ym)
    total = ZERO
    for mask in range(1 << len(ids)):
        subset = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        c = graph.component_count(subset)
        total = total + xpow[c - 1] * ypow[c + len(subset) - nv]
    return total


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


def _shifted(weight: Counter, dx: int, dy: int) -> Counter:
    return Counter({(i + dx, j + dy): c for (i, j), c in weight.items()})


def _pivot(shape: tuple, weight: Counter) -> list:
    """The minors one pivot step leads to, each with the weight it inherits."""
    rest = shape[2:]
    if shape[1] == 0:  # a loop (every shape starts at vertex 0)
        return [(_shape(rest), _shifted(weight, 0, 1))]
    contracted = _shape([0 if w == 1 else w for w in rest])  # 1 merges into 0
    if _is_isthmus(shape):
        return [(contracted, _shifted(weight, 1, 0))]
    return [(_shape(rest), weight), (contracted, weight)]


def tutte_deletion_contraction(graph: Multigraph) -> BivariatePolynomial:
    """Loop/isthmus deletion-contraction, as one iterative sweep over
    edge-labelled minors.

    The pivot is always the first remaining edge in sorted edge-id order. A
    minor is encoded by its *shape*: the endpoints of its remaining edges,
    in that order, as one flat tuple with vertices renamed by first
    appearance. Deletion of a non-isthmus and contraction keep the graph
    connected, so no minor but the last has an isolated vertex, and a shape
    determines its minor as an edge-labelled multigraph. Equal shapes thus
    have equal T, and merging them is exact.

    Level k maps each shape with |E| - k edges to its weight, a polynomial
    with T(G) = sum of weight * T(shape) over the level. Each level pivots
    every shape once: a loop is deleted with a factor y, an isthmus
    contracted with a factor x, and any other edge passes the weight to both
    its deletion and its contraction. After |E| levels one empty shape is
    left, and its weight is T. No recursion, so no depth limit.
    """
    _require_connected(graph)
    ends = [w for e in graph.edge_ids for w in graph.endpoints(e)]
    level = {_shape(ends): Counter({(0, 0): 1})}
    for _ in range(graph.edge_count):
        nxt: dict = {}
        for shape, weight in level.items():
            for minor, w in _pivot(shape, weight):
                nxt.setdefault(minor, Counter()).update(w)
        level = nxt
    (weight,) = level.values()
    return BivariatePolynomial(weight)


def _activity_sum(terms: Iterable, table: dict | None = None) -> BivariatePolynomial:
    """Sum of x^i y^e over (tree, activities) pairs, counted once per
    monomial; each tree's (i, e) also goes into ``table`` when given."""
    counts: Counter = Counter()
    for st, act in terms:
        ie = (act.internal_count, act.external_count)
        counts[ie] += 1
        if table is not None:
            table[tuple(sorted(st.internal_edges, key=str))] = ie
    return BivariatePolynomial(counts)


def _order_tree_terms(graph: Multigraph, order: Sequence):
    rank = _order_rank(graph, order)
    for st in enumerate_spanning_trees(graph):
        yield st, _active_sets(st, rank)


def tutte_order_activities(graph: Multigraph,
                           order: Sequence | None = None) -> BivariatePolynomial:
    """Sum of x^i y^e over spanning trees, activities taken with respect to
    a linear order on the edge ids (default: sorted ids)."""
    _require_connected(graph)
    if order is None:
        order = graph.edge_ids
    return _activity_sum(_order_tree_terms(graph, order))


def _embedding_tree_terms(m: CombinatorialMap):
    for st in enumerate_spanning_trees(m.underlying_graph()):
        yield st, embedding_activities(m, st)


def tutte_embedding_activities(m: CombinatorialMap) -> BivariatePolynomial:
    """Sum of x^I y^E over spanning trees, activities from the rooted tour."""
    if m.is_empty or m.root is None:
        raise MapError("a rooted map with at least one edge is required")
    m.validate()
    return _activity_sum(_embedding_tree_terms(m))


def tutte_recursive_map(m: CombinatorialMap, on_pivot=None) -> BivariatePolynomial:
    """Deletion/contraction performed on the rooted map itself.

    The pivot is always the edge carrying the half-edge just before the
    root in its rotation. The root only ever sits on the pivot when that
    pivot is an isthmus (root is a rotation fixed point) or a loop (root is
    the pivot's partner), and each case moves the root to the uniquely
    determined surviving half-edge. Activities are never consulted, so
    agreement with the activity sum is a genuine check.

    Each call keeps one memo keyed by ``canonical_form()``. A rooted map has
    no nontrivial automorphism fixing its root, so equal forms mean
    rooted-isomorphic maps and equal polynomials: a hit needs no further
    check, and each distinct rooted minor is expanded once.

    ``on_pivot(map, edge_id, case, depth)`` is called once per distinct
    rooted minor, when it is expanded (memo hits do not call it); tests use
    it to watch the pivot discipline.
    """
    if m.is_empty or m.root is None:
        raise MapError("a rooted map with at least one edge is required")
    m.validate()
    return _recurse_map(m, 1, on_pivot, {})


def _recurse_map(m: CombinatorialMap, depth: int, on_pivot,
                 memo: dict) -> BivariatePolynomial:
    # the lookup stays in this function: one Python frame per level
    key = m.canonical_form()
    val = memo.get(key)
    if val is not None:
        return val
    graph = m.underlying_graph()
    h0 = m.root
    hstar = m.sigma_inverse(h0)
    k = hstar >> 1
    eid = m.edge_ids[k]
    if m.edge_count == 1:
        case = "loop-base" if graph.is_loop(eid) else "isthmus-base"
        if on_pivot is not None:
            on_pivot(m, eid, case, depth)
        val = Y if graph.is_loop(eid) else X
    elif graph.is_loop(eid):
        if on_pivot is not None:
            on_pivot(m, eid, "loop", depth)
        reroot = m.sigma(h0) if h0 == (hstar ^ 1) else None
        val = Y * _recurse_map(m.delete_edge(k, reroot=reroot), depth + 1,
                               on_pivot, memo)
    elif graph.is_isthmus(eid):
        if on_pivot is not None:
            on_pivot(m, eid, "isthmus", depth)
        reroot = m.sigma(hstar ^ 1) if h0 == hstar else None
        val = X * _recurse_map(m.contract_edge(k, reroot=reroot), depth + 1,
                               on_pivot, memo)
    else:
        if h0 >> 1 == k:
            raise RuntimeError(
                "ordinary pivot unexpectedly contains the root; map recursion is broken"
            )
        if on_pivot is not None:
            on_pivot(m, eid, "ordinary", depth)
        val = (
            _recurse_map(m.contract_edge(k), depth + 1, on_pivot, memo)
            + _recurse_map(m.delete_edge(k), depth + 1, on_pivot, memo)
        )
    memo[key] = val
    return val


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


@dataclass
class EvaluationReport:
    """Results of one cross-check run.

    ``polynomials`` maps a method label to its result; ``tree_tables`` maps
    activity-based method labels to {sorted tree edge tuple: (i, e)}.
    """

    polynomials: dict[str, BivariatePolynomial]
    tree_tables: dict[str, dict[tuple, tuple[int, int]]]

    @property
    def agreement(self) -> bool:
        vals = list(self.polynomials.values())
        return all(v == vals[0] for v in vals[1:])


def cross_check(graph: Multigraph,
                embeddings: Iterable[CombinatorialMap] = (),
                orders: Iterable[Sequence] = ()) -> EvaluationReport:
    """Run every evaluator over the supplied embeddings and edge orders.

    Each embedding's underlying graph must be isomorphic to ``graph``; a
    mismatch is rejected up front.
    """
    _require_connected(graph)
    embeddings = list(embeddings)
    orders = list(orders)
    for i, m in enumerate(embeddings):
        if m.is_empty or m.root is None:
            raise MapError(f"embedding #{i} must be a rooted nonempty map")
        if not graphs_isomorphic(graph, m.underlying_graph()):
            raise GraphError(f"embedding #{i} is not an embedding of this graph")

    polys = {
        "expansion": tutte_subgraph_expansion(graph),
        "delcon": tutte_deletion_contraction(graph),
    }
    tables: dict[str, dict[tuple, tuple[int, int]]] = {}
    for i, order in enumerate(orders):
        label = f"order[{i}]"
        tables[label] = {}
        polys[label] = _activity_sum(_order_tree_terms(graph, order), tables[label])
    for i, m in enumerate(embeddings):
        label = f"embedding[{i}]"
        tables[label] = {}
        polys[label] = _activity_sum(_embedding_tree_terms(m), tables[label])
        polys[f"recursive[{i}]"] = tutte_recursive_map(m)
    return EvaluationReport(polys, tables)
