"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the package's own code paths: components
are counted by BFS, spanning trees by raw subset enumeration and by a
backtracking walk (``tree_flags``, the frontier DAG's oracle), fundamental
sets by the swap test, isomorphism by relabeling search (maps) or networkx
(graphs), graph minors on bare edge dicts, determinants by Bareiss
elimination. Expected values in the tests are frozen from these.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Iterator, Sequence

import networkx as nx
from hypothesis import strategies as st

from tuttemap import CombinatorialMap, GraphError, Multigraph, activity, embed
from tuttemap.cmap import _cycle_labels, _graph_incidences
from tuttemap.mapenum import _census_sigmas
from tuttemap.poly import BivariatePolynomial

# -- worked-example fixtures -------------------------------------------------

TORUS_MAP_TEXT = """\
sigma: (a f' b d)(d')(a' e f c)(e' b' c')
alpha: (a a')(b b')(c c')(d d')(e e')(f f')
root: a
"""

# same graph, rotation at one vertex altered
TORUS_MAP_ALT_TEXT = """\
sigma: (a f' b d)(d')(a' e c f)(e' b' c')
alpha: (a a')(b b')(c c')(d d')(e e')(f f')
root: a
"""

TORUS_TREE = ("aa'", "bb'", "dd'")

SINGLE_LOOP_TEXT = "sigma: (h h')\nalpha: (h h')\nroot: h\n"
SINGLE_ISTHMUS_TEXT = "sigma: (h)(h')\nalpha: (h h')\nroot: h\n"

# (sigma record, malformed alpha record, the error it gives)
ALPHA_DIAGNOSTICS = [
    ("(a)", "(a)", "alpha fixes 'a'"),
    ("(a b c)", "(a b c)", "alpha is not an involution at 'a'"),
    ("(a)", "(a a)", "half-edge 'a' appears twice in alpha"),
    ("(a b c)", "(a b)(b c)", "half-edge 'b' appears twice in alpha"),
]


def torus_map() -> CombinatorialMap:
    return CombinatorialMap.from_text(TORUS_MAP_TEXT)


def torus_map_alt() -> CombinatorialMap:
    return CombinatorialMap.from_text(TORUS_MAP_ALT_TEXT)


def single_loop_map() -> CombinatorialMap:
    return CombinatorialMap.from_text(SINGLE_LOOP_TEXT)


def single_isthmus_map() -> CombinatorialMap:
    return CombinatorialMap.from_text(SINGLE_ISTHMUS_TEXT)


def k3() -> Multigraph:
    return Multigraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (1, 3)})


def k4() -> Multigraph:
    verts = [1, 2, 3, 4]
    edges = {}
    for u, v in itertools.combinations(verts, 2):
        edges[f"e{u}{v}"] = (u, v)
    return Multigraph(verts, edges)


def loop_graph() -> Multigraph:
    return Multigraph([1], {"l": (1, 1)})


def isthmus_graph() -> Multigraph:
    return Multigraph([1, 2], {"i": (1, 2)})


def double_edge_graph() -> Multigraph:
    return Multigraph([1, 2], {"e1": (1, 2), "e2": (1, 2)})


def petersen_edges():
    """The vertices and edges of the Petersen graph."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return range(10), outer + inner + [(i, i + 5) for i in range(5)]


def grid_edges(rows, cols):
    """The vertices and edges of the rows x cols grid."""
    verts = list(itertools.product(range(rows), range(cols)))
    edges = [((r, c), (r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [((r, c), (r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return verts, edges


def wheel_edges(rim):
    """The vertices and edges of the wheel with ``rim`` rim vertices, hub 0."""
    cycle = [(i, i % rim + 1) for i in range(1, rim + 1)]
    return range(rim + 1), cycle + [(0, i) for i in range(1, rim + 1)]


# -- permutation oracles ----------------------------------------------------


def compose(p: dict, q: dict) -> dict:
    """p after q, on names."""
    return {h: p[q[h]] for h in q}


def cycles_of(perm: dict) -> list[tuple]:
    seen = set()
    out = []
    for start in sorted(perm, key=str):
        if start in seen:
            continue
        cyc = []
        h = start
        while h not in seen:
            seen.add(h)
            cyc.append(h)
            h = perm[h]
        out.append(tuple(cyc))
    return out


def name_sigma(m: CombinatorialMap) -> dict:
    return {m.name(h): m.name(m.sigma(h)) for h in range(m.n_half_edges)}


def name_alpha(m: CombinatorialMap) -> dict:
    return {m.name(h): m.name(h ^ 1) for h in range(m.n_half_edges)}


def cyclic_equal(a, b) -> bool:
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    if a[0] not in b:
        return False
    i = b.index(a[0])
    return b[i:] + b[:i] == a


def uncached_erase_walk(m: CombinatorialMap):
    """The erase check with nothing kept between trees or edges: for every
    (tree, edge k) it bypasses k afresh and steps the whole tour less k
    against that minor. Unlike the oracles here it reads the package's
    ``_tour_args``, ``_tour`` and ``_bypass``, looked up at call time, so a
    patched ``_bypass`` reaches both it and ``activity._erase_walk``; it is
    the reference for the shared walk's verdicts, not for the erase fact."""
    sigma, root, he_pos = activity._tour_args(m)

    def walk(flags, edges) -> bool:
        seq = activity._tour(sigma, root, he_pos, flags)
        for k in edges:
            minor = activity._bypass(sigma, k, flags[he_pos[2 * k]])
            kept = [h for h in seq if h >> 1 != k]
            for h, nxt in zip(kept, kept[1:] + kept[:1]):
                if (minor[h ^ 1] if flags[he_pos[h]] else minor[h]) != nxt:
                    return False
        return True

    return walk


# -- graph oracles ------------------------------------------------------------


def bfs_components(vertices, endpoint_pairs) -> int:
    verts = set(vertices)
    adj = {v: set() for v in verts}
    for u, v in endpoint_pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    comps = 0
    for v in verts:
        if v in seen:
            continue
        comps += 1
        frontier = [v]
        seen.add(v)
        while frontier:
            w = frontier.pop()
            for w2 in adj[w]:
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return comps


def subgraph_components(g: Multigraph, edge_subset) -> int:
    return bfs_components(g.vertices, [g.endpoints(e) for e in edge_subset])


def is_spanning_tree_subset(g: Multigraph, subset) -> bool:
    subset = set(subset)
    return (
        len(subset) == g.vertex_count - 1
        and subgraph_components(g, subset) == 1
    )


def brute_force_trees(g: Multigraph) -> list[frozenset]:
    """Every spanning tree, found by scanning all edge subsets of the one
    size a tree has, |V| - 1."""
    subsets = itertools.combinations(g.edge_ids, g.vertex_count - 1)
    return [frozenset(s) for s in subsets if is_spanning_tree_subset(g, s)]


def brute_force_tree_count(g: Multigraph) -> int:
    """The number of spanning trees, by the scan ``brute_force_trees``
    makes: an (|V| - 1)-subset of the edges is a tree when none of its
    edges joins two vertices it already joined (union-find on the
    numbered ends)."""
    nv, ends = _numbered_arcs(g)
    count = 0
    for subset in itertools.combinations(ends, nv - 1):
        parent = list(range(nv))
        for u, v in subset:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break
            parent[u] = v
        else:
            count += 1
    return count


def swap_cycle_oracle(g: Multigraph, tree: frozenset, e) -> frozenset:
    """{e} plus the internal f whose swap keeps a tree (the literal test)."""
    members = {e}
    for f in tree:
        if is_spanning_tree_subset(g, (tree - {f}) | {e}):
            members.add(f)
    return frozenset(members)


def swap_cocycle_oracle(g: Multigraph, tree: frozenset, e) -> frozenset:
    members = {e}
    for f in g.edge_ids:
        if f in tree:
            continue
        if is_spanning_tree_subset(g, (tree - {e}) | {f}):
            members.add(f)
    return frozenset(members)


def expansion_coeffs_oracle(g: Multigraph) -> dict[tuple[int, int], int]:
    """Tutte coefficients straight from the subgraph sum, expanding the
    (x-1)/(y-1) powers with binomials; shares nothing with the package's
    polynomial or component code."""
    ids = g.edge_ids
    nv = g.vertex_count
    coeffs: Counter = Counter()
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            c = subgraph_components(g, subset)
            a, b = c - 1, c + r - nv
            for i in range(a + 1):
                for j in range(b + 1):
                    sign = (-1) ** ((a - i) + (b - j))
                    coeffs[(i, j)] += sign * math.comb(a, i) * math.comb(b, j)
    return {k: v for k, v in coeffs.items() if v}


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, n):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matrix_tree_count(g: Multigraph) -> int:
    """Spanning tree count by the Kirchhoff determinant (loops stripped)."""
    verts = sorted(g.vertices, key=str)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * n for _ in range(n)]
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            continue
        iu, iv = idx[u], idx[v]
        lap[iu][iu] += 1
        lap[iv][iv] += 1
        lap[iu][iv] -= 1
        lap[iv][iu] -= 1
    minor = [row[1:] for row in lap[1:]]
    return bareiss_det(minor)


def proper_colourings(g: Multigraph, q: int) -> int:
    """The number of proper colourings of g's vertices with q colours, by
    backtracking over the vertices in breadth-first order; it reads only
    the vertex list and each edge's endpoints. A loop joins a vertex to
    itself, so it makes the count 0. Parallel edges forbid one pair of
    colours just as a single edge does, so the count sees them once. For a
    connected g this is the chromatic polynomial, (-1)^(|V|-1) q T(1-q, 0)
    (Tutte, Canad. J. Math. 6 (1954))."""
    adj: dict = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            return 0
        adj[u].add(v)
        adj[v].add(u)
    order: list = []
    for root in adj:
        if root not in order:
            order.append(root)
            for v in order:  # the list grows as the search reaches new vertices
                order += [w for w in adj[v] if w not in order]
    colour: dict = {}

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        v, total = order[i], 0
        used = {colour[w] for w in adj[v] if w in colour}
        for c in range(q):
            if c not in used:
                colour[v] = c
                total += extend(i + 1)
        colour.pop(v, None)
        return total

    return extend(0)


def _numbered_arcs(g: Multigraph) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count, and each edge's ends as vertex list indices, in
    edge id order."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return len(index), [tuple(index[w] for w in g.endpoints(e)) for e in g.edge_ids]


def _orientations(g: Multigraph):
    """The vertex count and all 2^|E| orientations of g, each as a list of
    (tail, head) arcs; a loop's two orientations are the same arc."""
    nv, ends = _numbered_arcs(g)
    for flips in itertools.product((False, True), repeat=len(ends)):
        yield nv, [(v, u) if flip else (u, v) for (u, v), flip in zip(ends, flips)]


def _reaches_all(nv: int, arcs: list) -> bool:
    """True iff vertex 0 reaches every vertex along the arcs."""
    out: list = [[] for _ in range(nv)]
    for u, v in arcs:
        out[u].append(v)
    seen = [False] * nv
    seen[0] = True
    stack = [0]
    while stack:
        for w in out[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def acyclic_orientations(g: Multigraph) -> int:
    """The number of orientations of g's edges with no directed cycle,
    trying all 2^|E| of them and peeling off sources until none is left. A
    loop is a directed cycle either way round, so it makes the count 0.
    Parallel edges are oriented one by one, and two of them pointing
    opposite ways close a cycle. For a connected g this is T(2, 0)
    (Stanley, Discrete Math. 5 (1973))."""
    count = 0
    for nv, arcs in _orientations(g):
        indegree = [0] * nv
        out: list = [[] for _ in range(nv)]
        for u, v in arcs:
            indegree[v] += 1
            out[u].append(v)
        sources = [v for v in range(nv) if not indegree[v]]
        for u in sources:  # the list grows as peeling frees new sources
            for v in out[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    sources.append(v)
        count += len(sources) == nv
    return count


def totally_cyclic_orientations(g: Multigraph) -> int:
    """The number of orientations of a connected g's edges in which every
    edge lies on a directed cycle, trying all 2^|E| of them: those in
    which vertex 0 reaches every vertex and every vertex reaches it. A loop
    is a directed cycle either way round, so each loop doubles the count; a
    bridge lies on no cycle, so it makes the count 0. Parallel edges are
    oriented one by one, and two of them pointing opposite ways make a
    cycle. This is T(0, 2) (Las Vergnas, J. Combin. Theory B 29 (1980))."""
    return sum(_reaches_all(nv, arcs) and _reaches_all(nv, [(v, u) for u, v in arcs])
               for nv, arcs in _orientations(g))


def nowhere_zero_flows(g: Multigraph, q: int) -> int:
    """The number of nowhere-zero Z_q flows on g, trying all (q - 1)^|E|
    assignments: each edge, oriented from its first end to its second,
    carries a value in 1..q-1, and at every vertex the values in and out
    balance mod q. A loop leaves its vertex where it enters, so any value
    balances: a factor q - 1. A bridge would carry the net flow of the side
    it cuts off, which is 0, so it makes the count 0. Parallel edges carry
    values of their own. For a connected g this is
    (-1)^(|E|-|V|+1) T(0, 1-q) (Tutte, Canad. J. Math. 6 (1954))."""
    nv, ends = _numbered_arcs(g)
    count = 0
    for values in itertools.product(range(1, q), repeat=len(ends)):
        net = [0] * nv
        for (u, v), x in zip(ends, values):
            net[u] += x
            net[v] -= x
        count += all(n % q == 0 for n in net)
    return count



def sandpile_levels(g: Multigraph) -> Counter:
    """T(1, y) of a connected g as {level: count}, from its sandpile
    (Merino, Ann. Comb. 9 (2005)): the sum of y^level over the recurrent
    configurations, level = sum of c(v) - |E| + deg(sink), with the sink at
    a vertex of largest degree. A stable configuration gives each other
    vertex v between 0 and deg(v) - 1 grains; it is recurrent when Dhar's
    burning test burns every vertex: the sink burns first, then any vertex
    whose grains reach its edges to the vertices still unburnt. Loops are
    stripped first, and each multiplies the sum by y (T(G) = y T(G - loop));
    parallel edges count in the degrees and in the burning, each as one
    edge. It reads no tree, activity or minor."""
    nv, arcs = _numbered_arcs(g)
    loops = sum(u == v for u, v in arcs)
    mult = [[0] * nv for _ in range(nv)]
    for u, v in arcs:
        if u != v:
            mult[u][v] += 1
            mult[v][u] += 1
    deg = [sum(row) for row in mult]
    nbrs = [[(w, m) for w, m in enumerate(row) if m] for row in mult]
    sink = max(range(nv), key=deg.__getitem__)
    others = [v for v in range(nv) if v != sink]
    shift = loops - (len(arcs) - loops) + deg[sink]
    levels: Counter = Counter()
    for grains in itertools.product(*(range(deg[v]) for v in others)):
        have = mult[sink][:]  # grains plus the edges to burnt vertices
        for v, c in zip(others, grains):
            have[v] += c
        burnt = [have[v] >= deg[v] for v in range(nv)]
        burnt[sink] = True
        fire = [v for v in others if burnt[v]]
        for v in fire:  # fire grows as vertices burn
            for w, m in nbrs[v]:
                if not burnt[w]:
                    have[w] += m
                    if have[w] >= deg[w]:
                        burnt[w] = True
                        fire.append(w)
        if len(fire) == len(others):
            levels[sum(grains) + shift] += 1
    return levels

# -- graph minor and isomorphism oracles ---------------------------------------
# A graph is an edge dict, id -> (u, v); only connected graphs with an edge
# are compared, so no vertex is isolated and the edges name every vertex.


def edge_dict(g: Multigraph) -> dict:
    return {e: g.endpoints(e) for e in g.edge_ids}


def delete_from(edges: dict, e) -> dict:
    return {k: ends for k, ends in edges.items() if k != e}


def contract_in(edges: dict, e) -> dict:
    """Remove edge e and merge its second endpoint into its first."""
    u, v = edges[e]
    return {k: tuple(u if w == v else w for w in ends)
            for k, ends in edges.items() if k != e}


def nx_isomorphic(a: dict, b: dict) -> bool:
    """Isomorphism of two edge dicts as networkx multigraphs, counting
    loops and parallel edges."""
    ga, gb = nx.MultiGraph(), nx.MultiGraph()
    ga.add_edges_from(a.values())
    gb.add_edges_from(b.values())
    return nx.is_isomorphic(ga, gb)


# -- map isomorphism oracles -----------------------------------------------


def rooted_iso_oracle(m1: CombinatorialMap, m2: CombinatorialMap) -> bool:
    """Grow the unique candidate relabeling from root to root and verify the
    two intertwining identities on all half-edges."""
    if m1.n_half_edges != m2.n_half_edges:
        return False
    pi = {m1.root: m2.root}
    stack = [m1.root]
    while stack:
        h = stack.pop()
        for img, img2 in (
            (m1.sigma(h), m2.sigma(pi[h])),
            (m1.alpha(h), m2.alpha(pi[h])),
        ):
            if img in pi:
                if pi[img] != img2:
                    return False
            else:
                pi[img] = img2
                stack.append(img)
    if len(pi) != m1.n_half_edges or len(set(pi.values())) != len(pi):
        return False
    return all(
        pi[m1.sigma(h)] == m2.sigma(pi[h]) and pi[m1.alpha(h)] == m2.alpha(pi[h])
        for h in pi
    )


def relabel_map(m: CombinatorialMap, rng: random.Random) -> CombinatorialMap:
    """A structurally identical map under a random renaming of half-edges."""
    fresh = [f"z{i}" for i in range(m.n_half_edges)]
    rng.shuffle(fresh)
    rename = {m.name(h): fresh[h] for h in range(m.n_half_edges)}
    sigma = {rename[m.name(h)]: rename[m.name(m.sigma(h))] for h in range(m.n_half_edges)}
    alpha = {rename[m.name(h)]: rename[m.name(h ^ 1)] for h in range(m.n_half_edges)}
    root = None if m.root is None else rename[m.root_name]
    return CombinatorialMap.from_permutations(sigma, alpha, root)


# -- corpora -------------------------------------------------------------------


def _transitive(sigma: tuple[int, ...]) -> bool:
    n = len(sigma)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        h = stack.pop()
        for nxt in (sigma[h], h ^ 1):
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                stack.append(nxt)
    return count == n


def all_rooted_sigmas(n_edges: int):
    """Every transitive rotation on 2n normalized half-edges."""
    for perm in itertools.permutations(range(2 * n_edges)):
        if _transitive(perm):
            yield perm


def unpruned_rooted_sigmas(n_edges: int):
    """Every rooted rotation in first-visit labelling, by the census walk as
    it was before it counted cycles: no branch is cut for its genus."""
    size = 2 * n_edges
    sigma = [0] * size
    taken = [False] * size

    def walk(h: int, reached: int):
        if h == size:
            yield tuple(sigma)
        elif h < reached:
            for t in range(reached + (reached < size)):
                if not taken[t]:
                    sigma[h], taken[t] = t, True
                    yield from walk(h + 1, reached + 2 * (t == reached))
                    taken[t] = False

    return walk(0, 2)


def vertices_plus_faces(sigma: Sequence[int]) -> int:
    """The cycles of h -> sigma(h) and of h -> sigma(h ^ 1), each counted
    by marking a set, apart from cmap and mapenum."""
    total = 0
    for step in (lambda h: sigma[h], lambda h: sigma[h ^ 1]):
        seen: set = set()
        for start in range(len(sigma)):
            if start not in seen:
                total += 1
                h = start
                while h not in seen:
                    seen.add(h)
                    h = step(h)
    return total


def make_map(sigma: tuple[int, ...], root: int | None = 0) -> CombinatorialMap:
    names = tuple(f"h{i}" for i in range(len(sigma)))
    return CombinatorialMap(sigma, names, root)


def random_rooted_map(rng: random.Random, n_edges: int) -> CombinatorialMap:
    while True:
        perm = list(range(2 * n_edges))
        rng.shuffle(perm)
        if _transitive(tuple(perm)):
            return make_map(tuple(perm))


def census_ends(sigma: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count of a census rotation and the endpoints of each edge
    k (half-edges 2k and 2k+1), vertices numbered as cycles of sigma."""
    vertex, nv = _cycle_labels(sigma)
    return nv, list(zip(vertex[::2], vertex[1::2]))


def tree_flags(nv: int, ends: Sequence[tuple[int, int]]) -> Iterator[bytes]:
    """The flags of every spanning tree of the graph on vertices 0..nv-1
    whose edge at position p joins ``ends[p]``, once each, in lexicographic
    order of the position sets. It is the plain form of the backtracking of
    Gabow and Myers, SIAM J. Comput. 7 (1978), without their bridge test,
    and shares no code with the package's frontier DAG.

    One iterative walk takes the non-loop edges in position order; it keeps
    an edge only when it joins two components, and stops a branch when too
    few edges remain to finish the tree. The union-find (by size, no path
    compression) lives in int lists and each backtrack undoes the last
    union, so no state is copied per step and a long input meets no
    recursion limit. The walk keeps the flags of the edges it has taken,
    set on each union and cleared on each undo, and yields an immutable
    copy of them per tree.
    """
    need = nv - 1
    pool = [p for p, (u, v) in enumerate(ends) if u != v]
    pool_ends = [ends[p] for p in pool]
    slack = len(pool) - need  # with k edges taken, a tree needs j <= slack + k
    parent = list(range(nv))
    size = [1] * nv
    chosen: list[int] = []  # pool indexes of the edges taken, increasing
    joined: list[int] = []  # the root each union hung below another
    flags = bytearray(len(ends))  # the edge positions taken
    j = 0
    found = False
    while True:
        k = len(chosen)
        while k < need and j <= slack + k:
            a, b = pool_ends[j]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                chosen.append(j)
                flags[pool[j]] = 1
                joined.append(b)
                k += 1
            j += 1
        if k == need:
            found = True
            yield bytes(flags)
        elif not found:
            # the first descent takes every edge that joins two components,
            # so it ends short of a tree only on a disconnected graph
            raise GraphError("spanning trees need a connected graph")
        if not k:
            return
        b = joined.pop()
        size[parent[b]] -= size[b]
        parent[b] = b
        j = chosen.pop() + 1
        flags[pool[j - 1]] = 0


def census_sum(n_edges: int, genus: int | None) -> BivariatePolynomial:
    """The activity sum over the census maps with n edges and, when given,
    that genus, one (map, spanning tree) pair at a time on the bare
    rotations: the backtracking tree walk on the edge endpoints, and the
    tour kernel on sigma with half-edge h on edge h >> 1. It shares no code
    with the tour-word transfer that ``partition_function`` runs."""
    he_pos = [h >> 1 for h in range(2 * n_edges)]

    def pairs():
        for sigma in _census_sigmas(n_edges, genus):
            kernel = activity._scan(sigma, 0, he_pos)
            for flags in tree_flags(*census_ends(sigma)):
                yield kernel(flags)

    return activity._activity_sum(pairs())


def _matchings(points: list):
    """Every perfect matching of an even-length list, as lists of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for matching in _matchings(rest[:k] + rest[k + 1:]):
            yield [(first, other)] + matching


def tour_word_sums(n_edges: int) -> dict[int, Counter]:
    """The activity sum over the rooted maps with n edges, by genus, read
    off their tour words with no rotation (Bernardi, EJC 14 (2007) R9): a
    word pairs its 2n steps, the tree pairs nested, the external pairs any
    way. Half-edge h is step h, so the faces are the cycles of
    phi(h) = (h if h is on a tree step else its partner) + 1 mod 2n, and a
    word with k tree pairs has k + 1 vertices. A tree pair (a, b) is active
    unless an external pair (c, d) has c < a < d < b; an external pair
    (c, d) is active unless the innermost tree pair around c closes
    before d. Returns {genus: Counter((|I|, |E|) -> count)}."""
    size = 2 * n_edges
    sums: dict[int, Counter] = {}
    for pairs in _matchings(list(range(size))):
        partner = {}
        for a, b in pairs:
            partner[a], partner[b] = b, a
        for kinds in itertools.product((True, False), repeat=n_edges):
            tree = [p for p, t in zip(pairs, kinds) if t]
            if any(a < c < b < d for a, b in tree for c, d in tree):
                continue  # tree steps must nest
            external = [p for p, t in zip(pairs, kinds) if not t]
            on_tree = {h for pair in tree for h in pair}
            phi = [((h if h in on_tree else partner[h]) + 1) % size
                   for h in range(size)]
            faces, seen = 0, set()
            for start in range(size):
                if start not in seen:
                    faces += 1
                    h = start
                    while h not in seen:
                        seen.add(h)
                        h = phi[h]
            chi = len(tree) + 1 - n_edges + faces
            internal = sum(not any(c < a < d < b for c, d in external)
                           for a, b in tree)
            active = 0
            for c, d in external:
                around = [b for a, b in tree if a < c < b]
                active += not around or d < min(around)
            counts = sums.setdefault((2 - chi) // 2, Counter())
            counts[internal, active] += 1
    return sums


def word_steps(state: tuple, left: int, genus: int | None) -> Iterator[tuple]:
    """The states that one more step takes a tour-word state to, with
    ``left`` positions still to fill: ``mapenum._word_sum``'s transitions
    with no prune and no merge, the open steps listed newest first for a
    genus and sorted largest first over all genera. A state is
    (depth, dead, opens, paths, e, i, j), as that docstring defines it."""
    d, dead, opens, paths, e, i, j = state
    if d + len(opens) + 2 <= left:
        yield d + 1, dead, opens, paths, e, i, j
        opened = paths if genus is None else (
            paths[0] + 1, 0, *(end + 1 for end in paths[1:]))
        yield d, dead, (2 * d + 1,) + opens, opened, e, i, j
    if d:
        top, below = divmod(dead, 1 << d)
        fallen = [o if o >> 1 < d else 2 * d - 2 for o in opens]
        if genus is None:
            fallen.sort(reverse=True)
        yield d - 1, below, tuple(fallen), paths, e, i + 1 - top, j
    for k, o in enumerate(opens):
        ends, t = paths, 0
        if genus is not None:
            t = paths[k + 1]
            if t and e == 2 * genus:
                continue
            ends = tuple([0 if (u := x or t) == k + 1 else u - (u > k + 1)
                          for x in paths[:k + 1] + paths[k + 2:]])
        kill = (2 << d) - (2 << (o >> 1))
        yield d, dead | kill, opens[:k] + opens[k + 1:], ends, e + (t > 0), i, j + (o & 1)


def word_levels(n_edges: int, genus: int | None) -> list[dict]:
    """Every state that the tour-word prefixes reach, position by position,
    with the number of prefixes reaching it: entry p holds the states after
    p steps, with no state budget."""
    levels = [{(0, 0, (), (0,), 0, 0, 0): 1}]
    for left in range(2 * n_edges, 0, -1):
        after: dict = Counter()
        for state, w in levels[-1].items():
            for nxt in word_steps(state, left, genus):
                after[nxt] += w
        levels.append(after)
    return levels


def word_sum(n_edges: int, genus: int | None) -> BivariatePolynomial:
    """``partition_function``'s tour-word transfer with no prune and no
    merge: the full words that end with e = 2 * genus (every word when
    genus is None)."""
    return BivariatePolynomial((state[5:], w) for state, w in word_levels(n_edges, genus)[-1].items()
                               if genus is None or state[4] == 2 * genus)


def map_corpus(seed: int = 20546, per_size: int = 120,
               max_edges: int = 6) -> list[CombinatorialMap]:
    """At least 500 distinct valid rooted maps with <= max_edges edges:
    exhaustive for 1 and 2 edges, seeded random beyond."""
    rng = random.Random(seed)
    corpus = [make_map(s) for n in (1, 2) for s in all_rooted_sigmas(n)]
    for n in range(3, max_edges + 1):
        chosen = set()
        while len(chosen) < per_size:
            m = random_rooted_map(rng, n)
            if m._sigma not in chosen:
                chosen.add(m._sigma)
                corpus.append(m)
    return corpus


def _joins_all(nv: int, pairs) -> bool:
    """Whether the endpoint pairs join vertices 0..nv-1 into one component,
    by a union-find over an int list."""
    parent = list(range(nv))
    parts = nv
    for u, v in pairs:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            parts -= 1
    return parts == 1


def connected_multigraphs(max_vertices: int, max_edges: int):
    """Every connected multigraph on labeled vertices 0..nv-1 with at most
    max_edges edges (loops and parallel edges included); edge ids e0, e1...
    follow the sorted endpoint-pair order. Only the endpoint lists that join
    every vertex become a ``Multigraph``."""
    for nv in range(1, max_vertices + 1):
        verts = list(range(nv))
        pairs = [(u, v) for u in verts for v in verts[u:]]
        for ne in range(nv - 1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, ne):
                if _joins_all(nv, combo):
                    yield Multigraph(verts, {f"e{i}": uv for i, uv in enumerate(combo)})


@st.composite
def random_connected_multigraphs(draw, max_edges=8):
    """Connected multigraphs with loops and parallel edges, int or str
    vertex ids, and edge ids whose sorted order is a random edge order."""
    nv = draw(st.integers(1, 6))
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    ends += draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges - len(ends)))
    ranks = draw(st.permutations(range(len(ends))))
    vname = draw(st.sampled_from([int, "v{}".format]))
    ename = draw(st.sampled_from([int, "e{:02d}".format]))
    return Multigraph(
        [vname(v) for v in range(nv)],
        {ename(k): (vname(u), vname(v)) for k, (u, v) in zip(ranks, ends)},
    )


@st.composite
def ordered_and_embedded(draw, max_edges=8):
    """A connected multigraph, a random order of its edges, and a random
    rooted rotation system of it (None when it has no edge)."""
    g = draw(random_connected_multigraphs(max_edges))
    order = draw(st.permutations(g.edge_ids))
    if not g.edge_count:
        return g, order, None
    at_vertex, _ = _graph_incidences(g)
    rotations = {v: draw(st.permutations(at_vertex[v])) for v in sorted(at_vertex, key=str)}
    m = embed(g, rotations=rotations)
    return g, order, m.with_root(draw(st.sampled_from(m.names)))
