"""Spanning trees, their enumeration and counting, and fundamental
cycles/cocycles.

Trees are handled on flat int arrays. A graph is numbered once
(``Multigraph._numbered_ends``): edge position p is the p-th id of
``edge_ids`` and vertices are numbered by first appearance along those
edges. A tree carries ``flags``, immutable bytes with a 1 at each of its
edge positions, and ``_root_paths`` hangs it from vertex 0, giving each
vertex the bitmask of the tree edges on its path to the root. Only the
per-tree order kernel (``activity._order_kernel``, for single trees and
small chunks) and ``SpanningTree.fundamental_cycle``/``fundamental_cocycle``
root a tree one at a time; both batch kernels hang a whole chunk of trees
from one vertex in one pass over their flags' planes (``activity._hang``).

``enumerate_spanning_trees`` reads the trees off the graph's frontier DAG
(Sekine, Imai and Tani, ISAAC 1995), whose levels follow ``_pivot_order``,
the min-frontier order that delcon pivots in; a node labels the frontier's
vertices by component. Each node's bit-planes are built once, bottom-up,
and each block of at most ``TREE_CHUNK`` trees becomes one buffer of flag
bytes, a slice per tree, in lexicographic order along ``_pivot_order``.
It is the package's one enumeration: the tree routes, ``activities`` and
``check``'s erase row all draw from it.

``kirchhoff_tree_count`` counts the same trees by the matrix-tree
theorem, sharing no code with the enumeration.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import GraphError, Multigraph

__all__ = ["SpanningTree", "enumerate_spanning_trees", "kirchhoff_tree_count"]

# The tree routes decide their trees in chunks of this size, and the
# frontier DAG makes flags in blocks of at most this size. The order batch
# kernel's time per tree levels off at about 0.5 us from 2,048 to 4,096
# trees a chunk (W10 and grid 4x4, in-process on a 2-CPU VM, CPython 3.11),
# against about 10 us for the per-tree kernel; a larger chunk only holds
# more flags.
TREE_CHUNK = 4096


def _incidence(ends: list, nv: int) -> list[list[tuple[int, int]]]:
    """The (neighbour, edge position) pairs at each vertex, loops left out."""
    inc: list[list] = [[] for _ in range(nv)]
    for p, (u, v) in enumerate(ends):
        if u != v:
            inc[u].append((v, p))
            inc[v].append((u, p))
    return inc


def _root_paths(inc: list, flags) -> list[int]:
    """The tree whose edge positions ``flags`` marks, hung from vertex 0:
    for each vertex, the bitmask of the tree edges on its path to vertex 0.
    The tree path between u and v is then the xor of their masks."""
    path = [-1] * len(inc)
    path[0] = 0
    order = [0]
    for u in order:  # order grows as the walk reaches new vertices
        mask = path[u]
        for w, p in inc[u]:
            if path[w] < 0 and flags[p]:
                path[w] = mask | 1 << p
                order.append(w)
    return path


class SpanningTree:
    """A spanning tree of a connected multigraph, held as its edge set.

    Edges inside the tree are internal, the rest external. The fundamental
    cycle of an external edge e is e plus the tree path joining its
    endpoints; the fundamental cocycle of an internal edge e is e plus every
    edge crossing the cut opened by removing e from the tree. ``flags``
    marks the tree's edges by position in the parent's ``edge_ids``;
    ``positions`` and ``internal_edges`` are derived from it when read.
    """

    __slots__ = ("parent", "flags", "_internal")

    def __init__(self, parent: Multigraph, edges: Iterable) -> None:
        chosen = set()
        for e in edges:
            parent.endpoints(e)
            if e in chosen:
                raise GraphError(f"edge {e!r} is listed twice in the tree")
            chosen.add(e)
        if (
            len(chosen) != parent.vertex_count - 1
            or parent.component_count(chosen) != 1
        ):
            raise GraphError(
                f"edge set {sorted(chosen, key=str)} is not a spanning tree"
            )
        self.parent = parent
        self.flags = bytes([e in chosen for e in parent.edge_ids])
        self._internal = frozenset(chosen)

    @property
    def positions(self) -> list[int]:
        """The tree's edge positions, increasing."""
        return [p for p, f in enumerate(self.flags) if f]

    @property
    def internal_edges(self) -> frozenset:
        """The tree's edge ids, built on first read."""
        if self._internal is None:
            ids = self.parent.edge_ids
            self._internal = frozenset([ids[p] for p in self.positions])
        return self._internal

    def _paths(self) -> list[int]:
        """The tree path of each edge position, as a bitmask of positions."""
        graph = self.parent
        ends = graph._numbered_ends()
        root = _root_paths(_incidence(ends, graph.vertex_count), self.flags)
        return [root[u] ^ root[v] for u, v in ends]

    def fundamental_cycle(self, e) -> frozenset:
        """The external edge e plus the tree path between its endpoints
        (just {e} when e is a loop)."""
        self.parent.endpoints(e)
        if e in self.internal_edges:
            raise GraphError(
                f"edge {e!r} is internal; fundamental cycles belong to external edges"
            )
        ids = self.parent.edge_ids
        p = ids.index(e)
        cycle = self._paths()[p] | 1 << p
        return frozenset(f for q, f in enumerate(ids) if cycle >> q & 1)

    def fundamental_cocycle(self, e) -> frozenset:
        """The internal edge e plus every edge with exactly one endpoint in
        the component cut off by removing e from the tree, that is, every
        edge whose tree path runs through e."""
        self.parent.endpoints(e)
        if e not in self.internal_edges:
            raise GraphError(
                f"edge {e!r} is external; fundamental cocycles belong to internal edges"
            )
        ids = self.parent.edge_ids
        p = ids.index(e)
        return frozenset(f for f, path in zip(ids, self._paths()) if path >> p & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return self.parent == other.parent and self.flags == other.flags

    __hash__ = None

    def __repr__(self) -> str:
        return f"SpanningTree(..., {sorted(self.internal_edges, key=str)!r})"


def _pivot_order(graph: Multigraph) -> list:
    """A frontier order of the edges, as positions into ``graph.edge_ids``:
    a greedy min-frontier vertex elimination. It is delcon's pivot order
    and the level order of ``enumerate_spanning_trees``' frontier DAG, so
    delcon and the tree routes share it.

    The frontier holds the vertices that the eliminated ones have reached
    but that are not yet eliminated themselves. The first vertex is one
    with the fewest neighbours; after it, the next is always the frontier
    vertex whose elimination adds the fewest new vertices to the frontier,
    ties going to the most neighbours already in the frontier and then to
    the lowest number (``_numbered_ends``, so ties never compare labels).
    Edges follow sorted by (earlier elimination position, later position),
    a loop at its own vertex and parallel edges in id order, so each
    vertex's remaining edges are taken together and a level's states
    vary only in how the frontier has merged. The graph must be connected.
    """
    ends = graph._numbered_ends()
    nbrs = [set() for _ in range(max(map(max, ends), default=0) + 1)]
    for u, v in ends:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    start = min(range(len(nbrs)), key=lambda v: (len(nbrs[v]), v))
    frontier, reached = {start}, {start}
    rank = [0] * len(nbrs)
    for step in range(len(nbrs)):
        v = min(frontier, key=lambda v: (len(nbrs[v] - reached),
                                         -len(nbrs[v] & frontier), v))
        rank[v] = step
        fresh = nbrs[v] - reached
        frontier.remove(v)
        frontier |= fresh
        reached |= fresh
    keys = [(rank[u], rank[v]) if rank[u] <= rank[v] else (rank[v], rank[u])
            for u, v in ends]
    return sorted(range(len(ends)), key=keys.__getitem__)


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def _next_node(part: list, keep: list, gone: list, nxt: dict) -> int:
    """The node in ``nxt`` for ``part``, the slots' component labels once an
    edge is decided: the labels at ``keep`` renumbered by first appearance;
    -1 if a component has slots only in ``gone`` and is not the only one."""
    kept, first = [part[k] for k in keep], {}
    if gone and len(set(part)) > 1 and not {part[k] for k in gone} <= set(kept):
        return -1
    return nxt.setdefault(tuple([first.setdefault(c, len(first)) for c in kept]), len(nxt))


def enumerate_spanning_trees(graph: Multigraph) -> Iterator[SpanningTree]:
    """Yield every spanning tree exactly once, read off the graph's frontier
    DAG in lexicographic order along ``_pivot_order``: tree A comes before
    tree B when A takes the first edge of that order on which they differ.
    Sorting the flags in descending order gives the lexicographic order of
    the sorted edge-id sets. A disconnected graph raises ``GraphError``.

    Level i of the DAG decides the i-th edge of ``_pivot_order`` (Sekine,
    Imai and Tani, ISAAC 1995; Knuth, TAOCP 4A, 7.1.4). A node is a tuple
    of component labels over the level's frontier slots, the vertices with
    an edge decided and one still to come; each level works out once which
    slots the edge's ends hold, which vertices enter and which leave.
    Taking the edge is refused when it closes a cycle, and a component left
    with no frontier vertex must be the only one (``_next_node``), so the
    paths to the end are exactly the spanning trees. A node of at most
    ``TREE_CHUNK`` trees gets its planes (``activity._planes``' lane masks)
    once, bottom-up: its hi child's lanes, then its lo child's shifted past
    them, its own edge on the hi lanes. Listed from the last level up, a
    one-child node's planes extend its child's list unless another node
    has, so a path costs linear time. A walk down the larger nodes, hi
    before lo, reaches the blocks, the small nodes under them; each becomes
    one immutable buffer of flag bytes, filled by one strided slice per
    edge position, and each tree's flags are one slice of it. Blocks are
    not packed into fuller chunks: each held 987 to 4,052 trees on the
    ``trees`` benchmark graphs, grids 4x4 and 4x5, K7 and K8.
    """
    if not graph.is_connected():
        raise GraphError("spanning trees need a connected graph")
    ends = graph._numbered_ends()
    pool = _pivot_order(graph)
    n = len(pool)
    last = {w: i for i, p in enumerate(pool) for w in ends[p]}
    front, layers, level = [], [], {(): 0}  # slot vertices; each node's [hi, lo], -1 no node
    for i, (u, v) in enumerate(map(ends.__getitem__, pool)):
        slots = front + [w for w in {u: 0, v: 0} if w not in front]
        fresh = tuple(range(len(front), len(slots)))  # past every label in use
        su, sv = slots.index(u), slots.index(v)
        keep = [k for k, w in enumerate(slots) if last[w] > i]
        gone = [k for k in {su: 0, sv: 0} if last[slots[k]] == i]  # only ends leave
        front = [slots[k] for k in keep]
        nxt, nodes = {}, []
        for state in level:
            lo = state + fresh  # lo leaves the edge; hi takes it unless it closes a cycle
            a, b = lo[su], lo[sv]
            nodes.append([_next_node([a if c == b else c for c in lo], keep, gone, nxt)
                          if a != b else -1, _next_node(lo, keep, gone, nxt)])
        layers.append(nodes)
        level = nxt
    # bottom-up, each node as (trees, planes) if it has at most TREE_CHUNK
    # trees, else (trees, None, hi, lo); no plane of a node with no tree is read
    below = [(1, []), (0, [])]  # the end, with one tree, and "no node"
    for i in reversed(range(n)):
        d, nodes = n - 1 - i, []  # d planes below level i
        for hi, lo in layers[i]:
            (ch, hp, *_), (cl, lp, *_) = below[hi], below[lo]
            if ch + cl <= TREE_CHUNK:  # one child: its list, shared unless extended
                planes = [a | b << ch for a, b in zip(hp[:d], lp)] if ch and cl else hp if ch else lp
                planes = planes if len(planes) == d else planes[:d]
                planes.append((1 << ch) - 1)  # a child with no tree adds no lane
            nodes.append((ch + cl, planes) if ch + cl <= TREE_CHUNK else (ch + cl, None, below[hi], below[lo]))
        below = nodes + [(0, [])]
    new = SpanningTree.__new__
    stack = [(0, below[0], bytes(n))]  # (level, node, the flags of the edges taken above)
    while stack:  # down the larger nodes, hi before lo, to the blocks
        i, (c, planes, *kids), taken = stack.pop()
        if kids:
            p = pool[i]
            stack += [(i + 1, kids[1], taken), (i + 1, kids[0], taken[:p] + b"\1" + taken[p + 1:])]
        elif c:
            flat, lanes = bytearray(taken * c), f"0{c}b"  # tree j of the block is row c - 1 - j
            for p, plane in zip(pool[i:], reversed(planes[:n - i])):
                flat[p::n] = format(plane, lanes).encode().translate(_FLAG_BYTES)
            flat = bytes(flat)
            for r in range(c * n - n, -1, -n or -1):  # no edge: one tree, r = 0
                st = new(SpanningTree)  # spanning by construction
                st.parent, st.flags, st._internal = graph, flat[r:r + n], None
                yield st


def kirchhoff_tree_count(graph: Multigraph) -> int:
    """The number of spanning trees by Kirchhoff's matrix-tree theorem: the
    determinant of the Laplacian with the first row and column struck out,
    by fraction-free (Bareiss) elimination with no row swap. Loops add
    nothing; each parallel edge counts. The minor is positive semidefinite,
    so each pivot is a leading principal minor, and the first zero one is a
    zero diagonal entry of a semidefinite Schur complement, whose column is
    then zero: the determinant is 0 and the graph disconnected."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(index) - 1
    lap = [[0] * (n + 1) for _ in range(n + 1)]
    for e in graph.edge_ids:
        u, v = (index[w] for w in graph.endpoints(e))
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if not pivot:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return prev
