"""Spanning tree enumeration and fundamental cycle/cocycle machinery."""

import itertools
import random

import pytest
from hypothesis import example, given, settings

from tuttemap import (
    GraphError,
    Multigraph,
    SpanningTree,
    enumerate_spanning_trees,
    kirchhoff_tree_count,
    spanning,
    tutte_deletion_contraction,
    tutte_embedding_activities,
    tutte_order_activities,
)
from tuttemap.cmap import embed
from tuttemap.spanning import _pivot_order

from helpers import (
    brute_force_tree_count,
    brute_force_trees,
    connected_multigraphs,
    double_edge_graph,
    isthmus_graph,
    k3,
    k4,
    matrix_tree_count,
    random_connected_multigraphs,
    swap_cocycle_oracle,
    swap_cycle_oracle,
    tree_flags,
)


def walk_trees(g: Multigraph) -> list[frozenset]:
    """The edge-id sets of the backtracking walk's trees, in its order."""
    return [frozenset(e for e, f in zip(g.edge_ids, flags) if f)
            for flags in tree_flags(g.vertex_count, g._numbered_ends())]


def in_pivot_order(g: Multigraph, trees: list[SpanningTree]) -> bool:
    """Whether the trees come in lexicographic order along _pivot_order:
    each tree's pivot ranks, sorted, increase strictly from tree to tree."""
    rank = {p: r for r, p in enumerate(_pivot_order(g))}
    keys = [sorted(rank[p] for p in t.positions) for t in trees]
    return all(a < b for a, b in zip(keys, keys[1:]))


def by_flags(g: Multigraph) -> list[SpanningTree]:
    """The enumerator's trees with their flags in descending order, which is
    the lexicographic order of their sorted edge-id sets."""
    return sorted(enumerate_spanning_trees(g), key=lambda t: t.flags, reverse=True)


def test_k3_has_three_trees():
    trees = by_flags(k3())
    assert len(trees) == 3
    assert [sorted(t.internal_edges) for t in trees] == [
        ["a", "b"], ["a", "c"], ["b", "c"],
    ]
    # the walk yields them in that order
    assert [sorted(t) for t in walk_trees(k3())] == [["a", "b"], ["a", "c"], ["b", "c"]]


def test_tree_input_yields_itself():
    g = Multigraph([1, 2, 3, 4], {"p": (1, 2), "q": (2, 3), "r": (2, 4)})
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == 1
    assert trees[0].internal_edges == frozenset({"p", "q", "r"})


def test_parallel_edges_give_k_trees():
    for k in (1, 2, 3, 5):
        g = Multigraph([1, 2], {f"e{i}": (1, 2) for i in range(k)})
        got = [t.internal_edges for t in enumerate_spanning_trees(g)]
        assert got == [frozenset({t}) for t in sorted(g.edge_ids)]
        assert len(got) == k == len(brute_force_trees(g))


def test_enumeration_matches_subset_oracle():
    rng = random.Random(51)
    for _ in range(40):
        nv = rng.randint(1, 5)
        edges = {
            f"e{i}": (rng.randrange(nv), rng.randrange(nv))
            for i in range(rng.randint(0, 7))
        }
        g = Multigraph(range(nv), edges)
        if not g.is_connected():
            continue
        trees = list(enumerate_spanning_trees(g))
        got = [t.internal_edges for t in trees]
        assert sorted(map(sorted, got)) == sorted(
            map(sorted, brute_force_trees(g))
        )
        assert len(set(got)) == len(got)
        assert in_pivot_order(g, trees)
        # the walk's is lexicographic in the sorted edge ids, with the same trees
        walk = walk_trees(g)
        assert walk == sorted(walk, key=sorted) == [t.internal_edges for t in by_flags(g)]


def test_yielded_trees_own_their_data():
    rng = random.Random(53)
    graphs = [k4(), double_edge_graph(),
              Multigraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (1, 3), "l": (2, 2)})]
    while len(graphs) < 25:
        nv = rng.randint(2, 5)
        edges = {f"e{i}": (rng.randrange(nv), rng.randrange(nv))
                 for i in range(rng.randint(nv, 8))}
        g = Multigraph(range(nv), edges)
        if g.is_connected():
            graphs.append(g)
    for g in graphs:
        trees = by_flags(g)  # the enumeration is over before any read
        expected = sorted(brute_force_trees(g), key=sorted)  # descending flags' order
        assert len(trees) == len(expected)
        for t, want in zip(trees, expected):
            assert isinstance(t.flags, bytes)
            assert t.flags == bytes([e in want for e in g.edge_ids])
            assert t.positions == [p for p, e in enumerate(g.edge_ids) if e in want]
            assert t.internal_edges == want
            assert t == SpanningTree(g, want)


def test_loops_never_internal():
    g = Multigraph([1, 2], {"i": (1, 2), "l": (1, 1), "m": (2, 2)})
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == 1 and trees[0].internal_edges == frozenset({"i"})


def test_disconnected_rejected():
    g = Multigraph([1, 2], {})
    with pytest.raises(GraphError, match="connected"):
        list(enumerate_spanning_trees(g))


def test_spanning_tree_validation():
    g = k3()
    with pytest.raises(GraphError, match="not a spanning tree"):
        SpanningTree(g, ["a"])
    with pytest.raises(GraphError, match="not a spanning tree"):
        SpanningTree(g, ["a", "b", "c"])
    with pytest.raises(GraphError, match="unknown edge"):
        SpanningTree(g, ["a", "zzz"])
    # a repeat is named, not dropped: {a, b} is a spanning tree of K3
    with pytest.raises(GraphError, match="'a' is listed twice"):
        SpanningTree(g, ["a", "b", "a"])


def test_fundamental_cycle_k3():
    g = k3()
    t = SpanningTree(g, ["a", "b"])
    assert t.fundamental_cycle("c") == frozenset({"a", "b", "c"})
    assert t.fundamental_cycle("c") == swap_cycle_oracle(g, t.internal_edges, "c")
    with pytest.raises(GraphError, match="internal"):
        t.fundamental_cycle("a")


def test_fundamental_cycle_of_loop_is_itself():
    g = Multigraph([1, 2], {"i": (1, 2), "l": (1, 1)})
    t = SpanningTree(g, ["i"])
    assert t.fundamental_cycle("l") == frozenset({"l"})


def test_fundamental_cycle_double_edge():
    g = double_edge_graph()
    t = SpanningTree(g, ["e1"])
    assert t.fundamental_cycle("e2") == frozenset({"e1", "e2"})


def test_fundamental_cocycle_k3():
    g = k3()
    t = SpanningTree(g, ["a", "b"])
    assert t.fundamental_cocycle("a") == frozenset({"a", "c"})
    assert t.fundamental_cocycle("a") == swap_cocycle_oracle(g, t.internal_edges, "a")
    with pytest.raises(GraphError, match="external"):
        t.fundamental_cocycle("c")


def test_fundamental_cocycle_of_lone_isthmus():
    g = isthmus_graph()
    t = SpanningTree(g, ["i"])
    assert t.fundamental_cocycle("i") == frozenset({"i"})


def test_fundamental_cocycle_parallel_edges():
    g = Multigraph([1, 2], {f"e{i}": (1, 2) for i in range(4)})
    t = SpanningTree(g, ["e0"])
    assert t.fundamental_cocycle("e0") == frozenset(g.edge_ids)


def test_fundamental_sets_match_swap_oracle_exhaustively():
    for g in connected_multigraphs(4, 5):
        if g.edge_count > 5:
            continue
        for t in enumerate_spanning_trees(g):
            tree = t.internal_edges
            for e in g.edge_ids:
                if e in tree:
                    assert t.fundamental_cocycle(e) == swap_cocycle_oracle(g, tree, e)
                else:
                    assert t.fundamental_cycle(e) == swap_cycle_oracle(g, tree, e)


def test_duality_of_fundamental_sets():
    # internal e lies in the cycle of external f iff f lies in the cocycle of e
    count = 0
    for g in connected_multigraphs(4, 6):
        if g.edge_count > 6 or g.edge_count < 2:
            continue
        count += 1
        if count > 400:
            break
        for t in enumerate_spanning_trees(g):
            for e in t.internal_edges:
                cocycle = t.fundamental_cocycle(e)
                for f in g.edge_ids:
                    if f in t.internal_edges:
                        continue
                    assert (e in t.fundamental_cycle(f)) == (f in cocycle)


def test_fundamental_sets_have_one_crossing_member():
    for g in connected_multigraphs(4, 4):
        for t in enumerate_spanning_trees(g):
            for e in g.edge_ids:
                if e in t.internal_edges:
                    cocycle = t.fundamental_cocycle(e)
                    assert cocycle & t.internal_edges == {e}
                else:
                    cycle = t.fundamental_cycle(e)
                    assert cycle - t.internal_edges == {e}


def test_tree_count_matches_kirchhoff():
    cases = [k3(), k4(), double_edge_graph(), isthmus_graph()]
    rng = random.Random(52)
    for _ in range(20):
        nv = rng.randint(2, 5)
        edges = {
            f"e{i}": (rng.randrange(nv), rng.randrange(nv))
            for i in range(rng.randint(nv, 8))
        }
        g = Multigraph(range(nv), edges)
        if g.is_connected():
            cases.append(g)
    for g in cases:
        count = len(list(enumerate_spanning_trees(g)))
        assert count == matrix_tree_count(g) == kirchhoff_tree_count(g)
    # the library count on its own: no tree, one tree, a long cycle
    assert kirchhoff_tree_count(Multigraph([1, 2, 3], {"a": (1, 2)})) == 0
    assert kirchhoff_tree_count(Multigraph([1], {"l": (1, 1)})) == 1
    cycle = Multigraph(range(300), {i: (i, (i + 1) % 300) for i in range(300)})
    assert kirchhoff_tree_count(cycle) == 300


def test_kirchhoff_matches_brute_force_on_every_small_multigraph():
    # Bareiss with no row swap: each pivot is a leading principal minor of
    # the semidefinite reduced Laplacian, so a zero one ends the count
    count = 0
    for g in connected_multigraphs(5, 7):
        assert kirchhoff_tree_count(g) == brute_force_tree_count(g)
        count += 1
    assert count == 53_886


def test_connected_multigraphs_keeps_every_connected_endpoint_list():
    # the union-find filter keeps the graphs that the graph's own
    # connectivity test keeps, in the same order
    kept = []
    for nv in range(1, 5):
        pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
        for ne in range(6):
            for combo in itertools.combinations_with_replacement(pairs, ne):
                g = Multigraph(range(nv), {f"e{i}": uv for i, uv in enumerate(combo)})
                if g.is_connected():
                    kept.append(g)
    assert list(connected_multigraphs(4, 5)) == kept


@pytest.mark.parametrize("vertices, edges", [
    ([1, 2, 3], {"a": (1, 3)}),  # vertex 2 is isolated: the very first pivot is 0
    ([1, 2, 3], {"l": (2, 2), "a": (1, 3)}),  # vertex 2 has only a loop
    ([1, 2, 3], {"a": (1, 2), "l": (3, 3), "m": (3, 3)}),  # the last, only loops
    ([1, 2, 3, 4], {"a": (1, 2), "b": (3, 4)}),  # pivots 1, 1, then 0
])
def test_kirchhoff_is_zero_on_disconnected_graphs(vertices, edges):
    g = Multigraph(vertices, edges)
    assert not g.is_connected()
    assert kirchhoff_tree_count(g) == 0 == brute_force_tree_count(g) == len(brute_force_trees(g))


def test_streams_restart_independently():
    g = k4()
    s1 = enumerate_spanning_trees(g)
    first = next(s1)
    s2 = enumerate_spanning_trees(g)
    assert next(s2).internal_edges == first.internal_edges
    assert len(list(s2)) == 15  # the 16 trees of K4 minus the one consumed


@settings(max_examples=200)
@given(random_connected_multigraphs())
@example(Multigraph(["v"], {}))
@example(Multigraph(["v"], {"l0": ("v", "v"), "l1": ("v", "v")}))
def test_frontier_dag_gives_the_walks_trees(g):
    # loops, parallel edges, int and str ids, one-vertex graphs; blocks of
    # at most 1 or 3 trees send the walk down the DAG's larger nodes
    walk = sorted(tree_flags(g.vertex_count, g._numbered_ends()))
    assert len(walk) == kirchhoff_tree_count(g)
    for chunk in (spanning.TREE_CHUNK, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spanning, "TREE_CHUNK", chunk)
            trees = list(enumerate_spanning_trees(g))
        assert sorted(t.flags for t in trees) == walk
        assert in_pivot_order(g, trees)


def test_frontier_dag_on_every_small_multigraph(monkeypatch):
    # every connected multigraph on at most 4 vertices with at most 6 edges:
    # loops, parallel edges and one-vertex graphs; blocks of at most 3 trees
    # send the walk down the DAG's larger nodes
    graphs = list(connected_multigraphs(4, 6))
    assert len(graphs) == 3181
    walks = [sorted(tree_flags(g.vertex_count, g._numbered_ends())) for g in graphs]
    for chunk in (spanning.TREE_CHUNK, 3):
        monkeypatch.setattr(spanning, "TREE_CHUNK", chunk)
        for g, walk in zip(graphs, walks):
            trees = list(enumerate_spanning_trees(g))
            assert sorted(t.flags for t in trees) == walk
            assert in_pivot_order(g, trees)


@pytest.mark.parametrize("vertices, edges", [
    ([1, 2], {}),
    ([1, 2], {"l": (1, 1), "m": (2, 2)}),
    ([1, 2, 3], {"a": (1, 2)}),
    ([1, 2, 3, 4], {"a": (1, 2), "b": (3, 4), "c": (4, 4)}),
])
def test_both_enumerations_refuse_a_disconnected_graph(vertices, edges):
    g = Multigraph(vertices, edges)
    for trees in (enumerate_spanning_trees(g),
                  tree_flags(g.vertex_count, g._numbered_ends())):
        with pytest.raises(GraphError, match="^spanning trees need a connected graph$"):
            list(trees)


def wheel(rim: int) -> Multigraph:
    edges = {f"r{i}": (i, i % rim + 1) for i in range(1, rim + 1)}
    edges.update({f"s{i}": (0, i) for i in range(1, rim + 1)})
    return Multigraph(range(rim + 1), edges)


@pytest.mark.parametrize("chunk", [spanning.TREE_CHUNK, 64])
def test_frontier_dag_on_w10_in_blocks(monkeypatch, chunk):
    # W10's 15,125 trees make 4 chunks of the tree routes; blocks of at
    # most 64 trees put at least 237 blocks under the DAG's larger nodes
    g = wheel(10)
    monkeypatch.setattr(spanning, "TREE_CHUNK", chunk)
    walk = walk_trees(g)
    assert len(walk) == 15125
    assert in_pivot_order(g, list(enumerate_spanning_trees(g)))
    assert [t.internal_edges for t in by_flags(g)] == walk


def test_k6_polynomials_do_not_depend_on_the_block_size(monkeypatch):
    k6 = Multigraph(range(6), {f"{u}{v}": (u, v) for u in range(6) for v in range(u + 1, 6)})
    emb = embed(k6)
    want = tutte_deletion_contraction(k6)
    assert tutte_order_activities(k6) == tutte_embedding_activities(emb) == want
    monkeypatch.setattr(spanning, "TREE_CHUNK", 64)
    assert tutte_order_activities(k6) == tutte_embedding_activities(emb) == want
