"""The five evaluators, their agreement, and the cross-check harness."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings

from tuttemap import (
    BivariatePolynomial,
    CombinatorialMap,
    GraphError,
    MapError,
    Multigraph,
    cross_check,
    embed,
    embedding_activities,
    enumerate_spanning_trees,
    erase_check,
    graph_certificate,
    graphs_isomorphic,
    kirchhoff_tree_count,
    motion_function,
    order_activities,
    tutte_deletion_contraction,
    tutte_embedding_activities,
    tutte_order_activities,
    tutte_recursive_map,
    tutte_subgraph_expansion,
)
from tuttemap import engines
from tuttemap.engines import _map_pivot

from helpers import (
    all_rooted_sigmas,
    connected_multigraphs,
    double_edge_graph,
    expansion_coeffs_oracle,
    grid_edges,
    torus_map,
    is_spanning_tree_subset,
    isthmus_graph,
    k3,
    k4,
    loop_graph,
    make_map,
    map_corpus,
    ordered_and_embedded,
    petersen_edges,
    random_connected_multigraphs,
    random_rooted_map,
    relabel_map,
    subgraph_components,
    wheel_edges,
)

P = BivariatePolynomial.parse

ALL_METHODS = (
    lambda g: tutte_subgraph_expansion(g),
    lambda g: tutte_deletion_contraction(g),
    lambda g: tutte_order_activities(g),
    lambda g: tutte_embedding_activities(embed(g)),
    lambda g: tutte_recursive_map(embed(g)),
)


def test_k3_golden():
    expected = P("x^2 + x + y")
    for method in ALL_METHODS:
        assert method(k3()) == expected


def test_single_edge_graphs():
    for method in ALL_METHODS:
        assert method(isthmus_graph()) == P("x")
        assert method(loop_graph()) == P("y")


def test_double_edge():
    for method in ALL_METHODS:
        assert method(double_edge_graph()) == P("x + y")


def test_k4_golden():
    expected = P("x^3 + 3 x^2 + 2 x + 4 x y + 2 y + 3 y^2 + y^3")
    assert expansion_coeffs_oracle(k4()) == expected.terms()
    for method in ALL_METHODS:
        assert method(k4()) == expected


def test_expansion_matches_binomial_oracle():
    rng = random.Random(81)
    graphs = [g for g in connected_multigraphs(4, 4)]
    for g in rng.sample(graphs, 60):
        assert tutte_subgraph_expansion(g).terms() == expansion_coeffs_oracle(g)


def test_edgeless_graph_is_one():
    g = Multigraph([1], {})
    assert tutte_subgraph_expansion(g) == 1
    assert tutte_deletion_contraction(g) == 1
    assert tutte_order_activities(g) == 1


def test_disconnected_rejected_by_every_evaluator():
    g = Multigraph([1, 2, 3], {"a": (1, 2)})
    for fn in (tutte_subgraph_expansion, tutte_deletion_contraction,
               tutte_order_activities):
        with pytest.raises(GraphError, match="connected"):
            fn(g)
    with pytest.raises(MapError, match="connected"):
        embed(g)
    # a map built directly, two one-edge components: the constructor's
    # walk from the root reaches half of it, so no evaluator sees it
    with pytest.raises(MapError, match=r"transitively .*\(reached 2 of 4\)"):
        make_map((0, 1, 2, 3))


def test_map_evaluators_reject_unrooted():
    m = torus_map().with_root(None)
    tree = next(enumerate_spanning_trees(m.underlying_graph()))
    # every tour of a map starts from the one root check
    for tour in (tutte_embedding_activities, lambda m: motion_function(m, tree),
                 lambda m: embedding_activities(m, tree), lambda m: erase_check(m, tree, 0)):
        with pytest.raises(MapError, match="the tour order needs a rooted map"):
            tour(m)
    with pytest.raises(MapError, match="root"):
        tutte_recursive_map(m)


def _branching(*shifts):
    """A pivot that keeps its one state and passes the weight on once per
    (dx, dy) in ``shifts``."""
    return lambda state: [(state, dx, dy) for dx, dy in shifts]


@pytest.mark.parametrize("n", [1, 2, 40, 130])
def test_sweep_packing_holds_at_its_bound(n):
    # two branches per level over n levels drive the coefficient sum to
    # 2^n, the bound the slot width rests on: each result must be the exact
    # binomial expansion, so a carry from one slot into the next fails
    cases = [  # (pivot, vertices, expected terms)
        (_branching((0, 0), (0, 1)), 1,
         {(0, j): math.comb(n, j) for j in range(n + 1)}),  # (1 + y)^n
        (_branching((0, 0), (1, 0)), n + 1,
         {(i, 0): math.comb(n, i) for i in range(n + 1)}),  # (1 + x)^n
        (_branching((1, 0), (0, 1)), 1,
         {(i, n - i): math.comb(n, i) for i in range(n + 1)}),  # (x + y)^n
        (_branching((0, 0), (0, 0)), 1, {(0, 0): 2 ** n}),  # one full slot
    ]
    for pivot, vertices, want in cases:
        t = engines._sweep("s", pivot, n, vertices)
        assert t.terms() == want
        assert t.evaluate(1, 1) == 2 ** n


def test_recursive_map_agrees_with_expansion_on_random_maps():
    rng = random.Random(82)
    for _ in range(50):
        m = random_rooted_map(rng, rng.randint(1, 7))
        expected = tutte_subgraph_expansion(m.underlying_graph())
        assert tutte_recursive_map(m) == expected
        assert tutte_embedding_activities(m) == expected


def _pivot_minors(mm, case):
    """The minors one pivot step must lead to, by the public minor
    operations and the reroot rules: a root on the loop moves to its
    rotation successor, a root alone at the leaf moves across the edge."""
    h0 = mm.root
    hstar = next(h for h in range(mm.n_half_edges) if mm.sigma(h) == h0)
    k = hstar >> 1
    g, eid = mm.underlying_graph(), mm.edge_ids[k]
    assert case.startswith("loop") == g.is_loop(eid)
    if mm.edge_count == 1:
        assert case.endswith("-base")
        return []
    if g.is_loop(eid):
        moved = mm.with_root(mm.sigma(h0)) if h0 == hstar ^ 1 else mm
        return [moved.delete_edge(k)]
    if g.is_isthmus(eid):
        assert case == "isthmus"
        moved = mm.with_root(mm.sigma(hstar ^ 1)) if h0 == hstar else mm
        return [moved.contract_edge(k)]
    assert case == "ordinary"
    return [mm.delete_edge(k), mm.contract_edge(k)]


def _watched_pivots(monkeypatch, m):
    """T of ``m`` by the map recursion, and one (minor, pivot edge id, case,
    depth) event per distinct rooted minor it pivots, the minor built as a
    map on half-edges h0, h1, ... and the case suffixed "-base" on a
    one-edge minor."""
    events = []
    cases = {(0, 1): "loop", (1, 0): "isthmus", (0, 0): "ordinary"}

    def watch(sigma):
        minors = _map_pivot(sigma)
        case = cases[minors[0][1:]]
        mm = CombinatorialMap(sigma, tuple(f"h{i}" for i in range(len(sigma))), 0)
        base = "-base" if mm.edge_count == 1 else ""
        events.append((mm, mm.edge_ids[sigma.index(0) >> 1], case + base,
                       m.edge_count - mm.edge_count + 1))
        return minors

    monkeypatch.setattr(engines, "_map_pivot", watch)
    return tutte_recursive_map(m), events


def test_recursive_map_matches_expansion_on_map_corpus(monkeypatch):
    # the corpus has every 1- and 2-edge rooted map, so the root sits on a
    # leaf and on a loop; each level's minors must be exactly those that
    # the public minor operations give the level before
    for m in map_corpus():
        t, events = _watched_pivots(monkeypatch, m)
        levels: dict = {}
        for mm, _, case, depth in events:
            levels.setdefault(depth, []).append((mm, case))
        assert t == tutte_subgraph_expansion(m.underlying_graph())
        assert [mm.canonical_form() for mm, _ in levels[1]] == [m.canonical_form()]
        for depth in range(1, m.edge_count + 1):
            want = {minor.canonical_form()
                    for mm, case in levels[depth] for minor in _pivot_minors(mm, case)}
            got = {mm.canonical_form() for mm, _ in levels.get(depth + 1, [])}
            assert got == want


def test_recursive_map_pivot_discipline(monkeypatch):
    # the pivot never carries the root except via the two rerooting cases,
    # and the recursion gets exactly one edge shallower per step
    rng = random.Random(83)
    for _ in range(30):
        m = random_rooted_map(rng, rng.randint(1, 6))
        _, events = _watched_pivots(monkeypatch, m)
        for mm, eid, case, depth in events:
            root_edge = mm.edge_ids[mm.root >> 1]
            if case == "ordinary":
                assert root_edge != eid
            if case in ("loop", "isthmus") and root_edge == eid:
                pass  # rerooting rule applies; allowed
            assert depth + mm.edge_count == m.edge_count + 1
        assert max(d for _, _, _, d in events) == m.edge_count


def test_recursive_map_expands_each_rooted_minor_once(monkeypatch):
    # each level of the sweep is keyed on the exact rooted canonical form,
    # so no two pivoted minors of one call are rooted-isomorphic
    rng = random.Random(83)
    for _ in range(30):
        m = random_rooted_map(rng, rng.randint(1, 6))
        _, events = _watched_pivots(monkeypatch, m)
        forms = [mm.canonical_form() for mm, *_ in events]
        assert len(forms) == len(set(forms))


def test_order_independence_100_random_orders():
    rng = random.Random(84)
    for g in (k4(), torus_map().underlying_graph()):
        expected = tutte_subgraph_expansion(g)
        for _ in range(100):
            order = list(g.edge_ids)
            rng.shuffle(order)
            assert tutte_order_activities(g, order) == expected


def test_embedding_independence_sample():
    # small spot check; the acceptance suite does the exhaustive version
    rng = random.Random(85)
    g = torus_map().underlying_graph()
    expected = tutte_subgraph_expansion(g)
    assert tutte_embedding_activities(torus_map()) == expected
    for _ in range(25):
        m = random_rooted_map(rng, 4)
        want = tutte_subgraph_expansion(m.underlying_graph())
        for root in range(m.n_half_edges):
            assert tutte_embedding_activities(m.with_root(root)) == want


def test_evaluation_identities_on_small_corpus():
    rng = random.Random(86)
    graphs = list(connected_multigraphs(4, 4))
    for g in rng.sample(graphs, 80):
        t = tutte_subgraph_expansion(g)
        ids = g.edge_ids
        trees = sum(
            1
            for r in range(len(ids) + 1)
            for s in __import__("itertools").combinations(ids, r)
            if is_spanning_tree_subset(g, s)
        )
        assert t.evaluate(1, 1) == trees
        assert t.evaluate(2, 2) == 2 ** g.edge_count
        # forests: acyclic subsets; connected subgraphs: single component
        import itertools

        forests = sum(
            1
            for r in range(len(ids) + 1)
            for s in itertools.combinations(ids, r)
            if subgraph_components(g, s) == g.vertex_count - len(s)
        )
        connected = sum(
            1
            for r in range(len(ids) + 1)
            for s in itertools.combinations(ids, r)
            if subgraph_components(g, s) == 1
        )
        assert t.evaluate(2, 1) == forests
        assert t.evaluate(1, 2) == connected


def test_four_color_spot_check_small():
    for sigma in all_rooted_sigmas(3):
        m = make_map(sigma)
        if m.euler_characteristic() != 2:
            continue
        g = m.underlying_graph()
        if any(g.is_loop(e) for e in g.edge_ids):
            continue
        assert tutte_embedding_activities(m).evaluate(-3, 0) != 0


def test_graph_certificate_invariance_and_iso():
    rng = random.Random(87)
    for _ in range(60):
        nv = rng.randint(1, 5)
        edges = {
            f"e{i}": (rng.randrange(nv), rng.randrange(nv))
            for i in range(rng.randint(0, 6))
        }
        g = Multigraph(range(nv), edges)
        vperm = list(range(50, 50 + nv))
        rng.shuffle(vperm)
        g2 = Multigraph(
            vperm,
            {f"f{i}": (vperm[u], vperm[v])
             for i, (u, v) in enumerate(g.endpoints(e) for e in g.edge_ids)},
        )
        assert graph_certificate(g) == graph_certificate(g2)
        assert graphs_isomorphic(g, g2)


def test_graphs_isomorphic_detects_differences():
    path3 = Multigraph([1, 2, 3], {"p": (1, 2), "q": (2, 3)})
    star3 = Multigraph([1, 2, 3], {"p": (1, 2), "q": (1, 3)})
    assert graphs_isomorphic(path3, star3)  # same unlabeled tree
    triangle = k3()
    assert not graphs_isomorphic(path3, triangle)
    d1 = Multigraph([1, 2], {"a": (1, 2), "b": (1, 2)})
    d2 = Multigraph([1, 2], {"a": (1, 2), "b": (1, 1)})
    assert not graphs_isomorphic(d1, d2)


def test_delcon_builds_no_minor_graphs_and_no_certificates(monkeypatch):
    # the sweep merges minors on their exact shape: it never builds a
    # Multigraph minor, a certificate or an isomorphism search
    def refuse(*args, **kwargs):
        raise AssertionError("delcon must not call this")

    for name in ("graph_certificate", "graphs_isomorphic"):
        monkeypatch.setattr(engines, name, refuse)
    for name in ("delete", "contract", "is_isthmus"):
        monkeypatch.setattr(Multigraph, name, refuse)
    assert tutte_deletion_contraction(k4()) == P(
        "x^3 + 3 x^2 + 2 x + 4 x y + 2 y + 3 y^2 + y^3"
    )
    assert tutte_deletion_contraction(k3()) == P("x^2 + x + y")


def test_tree_routes_draw_their_trees_through_the_enumerator(monkeypatch):
    # perfbench --trace counts trees by wrapping this very name, and checks
    # the count against Kirchhoff: a route that bypassed it would fail there
    drawn = []

    def counting(graph):
        for st in enumerate_spanning_trees(graph):
            drawn.append(st)
            yield st

    monkeypatch.setattr(engines, "enumerate_spanning_trees", counting)
    graphs = [Multigraph(verts, dict(enumerate(edges)))
              for verts, edges in (petersen_edges(), grid_edges(3, 3), wheel_edges(6))]
    graphs.append(Multigraph([1, 2, 3], {"a": (1, 2), "b": (1, 2), "c": (2, 3), "l": (3, 3)}))
    for g in graphs:
        want = kirchhoff_tree_count(g)
        drawn.clear()
        tutte_order_activities(g)
        assert len(drawn) == want
        drawn.clear()
        tutte_embedding_activities(embed(g))
        assert len(drawn) == want


@settings(max_examples=80)
@given(ordered_and_embedded(max_edges=9))
def test_cross_check_agrees_on_random_graphs(case):
    g, order, m = case
    polys = cross_check(g, [] if m is None else [m], [order])
    assert len(set(polys.values())) == 1
    assert polys["order[0]"].evaluate(1, 1) == kirchhoff_tree_count(g)


@settings(max_examples=150)
@given(random_connected_multigraphs())
def test_delcon_matches_expansion_and_oracle(g):
    t = tutte_deletion_contraction(g)
    assert t == tutte_subgraph_expansion(g)
    assert t.terms() == expansion_coeffs_oracle(g)


@pytest.mark.parametrize("make", [petersen_edges, lambda: grid_edges(3, 4), lambda: wheel_edges(9),
                                  lambda: grid_edges(4, 4), lambda: wheel_edges(10)],
                         ids=["Petersen", "grid3x4", "W9", "grid4x4", "W10"])
def test_delcon_matches_order_activities_on_shuffled_labels(make):
    verts, edges = make()
    ranks = list(range(len(edges)))
    random.Random(86).shuffle(ranks)
    g = Multigraph(verts, {k: uv for k, uv in zip(ranks, edges)})
    assert tutte_deletion_contraction(g) == tutte_order_activities(g)


def _shuffled(verts, edges, rng):
    """The graph with its vertex and edge labels drawn in random order."""
    verts = list(verts)
    names = dict(zip(verts, rng.sample(range(len(verts)), len(verts))))
    ranks = rng.sample(range(len(edges)), len(edges))
    return Multigraph(names.values(),
                      {k: (names[u], names[v]) for k, (u, v) in zip(ranks, edges)})


def _max_frontier(g, order):
    """The most vertices at once that a pivoted edge has touched and that
    still have an unpivoted edge, pivoting the edges in ``order``."""
    left = {v: 0 for v in g.vertices}
    for e in order:
        for w in set(g.endpoints(e)):
            left[w] += 1
    touched: set = set()
    most = 0
    for e in order:
        ends = set(g.endpoints(e))
        touched |= ends
        for w in ends:
            left[w] -= 1
        most = max(most, sum(1 for w in touched if left[w]))
    return most


@settings(max_examples=100)
@given(random_connected_multigraphs())
def test_pivot_order_is_a_permutation_of_the_edges(g):
    assert sorted(engines._pivot_order(g)) == list(range(g.edge_count))


def test_pivot_order_places_loops_and_parallel_edges():
    # numbered a=0, b=1, c=2; a is eliminated first, then b, then c. The
    # loop f sits at a, the loop h at c, b's loop and its parallel pair
    # d, e sit in b's block, in id order.
    g = Multigraph("abc", {"a1": ("a", "b"), "b2": ("b", "b"), "d": ("b", "c"),
                           "e": ("c", "b"), "f": ("a", "a"), "h": ("c", "c")})
    order = [g.edge_ids[i] for i in engines._pivot_order(g)]
    assert order == ["f", "a1", "b2", "d", "e", "h"]
    assert tutte_deletion_contraction(g).terms() == expansion_coeffs_oracle(g)
    loops = Multigraph(["v"], {k: ("v", "v") for k in (3, 1, 2)})
    assert engines._pivot_order(loops) == [0, 1, 2]
    assert tutte_deletion_contraction(loops) == P("y^3")


@pytest.mark.parametrize("make,bound", [
    (lambda: grid_edges(3, 4), 4), (lambda: grid_edges(4, 4), 5), (lambda: grid_edges(4, 8), 5),
    (lambda: wheel_edges(10), 4), (lambda: wheel_edges(20), 4),
], ids=["grid3x4", "grid4x4", "grid4x8", "W10", "W20"])
def test_pivot_order_keeps_the_frontier_small(make, bound):
    # min(r, c) + 1 on an r x c grid, 4 on a wheel, whatever the labels
    verts, edges = make()
    rng = random.Random(31)
    for _ in range(3):
        g = _shuffled(verts, edges, rng)
        order = [g.edge_ids[i] for i in engines._pivot_order(g)]
        assert _max_frontier(g, order) <= bound


def _random_graph(rng, nv, ne):
    """A random recursive tree on nv vertices plus random chords, parallel
    edges allowed, ne edges in all."""
    edges = [(rng.randrange(i), i) for i in range(1, nv)]
    edges += [tuple(rng.sample(range(nv), 2)) for _ in range(ne - len(edges))]
    return range(nv), edges


@pytest.mark.parametrize("make", [lambda: grid_edges(6, 6), lambda: wheel_edges(20),
                                  lambda: _random_graph(random.Random(20), 20, 40)],
                         ids=["grid6x6", "W20", "random20x40"])
def test_delcon_oracles_at_scale(make):
    verts, edges = make()
    g = Multigraph(verts, dict(enumerate(edges)))
    t = tutte_deletion_contraction(g)
    assert t.evaluate(1, 1) == kirchhoff_tree_count(g)
    assert t.evaluate(2, 2) == 2 ** g.edge_count


@pytest.mark.parametrize("make", [lambda: grid_edges(4, 4), lambda: wheel_edges(20)],
                         ids=["grid4x4", "W20"])
def test_recursive_oracles_at_scale(make):
    verts, edges = make()
    g = Multigraph(verts, dict(enumerate(edges)))
    t = tutte_recursive_map(embed(g))
    assert t.evaluate(1, 1) == kirchhoff_tree_count(g)
    assert t.evaluate(2, 2) == 2 ** g.edge_count
    assert t == tutte_deletion_contraction(g)


def test_cross_check_k3_exhaustive_roots_and_rotations():
    from tuttemap import all_rotation_systems

    g = k3()
    embeddings = [
        m.with_root(h)
        for m in all_rotation_systems(g)
        for h in range(m.n_half_edges)
    ]
    orders = [("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c")]
    polys = cross_check(g, embeddings, orders)
    assert len(set(polys.values())) == 1
    assert polys["expansion"] == P("x^2 + x + y")
    assert len(polys) == 2 + len(orders) + 2 * len(embeddings)


def test_cross_check_torus_embeddings():
    from helpers import torus_map_alt

    left, right = torus_map(), torus_map_alt()
    polys = cross_check(left.underlying_graph(), [left, right])
    assert len(set(polys.values())) == 1


def test_cross_check_single_edge():
    polys = cross_check(isthmus_graph(), [embed(isthmus_graph())], [("i",)])
    assert len(set(polys.values())) == 1
    assert polys["expansion"] == P("x")
    polys = cross_check(loop_graph(), [embed(loop_graph())], [("l",)])
    assert len(set(polys.values())) == 1
    assert polys["expansion"] == P("y")


def test_cross_check_rejects_wrong_embedding():
    with pytest.raises(GraphError, match="not an embedding"):
        cross_check(k3(), [embed(k4())])
    # after good embeddings that share one isomorphism test, the foreign
    # one is still named by its own index
    good = embed(k3())
    with pytest.raises(GraphError, match="embedding #2 is not an embedding"):
        cross_check(k3(), [good, good.with_root(1), embed(k4()), good])


def test_cross_check_rejects_an_unrooted_embedding():
    g = k3()
    with pytest.raises(MapError, match="^embedding #1 must be a rooted map$"):
        cross_check(g, [embed(g), embed(g).with_root(None)])


def test_cross_check_walks_once_per_route_family_and_labelled_graph(monkeypatch):
    # the order rows share one walk; m's two rows share another, with one
    # isomorphism test; the relabelled copy has other edge ids, so its own
    real_walk, real_iso = engines.enumerate_spanning_trees, engines.graphs_isomorphic
    walks, tests = [], []
    monkeypatch.setattr(engines, "enumerate_spanning_trees",
                        lambda g: walks.append(g) or real_walk(g))
    monkeypatch.setattr(engines, "graphs_isomorphic",
                        lambda g1, g2: tests.append(g2) or real_iso(g1, g2))
    m = torus_map()
    g = m.underlying_graph()
    polys = cross_check(g, [m, relabel_map(m, random.Random(5)), m], [g.edge_ids])
    assert list(polys) == ["expansion", "delcon", "order[0]"] + [
        f"{route}[{i}]" for i in range(3) for route in ("embedding", "recursive")]
    assert len(set(polys.values())) == 1
    assert len(walks) == 3 and len(tests) == 2
    # two bowties on the same edge ids, with c and d swapped: isomorphic,
    # but with other trees, so a walk each (and none for no order)
    ends = {"a": (0, 1), "b": (1, 2), "c": (2, 0), "d": (2, 3), "e": (3, 4), "f": (4, 2)}
    bowtie = Multigraph(range(5), ends)
    swapped = Multigraph(range(5), {**ends, "c": ends["d"], "d": ends["c"]})
    walks.clear()
    polys = cross_check(bowtie, [embed(bowtie), embed(swapped), embed(bowtie)])
    assert len(set(polys.values())) == 1 and len(walks) == 2


def test_cross_check_builds_planes_once_per_chunk_and_walk(monkeypatch):
    # W9's 5,776 trees make 2 chunks, each over every route's crossover:
    # the 3 orders share one walk and the 3 embeddings of one labelled
    # graph another, and each walk builds a chunk's planes once
    real, built = engines._planes, []
    monkeypatch.setattr(engines, "_planes",
                        lambda chunk, ne: built.append(len(chunk)) or real(chunk, ne))
    verts, edges = wheel_edges(9)
    g = Multigraph(verts, dict(enumerate(edges)))
    rng = random.Random(87)
    orders = [rng.sample(g.edge_ids, g.edge_count) for _ in range(3)]
    polys = cross_check(g, [embed(g, root=r) for r in ("0", "5", "9'")], orders)
    assert len(set(polys.values())) == 1
    assert built == [4096, 1680] * 2


def test_per_tree_tables_expose_monomials():
    def table(graph, activities):
        out = {}
        for st in enumerate_spanning_trees(graph):
            act = activities(st)
            out[tuple(sorted(st.internal_edges))] = (act.internal_count, act.external_count)
        return out

    g = k3()
    assert table(g, lambda st: order_activities(g, ("a", "b", "c"), st)) == {
        ("a", "b"): (2, 0),
        ("a", "c"): (1, 0),
        ("b", "c"): (0, 1),
    }
    m = embed(g, root="a")
    emb_table = table(m.underlying_graph(), lambda st: embedding_activities(m, st))
    assert sorted(emb_table.values()) == [(0, 1), (1, 0), (2, 0)]
