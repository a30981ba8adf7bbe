"""Tours, tour orders, and both activity notions."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tuttemap import (
    BivariatePolynomial,
    CombinatorialMap,
    GraphError,
    MapError,
    MotionNotCyclicError,
    Multigraph,
    SpanningTree,
    cross_check,
    embed,
    embedding_activities,
    enumerate_rooted_maps,
    enumerate_spanning_trees,
    erase_check,
    motion_function,
    order_activities,
    tutte_deletion_contraction,
    tutte_embedding_activities,
    tutte_order_activities,
    tutte_subgraph_expansion,
)
from tuttemap import activity, engines
from tuttemap.activity import (_erase_walk, _lane_sum, _order_args, _order_batch,
                               _order_kernel, _planes, _tour_args, _tour_batch)
from tuttemap.mapenum import _census_sigmas

from helpers import (
    TORUS_TREE,
    census_ends,
    connected_multigraphs,
    cyclic_equal,
    expansion_coeffs_oracle,
    grid_edges,
    is_spanning_tree_subset,
    make_map,
    torus_map,
    k3,
    map_corpus,
    ordered_and_embedded,
    petersen_edges,
    random_rooted_map,
    single_isthmus_map,
    single_loop_map,
    swap_cocycle_oracle,
    swap_cycle_oracle,
    tree_flags,
    uncached_erase_walk,
    wheel_edges,
)


def test_torus_map_tour_cycle():
    order = motion_function(torus_map(), TORUS_TREE)
    assert order.cycle == (
        "a", "e", "f", "c", "a'", "f'", "b", "c'", "e'", "b'", "d", "d'",
    )


def test_torus_map_half_edge_order():
    order = motion_function(torus_map(), TORUS_TREE)
    assert order.half_edge_order == (
        "a", "e", "f", "c", "a'", "f'", "b", "c'", "e'", "b'", "d", "d'",
    )
    assert order.half_edge_rank["a"] == 0
    assert order.half_edge_rank["d'"] == 11


def test_torus_map_edge_order():
    order = motion_function(torus_map(), TORUS_TREE)
    assert order.edge_order == ("aa'", "ee'", "ff'", "cc'", "bb'", "dd'")


def test_motion_follows_rank():
    order = motion_function(torus_map(), TORUS_TREE)
    n = len(order.cycle)
    for h, nxt in order.motion.items():
        assert order.half_edge_rank[nxt] == (order.half_edge_rank[h] + 1) % n


def test_motion_requires_root_and_tree():
    m = torus_map().with_root(None)
    with pytest.raises(MapError, match="root"):
        motion_function(m, TORUS_TREE)
    with pytest.raises(GraphError, match="not a spanning tree"):
        motion_function(torus_map(), ["aa'", "bb'"])


def test_torus_map_embedding_activities():
    act = embedding_activities(torus_map(), TORUS_TREE)
    assert act.internal_active == frozenset({"aa'", "dd'"})
    assert act.external_active == frozenset()
    assert (act.internal_count, act.external_count) == (2, 0)


def test_single_edge_maps_are_active():
    act = embedding_activities(single_isthmus_map(), ["hh'"])
    assert act.internal_active == frozenset({"hh'"})
    act = embedding_activities(single_loop_map(), [])
    assert act.external_active == frozenset({"hh'"})


def test_torus_map_erase_checks_worked_example():
    m = torus_map()
    # deleting the external edge ee' leaves (a f c a' f' b c' b' d d')
    k = m.edge_index("ee'")
    minor = m.delete_edge(k)
    tour = motion_function(minor, TORUS_TREE)
    assert tour.cycle == ("a", "f", "c", "a'", "f'", "b", "c'", "b'", "d", "d'")
    assert erase_check(m, TORUS_TREE, "ee'")
    # contracting the internal edge bb' leaves (a e f c a' f' c' e' d d')
    minor = m.contract_edge(m.edge_index("bb'"))
    tour = motion_function(minor, ("aa'", "dd'"))
    assert tour.cycle == ("a", "e", "f", "c", "a'", "f'", "c'", "e'", "d", "d'")
    assert erase_check(m, TORUS_TREE, "bb'")


def _erase_oracle(m, st, k) -> bool:
    """The erase fact through map objects: delete or contract edge k as a
    validated minor map (rerooted when the root is on k), tour it, and
    compare cyclically with the tree's tour less k's two half-edges. A
    one-edge map has no minor map; its tour less the edge is empty."""
    eid = m.edge_ids[k]
    removed = {m.name(2 * k), m.name(2 * k + 1)}
    expected = [nm for nm in motion_function(m, st).cycle if nm not in removed]
    if m.edge_count == 1:
        return not expected
    if m.root >> 1 == k:
        m = m.with_root(next(h for h in range(m.n_half_edges) if h >> 1 != k))
    if eid in st.internal_edges:
        minor = m.contract_edge(k)
        minor_tree = st.internal_edges - {eid}
    else:
        minor = m.delete_edge(k)
        minor_tree = st.internal_edges
    return cyclic_equal(motion_function(minor, minor_tree).cycle, expected)


def test_erase_check_random_maps():
    # loops and parallel edges included; the flat walk must agree with the
    # map-object oracle on every (tree, edge) pair, and the fact must hold
    rng = random.Random(61)
    for _ in range(40):
        m = random_rooted_map(rng, rng.randint(1, 6))
        walk = _erase_walk(m)
        for st in enumerate_spanning_trees(m.underlying_graph()):
            for k, eid in enumerate(m.edge_ids):
                assert (erase_check(m, st, eid), _erase_oracle(m, st, k)) == (True, True)
            assert walk(st.flags, range(m.edge_count))


def test_erase_walk_splices_each_minor_once(monkeypatch):
    # a minor depends only on the edge and on whether the tree holds it, so
    # the walk bypasses each (edge, contract) pair once, however many trees
    real = activity._bypass
    bypassed = []

    def counting(sigma, k, contract):
        bypassed.append((k, bool(contract)))
        return real(sigma, k, contract)

    monkeypatch.setattr(activity, "_bypass", counting)
    rng = random.Random(62)
    for _ in range(10):
        m = random_rooted_map(rng, rng.randint(3, 6))
        bypassed.clear()
        walk = _erase_walk(m)
        trees = list(enumerate_spanning_trees(m.underlying_graph()))
        assert all(walk(st.flags, range(m.edge_count)) for st in trees)
        assert len(bypassed) == len(set(bypassed)) <= 2 * m.edge_count


def _swapped(real):
    def bypass(sigma, k, contract):
        minor = real(sigma, k, contract)
        off = [h for h in range(len(minor)) if h >> 1 != k]
        if off:  # a one-edge map has no entry off k
            a, b = off[0], off[-1]
            minor[a], minor[b] = minor[b], minor[a]
        return minor
    return bypass


def _deleting(real):
    return lambda sigma, k, contract: real(sigma, k, False)


def _mirrored(real):
    def bypass(sigma, k, contract):
        minor = real(sigma, k, contract)
        inverse = list(minor)
        for h, s in enumerate(minor):
            if h >> 1 != k:
                inverse[s] = h
        return inverse
    return bypass


@pytest.mark.parametrize("fault", [None, _swapped, _deleting, _mirrored],
                         ids=["intact", "swapped", "deleting", "mirrored"])
def test_erase_walk_matches_the_uncached_walk_tree_by_tree(monkeypatch, fault):
    # the shared walk decides each (edge, contract) key once per map; its
    # verdict on every tree of every rooted map with at most 4 edges must
    # be the uncached walk's, with _bypass intact and under three faults
    if fault is not None:
        monkeypatch.setattr(activity, "_bypass", fault(activity._bypass))
    verdicts = Counter()
    for n in range(1, 5):
        for m in enumerate_rooted_maps(n):
            shared, reference = _erase_walk(m), uncached_erase_walk(m)
            for st in enumerate_spanning_trees(m.underlying_graph()):
                ok = shared(st.flags, range(n))
                assert ok == reference(st.flags, range(n))
                verdicts[ok] += 1
    assert sum(verdicts.values()) > 1000
    assert verdicts[False] == 0 if fault is None else verdicts[False] > 0


def test_erase_check_rejects_unknown_edges():
    m = embed(k3(), root="a")
    tree = next(enumerate_spanning_trees(m.underlying_graph()))
    for edge in (-1, m.edge_count, "nope"):
        with pytest.raises(MapError):
            erase_check(m, tree, edge)


def test_tour_is_single_cycle_everywhere():
    rng = random.Random(62)
    for _ in range(60):
        m = random_rooted_map(rng, rng.randint(1, 6))
        for st in enumerate_spanning_trees(m.underlying_graph()):
            order = motion_function(m, st)
            assert len(order.cycle) == m.n_half_edges
            assert len(set(order.cycle)) == m.n_half_edges
            assert order.cycle[0] == m.root_name


def test_loops_and_isthmuses_always_active():
    rng = random.Random(63)
    for _ in range(40):
        m = random_rooted_map(rng, rng.randint(1, 5))
        g = m.underlying_graph()
        loops = {e for e in g.edge_ids if g.is_loop(e)}
        isthmuses = {e for e in g.edge_ids if g.is_isthmus(e)}
        for st in enumerate_spanning_trees(g):
            act = embedding_activities(m, st)
            assert loops <= act.external_active
            assert isthmuses <= act.internal_active


def test_order_activities_k3():
    g = k3()
    order = ["a", "b", "c"]
    monomials = []
    # descending flags: the lexicographic order of the sorted edge ids
    for st in sorted(enumerate_spanning_trees(g), key=lambda st: st.flags, reverse=True):
        act = order_activities(g, order, st)
        monomials.append((act.internal_count, act.external_count))
    # trees {a,b}, {a,c}, {b,c} contribute x^2, x, y in that order
    assert monomials == [(2, 0), (1, 0), (0, 1)]


def test_order_activities_tree_graph_all_internal():
    g = Multigraph([1, 2, 3], {"p": (1, 2), "q": (2, 3)})
    st = SpanningTree(g, ["p", "q"])
    act = order_activities(g, ["p", "q"], st)
    assert act.internal_active == frozenset({"p", "q"})
    assert act.external_active == frozenset()


def test_order_activities_single_loop():
    g = Multigraph([1], {"l": (1, 1)})
    st = SpanningTree(g, [])
    act = order_activities(g, ["l"], st)
    assert act.external_active == frozenset({"l"})


def test_partial_order_rejected(monkeypatch):
    g = k3()
    st = SpanningTree(g, ["a", "b"])
    with pytest.raises(GraphError, match="every edge"):
        order_activities(g, ["a", "b"], st)
    with pytest.raises(GraphError, match="every edge"):
        order_activities(g, ["a", "b", "c", "c"], st)
    with pytest.raises(GraphError, match="every edge"):
        tutte_order_activities(g, ["a", "b"])
    with pytest.raises(GraphError, match="every edge"):
        tutte_order_activities(g, ["a", "b", "c", "c"])
    with pytest.raises(GraphError, match="every edge"):
        order_activities(g, ["a", "b", "z"], st)
    # cross_check refuses the order as it sets the route up, before a walk
    walked = []
    monkeypatch.setattr(engines, "enumerate_spanning_trees",
                        lambda graph: walked.append(graph) or iter(()))
    with pytest.raises(GraphError, match="^order must list every edge id exactly once$"):
        cross_check(g, orders=[["a", "b"]])
    assert walked == []


def test_k3_embedding_monomial_multiset():
    # some rooted embedding of the triangle distributes {x, x^2, y}
    m = embed(k3(), root="a")
    monomials = sorted(
        (act.internal_count, act.external_count)
        for act in (
            embedding_activities(m, st)
            for st in enumerate_spanning_trees(m.underlying_graph())
        )
    )
    assert monomials == [(0, 1), (1, 0), (2, 0)]


def test_generating_function_root_invariant_but_terms_move():
    corpus = [m for m in map_corpus(per_size=6, max_edges=4) if m.edge_count >= 2]
    rng = random.Random(64)
    moved = 0
    for m in rng.sample(corpus, 12):
        reference = tutte_subgraph_expansion(m.underlying_graph())
        base_terms = _tree_terms(m)
        for root in range(m.n_half_edges):
            m2 = m.with_root(root)
            total = sum_terms(_tree_terms(m2))
            assert total == reference
            if _tree_terms(m2) != base_terms:
                moved += 1
    assert moved > 0  # individual activities do depend on the root


def _tree_terms(m):
    out = {}
    for st in enumerate_spanning_trees(m.underlying_graph()):
        act = embedding_activities(m, st)
        out[tuple(sorted(st.internal_edges))] = (
            act.internal_count, act.external_count,
        )
    return out


def sum_terms(table):
    from tuttemap import X, Y, ZERO

    total = ZERO
    for i, e in table.values():
        total = total + X**i * Y**e
    return total


def test_erase_check_when_root_on_removed_edge():
    m = torus_map()
    # the root a sits on aa'; the minor is toured from the first surviving
    # half-edge of the tour, so no reroot is needed
    assert erase_check(m, TORUS_TREE, "aa'")


def test_cyclic_equal_helper():
    assert cyclic_equal("abc", "cab")
    assert not cyclic_equal("abc", "acb")


def _minimal_by_swap_oracles(g, tree, rank):
    """Active sets straight from the definition: the edges that are
    rank-minimal in their swap-test fundamental cycle or cocycle."""
    def minimal(e, region):
        return rank[e] == min(rank[f] for f in region)

    internal = {e for e in tree if minimal(e, swap_cocycle_oracle(g, tree, e))}
    external = {
        e for e in g.edge_ids
        if e not in tree and minimal(e, swap_cycle_oracle(g, tree, e))
    }
    return internal, external


def test_embedding_activities_match_definition_on_map_corpus():
    pairs = 0
    for m in map_corpus():
        g = m.underlying_graph()
        for st in enumerate_spanning_trees(g):
            rank = motion_function(m, st).edge_rank
            act = embedding_activities(m, st)
            expected = _minimal_by_swap_oracles(g, st.internal_edges, rank)
            assert (act.internal_active, act.external_active) == expected
            pairs += 1
    assert pairs > 500


@settings(max_examples=120)
@given(ordered_and_embedded())
def test_embedding_activities_match_definition_on_random_rooted_maps(case):
    _, _, m = case
    if m is None:
        return
    mg = m.underlying_graph()
    for st in enumerate_spanning_trees(mg):
        rank = motion_function(m, st).edge_rank
        act = embedding_activities(m, st)
        expected = _minimal_by_swap_oracles(mg, st.internal_edges, rank)
        assert (act.internal_active, act.external_active) == expected


def _flags(m, edges) -> bytes:
    """The flags of the given edge ids of ``m``."""
    return bytes([e in edges for e in m.underlying_graph().edge_ids])


def _scan(m, edges):
    """The tour kernel on the flags of the given edge ids of ``m``."""
    return activity._scan(*_tour_args(m))(_flags(m, edges))


def test_tour_kernel_rejects_a_cycle_and_a_forest():
    # two crossing loops on one vertex: one face, so the tour closes and only
    # the tree gate catches it
    bouquet = make_map((2, 3, 1, 0))
    with pytest.raises(MotionNotCyclicError, match="mark no spanning tree"):
        _scan(bouquet, {"h0h1", "h2h3"})
    assert _scan(bouquet, set()) == ([], [0, 1])
    # a triangle splits the planar tour in two
    triangle = embed(k3())
    with pytest.raises(MotionNotCyclicError, match="closed after"):
        _scan(triangle, {"aa'", "bb'", "cc'"})
    # a forest that leaves a vertex out never reaches its half-edges
    with pytest.raises(MotionNotCyclicError, match="closed after"):
        _scan(triangle, {"aa'"})


def test_tour_kernel_raises_on_every_edge_set_but_a_spanning_tree():
    checked = 0
    for m in map_corpus(per_size=25, max_edges=5):
        g = m.underlying_graph()
        ids = g.edge_ids
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                if is_spanning_tree_subset(g, subset):
                    _scan(m, set(subset))
                else:
                    with pytest.raises(MotionNotCyclicError):
                        _scan(m, set(subset))
                    checked += 1
    assert checked > 1000


def test_order_activities_match_definition_on_random_orders():
    rng = random.Random(65)
    pairs = 0
    for g in connected_multigraphs(4, 5):
        order = list(g.edge_ids)
        rng.shuffle(order)
        rank = {e: i for i, e in enumerate(order)}
        for st in enumerate_spanning_trees(g):
            act = order_activities(g, order, st)
            expected = _minimal_by_swap_oracles(g, st.internal_edges, rank)
            assert (act.internal_active, act.external_active) == expected
            pairs += 1
    assert pairs > 500


@settings(max_examples=150)
@given(ordered_and_embedded())
def test_both_activity_sums_match_the_expansion_oracle(case):
    g, order, m = case
    expected = expansion_coeffs_oracle(g)
    assert tutte_order_activities(g, order).terms() == expected
    if m is not None:
        assert tutte_embedding_activities(m).terms() == expected


def _lanes(masks: list, i: int) -> list:
    """The edge positions whose mask holds lane i."""
    return [p for p, mask in enumerate(masks) if mask >> i & 1]


def _batched(batch, chunk: list) -> tuple[list, list]:
    """A batch kernel applied to a chunk of tree flags, on the planes and
    lane mask that ``engines._tree_sum`` builds for it."""
    return batch(_planes(chunk, len(chunk[0])), (1 << len(chunk)) - 1)


def _checked_batches(seen: list, chunks: list, make_batch=_order_batch,
                     make_kernel=_order_kernel):
    """A stand-in for a batch kernel's builder (``_order_batch`` or
    ``_tour_batch``) that requires every lane of every chunk to hold the
    per-tree kernel's active positions for that tree, and records each
    chunk's trees, read back from its planes, and size."""

    def make(*args):
        batch, kernel = make_batch(*args), make_kernel(*args)

        def run(planes, full):
            internal, external = batch(planes, full)
            chunk = [bytes(plane >> i & 1 for plane in planes)
                     for i in range(full.bit_length())]
            assert len(internal) == len(external) == len(planes)
            assert all(m >> len(chunk) == 0 for m in internal + external)
            for i, flags in enumerate(chunk):
                want_internal, want_external = kernel(flags)
                assert _lanes(internal, i) == sorted(want_internal)
                assert _lanes(external, i) == sorted(want_external)
            seen.extend(chunk)
            chunks.append(len(chunk))
            return internal, external

        return run

    return make


@settings(max_examples=120)
@given(ordered_and_embedded())
def test_order_batch_matches_the_order_kernel_per_tree(case):
    # each lane against the per-tree kernel, not only the sum, with chunk
    # boundaries after every 1, 2 and 3 trees and in one whole chunk
    g, order, _ = case
    trees = [st.flags for st in enumerate_spanning_trees(g)]
    expected = expansion_coeffs_oracle(g)
    for size in (1, 2, 3, engines.TREE_CHUNK):
        seen, chunks = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engines, "TREE_CHUNK", size)
            mp.setattr(engines, "BATCH_TREES_PER_EDGE", 0)
            mp.setattr(engines, "_order_batch", _checked_batches(seen, chunks))
            assert tutte_order_activities(g, order).terms() == expected
        assert seen == trees
        assert chunks == [min(size, len(trees) - k) for k in range(0, len(trees), size)]


@pytest.mark.parametrize("loops", [0, 1, 3])
def test_order_batch_on_a_single_vertex(monkeypatch, loops):
    # no edge, or only loops: one tree, every loop externally active
    g = Multigraph(["v"], {f"l{i}": ("v", "v") for i in range(loops)})
    batch = _order_batch(*_order_args(g, g.edge_ids))
    internal, external = _batched(batch, [b"\0" * loops])
    assert (internal, external) == ([0] * loops, [1] * loops)
    want = BivariatePolynomial.monomial(0, loops)
    assert _lane_sum(internal, external, 1) == want
    seen, chunks = [], []
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 0)
    monkeypatch.setattr(engines, "_order_batch", _checked_batches(seen, chunks))
    assert tutte_order_activities(g) == want
    assert chunks == [1]


def test_order_route_chooses_its_kernel_per_chunk(monkeypatch):
    # K4 has 16 trees and 6 edges: chunks of 10 and 6 trees, with the
    # crossover at 1.5 trees per edge, send 10 >= 9 trees to the batch
    # kernel and 6 < 9 to the per-tree kernel
    g = Multigraph([1, 2, 3, 4], dict(enumerate(itertools.combinations([1, 2, 3, 4], 2))))
    seen, chunks = [], []
    monkeypatch.setattr(engines, "TREE_CHUNK", 10)
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 1.5)
    monkeypatch.setattr(engines, "_order_batch", _checked_batches(seen, chunks))
    assert tutte_order_activities(g) == tutte_subgraph_expansion(g)
    assert chunks == [10]
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 3)
    chunks.clear()
    assert tutte_order_activities(g) == tutte_subgraph_expansion(g)
    assert chunks == []


def _checked_tours(seen: list, chunks: list):
    return _checked_batches(seen, chunks, _tour_batch, activity._scan)


@settings(max_examples=120)
@given(ordered_and_embedded())
def test_tour_batch_matches_the_tour_kernel_per_tree(case):
    # each lane against _scan, under a random rotation system (any genus)
    # and root, with chunk boundaries after every 1, 2 and 3 trees and in
    # one whole chunk
    g, _, m = case
    if m is None:
        return
    trees = [st.flags for st in enumerate_spanning_trees(m.underlying_graph())]
    expected = expansion_coeffs_oracle(g)
    for size in (1, 2, 3, engines.TREE_CHUNK):
        seen, chunks = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engines, "TREE_CHUNK", size)
            mp.setattr(engines, "BATCH_TREES_PER_EDGE", 0)
            mp.setattr(engines, "_tour_batch", _checked_tours(seen, chunks))
            assert tutte_embedding_activities(m).terms() == expected
        assert seen == trees
        assert chunks == [min(size, len(trees) - k) for k in range(0, len(trees), size)]


@pytest.mark.parametrize("loops", [0, 1, 3])
def test_tour_batch_on_a_single_vertex(monkeypatch, loops):
    # only loops: one tree, every loop externally active; no rotation
    # without an edge reaches the kernel, as neither a graph's embedding
    # nor a map can be edgeless
    if not loops:
        with pytest.raises(MapError, match="an embedding needs at least one edge"):
            embed(Multigraph(["v"], {}))
        with pytest.raises(MapError, match="map has no half-edges"):
            CombinatorialMap((), ())
        return
    m = embed(Multigraph(["v"], {f"l{i}": ("v", "v") for i in range(loops)}))
    internal, external = _batched(_tour_batch(*_tour_args(m)), [b"\0" * loops])
    assert (internal, external) == ([0] * loops, [1] * loops)
    want = BivariatePolynomial.monomial(0, loops)
    assert _lane_sum(internal, external, 1) == want
    seen, chunks = [], []
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 0)
    monkeypatch.setattr(engines, "_tour_batch", _checked_tours(seen, chunks))
    assert tutte_embedding_activities(m) == want
    assert chunks == [1]


def test_embedding_route_chooses_its_kernel_per_chunk(monkeypatch):
    # as for the order route: K4's 16 trees in chunks of 10 and 6, with the
    # crossover at 1.5 trees per edge, send 10 >= 9 trees to the batch
    # kernel and 6 < 9 to _scan
    g = Multigraph([1, 2, 3, 4], dict(enumerate(itertools.combinations([1, 2, 3, 4], 2))))
    seen, chunks = [], []
    monkeypatch.setattr(engines, "TREE_CHUNK", 10)
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 1.5)
    monkeypatch.setattr(engines, "_tour_batch", _checked_tours(seen, chunks))
    assert tutte_embedding_activities(embed(g)) == tutte_subgraph_expansion(g)
    assert chunks == [10]
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 3)
    chunks.clear()
    assert tutte_embedding_activities(embed(g)) == tutte_subgraph_expansion(g)
    assert chunks == []


def test_tour_batch_matches_the_tour_order_definition_on_every_small_map():
    # the paper's definition, tree by tree: a tree's embedding activities
    # are its classical activities under the order in which its tour first
    # reaches each edge. The tour comes from _tour, which the batch kernel
    # never calls, so a tour that starts one step late shows here
    pairs = 0
    for n in range(1, 6):
        he_pos = [h >> 1 for h in range(2 * n)]
        for sigma in _census_sigmas(n, None):
            nv, ends = census_ends(sigma)
            trees = list(tree_flags(nv, ends))
            internal, external = _tour_batch(sigma, 0, he_pos)(
                _planes(trees, n), (1 << len(trees)) - 1)
            for i, flags in enumerate(trees):
                ranked = list(dict.fromkeys(he_pos[h] for h in activity._tour(
                    sigma, 0, he_pos, flags)))
                want = _order_kernel(ends, nv, ranked)(flags)
                assert (_lanes(internal, i), _lanes(external, i)) == tuple(
                    sorted(a) for a in want)
            pairs += len(trees)
    assert pairs == 16_999


def _rooted_at(g: Multigraph, vertex) -> CombinatorialMap:
    """The default embedding of ``g``, rooted at the half-edge of the last
    edge at ``vertex``, so that the root is not the vertex's first half-edge
    (``embed`` names edge e's half-edge at its first end e, at the other e')."""
    e = next(e for e in reversed(g.edge_ids) if vertex in g.endpoints(e))
    return embed(g).with_root(str(e) if g.endpoints(e)[0] == vertex else f"{e}'")


_W9 = Multigraph(range(10), {**{f"r{i}": (i, i % 9 + 1) for i in range(1, 10)},
                             **{f"s{i}": (0, i) for i in range(1, 10)}})
_GRID_3X4 = Multigraph(
    list(itertools.product(range(3), range(4))),
    {f"e{k:02d}": uv for k, uv in enumerate(
        [((r, c), (r, c + 1)) for r in range(3) for c in range(3)]
        + [((r, c), (r + 1, c)) for r in range(2) for c in range(4)])})


@pytest.mark.parametrize("g, vertex, degree, chunks", [
    (_W9, 0, 9, [engines.TREE_CHUNK, 1680]), (_W9, 1, 3, [engines.TREE_CHUNK, 1680]),
    (_GRID_3X4, (1, 1), 4, [2415]), (_GRID_3X4, (0, 0), 2, [2415]),
], ids=["W9-hub", "W9-rim", "grid3x4-inner", "grid3x4-corner"])
def test_tour_batch_matches_the_tour_kernel_on_deep_trees(monkeypatch, g, vertex, degree,
                                                        chunks):
    # full chunks of trees whose paths run deep below a root of the highest
    # degree or of a low one, where the random maps above are too small to
    # meet the common-ancestor skip and the closed forms at an edge's ends
    assert sum(vertex in g.endpoints(e) for e in g.edge_ids) == degree
    seen, sizes = [], []
    monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", 0)
    monkeypatch.setattr(engines, "_tour_batch", _checked_tours(seen, sizes))
    assert tutte_embedding_activities(_rooted_at(g, vertex)) == tutte_deletion_contraction(g)
    assert sizes == chunks


@pytest.mark.parametrize("make, chunks", [
    (lambda: (range(6), list(itertools.combinations(range(6), 2))), [1296]),
    (petersen_edges, [2000]),
    (lambda: grid_edges(3, 4), [2415]),
    (lambda: wheel_edges(9), [engines.TREE_CHUNK, 1680]),
    (lambda: wheel_edges(10), [engines.TREE_CHUNK] * 3 + [2837]),
], ids=["K6", "Petersen", "grid3x4", "W9", "W10"])
def test_batch_kernels_match_the_per_tree_kernels_on_the_benchmark_graphs(monkeypatch, make,
                                                                         chunks):
    # every chunk of the graphs that perfbench's trees workload runs, lane
    # by lane: the order route under a random edge order, the tour route
    # on the graph's embedding
    verts, edges = make()
    g = Multigraph(verts, dict(enumerate(edges)))
    order = random.Random(36).sample(g.edge_ids, g.edge_count)
    want = tutte_deletion_contraction(g)
    seen, sizes = [], []
    monkeypatch.setattr(engines, "_order_batch", _checked_batches(seen, sizes))
    monkeypatch.setattr(engines, "_tour_batch", _checked_tours(seen, sizes))
    assert tutte_order_activities(g, order) == want
    assert tutte_embedding_activities(embed(g)) == want
    assert sizes == chunks * 2


def test_tour_batch_rejects_a_cycle_and_a_forest():
    # a triangle, or one edge and vertex 3 left out, in lane 1 of a chunk
    triangle = embed(k3())
    batch = _tour_batch(*_tour_args(triangle))
    tree = _flags(triangle, {"aa'", "bb'"})
    for wrong in ({"aa'", "bb'", "cc'"}, {"aa'"}):
        with pytest.raises(MotionNotCyclicError, match="tree 1 of the chunk"):
            _batched(batch, [tree, _flags(triangle, wrong), tree])
    # |V| - 1 edges that leave a vertex out: K4's triangle 0-1-2
    g = Multigraph([1, 2, 3, 4], dict(enumerate(itertools.combinations([1, 2, 3, 4], 2))))
    k4 = embed(g)
    batch = _tour_batch(*_tour_args(k4))
    star, triangle_012 = _flags(k4, {"00'", "11'", "22'"}), _flags(k4, {"00'", "11'", "33'"})
    with pytest.raises(MotionNotCyclicError, match="tree 0 of the chunk"):
        _batched(batch, [triangle_012, star])


def test_tour_batch_raises_on_every_edge_set_but_a_spanning_tree():
    # each edge set of small maps in lane 1, beside a spanning tree in lane 0
    checked = 0
    for m in map_corpus(per_size=10, max_edges=5):
        g = m.underlying_graph()
        ids = g.edge_ids
        batch = _tour_batch(*_tour_args(m))
        tree = next(enumerate_spanning_trees(g)).flags
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                chunk = [tree, _flags(m, set(subset))]
                if is_spanning_tree_subset(g, subset):
                    internal, external = _batched(batch, chunk)
                    assert (_lanes(internal, 1), _lanes(external, 1)) == tuple(
                        sorted(a) for a in _scan(m, set(subset)))
                else:
                    with pytest.raises(MotionNotCyclicError):
                        _batched(batch, chunk)
                    checked += 1
    assert checked > 500


def test_order_kernels_raise_on_every_edge_set_but_a_spanning_tree():
    # each edge set in lane 1, beside a spanning tree in lane 0: loops,
    # parallel edges, too few or too many edges, and a vertex left out
    checked = 0
    for g in connected_multigraphs(3, 4):
        args = _order_args(g, g.edge_ids)
        kernel, batch = _order_kernel(*args), _order_batch(*args)
        tree = next(enumerate_spanning_trees(g)).flags
        for bits in itertools.product(b"\0\1", repeat=g.edge_count):
            flags = bytes(bits)
            chunk = [tree, flags]
            subset = [e for e, f in zip(g.edge_ids, flags) if f]
            if is_spanning_tree_subset(g, subset):
                internal, external = _batched(batch, chunk)
                assert (_lanes(internal, 1), _lanes(external, 1)) == tuple(
                    sorted(a) for a in kernel(flags))
            else:
                with pytest.raises(RuntimeError, match="mark no spanning tree"):
                    kernel(flags)
                with pytest.raises(RuntimeError, match="tree 1 of the chunk"):
                    _batched(batch, chunk)
                checked += 1
    assert checked > 500


def test_planar_duality_swaps_each_trees_activities():
    # the dual of a planar rooted map has rotation phi(h) = sigma(h ^ 1),
    # the same edges and root, and a tree's complement is a tree of the
    # dual with the same tour: its internal- and external-active edges
    # swap (Bernardi, EJC 15 (2008) R109), tree by tree, for _scan and for
    # _tour_batch's lanes
    pairs = 0
    for n in range(1, 6):
        he_pos = [h >> 1 for h in range(2 * n)]
        for sigma in _census_sigmas(n, 0):
            phi = [sigma[h ^ 1] for h in range(2 * n)]
            scan, dual_scan = activity._scan(sigma, 0, he_pos), activity._scan(phi, 0, he_pos)
            trees = list(tree_flags(*census_ends(sigma)))
            for flags in trees:
                internal, external = scan(flags)
                dual_internal, dual_external = dual_scan(bytes(1 - f for f in flags))
                assert (sorted(dual_internal), sorted(dual_external)) == (
                    sorted(external), sorted(internal))
            planes, full = _planes(trees, n), (1 << len(trees)) - 1
            internal, external = _tour_batch(sigma, 0, he_pos)(planes, full)
            duals = _tour_batch(phi, 0, he_pos)([full ^ plane for plane in planes], full)
            assert duals == (external, internal)
            pairs += len(trees)
    assert pairs == sum(C * D for C, D in ((1, 2), (2, 5), (5, 14), (14, 42), (42, 132)))


@settings(max_examples=100)
@given(hs.integers(1, 70).flatmap(lambda lanes: hs.tuples(
    hs.just(lanes),
    hs.lists(hs.integers(0, (1 << lanes) - 1), max_size=20),
    hs.lists(hs.integers(0, (1 << lanes) - 1), max_size=20))))
def test_lane_sum_counts_every_lane(case):
    lanes, internal, external = case
    counts = Counter((len(_lanes(internal, i)), len(_lanes(external, i)))
                     for i in range(lanes))
    assert _lane_sum(internal, external, (1 << lanes) - 1) == BivariatePolynomial(counts)
