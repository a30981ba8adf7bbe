"""Multigraph primitives: components, loops, isthmuses, minors, text IO."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttemap import GraphError, Multigraph

from helpers import (
    double_edge_graph,
    isthmus_graph,
    k3,
    loop_graph,
    subgraph_components,
)


@pytest.mark.parametrize("vertices, edges, message", [
    ([], {}, "a multigraph needs at least one vertex"),
    ([1, 2], [("a", (1, 2)), ("a", (2, 1))], "duplicate edge id 'a'"),
    ([1, 2], {"a": (1, 3)}, "edge 'a' endpoint 3 is not a vertex"),
    ([1, 2], {"a": (3, 1)}, "edge 'a' endpoint 3 is not a vertex"),
])
def test_multigraph_refuses_bad_parts(vertices, edges, message):
    with pytest.raises(GraphError) as info:
        Multigraph(vertices, edges)
    assert str(info.value) == message


def test_component_count_examples():
    g = k3()
    assert g.component_count([]) == 3
    assert g.component_count() == 1
    # one edge leaves two components; frozen from the BFS oracle
    assert subgraph_components(g, ["a"]) == 2
    assert g.component_count(["a"]) == 2


def test_component_count_random_vs_bfs_oracle():
    rng = random.Random(41)
    for _ in range(100):
        nv = rng.randint(1, 6)
        ne = rng.randint(0, 8)
        edges = {
            f"e{i}": (rng.randrange(nv), rng.randrange(nv)) for i in range(ne)
        }
        g = Multigraph(range(nv), edges)
        for _ in range(4):
            subset = [e for e in edges if rng.random() < 0.5]
            assert g.component_count(subset) == subgraph_components(g, subset)


def test_is_loop():
    assert loop_graph().is_loop("l")
    assert not any(k3().is_loop(e) for e in "abc")
    g = double_edge_graph()
    assert not g.is_loop("e1") and not g.is_loop("e2")


def test_is_isthmus_with_delete_and_count_oracle():
    def oracle(g, e):
        if g.is_loop(e):
            return False
        return g.delete(e).component_count() == g.component_count() + 1

    assert isthmus_graph().is_isthmus("i")
    for g in (k3(), double_edge_graph(), loop_graph()):
        for e in g.edge_ids:
            assert g.is_isthmus(e) == oracle(g, e)
    assert not any(k3().is_isthmus(e) for e in "abc")


def test_delete():
    g = k3().delete("a")
    assert g.vertices == frozenset({1, 2, 3})
    assert g.edge_ids == ("b", "c")
    assert g.is_connected()

    lg = loop_graph().delete("l")
    assert lg.vertices == frozenset({1}) and lg.edge_count == 0

    dg = double_edge_graph().delete("e1")
    assert dg.edge_ids == ("e2",)
    assert dg.is_isthmus("e2")


def test_contract_merges_endpoints():
    # endpoint-merge oracle: edges keep their ids, endpoints are renamed
    g = k3().contract("a")
    assert g.vertices == frozenset({1, 3})
    assert g.edge_count == 2
    assert frozenset(g.endpoints("b")) == frozenset({1, 3})
    assert frozenset(g.endpoints("c")) == frozenset({1, 3})

    pg = isthmus_graph().contract("i")
    assert pg.vertices == frozenset({1}) and pg.edge_count == 0

    dg = double_edge_graph().contract("e1")
    assert dg.vertices == frozenset({1})
    assert dg.endpoints("e2") == (1, 1)
    assert dg.is_loop("e2")


def test_contract_rejects_loops():
    with pytest.raises(GraphError, match="loop"):
        loop_graph().contract("l")


def test_unknown_edge_rejected():
    g = k3()
    for op in (g.is_loop, g.is_isthmus, g.delete, g.contract, g.endpoints):
        with pytest.raises(GraphError, match="unknown edge"):
            op("zzz")
    with pytest.raises(GraphError, match="unknown edge"):
        g.component_count(["a", "zzz"])


def test_minor_count_invariants():
    rng = random.Random(42)
    for _ in range(60):
        nv = rng.randint(2, 6)
        edges = {
            f"e{i}": (rng.randrange(nv), rng.randrange(nv))
            for i in range(rng.randint(1, 8))
        }
        g = Multigraph(range(nv), edges)
        for e in g.edge_ids:
            assert g.is_isthmus(e) == (
                g.delete(e).component_count() == g.component_count() + 1
            )
            if not g.is_loop(e):
                h = g.contract(e)
                assert h.vertex_count == g.vertex_count - 1
                assert h.edge_count == g.edge_count - 1


def test_component_count_invariant_under_relabeling():
    rng = random.Random(43)
    for _ in range(40):
        nv = rng.randint(1, 6)
        edges = {
            f"e{i}": (rng.randrange(nv), rng.randrange(nv))
            for i in range(rng.randint(0, 7))
        }
        g = Multigraph(range(nv), edges)
        vperm = list(range(100, 100 + nv))
        rng.shuffle(vperm)
        eperm = {e: f"f{i}" for i, e in enumerate(g.edge_ids)}
        g2 = Multigraph(
            vperm,
            {eperm[e]: (vperm[u], vperm[v])
             for e, (u, v) in ((e, g.endpoints(e)) for e in g.edge_ids)},
        )
        assert g.component_count() == g2.component_count()


def test_text_format_round_trip():
    text = "# a square with a chord and a loop\n" \
           "v 1\nv 2\nv 3\nv 4\n" \
           "e a 1 2\ne b 2 3\ne c 3 4\ne d 1 4\ne m 1 3\ne l 2 2\n"
    g = Multigraph.from_text(text)
    assert g.vertex_count == 4 and g.edge_count == 6
    assert g.is_loop("l")
    assert Multigraph.from_text(g.to_text()) == g


# ids the graph text can carry: no whitespace and no "#"
_ids = st.text(st.characters(exclude_categories=("Z", "Cc"), exclude_characters="#"),
               min_size=1, max_size=4)


@st.composite
def _string_id_graphs(draw):
    verts = draw(st.lists(_ids, min_size=1, max_size=5, unique=True))
    ends = st.tuples(st.sampled_from(verts), st.sampled_from(verts))
    return Multigraph(verts, draw(st.dictionaries(_ids, ends, max_size=8)))


@settings(max_examples=200)
@given(_string_id_graphs())
def test_text_round_trip_string_ids(g):
    # loops and parallel edges are drawn too
    assert Multigraph.from_text(g.to_text()) == g


def test_to_text_refuses_ids_it_cannot_read_back():
    for g, bad in [(Multigraph(["a#", "c"], {"e": ("c", "c")}), "'a#'"),
                   (Multigraph(["a", "b"], {"e 1": ("a", "b")}), "'e 1'"),
                   (Multigraph(["", "b"], {"e": ("b", "b")}), "''")]:
        with pytest.raises(GraphError, match=bad):
            g.to_text()
    # int ids are written as words and come back as strings
    g = Multigraph([1, 2], {3: (1, 2)})
    assert Multigraph.from_text(g.to_text()) == Multigraph(["1", "2"], {"3": ("1", "2")})


def test_text_format_errors():
    with pytest.raises(GraphError, match="unknown vertex 'q'"):
        Multigraph.from_text("v 1\ne a 1 q\n")
    with pytest.raises(GraphError, match="duplicate edge id"):
        Multigraph.from_text("v 1\ne a 1 1\ne a 1 1\n")
    with pytest.raises(GraphError, match="unknown record"):
        Multigraph.from_text("w 1\n")


def test_stable_edge_ids_through_minors():
    g = Multigraph([0, 1, 2], {"p": (0, 1), "q": (1, 2), "r": (0, 2)})
    h = g.delete("p").contract("q")
    assert h.has_edge("r")
    assert not h.has_edge("p") and not h.has_edge("q")
