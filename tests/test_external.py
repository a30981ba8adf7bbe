"""Checks against code outside the package: networkx's Tutte polynomial,
and brute-force counts of proper colourings, acyclic and totally cyclic
orientations, nowhere-zero flows and recurrent sandpile levels, as oracles
for all five routes; and the standard library as the runtime's only
dependency."""

import ast
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest
import sympy

import tuttemap
from tuttemap import Multigraph, cross_check, embed

from helpers import (acyclic_orientations, connected_multigraphs, nowhere_zero_flows,
                     proper_colourings, sandpile_levels, totally_cyclic_orientations)

X, Y = sympy.symbols("x y")


def _multigraph_of(g: nx.Graph) -> Multigraph:
    return Multigraph(g.nodes, {f"e{i}": uv for i, uv in enumerate(g.edges())})


def _loop_pair_isthmus() -> nx.MultiGraph:
    # a loop at 0, a parallel pair 0-1 and an isthmus 1-2
    g = nx.MultiGraph()
    g.add_edges_from([(0, 0), (0, 1), (0, 1), (1, 2)])
    return g


CORPUS = pytest.mark.parametrize("make", [
    lambda: nx.complete_graph(4),
    _loop_pair_isthmus,
    lambda: nx.wheel_graph(6),
    nx.petersen_graph,
], ids=["K4", "loop-pair-isthmus", "W5", "Petersen"])


def _every_route(graph: Multigraph) -> dict:
    """Each route's polynomial; an edgeless graph has no embedding."""
    return cross_check(graph, [embed(graph)] if graph.edge_count else [], [graph.edge_ids])


@CORPUS
def test_every_route_matches_networkx(make):
    g = make()
    expected = {m: int(c) for m, c in
                sympy.Poly(nx.tutte_polynomial(g), X, Y).terms()}
    graph = _multigraph_of(g)
    polys = _every_route(graph)
    assert sorted(polys) == ["delcon", "embedding[0]", "expansion", "order[0]",
                             "recursive[0]"]
    for label, poly in polys.items():
        assert poly.terms() == expected, label


def _assert_colourings(graph: Multigraph, polys: dict) -> None:
    # P(q) = (-1)^(|V|-1) q T(1-q, 0) on a connected graph
    sign = (-1) ** (graph.vertex_count - 1)
    for q in (3, 4):
        want = proper_colourings(graph, q)
        for label, poly in polys.items():
            assert sign * q * poly.evaluate(1 - q, 0) == want, (label, q)


@CORPUS
def test_every_route_counts_proper_colourings(make):
    graph = _multigraph_of(make())
    _assert_colourings(graph, _every_route(graph))


@pytest.fixture(scope="module")
def small_multigraph_routes() -> list:
    """Each graph of ``connected_multigraphs(4, 5)`` with every route's
    polynomial, computed once for the three oracles that read them."""
    return [(graph, _every_route(graph)) for graph in connected_multigraphs(4, 5)]


def test_every_route_counts_proper_colourings_on_small_multigraphs(small_multigraph_routes):
    # 954 graphs on at most 4 vertices and 5 edges: loops (P = 0), parallel
    # edges, and the edgeless one-vertex graph, where only the graph routes run
    assert len(small_multigraph_routes) == 954
    for graph, polys in small_multigraph_routes:
        assert len(polys) == (5 if graph.edge_count else 3)
        _assert_colourings(graph, polys)


def _assert_orientations_and_flows(graph: Multigraph, polys: dict, qs=(3, 4)) -> None:
    # T(2,0) acyclic and T(0,2) totally cyclic orientations, and
    # F(q) = (-1)^(|E|-|V|+1) T(0, 1-q) nowhere-zero Z_q flows
    acyclic, cyclic = acyclic_orientations(graph), totally_cyclic_orientations(graph)
    sign = (-1) ** (graph.edge_count - graph.vertex_count + 1)
    flows = {q: nowhere_zero_flows(graph, q) for q in qs}
    for label, poly in polys.items():
        assert poly.evaluate(2, 0) == acyclic, label
        assert poly.evaluate(0, 2) == cyclic, label
        for q, want in flows.items():
            assert sign * poly.evaluate(0, 1 - q) == want, (label, q)


@CORPUS
def test_every_route_counts_orientations_and_flows(make):
    # Z_4 flows try 3^|E| assignments, too many on Petersen's 15 edges
    graph = _multigraph_of(make())
    qs = (3, 4) if graph.edge_count <= 10 else (3,)
    _assert_orientations_and_flows(graph, _every_route(graph), qs)


def test_every_route_counts_orientations_and_flows_on_small_multigraphs(
        small_multigraph_routes):
    for graph, polys in small_multigraph_routes:
        _assert_orientations_and_flows(graph, polys)


def _assert_sandpile_levels(graph: Multigraph, polys: dict) -> None:
    # T(1, y): the coefficient of y^j is the sum over i of T's x^i y^j
    want = sandpile_levels(graph)
    for label, poly in polys.items():
        got = Counter()
        for (_, j), c in poly.terms().items():
            got[j] += c
        assert got == want, label


@CORPUS
def test_every_route_sums_sandpile_levels(make):
    graph = _multigraph_of(make())
    _assert_sandpile_levels(graph, _every_route(graph))


def test_every_route_sums_sandpile_levels_on_small_multigraphs(small_multigraph_routes):
    for graph, polys in small_multigraph_routes:
        _assert_sandpile_levels(graph, polys)


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(tuttemap.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_map_sums_import_no_tree_or_tour_kernel():
    # the census oracle in the tests runs the tour kernel and the tree walk;
    # if partition_function called them, the oracle would check them
    # against themselves
    source = Path(tuttemap.__file__).parent / "mapenum.py"
    imported = {node.module for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.level}
    assert "cmap" in imported
    assert imported.isdisjoint({"activity", "spanning"}), imported


def test_tour_batch_walks_no_tour():
    # the tests hold the batch tour kernel to _scan and to _tour's edge
    # order; that checks the tour only while the kernel walks none itself
    source = Path(tuttemap.__file__).parent / "activity.py"
    kernel = next(node for node in ast.parse(source.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_tour_batch")
    names = {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(kernel) if isinstance(node, ast.Attribute)}
    assert "_require_trees" in names
    assert names.isdisjoint({"_reach", "_tour", "_scan"}), names


def test_both_batch_kernels_hang_their_trees_by_one_pass():
    # no reach sweep is left: each batch kernel calls the one pass (_hang)
    # and gives the lane gate its own error type
    source = Path(tuttemap.__file__).parent / "activity.py"
    defs = {node.name: node for node in ast.parse(source.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}
    assert "_reach" not in defs and "_hang" in defs
    for kernel, error in (("_order_batch", "RuntimeError"),
                          ("_tour_batch", "MotionNotCyclicError")):
        calls = {node.func.id: [ast.unparse(arg) for arg in node.args]
                 for node in ast.walk(defs[kernel])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_hang" in calls, kernel
        assert calls["_require_trees"][-1] == error, kernel


def test_census_walk_imports_no_euler_count():
    # the census filters genus inside its walk; the tests hold it to an
    # Euler count of their own, and cmap's stays with euler_characteristic
    source = Path(tuttemap.__file__).parent / "mapenum.py"
    names = {alias.name for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    assert "_euler" not in names, names


def test_one_spanning_tree_enumerator():
    # the frontier DAG is the package's one enumeration: no second
    # generator in spanning, and no module reaches past its public names
    # other than for the DAG's chunk size and order and the tree paths
    package = Path(tuttemap.__file__).parent
    tree = ast.parse((package / "spanning.py").read_text(encoding="utf-8"))
    generators = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                  and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))]
    assert generators == ["enumerate_spanning_trees"]
    allowed = {"TREE_CHUNK", "_pivot_order", "_incidence", "_root_paths"}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "spanning":
                private = {a.name for a in node.names if a.name.startswith("_")}
                assert private <= allowed, (path.name, private - allowed)
