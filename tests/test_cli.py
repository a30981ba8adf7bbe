"""Command line behavior: golden outputs, round-trips, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttemap import BivariatePolynomial, CombinatorialMap, enumerate_rooted_maps
from tuttemap import activity, cli, cmap, engines, mapenum, spanning
from tuttemap.cli import METHODS, main
from tuttemap.engines import MAX_EXPANSION_EDGES
from tuttemap.mapenum import MAX_WORD_STATES

from helpers import (ALPHA_DIAGNOSTICS, SINGLE_ISTHMUS_TEXT, SINGLE_LOOP_TEXT,
                     TORUS_MAP_TEXT, random_connected_multigraphs)

K3_TEXT = "v 1\nv 2\nv 3\ne a 1 2\ne b 2 3\ne c 1 3\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.g"
    path.write_text(K3_TEXT)
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus_map.map"
    path.write_text(TORUS_MAP_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tutte_all_on_k3(capsys, k3_file):
    code, out, _ = run(capsys, "tutte", "--graph", k3_file, "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "expansion: x^2 + x + y",
        "delcon: x^2 + x + y",
        "order: x^2 + x + y",
        "embedding: x^2 + x + y",
        "recursive: x^2 + x + y",
        "agreement: yes",
    ]


def test_parser_is_built_once(capsys, k3_file):
    cli.build_parser.cache_clear()
    for argv in (["tutte", "--graph", k3_file], ["zpoly", "--edges", "2"], ["zpoly"]):
        main(argv)
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_shared_parser_keeps_no_state_between_calls(capsys, k3_file):
    # a usage error, --help and other options between two calls leave the
    # later call's output byte-identical
    first = run(capsys, "tutte", "--graph", k3_file)
    assert first[0] == 0
    assert run(capsys, "tutte", "--graph", k3_file, "--method", "nope")[0] == 1
    assert run(capsys, "tutte", "--help")[0] == 0
    assert run(capsys, "tutte", "--graph", k3_file, "--method", "order",
               "--format", "json", "--root", "a")[0] == 0
    assert run(capsys, "minor", "--map", k3_file, "--delete", "a", "--contract", "b")[0] == 1
    assert run(capsys, "tutte", "--graph", k3_file) == first


def test_tutte_single_method_round_trips(capsys, k3_file):
    code, out, _ = run(capsys, "tutte", "--graph", k3_file, "--method", "expansion")
    assert code == 0
    poly_text = out.strip().split(": ", 1)[1]
    assert BivariatePolynomial.parse(poly_text) == BivariatePolynomial.parse(
        "x^2 + x + y"
    )


def test_tutte_json(capsys, k3_file):
    code, out, _ = run(capsys, "tutte", "--graph", k3_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    poly = BivariatePolynomial.from_json_terms(payload["polynomials"]["delcon"])
    assert poly == BivariatePolynomial.parse("x^2 + x + y")


def test_tutte_all_disagreement_exits_2(capsys, monkeypatch, k3_file):
    # a route that disagrees breaks the invariant: exit 2, no message
    monkeypatch.setattr(cli, "tutte_recursive_map",
                        lambda m: BivariatePolynomial.parse("x"))
    code, out, err = run(capsys, "tutte", "--graph", k3_file, "--method", "all")
    assert (code, err) == (2, "")
    assert out.endswith("recursive: x\nagreement: NO\n")
    code, out, err = run(capsys, "tutte", "--graph", k3_file, "--method", "all",
                         "--format", "json")
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert payload["agreement"] is False
    assert payload["polynomials"]["recursive"] == BivariatePolynomial.parse("x").json_terms()


def test_tour_torus_map(capsys, torus_file):
    code, out, _ = run(capsys, "tour", "--map", torus_file,
                       "--tree", "aa',bb',dd'")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(a e f c a' f' b c' e' b' d d')"
    assert lines[1] == (
        "half-edges: a < e < f < c < a' < f' < b < c' < e' < b' < d < d'"
    )
    assert lines[2] == "edges: aa' < ee' < ff' < cc' < bb' < dd'"


def test_minor_then_tour_reproduces_contracted_cycle(capsys, torus_file, tmp_path):
    code, out, _ = run(capsys, "minor", "--map", torus_file, "--contract", "bb'")
    assert code == 0
    minor_path = tmp_path / "minor.map"
    minor_path.write_text(out)
    # the printed map parses back
    CombinatorialMap.from_text(out).validate()
    code, out, _ = run(capsys, "tour", "--map", str(minor_path),
                       "--tree", "aa',dd'")
    assert code == 0
    assert out.splitlines()[0] == "(a e f c a' f' c' e' d d')"


def test_activities_table(capsys, torus_file):
    code, out, _ = run(capsys, "activities", "--map", torus_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert (
        "tree {aa',bb',dd'}: internal-active {aa',dd'} external-active {} -> x^2"
        in lines
    )
    assert lines[-1].startswith("total: ")
    total = BivariatePolynomial.parse(lines[-1].split(": ", 1)[1])
    assert total.evaluate(1, 1) == 8  # the graph has eight spanning trees


@pytest.mark.parametrize("text, op", [(SINGLE_ISTHMUS_TEXT, "--contract"),
                                      (SINGLE_LOOP_TEXT, "--delete")],
                         ids=["isthmus", "loop"])
def test_minor_of_the_only_edge_exits_1(capsys, tmp_path, text, op):
    path = tmp_path / "one_edge.map"
    path.write_text(text)
    code, out, err = run(capsys, "minor", "--map", str(path), op, "h")
    assert (code, out) == (1, "")
    assert err == ("error: edge \"hh'\" is the only edge; its minor is the "
                   "single-vertex map, which has no half-edges\n")


def test_minor_of_the_root_edge_needs_a_new_root(capsys, torus_file):
    code, out, err = run(capsys, "minor", "--map", torus_file, "--delete", "aa'")
    assert (code, out) == (1, "")
    assert err == ("error: edge \"aa'\" carries the root; re-root first "
                   "(with_root, or --root on the command line)\n")
    code, out, err = run(capsys, "minor", "--map", torus_file,
                         "--delete", "aa'", "--root", "e")
    assert (code, err) == (0, "")
    assert out == ("sigma: (b d f')(b' c' e')(c e f)(d')\n"
                   "alpha: (b b')(c c')(d d')(e e')(f f')\n"
                   "root: e\n")
    code, out, err = run(capsys, "minor", "--map", torus_file, "--contract", "3")
    assert (code, out, err) == (1, "", "error: unknown edge '3'\n")


def test_euler(capsys, torus_file):
    code, out, _ = run(capsys, "euler", "--map", torus_file)
    assert code == 0
    assert out.strip().splitlines() == ["chi: 0", "genus: 1"]


def test_census_lines_round_trip(capsys):
    code, out, _ = run(capsys, "census", "--edges", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    for line in lines:
        CombinatorialMap.from_text(line).validate()


def test_census_genus_filter(capsys):
    code, out, _ = run(capsys, "census", "--edges", "2", "--genus", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_zpoly(capsys):
    code, out, _ = run(capsys, "zpoly", "--edges", "1")
    assert code == 0
    assert BivariatePolynomial.parse(out.strip()) == BivariatePolynomial.parse("x + y")


def test_zpoly_json(capsys):
    code, out, _ = run(capsys, "zpoly", "--edges", "2", "--genus", "0",
                       "--format", "json")
    assert code == 0
    z = BivariatePolynomial.from_json_terms(json.loads(out)["z"])
    assert z.evaluate(1, 1) == 10


@pytest.mark.parametrize("genus, z11", [(None, 5_318_742), (0, 613_470)])
def test_zpoly_sums_past_the_census_bound(capsys, genus, z11):
    # the tour-word transfer has a state budget, not the census's edge bound
    argv = ["zpoly", "--edges", "7", "--format", "json"]
    if genus is not None:
        argv += ["--genus", str(genus)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert BivariatePolynomial.from_json_terms(json.loads(out)["z"]).evaluate(1, 1) == z11


def test_zpoly_over_the_state_budget_is_an_input_error(capsys):
    code, out, err = run(capsys, "zpoly", "--edges", "10")
    assert (code, out) == (1, "")
    budget = f"error: state budget is {MAX_WORD_STATES} per word position; 10 edges need "
    assert err.startswith(budget)
    assert int(err[len(budget):]) > MAX_WORD_STATES
    assert "invariant" not in err


def test_zpoly_keeps_the_state_budget_for_a_genus(capsys):
    # a genus comes from the tour words too, so it stops at the state
    # budget, not at the census bound: genus 1 runs at 8 edges and is
    # refused at 9, at a position that holds 35,992 states
    code, out, err = run(capsys, "zpoly", "--edges", "8", "--genus", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert BivariatePolynomial.from_json_terms(json.loads(out)["z"]).evaluate(1, 1) == 42_942_900
    code, out, err = run(capsys, "zpoly", "--edges", "9", "--genus", "1")
    assert (code, out) == (1, "")
    assert err == f"error: state budget is {MAX_WORD_STATES} per word position; 9 edges need 35992\n"


@pytest.mark.parametrize("edges, genus", [(1, 1), (5, 3), (8, 5), (40, 21)])
def test_zpoly_of_a_genus_above_half_the_edges_is_zero(capsys, monkeypatch, edges, genus):
    # Euler's formula: a map with n edges has genus at most n / 2
    def refuse(*args):
        raise AssertionError("zpoly ran a sum whose answer is 0")

    monkeypatch.setattr(mapenum, "_word_sum", refuse)
    assert run(capsys, "zpoly", "--edges", str(edges), "--genus", str(genus)) == (0, "0\n", "")


@pytest.mark.parametrize("bad, message", [
    (("--edges", "0"), "a map census needs at least one edge"),
    (("--edges", "0", "--genus", "0"), "a map census needs at least one edge"),
    (("--edges", "2", "--genus", "-1"), "genus cannot be negative"),
])
def test_zpoly_checks_its_input_before_any_work(capsys, monkeypatch, bad, message):
    def refuse(*args):
        raise AssertionError("zpoly started a sum on bad input")

    monkeypatch.setattr(mapenum, "_rooted_sigmas", refuse)
    monkeypatch.setattr(mapenum, "_word_sum", refuse)
    assert run(capsys, "zpoly", *bad) == (1, "", f"error: {message}\n")


def _json_terms(terms) -> list:
    """(coefficient, dx, dy) triples in the CLI's JSON term form."""
    return [{"c": str(c), "dx": dx, "dy": dy} for c, dx, dy in terms]


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# two parallel edges and a loop on two vertices
LOOPY_MAP_TEXT = "sigma: (p q l l')(p' q')\nalpha: (p p')(q q')(l l')\nroot: p\n"

# per map: the text lines, then (tree, internal-active, external-active, dx,
# dy) per row and the (c, dx, dy) terms of the total
ACTIVITIES_GOLDEN = {
    "torus": (
        "tree {aa',bb',dd'}: internal-active {aa',dd'} external-active {} -> x^2\n"
        "tree {aa',cc',dd'}: internal-active {aa',dd'} external-active {ee'} -> x^2 y\n"
        "tree {aa',dd',ee'}: internal-active {aa',dd',ee'} external-active {} -> x^3\n"
        "tree {bb',cc',dd'}: internal-active {dd'} external-active {aa',ff'} -> x y^2\n"
        "tree {bb',dd',ee'}: internal-active {dd'} external-active {aa',cc',ff'} -> x y^3\n"
        "tree {bb',dd',ff'}: internal-active {dd'} external-active {aa'} -> x y\n"
        "tree {cc',dd',ff'}: internal-active {cc',dd'} external-active {aa'} -> x^2 y\n"
        "tree {dd',ee',ff'}: internal-active {dd'} external-active {aa',cc'} -> x y^2\n"
        "total: x^3 + x^2 + 2 x^2 y + x y + 2 x y^2 + x y^3\n",
        [("aa' bb' dd'", "aa' dd'", "", 2, 0),
         ("aa' cc' dd'", "aa' dd'", "ee'", 2, 1),
         ("aa' dd' ee'", "aa' dd' ee'", "", 3, 0),
         ("bb' cc' dd'", "dd'", "aa' ff'", 1, 2),
         ("bb' dd' ee'", "dd'", "aa' cc' ff'", 1, 3),
         ("bb' dd' ff'", "dd'", "aa'", 1, 1),
         ("cc' dd' ff'", "cc' dd'", "aa'", 2, 1),
         ("dd' ee' ff'", "dd'", "aa' cc'", 1, 2)],
        [(1, 3, 0), (1, 2, 0), (2, 2, 1), (1, 1, 1), (2, 1, 2), (1, 1, 3)],
    ),
    "loopy": (
        "tree {pp'}: internal-active {pp'} external-active {ll'} -> x y\n"
        "tree {qq'}: internal-active {} external-active {ll',pp'} -> y^2\n"
        "total: x y + y^2\n",
        [("pp'", "pp'", "ll'", 1, 1),
         ("qq'", "", "ll' pp'", 0, 2)],
        [(1, 1, 1), (1, 0, 2)],
    ),
}


@pytest.mark.parametrize("name", sorted(ACTIVITIES_GOLDEN))
def test_activities_golden(capsys, tmp_path, name):
    # the full per-tree table, text and JSON, on the torus map and on a map
    # with a loop and a parallel edge
    path = tmp_path / f"{name}.map"
    path.write_text(TORUS_MAP_TEXT if name == "torus" else LOOPY_MAP_TEXT)
    text, rows, total = ACTIVITIES_GOLDEN[name]
    code, out, _ = run(capsys, "activities", "--map", str(path))
    assert code == 0 and out == text
    code, out, _ = run(capsys, "activities", "--map", str(path), "--format", "json")
    assert code == 0
    assert out == _json_text({
        "total": _json_terms(total),
        "trees": [{"tree": tree.split(), "internal_active": internal.split(),
                   "external_active": external.split(),
                   "monomial": _json_terms([(1, dx, dy)])}
                  for tree, internal, external, dx, dy in rows],
    })


def test_zpoly_golden_json(capsys):
    code, out, _ = run(capsys, "zpoly", "--edges", "3", "--format", "json")
    assert code == 0
    assert out == _json_text({"z": _json_terms([
        (5, 3, 0), (7, 2, 0), (15, 2, 1), (3, 1, 0), (15, 1, 1), (21, 1, 2),
        (3, 0, 1), (11, 0, 2), (15, 0, 3)])})


def test_check_passes_on_k3(capsys, k3_file):
    code, out, _ = run(capsys, "check", "--graph", k3_file)
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_determinism_byte_identical(capsys, k3_file, torus_file):
    for argv in (
        ("tutte", "--graph", k3_file),
        ("activities", "--map", torus_file),
        ("census", "--edges", "2", "--format", "json"),
        ("check", "--graph", k3_file, "--seed", "7"),
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_root_override(capsys, torus_file):
    code, out, _ = run(capsys, "tour", "--map", torus_file,
                       "--tree", "aa',bb',dd'", "--root", "d")
    assert code == 0
    assert out.splitlines()[0].startswith("(d d'")


@pytest.mark.parametrize("tree, token", [("aa',bb',dd',aa'", "\"aa'\""),
                                         ("a,b,d',a'", "\"a'\"")])
def test_tour_rejects_a_repeated_tree_edge(capsys, torus_file, tree, token):
    # by edge id or by either half-edge name, a repeat is an input error
    code, out, err = run(capsys, "tour", "--map", torus_file, "--tree", tree)
    assert code == 1 and out == ""
    assert f"tree token {token} repeats edge" in err
    code, _, _ = run(capsys, "tour", "--map", torus_file, "--tree", "a,b,d'")
    assert code == 0


# "ab" is the id of edge {a, b} and also a half-edge of edge {ab, c}
AMBIGUOUS_MAP_TEXT = "sigma: (a ab b c)\nalpha: (a b)(ab c)\n"


@pytest.mark.parametrize("argv", [("tour", "--root", "a", "--tree", "ab"),
                                  ("minor", "--root", "ab", "--delete", "ab")],
                         ids=["tour", "minor"])
def test_ambiguous_edge_token_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "ambiguous.map"
    path.write_text(AMBIGUOUS_MAP_TEXT)
    code, out, err = run(capsys, argv[0], "--map", str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == ("error: edge token 'ab' is both an edge id and a "
                   "half-edge name\n")
    # the other edge's id and half-edge names still resolve
    for token in ("abc", "c"):
        code, out, _ = run(capsys, "minor", "--map", str(path), "--root", "a",
                           "--delete", token)
        assert (code, out) == (0, "sigma: (a b)\nalpha: (a b)\nroot: a\n")


def test_tutte_root_is_checked_for_every_method(capsys, k3_file):
    for method in METHODS:
        code, out, err = run(capsys, "tutte", "--graph", k3_file,
                             "--method", method, "--root", "nosuch")
        assert code == 1 and out == ""
        assert "'nosuch'" in err
    code, out, _ = run(capsys, "tutte", "--graph", k3_file,
                       "--method", "delcon", "--root", "b'")
    assert code == 0 and out == "delcon: x^2 + x + y\n"


def test_input_errors_exit_1(capsys, tmp_path, k3_file, torus_file):
    code, _, err = run(capsys, "tutte", "--graph", str(tmp_path / "missing.g"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.g"
    bad.write_text("v 1\ne a 1 q\n")
    code, _, err = run(capsys, "tutte", "--graph", str(bad))
    assert code == 1 and "'q'" in err

    code, _, err = run(capsys, "minor", "--map", torus_file, "--delete", "dd'")
    assert code == 1 and "isthmus" in err

    code, _, err = run(capsys, "minor", "--map", torus_file, "--contract", "zz")
    assert code == 1 and "'zz'" in err

    code, _, err = run(capsys, "tour", "--map", torus_file, "--tree", "aa',bb'")
    assert code == 1 and "spanning tree" in err

    # usage errors are input errors too
    code = main(["tutte"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("method", ["order"])
def test_resource_limit_exits_1(capsys, monkeypatch, k3_file, method):
    # no route recurses any more, so the limits are raised by hand: running
    # out of stack or memory is a resource limit, not a broken invariant
    for error in (RecursionError("maximum recursion depth exceeded"), MemoryError()):
        def evaluator(*args, error=error):
            raise error

        monkeypatch.setattr(cli, f"tutte_{method}_activities", evaluator)
        code, out, err = run(capsys, "tutte", "--graph", k3_file, "--method", method)
        assert code == 1 and out == ""
        assert "resource limit" in err and "invariant" not in err


def _long_graph(tmp_path, n: int, closed: bool) -> str:
    """The path P_n or the cycle C_n with n edges, as a graph file."""
    nv = n if closed else n + 1
    path = tmp_path / f"long{n}{'c' if closed else 'p'}.g"
    path.write_text(
        "".join(f"v {i}\n" for i in range(nv))
        + "".join(f"e p{i} {i} {(i + 1) % nv}\n" for i in range(n))
    )
    return str(path)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_delcon_long_inputs(capsys, tmp_path, closed):
    # no route recurses, so length is no limit: both deletion-contraction
    # sweeps on 1,200 edges, and the tree routes on the 1,200-edge path (one
    # tree) and on a 300-edge cycle (300 trees)
    tree_route_edges = 300 if closed else 1200
    runs = [("delcon", 1200), ("recursive", 1200),
            ("order", tree_route_edges), ("embedding", tree_route_edges)]
    for method, n in runs:
        if closed:  # the cycle C_n: x^(n-1) + ... + x + y
            expected = BivariatePolynomial({(k, 0): 1 for k in range(1, n)} | {(0, 1): 1})
        else:
            expected = f"x^{n}"
        graph = _long_graph(tmp_path, n, closed)
        code, out, err = run(capsys, "tutte", "--graph", graph, "--method", method)
        assert code == 0 and err == ""
        assert out == f"{method}: {expected}\n"


def test_python_dash_m_runs_the_cli(k3_file):
    # ``python -m tuttemap`` is the console script's twin, exit code included
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "tuttemap", "tutte", "--graph", k3_file,
                           "--method", "delcon"], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "delcon: x^2 + x + y\n", "")
    done = subprocess.run([sys.executable, "-m", "tuttemap", "tutte", "--graph", k3_file + "x"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1 and done.stderr.startswith("error: ")


def test_expansion_refused_above_its_bound(capsys, tmp_path):
    # 30 parallel edges would mean 2^30 subsets: refused at once, exit 1
    path = tmp_path / "parallel30.g"
    path.write_text("v 1\nv 2\n" + "".join(f"e p{i} 1 2\n" for i in range(30)))
    bound = f"bound is {MAX_EXPANSION_EDGES} edges"
    for argv in (("tutte", "--method", "all"), ("tutte", "--method", "expansion"),
                 ("check",)):
        code, out, err = run(capsys, *argv, "--graph", str(path))
        assert code == 1 and out == ""
        assert bound in err and "has 30" in err
    code, out, _ = run(capsys, "tutte", "--graph", str(path), "--method", "delcon")
    assert code == 0 and out == "delcon: x + " + " + ".join(
        f"y^{k}" if k > 1 else "y" for k in range(1, 30)) + "\n"


def test_check_refuses_a_long_path_at_the_expansion_bound(capsys, tmp_path):
    # the bound comes before the embedding guard, whose isomorphism test
    # recurses once per vertex and would run out of depth on 1,201 vertices
    graph = _long_graph(tmp_path, 1200, closed=False)
    code, out, err = run(capsys, "check", "--trials", "1", "--graph", graph)
    assert code == 1 and out == ""
    assert f"bound is {MAX_EXPANSION_EDGES} edges" in err and "has 1200" in err
    assert "resource limit" not in err


def test_check_builds_no_random_embedding_over_the_expansion_bound(capsys, monkeypatch,
                                                                   tmp_path):
    # cross_check meets the bound before it lists the embeddings, so the
    # default 20 trials build none of them
    made = []
    monkeypatch.setattr(cli, "_random_embedding", lambda *args: made.append(args))
    graph = _long_graph(tmp_path, MAX_EXPANSION_EDGES + 1, closed=False)
    code, out, err = run(capsys, "check", "--graph", graph)
    assert code == 1 and out == ""
    assert f"bound is {MAX_EXPANSION_EDGES} edges" in err and made == []


def test_unrooted_map_needs_root_flag(capsys, tmp_path):
    path = tmp_path / "unrooted.map"
    path.write_text("sigma: (h)(h')\nalpha: (h h')\n")
    code, _, err = run(capsys, "activities", "--map", str(path))
    assert code == 1 and "root" in err
    code, out, _ = run(capsys, "activities", "--map", str(path), "--root", "h")
    assert code == 0 and "-> x" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_check_rejects_negative_trials(capsys, k3_file):
    code, out, err = run(capsys, "check", "--graph", k3_file, "--trials", "-3")
    assert code == 1 and out == ""
    assert "--trials" in err and "-3" in err
    code, out, _ = run(capsys, "check", "--graph", k3_file, "--trials", "0")
    assert code == 0 and "over 0 random" in out


@pytest.mark.parametrize("method", ["all", "expansion", "delcon", "order",
                                    "embedding", "recursive"])
def test_disconnected_graph_names_connectivity(capsys, tmp_path, method):
    path = tmp_path / "two.g"
    path.write_text("v 1\nv 2\nv 3\ne a 1 2\n")
    code, _, err = run(capsys, "tutte", "--graph", str(path), "--method", method)
    assert code == 1 and "connected graphs only" in err
    if method == "all":
        code, _, err = run(capsys, "check", "--graph", str(path))
        assert code == 1 and "connected graphs only" in err


K4_TEXT = "v 1\nv 2\nv 3\nv 4\n" + "".join(
    f"e {e} {u} {v}\n" for e, u, v in
    (("a", 1, 2), ("b", 1, 3), ("c", 1, 4), ("d", 2, 3), ("e", 2, 4), ("f", 3, 4)))
K6_TEXT = "".join(f"v {v}\n" for v in range(6)) + "".join(
    f"e {u}{v} {u} {v}\n" for u in range(6) for v in range(u + 1, 6))
W9_TEXT = "".join(f"v {v}\n" for v in range(10)) + "".join(
    f"e r{i} {i} {i % 9 + 1}\ne s{i} 0 {i}\n" for i in range(1, 10))
PETERSEN_TEXT = "".join(f"v {v}\n" for v in range(10)) + "".join(
    f"e o{i} {i} {(i + 1) % 5}\ne i{i} {5 + i} {5 + (i + 2) % 5}\ne s{i} {i} {5 + i}\n"
    for i in range(5))
# two parallel edges, a triangle through them and a loop
LOOPY_TEXT = "v 1\nv 2\nv 3\ne a 1 2\ne b 1 2\ne c 2 3\ne d 3 1\ne l 1 1\n"

CHECK_ROWS = (
    "five evaluator methods agree",
    "T(1,1) equals the spanning tree count",
    "T(2,2) equals 2^|E|",
    "every tree tour is a single cycle",
    "minor tours equal the original tour with two half-edges erased",
    "embedding independence over {t} random rooted embeddings",
    "order independence over {t} random edge orders",
)


@pytest.mark.parametrize("text", [K4_TEXT, LOOPY_TEXT], ids=["k4", "loopy"])
@pytest.mark.parametrize("trials", [None, 0], ids=["default", "zero"])
def test_check_golden(capsys, tmp_path, text, trials):
    # the full row list, text and JSON, with the default seed
    path = tmp_path / "g.g"
    path.write_text(text)
    argv = ["check", "--graph", str(path)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    names = [row.format(t=20 if trials is None else trials) for row in CHECK_ROWS]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "".join(f"ok: {n}\n" for n in names) + "all checks passed\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = ",\n".join(
        f'    {{\n      "name": "{n}",\n      "ok": true\n    }}' for n in names)
    assert out == f'{{\n  "checks": [\n{rows}\n  ],\n  "ok": true\n}}\n'


def test_check_reports_a_failed_row(capsys, monkeypatch, tmp_path):
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    real = cli.kirchhoff_tree_count
    monkeypatch.setattr(cli, "kirchhoff_tree_count", lambda g: real(g) + 1)
    code, out, _ = run(capsys, "check", "--graph", str(path))
    assert code == 2
    lines = out.splitlines()
    assert ("FAIL: T(1,1) equals the spanning tree count"
            " (T(1,1)=16, Kirchhoff=17, trees=16)") in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert lines[-1] == "1 check(s) failed"
    code, out, _ = run(capsys, "check", "--graph", str(path), "--format", "json")
    assert code == 2 and json.loads(out)["ok"] is False


def test_check_runs_recursive_on_random_embeddings(capsys, monkeypatch, tmp_path):
    # a wrong recursive answer on the second random embedding fails the
    # embedding-independence row, and only that row
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    real, seen = engines.tutte_recursive_map, []

    def recursive(m):
        seen.append(m)
        return real(m) + (1 if len(seen) == 3 else 0)

    monkeypatch.setattr(engines, "tutte_recursive_map", recursive)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "5")
    assert code == 2 and len(seen) == 6
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: embedding independence over 5 random rooted embeddings"
        " (x^3 + 3 x^2 + 2 x + 4 x y + 1 + 2 y + 3 y^2 + y^3"
        " != x^3 + 3 x^2 + 2 x + 4 x y + 2 y + 3 y^2 + y^3)"]
    assert out.splitlines()[-1] == "1 check(s) failed"


def test_check_walks_the_trees_once_per_route(capsys, monkeypatch, tmp_path):
    # the 6 order rows share one walk, and the 6 embeddings, which all have
    # the one edge-labelled graph, another
    real, walks = engines.enumerate_spanning_trees, []
    monkeypatch.setattr(engines, "enumerate_spanning_trees",
                        lambda g: walks.append(g) or real(g))
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "5")
    assert code == 0 and out.endswith("all checks passed\n")
    assert len(walks) == 2


@settings(max_examples=50)
@given(random_connected_multigraphs().filter(lambda g: g.edge_count))
def test_check_passes_on_random_multigraphs(tmp_path_factory, graph):
    # loops, parallel edges and int ids reach the erase and T(1,1) rows
    path = tmp_path_factory.getbasetemp() / "random.g"
    path.write_text(graph.to_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "--graph", str(path), "--trials", "1"])
    assert code == 0 and out.getvalue().endswith("all checks passed\n"), out.getvalue()


def test_check_sees_the_dag_repeat_a_tree(capsys, monkeypatch, tmp_path):
    # the tree routes' enumerator repeats its first tree in place of its
    # last: the count still matches Kirchhoff, the sums do not
    real = engines.enumerate_spanning_trees

    def repeating(g):
        trees = list(real(g))
        return iter(trees[:-1] + trees[:1])

    monkeypatch.setattr(engines, "enumerate_spanning_trees", repeating)
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: five evaluator methods agree",
        "FAIL: embedding independence over 2 random rooted embeddings"]
    assert "order=2 x^3 + 3 x^2 + 2 x" in out


def test_check_counts_the_walks_trees(capsys, monkeypatch, tmp_path):
    # the erase row's draw drops its last tree while the routes' draws keep
    # all 16: only the T(1,1) row, which counts the erase row's trees, can
    # see it
    real = cli.enumerate_spanning_trees
    monkeypatch.setattr(cli, "enumerate_spanning_trees", lambda g: list(real(g))[:-1])
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: T(1,1) equals the spanning tree count (T(1,1)=16, Kirchhoff=16, trees=15)"]


def test_check_sees_the_dag_drop_a_tree(capsys, monkeypatch, tmp_path):
    # the one enumerator drops its last tree for the routes and the erase
    # row alike: the sums fail the five-way row, and the erase row's count
    # the T(1,1) row
    real = engines.enumerate_spanning_trees
    for module in (engines, cli):
        monkeypatch.setattr(module, "enumerate_spanning_trees", lambda g: iter(list(real(g))[:-1]))
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails[0].startswith("FAIL: five evaluator methods agree (")
    assert "FAIL: T(1,1) equals the spanning tree count (T(1,1)=16, Kirchhoff=16, trees=15)" in fails


def _keep_components_that_left(monkeypatch):
    # the DAG keeps a node whose component left the frontier while others
    # remain, so it yields forests: 38 edge sets on K4, 22 of them forests
    real = spanning._next_node
    monkeypatch.setattr(spanning, "_next_node",
                        lambda part, keep, gone, nxt: real(part, keep, [], nxt))


def test_check_exits_2_when_the_dag_keeps_a_component_that_left(capsys, monkeypatch, tmp_path):
    # the order routes draw first, and their batch kernel stops on the
    # first forest before any row is reported
    _keep_components_that_left(monkeypatch)
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, err = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2 and out == ""
    assert err == "internal invariant violation: tree 3 of the chunk is no spanning tree\n"


@pytest.mark.parametrize("per_edge, message", [
    (None, "tree 3 of the chunk is no spanning tree"),
    (7, "flags [1, 1, 0, 0, 0, 0] mark no spanning tree"),
], ids=["batch", "per-tree"])
def test_order_route_refuses_a_forest(capsys, monkeypatch, tmp_path, per_edge, message):
    # K4's 38 edge sets make one chunk: at least BATCH_TREES_PER_EDGE
    # = 3 per edge goes to the batch kernel, fewer than 7 to the per-tree
    # one, and either refuses the first forest
    _keep_components_that_left(monkeypatch)
    if per_edge is not None:
        monkeypatch.setattr(engines, "BATCH_TREES_PER_EDGE", per_edge)
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, err = run(capsys, "tutte", "--graph", str(path), "--method", "order")
    assert code == 2 and out == ""
    assert err == f"internal invariant violation: {message}\n"


# K4 less the edge 2-3
DIAMOND_TEXT = "v 1\nv 2\nv 3\nv 4\ne a 1 2\ne b 1 3\ne c 1 4\ne d 2 4\ne e 3 4\n"


def test_check_sees_two_frontier_partitions_share_a_dag_node(capsys, monkeypatch, tmp_path):
    # sorting the renumbered labels gives the diamond's frontier partitions
    # {1 3}{4} and {1 4}{3} one node: the DAG yields only spanning trees,
    # but too few, so the rows that sum or count them fail
    real = spanning._next_node

    def colliding(part, keep, gone, nxt):
        keys: dict = {}
        if real(part, keep, gone, keys) < 0:
            return -1
        (key,) = keys
        return nxt.setdefault(tuple(sorted(key)), len(nxt))

    monkeypatch.setattr(spanning, "_next_node", colliding)
    path = tmp_path / "diamond.g"
    path.write_text(DIAMOND_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: five evaluator methods agree",
        "FAIL: T(1,1) equals the spanning tree count",
        "FAIL: embedding independence over 2 random rooted embeddings",
        "FAIL: order independence over 2 random edge orders"]
    assert "order=2 x^2 + x + x y + y + y^2 /" in out
    monkeypatch.setattr(spanning, "_next_node", real)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 0 and out.endswith("all checks passed\n")


def test_check_exits_2_on_a_broken_tour(capsys, monkeypatch, k3_file):
    def broken(sigma, start, he_pos, flags):
        raise activity.MotionNotCyclicError("the tour closed early")

    monkeypatch.setattr(activity, "_tour", broken)
    code, out, err = run(capsys, "check", "--graph", k3_file)
    assert code == 2 and out == ""
    assert "internal invariant violation: the tour closed early" in err


@pytest.mark.parametrize("text, message", [
    (K4_TEXT, "tour closed after 3 of 12 half-edges"),
    (W9_TEXT, "tour closed after 3 of 36 half-edges"),
], ids=["k4", "w9"])
def test_check_exits_2_on_a_tour_that_steps_by_the_complement(
        capsys, monkeypatch, tmp_path, text, message):
    # _tour crosses at external edges and turns at tree edges. It is the
    # one tour walk: K4's 16 trees go tree by tree to _scan, which ranks
    # each tree's edges by it, and W9's 5,776 go to the batch kernel, so
    # there the erase row's walk stops first, on the DAG's first tree
    real = activity._tour
    monkeypatch.setattr(activity, "_tour", lambda sigma, start, he_pos, flags: real(
        sigma, start, he_pos, bytes(1 - f for f in flags)))
    path = tmp_path / "g.g"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2 and out == ""
    assert err == f"internal invariant violation: {message}\n"


def test_check_fails_the_erase_row_on_a_mirrored_minor(capsys, monkeypatch, tmp_path):
    # a bypass that inverts the erase check's minor rotation, on the
    # half-edges off edge k, leaves every evaluator alone (they bypass
    # through cmap), so the erase row is the only one that can see it
    real = activity._bypass

    def mirrored(sigma, k, contract):
        minor = real(sigma, k, contract)
        inverse = list(minor)
        for h, s in enumerate(minor):
            if h >> 1 != k:
                inverse[s] = h
        return inverse

    monkeypatch.setattr(activity, "_bypass", mirrored)
    path = tmp_path / "k4.g"
    path.write_text(K4_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path))
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: minor tours equal the original tour with two half-edges erased"]
    assert out.splitlines()[-1] == "1 check(s) failed"


def test_check_fails_when_contraction_skips_like_deletion(capsys, monkeypatch, tmp_path):
    # the erase row checks the one skip rule that the recursive route's
    # minors use, so a contraction that skips like a deletion fails both
    # the erase row and the rows that read the recursive route
    real = cmap._bypass

    def deleting(sigma, k, contract):
        return real(sigma, k, False)

    monkeypatch.setattr(cmap, "_bypass", deleting)
    monkeypatch.setattr(activity, "_bypass", deleting)
    path = tmp_path / "k6.g"
    path.write_text(K6_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: five evaluator methods agree",
        "FAIL: minor tours equal the original tour with two half-edges erased",
        "FAIL: embedding independence over 2 random rooted embeddings"]
    assert out.splitlines()[-1] == "3 check(s) failed"


def test_check_fails_the_erase_row_on_a_tour_that_drifts_on_some_trees(
        capsys, monkeypatch, tmp_path):
    # a tour fault on some trees only: the erase row steps every tree's
    # tour against the rotation, so keys passed on sound trees hide nothing
    real = activity._tour

    def drifting(sigma, start, he_pos, flags):
        seq = real(sigma, start, he_pos, flags)
        if sum(flags[:len(flags) // 2]) % 2:
            seq[1], seq[2] = seq[2], seq[1]
        return seq

    monkeypatch.setattr(activity, "_tour", drifting)
    path = tmp_path / "w9.g"
    path.write_text(W9_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "1")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: minor tours equal the original tour with two half-edges erased"]


def test_check_fails_the_five_way_row_on_a_pass_that_marks_the_child_end(
        capsys, monkeypatch, tmp_path):
    # the pass that hangs a chunk's trees (_hang) is shared by both batch
    # kernels; here each tree edge's parent-end mark lands on its other
    # half-edge. Petersen's 2,000 trees make one chunk above both
    # crossovers, so both tree routes go wrong and delcon, the expansion
    # and recursive, which share no pass, disagree with them. K4 would pass:
    # its 16 trees fall below the crossovers and go tree by tree
    real = activity._hang

    def flipped(out, start, planes, full):
        down, anc, reach = real(out, start, planes, full)
        return [down[h ^ 1] for h in range(len(down))], anc, reach

    monkeypatch.setattr(activity, "_hang", flipped)
    path = tmp_path / "petersen.g"
    path.write_text(PETERSEN_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "1")
    assert code == 2
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: five evaluator methods agree",
        "FAIL: embedding independence over 1 random rooted embeddings",
        "FAIL: order independence over 1 random edge orders"]
    assert out.splitlines()[-1] == "3 check(s) failed"
    monkeypatch.setattr(activity, "_hang", real)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "1")
    assert code == 0 and out.endswith("all checks passed\n")


@pytest.mark.parametrize("text", [K4_TEXT, DIAMOND_TEXT], ids=["k4", "diamond"])
def test_check_sees_the_per_tree_kernel_drop_an_active_edge(capsys, monkeypatch, tmp_path,
                                                           text):
    # the one per-tree kernel (_order_kernel) decides both tree routes: the
    # order route calls it, and _scan runs it in each tree's tour order.
    # Here it drops each tree's first internal-active edge. K4's 16 trees
    # and the diamond's 8 fall below the crossover and go tree by tree, so
    # both tree routes go wrong and delcon, the expansion and recursive,
    # which run no tree kernel, disagree with them. Unlike K4, the diamond
    # is not self-dual: its T is not symmetric in x and y
    real = activity._order_kernel

    def dropping(*args):
        kernel = real(*args)

        def drop(flags, *ranked):
            internal, external = kernel(flags, *ranked)
            return internal[1:], external

        return drop

    for module in (activity, engines):
        monkeypatch.setattr(module, "_order_kernel", dropping)
    path = tmp_path / "g.g"
    path.write_text(text)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: five evaluator methods agree",
        "FAIL: embedding independence over 2 random rooted embeddings",
        "FAIL: order independence over 2 random edge orders"]
    assert out.splitlines()[-1] == "3 check(s) failed"
    for module in (activity, engines):
        monkeypatch.setattr(module, "_order_kernel", real)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 0 and out.endswith("all checks passed\n")


# a triangle with a pendant edge
PENDANT_TEXT = "v 1\nv 2\nv 3\nv 4\ne a 1 2\ne b 2 3\ne c 1 3\ne d 3 4\n"


@pytest.mark.parametrize("text", [DIAMOND_TEXT, PENDANT_TEXT], ids=["diamond", "pendant"])
def test_check_sees_delcon_count_the_pivot_among_its_later_edges(capsys, monkeypatch, tmp_path,
                                                                 text):
    # delcon's isthmus test joins the pivot's ends through the later edges'
    # components; here the pivot edge counts among its own later edges, so
    # no non-loop is an isthmus and every isthmus is also deleted. Only
    # delcon reads that table, so only the five-way row fails
    real = engines._frontier_pivot

    def counting_itself(su, sv, keep, fresh, future):
        return real(su, sv, keep, fresh, [future[su] if f == future[sv] else f for f in future])

    monkeypatch.setattr(engines, "_frontier_pivot", counting_itself)
    path = tmp_path / "g.g"
    path.write_text(text)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 2
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL: five evaluator methods agree"]
    assert out.splitlines()[-1] == "1 check(s) failed"
    monkeypatch.setattr(engines, "_frontier_pivot", real)
    code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
    assert code == 0 and out.endswith("all checks passed\n")


def test_check_reads_each_minor_once(capsys, monkeypatch, tmp_path):
    # W9 has 18 edges: at most 2|E| = 36 minors, each read at most 2|E|
    # times, however many of its 5,776 trees the erase row walks
    real, reads, made = activity._bypass, [0], []

    class Counted(list):
        def __getitem__(self, i):
            reads[0] += 1
            return super().__getitem__(i)

    monkeypatch.setattr(activity, "_bypass",
                        lambda sigma, k, contract: made.append(k) or
                        Counted(real(sigma, k, contract)))
    path = tmp_path / "w9.g"
    path.write_text(W9_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path))
    assert code == 0 and out.endswith("all checks passed\n")
    assert 0 < len(made) <= 36 and 0 < reads[0] <= 36 ** 2


def test_check_builds_planes_once_per_chunk(capsys, monkeypatch, tmp_path):
    # W9's 5,776 trees make 2 chunks; the 21 orders share one walk and the
    # 21 embeddings (one edge-labelled graph) another, and each walk builds
    # each chunk's planes once for all its batch routes
    real, built = engines._planes, []
    monkeypatch.setattr(engines, "_planes",
                        lambda chunk, ne: built.append(len(chunk)) or real(chunk, ne))
    path = tmp_path / "w9.g"
    path.write_text(W9_TEXT)
    code, out, _ = run(capsys, "check", "--graph", str(path))
    assert code == 0 and out.endswith("all checks passed\n")
    assert built == [4096, 1680] * 2


def test_check_builds_no_minor_maps_and_no_tour_orders(capsys, monkeypatch, tmp_path):
    # the erase row bypasses edges in the flat rotation: it never builds a
    # minor map object or a name-keyed tour order
    def refuse(*args, **kwargs):
        raise AssertionError("check must not call this")

    monkeypatch.setattr(activity, "motion_function", refuse)
    monkeypatch.setattr(cli, "motion_function", refuse)
    for name in ("delete_edge", "contract_edge"):
        monkeypatch.setattr(CombinatorialMap, name, refuse)
    for text in (K4_TEXT, LOOPY_TEXT):
        path = tmp_path / "g.g"
        path.write_text(text)
        code, out, _ = run(capsys, "check", "--graph", str(path), "--trials", "2")
        assert code == 0 and out.endswith("all checks passed\n")


@pytest.mark.parametrize("sigma,alpha,message", ALPHA_DIAGNOSTICS)
def test_euler_names_the_bad_alpha_half_edge(capsys, tmp_path, sigma, alpha, message):
    path = tmp_path / "bad.map"
    path.write_text(f"sigma: {sigma}\nalpha: {alpha}\n")
    code, out, err = run(capsys, "euler", "--map", str(path))
    assert code == 1 and out == "" and message in err


def test_each_map_is_validated_once(capsys, monkeypatch, tmp_path, torus_file):
    # the constructor is the one place a map is checked, so a command
    # validates each map it builds exactly once
    calls = {"built": 0, "validated": 0}
    init, validate = CombinatorialMap.__init__, CombinatorialMap.validate

    def counted_init(self, *args, **kwargs):
        calls["built"] += 1
        init(self, *args, **kwargs)

    def counted_validate(self):
        calls["validated"] += 1
        validate(self)

    monkeypatch.setattr(CombinatorialMap, "__init__", counted_init)
    monkeypatch.setattr(CombinatorialMap, "validate", counted_validate)
    k4 = tmp_path / "k4.g"
    k4.write_text(K4_TEXT)
    for argv in (("tutte", "--graph", str(k4), "--method", "all"),
                 ("activities", "--map", torus_file)):
        calls.update(built=0, validated=0)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls["validated"] == calls["built"] >= 1, argv
    # the census prints from bare rotations, euler only looks the root up
    # (chi and genus do not depend on it), and a new root copies the map
    # without building it again
    for argv, built in ((("census", "--edges", "4"), 0),
                        (("census", "--edges", "4", "--format", "json"), 0),
                        (("euler", "--map", torus_file, "--root", "e'"), 1),
                        (("activities", "--map", torus_file, "--root", "c"), 1)):
        calls.update(built=0, validated=0)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls["validated"] == calls["built"] == built, argv


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("bad", [("--edges", "6"), ("--edges", "0"),
                                 ("--edges", "2", "--genus", "-1"),
                                 ("--edges", "6", "--genus", "4"),
                                 ("--edges", "0", "--genus", "1")])
def test_census_checks_its_bounds_before_printing(capsys, form, bad):
    code, out, err = run(capsys, "census", *bad, "--format", form)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_census_makes_no_rotation_for_a_genus_above_half_the_edges(capsys, monkeypatch):
    # V, F >= 1 give 2 - 2g = V - n + F >= 2 - n: no map with 5 edges has
    # genus 3, so the census lists none without making a rotation
    def refused(*args):
        raise AssertionError("a rotation was made")

    monkeypatch.setattr(mapenum, "_rooted_sigmas", refused)
    assert run(capsys, "census", "--edges", "5", "--genus", "3") == (0, "\n", "")
    assert run(capsys, "census", "--edges", "5", "--genus", "3", "--format", "json") == (
        0, '{\n  "count": 0,\n  "maps": []\n}\n', "")
    assert enumerate_rooted_maps(5, 3) == ()


@pytest.mark.parametrize("n, genus", [(n, g) for n in (1, 2, 3, 4)
                                      for g in (None, 0, 1, 2, 3)]
                         + [(5, g) for g in (None, 0, 1, 2)])
def test_census_prints_what_the_maps_print(capsys, n, genus):
    # the census formats rotations itself; the map objects are the reference
    census = enumerate_rooted_maps(n, genus)
    argv = ["census", "--edges", str(n)]
    if genus is not None:
        argv += ["--genus", str(genus)]
    # compared as lists of lines: a failing diff of the whole text is slow
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    want = "\n".join(m.to_text("; ") for m in census)
    assert out.split("\n") == (want + "\n").split("\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    want = json.dumps({"count": len(census),
                       "maps": [m.to_json_obj() for m in census]},
                      indent=2, sort_keys=True)
    assert out.split("\n") == (want + "\n").split("\n")


def test_euler_root_override(capsys, torus_file):
    code, out, err = run(capsys, "euler", "--map", torus_file, "--root", "c'")
    assert (code, out, err) == (0, "chi: 0\ngenus: 1\n", "")
    code, out, err = run(capsys, "euler", "--map", torus_file, "--root", "z")
    assert (code, out, err) == (1, "", "error: unknown half-edge 'z'\n")


# a valid file, and the words, ids and punctuation of its soups
_GRAPH_SOUP = ("v 1\nv 2\ne a 1 2\ne b 2 2\ne c 1 2", ["v", "e", "a", "b", "1", "2", "#"])
_MAP_SOUP = ("sigma: (a b)(a' b')\nalpha: (a a')(b b')\nroot: a",
             ["sigma:", "alpha:", "root:", "(", ")", "a", "a'", "b", "b'", ";", "#"])
_WORDS = ["bb'", "a", "a'", "aa'", "b", "aa',bb'", "z", ",", ""]


@settings(max_examples=300)
@given(data=st.data())
def test_malformed_input_never_crashes_the_cli(tmp_path_factory, data):
    # bad input exits 1 with a message; exit 2 and uncaught exceptions are
    # kept for broken invariants and bugs
    command = data.draw(st.sampled_from(
        ["tutte", "check", "euler", "activities", "tour", "minor"]))
    on_graph = command in ("tutte", "check")
    text, soup = _GRAPH_SOUP if on_graph else _MAP_SOUP
    lines = text.splitlines()
    line = st.sampled_from(text.splitlines()) | st.lists(st.sampled_from(soup), max_size=4).map(" ".join)
    for _ in range(data.draw(st.integers(0, 3))):  # delete, replace or add a line
        i = data.draw(st.integers(0, len(lines)))
        lines[i:i + 1] = data.draw(st.lists(line, max_size=1))
    path = tmp_path_factory.getbasetemp() / "soup.txt"
    path.write_text("\n".join(lines))
    argv = [command, "--graph" if on_graph else "--map", str(path),
            "--format", data.draw(st.sampled_from(["text", "json"]))]
    word = st.sampled_from(_WORDS)
    if command == "check":
        argv += ["--trials", "1"]
    elif command == "tour":
        argv += ["--tree", data.draw(word)]
    elif command == "minor":
        argv += [data.draw(st.sampled_from(["--delete", "--contract"])), data.draw(word)]
    if command != "check" and data.draw(st.booleans()):
        argv += ["--root", data.draw(word)]
    assert main(argv) in (0, 1)
