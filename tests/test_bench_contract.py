"""What the benchmark harness in ``perfbench/`` relies on in the package.

``perfbench/tracing.py`` wraps the (module, attribute) pairs listed in its
``FUNCTIONS`` table, and ``--trace 1`` checks the trees counted through
``engines.enumerate_spanning_trees`` against the Kirchhoff count. The
table is read with ``ast``, so nothing under ``perfbench/`` is imported or
written.
"""

import ast
import importlib
from pathlib import Path

import pytest

from tuttemap import Multigraph, engines, kirchhoff_tree_count
from tuttemap.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_functions() -> list:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no FUNCTIONS table")


def test_every_traced_function_resolves():
    functions = _traced_functions()
    assert functions
    for module, attr, _ in functions:
        owner = importlib.import_module(f"tuttemap.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr)), f"{module}.{attr}"


K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)]
                  + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
# the wheel W9 has 5,776 trees: more than one chunk of the order route
W9_EDGES = [(i, i % 9 + 1) for i in range(1, 10)] + [(0, i) for i in range(1, 10)]


@pytest.mark.parametrize("edges", [K4_EDGES, PETERSEN_EDGES, W9_EDGES],
                         ids=["k4", "petersen", "w9"])
@pytest.mark.parametrize("method", ["order", "embedding"])
def test_tree_routes_draw_the_kirchhoff_count(capsys, monkeypatch, tmp_path,
                                              edges, method):
    verts = sorted({v for e in edges for v in e})
    path = tmp_path / "g.g"
    path.write_text("".join(f"v {v}\n" for v in verts)
                    + "".join(f"e e{i} {u} {v}\n" for i, (u, v) in enumerate(edges)))
    real, drawn = engines.enumerate_spanning_trees, []

    def counting(graph):
        for st in real(graph):
            drawn.append(st)
            yield st

    monkeypatch.setattr(engines, "enumerate_spanning_trees", counting)
    assert main(["tutte", "--graph", str(path), "--method", method]) == 0
    capsys.readouterr()
    want = kirchhoff_tree_count(Multigraph(verts, dict(enumerate(edges))))
    assert len(drawn) == want
    if edges is W9_EDGES:
        assert want > engines.TREE_CHUNK
