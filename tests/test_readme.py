"""The README's library example runs, and gives the results its comments claim."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a top-level line of the example, and the result its comment states
CLAIMS = [
    ("t = tutte_subgraph_expansion(g)", "x^2 + x + y"),
    ("t.evaluate(1, 1)", "3"),
    ("tutte_embedding_activities(m) == t", "True"),
    ("len(set(polys.values())) == 1", "True"),
]


def test_readme_library_example_gives_its_commented_results():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    ns: dict = {}
    exec(block, ns)
    for code, result in CLAIMS:
        assert re.search(rf"^{re.escape(code)}\s+# {re.escape(result)}\b", block, re.M), code
        target, assign, _ = code.partition(" = ")
        assert str(ns[target] if assign else eval(code, ns)) == result
