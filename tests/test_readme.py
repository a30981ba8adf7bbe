"""The README's library example and command lines run, and give the results
their comments claim."""

import re
import shlex
from pathlib import Path

from tuttemap.cli import main

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


def test_readme_commands_run_and_print_their_comments(tmp_path, monkeypatch, capsys):
    # the example files are the plain blocks whose first line names them
    text = README.read_text()
    files = dict(re.findall(r"^```\n(# (\S+):.*?)^```", text, re.M | re.S))
    assert sorted(files.values()) == ["k3.g", "torus.map"]
    for body, name in files.items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
                if b.startswith("tuttemap ")]
    # each command: its arguments, its output, its inline comment and the
    # comment lines under it
    runs = []
    for line in block.splitlines():
        if line.startswith("# "):
            runs[-1][3].append(line[2:])
        elif line:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "tuttemap", line
            code = main(argv[1:])
            assert code == 0, line
            runs.append((argv[1], capsys.readouterr().out, line.partition("#")[2].strip(), []))
    printed = {command: (out, inline, below) for command, out, inline, below in runs}
    assert len(runs) == 9
    out, _, below = printed["tour"]
    assert out.splitlines() == below
    out, inline, _ = printed["euler"]
    assert " / ".join(out.splitlines()) == inline
