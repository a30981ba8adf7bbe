"""Write tests/cli_golden.json: the golden CLI corpus.

    PYTHONPATH=src python tests/make_cli_golden.py

Each record is one command line, the exit code ``cli.main`` returned and
the exact text it printed to stdout, run in-process in a directory that
holds the corpus files. ``test_cli_golden.py`` replays every record and
compares. Regenerate only when a change means to alter the output, and say
what changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

OUT = Path(__file__).resolve().parent / "cli_golden.json"


def _graph(vertices, edges) -> str:
    return "".join(f"v {v}\n" for v in vertices) + "".join(
        f"e {e} {u} {v}\n" for e, u, v in edges)


def _wheel(rim: int) -> str:
    return _graph(range(rim + 1), [
        e for i in range(1, rim + 1)
        for e in ((f"r{i}", i, i % rim + 1), (f"s{i}", 0, i))])


GRAPHS = {
    "loop": _graph([1], [("l", 1, 1)]),
    "bond3": _graph([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)]),
    "path4": _graph(range(5), [(f"p{i}", i, i + 1) for i in range(4)]),
    "cycle5": _graph(range(5), [(f"c{i}", i, (i + 1) % 5) for i in range(5)]),
    "k3": _graph([1, 2, 3], [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]),
    "k4": _graph([1, 2, 3, 4], [("a", 1, 2), ("b", 1, 3), ("c", 1, 4),
                                ("d", 2, 3), ("e", 2, 4), ("f", 3, 4)]),
    "diamond": _graph([1, 2, 3, 4], [("a", 1, 2), ("b", 1, 3), ("c", 2, 3),
                                     ("d", 2, 4), ("e", 3, 4)]),
    "lollipop": _graph([1, 2, 3, 4], [("a", 1, 2), ("b", 2, 3), ("c", 3, 1),
                                      ("s", 1, 4), ("l", 4, 4)]),
    "bowtie": _graph(range(5), [("a", 0, 1), ("b", 1, 2), ("c", 2, 0),
                                ("d", 0, 3), ("e", 3, 4), ("f", 4, 0)]),
    "loopy": _graph([1, 2, 3], [("a", 1, 2), ("b", 1, 2), ("c", 2, 3),
                                ("d", 3, 1), ("l", 1, 1)]),
    "k5": _graph(range(5), [(f"{u}{v}", u, v) for u in range(5) for v in range(u + 1, 5)]),
    "w6": _wheel(6),
    "petersen": _graph(range(10), [
        e for i in range(5)
        for e in ((f"o{i}", i, (i + 1) % 5), (f"i{i}", 5 + i, 5 + (i + 2) % 5),
                  (f"s{i}", i, 5 + i))]),
}

MAPS = {
    "torus": "sigma: (a f' b d)(d')(a' e f c)(e' b' c')\n"
             "alpha: (a a')(b b')(c c')(d d')(e e')(f f')\nroot: a\n",
    "loopy": "sigma: (p q l l')(p' q')\nalpha: (p p')(q q')(l l')\nroot: p\n",
    "loop": "sigma: (h h')\nalpha: (h h')\nroot: h\n",
    "isthmus": "sigma: (h)(h')\nalpha: (h h')\nroot: h\n",
    # K4 drawn in the plane, and one vertex with four loops on genus 2
    "k4plane": "sigma: (a b c)(d a' e)(f b' d')(e' c' f')\n"
               "alpha: (a a')(b b')(c c')(d d')(e e')(f f')\nroot: a\n",
    "genus2": "sigma: (a b a' b' c d c' d')\nalpha: (a a')(b b')(c c')(d d')\nroot: a\n",
    "unrooted": "sigma: (h)(h')\nalpha: (h h')\n",
}

FILES = {
    **{f"{name}.g": text for name, text in GRAPHS.items()},
    **{f"{name}.map": text for name, text in MAPS.items()},
    "bad.g": "v 1\ne a 1 q\n",
    "split.g": "v 1\nv 2\nv 3\nv 4\ne a 1 2\ne b 3 4\n",
    "point.g": "v 1\n",
    "path20.g": _graph(range(21), [(f"p{i:02}", i, i + 1) for i in range(20)]),
}

METHODS = ("expansion", "delcon", "order", "embedding", "recursive", "all")


def command_lines():
    """Every command line of the corpus, each once per output format."""
    lines = []
    for name in GRAPHS:
        lines += [["tutte", "--graph", f"{name}.g", "--method", m] for m in METHODS]
    lines += [["tutte", "--graph", "k4.g", "--root", "c'"],
              ["tutte", "--graph", "loopy.g", "--method", "recursive", "--root", "l"]]
    for n in range(1, 5):
        lines.append(["zpoly", "--edges", str(n)])
        lines += [["zpoly", "--edges", str(n), "--genus", str(g)]
                  for g in range(n // 2 + 2)]
    lines += [["census", "--edges", "2"], ["census", "--edges", "3", "--genus", "1"],
              ["census", "--edges", "4", "--genus", "2"]]
    for name in ("torus", "loopy", "loop", "isthmus", "k4plane", "genus2"):
        lines += [["activities", "--map", f"{name}.map"],
                  ["euler", "--map", f"{name}.map"]]
    lines += [["activities", "--map", "torus.map", "--root", "e"],
              ["activities", "--map", "unrooted.map", "--root", "h'"],
              ["tour", "--map", "torus.map", "--tree", "aa',bb',dd'"],
              ["tour", "--map", "torus.map", "--tree", "c,d',f", "--root", "b'"],
              ["tour", "--map", "loopy.map", "--tree", "p"],
              ["tour", "--map", "k4plane.map", "--tree", "a,b,c"],
              ["minor", "--map", "torus.map", "--delete", "aa'", "--root", "b"],
              ["minor", "--map", "torus.map", "--contract", "bb'"],
              ["minor", "--map", "loopy.map", "--delete", "q"],
              ["minor", "--map", "loopy.map", "--contract", "p", "--root", "q"],
              ["minor", "--map", "k4plane.map", "--contract", "f"],
              ["minor", "--map", "genus2.map", "--delete", "b"],
              ["euler", "--map", "unrooted.map"]]
    for name in ("loop", "bond3", "path4", "cycle5", "k3", "k4", "diamond",
                 "lollipop", "bowtie", "loopy", "k5", "w6"):
        lines.append(["check", "--graph", f"{name}.g"])
    lines += [["check", "--graph", f"{name}.g", "--trials", "2"]
              for name in ("k4", "diamond", "loopy", "w6")]
    lines += [["check", "--graph", "k4.g", "--trials", "0"],
              ["check", "--graph", "loopy.g", "--trials", "3", "--seed", "7"]]
    # input errors, each exit 1
    lines += [["tutte", "--graph", "missing.g"],
              ["tutte", "--graph", "bad.g"],
              ["tutte", "--graph", "split.g"],
              ["tutte", "--graph", "point.g"],
              ["tutte", "--graph", "k3.g", "--root", "zz"],
              ["tutte", "--graph", "k3.g", "--method", "nope"],
              ["tutte", "--graph", "path20.g", "--method", "expansion"],
              ["tutte"],
              ["minor", "--map", "loop.map", "--delete", "h"],
              ["minor", "--map", "torus.map", "--delete", "dd'"],
              ["minor", "--map", "torus.map", "--delete", "aa'"],
              ["minor", "--map", "torus.map", "--contract", "zz"],
              ["tour", "--map", "torus.map", "--tree", "aa',bb'"],
              ["tour", "--map", "torus.map", "--tree", "a,a'"],
              ["activities", "--map", "unrooted.map"],
              ["euler", "--map", "torus.map", "--root", "zz"],
              ["zpoly", "--edges", "0"],
              ["zpoly", "--edges", "4", "--genus", "-1"],
              ["census", "--edges", "0"],
              ["check", "--graph", "k3.g", "--trials", "-1"],
              ["check", "--graph", "split.g"],
              ["check", "--graph", "path20.g"]]
    return [argv + fmt for argv in lines for fmt in ([], ["--format", "json"])]


def run(main, argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``main(argv)`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main() -> None:
    from tuttemap.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        here = os.getcwd()
        os.chdir(tmp)
        try:
            records = []
            for argv in command_lines():
                code, stdout = run(cli_main, argv)
                records.append({"argv": argv, "code": code, "stdout": stdout})
        finally:
            os.chdir(here)
    OUT.write_text(json.dumps({"files": FILES, "records": records}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"{len(records)} records -> {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
