"""Seeded inputs and job lists for the three workloads.

The seed relabels every graph and shuffles the line order of its file; T is
invariant under relabeling. Sorted edge ids are the edge order of `order`
and `delcon` and give the default rotation and root of `embedding` and
`recursive`. On `trees` the seed shuffles edge labels too, so each seed
times other edge orders, rotations and roots. On `recursion` edge labels
keep their construction order and the two random graphs are drawn from a
fixed generator seed: delcon's cost moves by a factor of four between edge
orders of grid 4x4 and by a factor of five between random 13-vertex graphs,
so seeding either made `delcon` differ between seeds by far more than any
change under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


def complete(n: int):
    return list(range(n)), list(itertools.combinations(range(n), 2))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return list(range(10)), outer + inner + spokes


def grid(rows: int, cols: int):
    verts = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [((r, c), (r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [((r, c), (r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return verts, edges


def wheel(rim: int):
    """Hub 0 joined to a cycle on 1..rim: rim + 1 vertices, 2 * rim edges."""
    cycle = [(i, i % rim + 1) for i in range(1, rim + 1)]
    return list(range(rim + 1)), cycle + [(0, i) for i in range(1, rim + 1)]


def random_connected(rng: random.Random, n: int, m: int):
    """A simple connected graph: a random recursive tree plus random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    free = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    edges.update(rng.sample(free, m - len(edges)))
    return list(range(n)), sorted(edges)


NAMED = {
    "K6": lambda: complete(6),
    "Petersen": petersen,
    "grid3x4": lambda: grid(3, 4),
    "grid4x4": lambda: grid(4, 4),
    "W9": lambda: wheel(9),
    "W10": lambda: wheel(10),
}

RANDOM_SIZE = (13, 24)
RANDOM_FAMILY_SEED = 2010


@dataclass(frozen=True)
class Graph:
    name: str
    vertices: tuple
    edges: tuple  # (edge label, u, v)

    def text(self, rng: random.Random) -> str:
        lines = [f"v {v}" for v in self.vertices]
        lines += [f"e {e} {u} {v}" for e, u, v in self.edges]
        rng.shuffle(lines)
        lines.sort(key=lambda ln: ln[0] != "v")  # vertices before edges
        return "\n".join(lines) + "\n"


def relabel(name: str, verts, edges, rng: random.Random, shuffle_edges: bool) -> Graph:
    """Seeded vertex labels; edge labels shuffled too, or kept in
    construction order (zero-padded, so sorted ids keep that order)."""
    vnames = [f"v{k}" for k in rng.sample(range(len(verts)), len(verts))]
    vmap = dict(zip(verts, vnames))
    ks = rng.sample(range(len(edges)), len(edges)) if shuffle_edges else range(len(edges))
    return Graph(
        name,
        tuple(vnames),
        tuple((f"e{k:02d}", vmap[u], vmap[v]) for k, (u, v) in zip(ks, edges)),
    )


@dataclass(frozen=True)
class Job:
    """One CLI invocation; `command` is the end-to-end slot it is timed in."""

    label: str
    command: str
    argv: tuple
    graph: Graph | None = None
    genus: int | None = None


# the two commands alternate, so that both are timed across the whole run
TREES = [(m, g) for g in ("K6", "Petersen", "grid3x4", "W9", "W10")
         for m in ("order", "embedding")]
RECURSION = [
    pair
    for d, r in zip(("grid4x4", "W10", "random1", "random2"),
                    ("Petersen", "grid3x4", "W9", "W10"))
    for pair in (("delcon", d), ("recursive", r))
]

CENSUS_EDGES = 4
GENERA = (None, 0, 1, 2)

# the two commands of each workload, in slot order (cmd_a_s, cmd_b_s)
COMMANDS = {
    "trees": ("order", "embedding"),
    "recursion": ("delcon", "recursive"),
    "census": ("census", "zpoly"),
}


def make_graphs(workload: str, rng: random.Random) -> dict[str, Graph]:
    pairs = TREES if workload == "trees" else RECURSION
    graphs = {}
    for name in sorted({g for _, g in pairs}):  # sorted: draws in a fixed order
        if name.startswith("random"):
            family = random.Random(RANDOM_FAMILY_SEED + int(name[len("random"):]))
            verts, edges = random_connected(family, *RANDOM_SIZE)
        else:
            verts, edges = NAMED[name]()
        graphs[name] = relabel(name, verts, edges, rng, shuffle_edges=workload == "trees")
    return graphs


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the seeded input files under workdir and return the job list."""
    rng = random.Random(seed)
    if workload == "census":
        jobs = []
        for genus in GENERA:
            for command in COMMANDS["census"]:
                argv = [command, "--edges", str(CENSUS_EDGES), "--format", "json"]
                if genus is not None:
                    argv += ["--genus", str(genus)]
                tag = "all" if genus is None else f"g{genus}"
                jobs.append(Job(f"{command}:{tag}", command, tuple(argv), genus=genus))
        return jobs
    graphs = make_graphs(workload, rng)
    for g in graphs.values():
        (workdir / f"{g.name}.g").write_text(g.text(rng), encoding="utf-8")
    pairs = TREES if workload == "trees" else RECURSION
    return [
        Job(
            f"{method}:{name}",
            method,
            ("tutte", "--graph", str(workdir / f"{name}.g"), "--method", method,
             "--format", "json"),
            graph=graphs[name],
        )
        for method, name in pairs
    ]
