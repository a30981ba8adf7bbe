"""Answer checks that share no code with the package under test.

Polynomials are read from the CLI's JSON output into plain
{(dx, dy): coeff} dicts. Tree counts come from Kirchhoff's theorem with an
exact integer (Bareiss) determinant. Genus comes from counting vertex and
face cycles of the printed rotation system.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDENS_FILE = Path(__file__).with_name("goldens.json")

# rooted maps with 4 edges, by genus (Walsh-Lehman), and sum over the census
# of spanning-tree counts: all genera, and planar C_4 * C_5 = 14 * 42
CENSUS_COUNTS = {None: 706, 0: 378, 1: 307, 2: 21}
Z11 = {None: 1099, 0: 588}


class OracleError(AssertionError):
    """A program output disagrees with an oracle."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


def load_goldens() -> dict[str, dict]:
    raw = json.loads(GOLDENS_FILE.read_text(encoding="utf-8"))
    return {name: poly_from_terms(terms) for name, terms in raw.items()}


def poly_from_terms(terms) -> dict:
    return {(int(t["dx"]), int(t["dy"])): int(t["c"]) for t in terms}


def evaluate(poly: dict, x: int, y: int) -> int:
    return sum(c * x ** dx * y ** dy for (dx, dy), c in poly.items())


def poly_sum(polys) -> dict:
    out: dict = {}
    for p in polys:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def tree_count(vertices, edges) -> int:
    """Kirchhoff: any cofactor of the Laplacian; loops are ignored."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(index)
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        i, j = index[u], index[v]
        if i != j:
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
    return determinant([row[1:] for row in lap[1:]])


def check_tutte(poly: dict, n_edges: int, trees: int, golden: dict | None) -> None:
    check(evaluate(poly, 1, 1) == trees, f"T(1,1) = {evaluate(poly, 1, 1)}, Kirchhoff {trees}")
    check(evaluate(poly, 2, 2) == 2 ** n_edges, "T(2,2) != 2^|E|")
    if golden is not None:
        check(poly == golden, "T differs from the committed golden")


def _cycles(perm: dict) -> int:
    seen, count = set(), 0
    for h in perm:
        if h not in seen:
            count += 1
            while h not in seen:
                seen.add(h)
                h = perm[h]
    return count


def map_shape(obj: dict) -> tuple[list, list, int, tuple]:
    """Vertices, edges as vertex pairs, genus and a rooted-isomorphism key
    of one map in the CLI's JSON form."""
    sigma = {}
    vertex_of = {}
    for vid, cyc in enumerate(obj["sigma"]):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b
            vertex_of[a] = vid
    alpha = {}
    for a, b in obj["alpha"]:
        alpha[a], alpha[b] = b, a
    check(set(sigma) == set(alpha), "sigma and alpha cover different half-edges")
    faces = _cycles({h: sigma[alpha[h]] for h in sigma})
    n_vertices, n_edges = len(obj["sigma"]), len(obj["alpha"])
    chi = n_vertices - n_edges + faces
    edges = [(vertex_of[a], vertex_of[b]) for a, b in obj["alpha"]]
    # number half-edges in the order a walk from the root first meets them,
    # stepping by alpha before sigma; equal keys mean rooted-isomorphic maps
    label = {obj["root"]: 0}
    queue = [obj["root"]]
    for h in queue:
        for nxt in (alpha[h], sigma[h]):
            if nxt not in label:
                label[nxt] = len(queue)
                queue.append(nxt)
    check(len(queue) == len(sigma), "census map is not connected")
    key = tuple((label[sigma[h]], label[alpha[h]]) for h in queue)
    return list(range(n_vertices)), edges, (2 - chi) // 2, key


def check_census(out: dict, genus: int | None, n_edges: int) -> int:
    """Checks one census output; returns its summed tree count (Z(1,1))."""
    maps = out["maps"]
    check(out["count"] == len(maps) == CENSUS_COUNTS[genus],
          f"census count {out['count']}, expected {CENSUS_COUNTS[genus]}")
    keys = set()
    total = 0
    for m in maps:
        verts, edges, g, key = map_shape(m)
        check(len(edges) == n_edges, "census map has the wrong edge count")
        check(genus is None or g == genus, f"census map of genus {g} in genus {genus}")
        keys.add(key)
        total += tree_count(verts, edges)
    check(len(keys) == len(maps), "census lists two rooted-isomorphic maps")
    return total


def check_zpoly(z: dict, genus: int | None) -> None:
    if genus in Z11:
        check(evaluate(z, 1, 1) == Z11[genus], f"Z(1,1) = {evaluate(z, 1, 1)}")
    if genus == 0:
        check(z == {(dy, dx): c for (dx, dy), c in z.items()}, "planar Z is not symmetric")
