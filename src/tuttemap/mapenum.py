"""Exhaustive census of rooted maps with n edges, and the activity
generating function summed over the census.

Every census map uses half-edges 0..2n-1 with partner h ^ 1 and root 0,
labelled in the order a walk from the root first reaches them: reading
h = 0, 1, 2, ..., sigma(h) is either a half-edge already reached or the
first half-edge 2k of the next edge, whose partner 2k+1 is reached with it.
This is the labelling ``CombinatorialMap.canonical_form`` returns, and a
rooted map has exactly one such labelling, so generating the labellings
yields each rooted map once, connected and with no duplicate, and needs no
isomorphism test.

In that labelling edge k is half-edges 2k and 2k+1 and the vertices are the
cycles of sigma, so the rotation alone is a map's whole description. The
census filters genus on the rotation (``cmap._euler``), and
``partition_function`` sums on the bare rotations too: the tree walk
(``spanning._tree_flags``) runs on the edge endpoints numbered by rotation
cycle, and the tour kernel (``activity._scan``, a function from a tree's
flags to its active edge positions) on sigma with half-edge h on edge
h >> 1; ``activity._activity_sum`` counts the pairs it returns, as it does
for the evaluators. ``census_document`` lays out the printed census from
the rotations too: half-edge i is named h<i> and the root is h0, so only
the sigma cycles differ from map to map. Only ``enumerate_rooted_maps``
builds ``CombinatorialMap``s, and only for the rotations it keeps.
"""

from __future__ import annotations

import json
from typing import Iterator

from .activity import _activity_sum, _scan
from .cmap import (CombinatorialMap, _cycle_labels, _cycles_text, _euler,
                   _named_cycles)
from .poly import BivariatePolynomial
from .spanning import _tree_flags

__all__ = ["enumerate_rooted_maps", "census_document", "partition_function",
           "MAX_CENSUS_EDGES"]

# The census grows more than 10x per edge (8,162 maps at 5 edges, 110,410
# at 6), and partition_function sums every spanning tree of every map; 5
# edges already reach genus 2, which is all the desk-scale demonstration
# needs.
MAX_CENSUS_EDGES = 5


def _rooted_sigmas(n: int) -> Iterator[tuple[int, ...]]:
    """The rotation of every rooted map with n edges, once each, in its
    first-visit labelling (see the module docstring)."""
    size = 2 * n
    sigma = [0] * size
    taken = [False] * size  # already the image of some half-edge

    def walk(h: int, reached: int) -> Iterator[tuple[int, ...]]:
        if h == size:
            yield tuple(sigma)
        elif h < reached:  # else the walk closed before it met every edge
            for t in range(reached + (reached < size)):
                if not taken[t]:
                    sigma[h], taken[t] = t, True
                    yield from walk(h + 1, reached + 2 * (t == reached))
                    taken[t] = False

    return walk(0, 2)


def _census_sigmas(n: int, genus: int | None) -> Iterator[tuple[int, ...]]:
    """The rotations of the census maps with n edges and, when given, that
    genus (Euler characteristic 2 - 2*genus). The bounds are checked here,
    before the first rotation is made."""
    if n < 1:
        raise ValueError("a map census needs at least one edge")
    if n > MAX_CENSUS_EDGES:
        raise ValueError(
            f"census bound is {MAX_CENSUS_EDGES} edges"
            " (the census grows more than 10x per edge)"
        )
    if genus is not None and genus < 0:
        raise ValueError("genus cannot be negative")
    if genus is None:
        return _rooted_sigmas(n)
    chi = 2 - 2 * genus
    return (s for s in _rooted_sigmas(n) if _euler(s) == chi)


def _census_ends(sigma: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count of a census rotation and the endpoints of each edge
    k (half-edges 2k and 2k+1), vertices numbered as cycles of sigma."""
    vertex, nv = _cycle_labels(sigma)
    return nv, list(zip(vertex[::2], vertex[1::2]))


def enumerate_rooted_maps(n: int,
                          genus: int | None = None) -> tuple[CombinatorialMap, ...]:
    """Census of rooted maps with n edges, one per rooted isomorphism class.

    ``genus``, when given, keeps only maps with Euler characteristic
    2 - 2*genus. Bounded at MAX_CENSUS_EDGES edges.
    """
    sigmas = _census_sigmas(n, genus)
    names = tuple(f"h{i}" for i in range(2 * n))
    return tuple(CombinatorialMap(s, names, root=0) for s in sigmas)


def census_document(n: int, genus: int | None, form: str) -> str:
    """The census as ``census`` prints it, made from the rotations with no
    map object. With form "text", one map per line in its one-line text
    form (``to_text("; ")``); with "json", the ``{count, maps}`` object
    that ``json.dumps(..., indent=2, sort_keys=True)`` would print, each
    map as its ``to_json_obj()``. The alpha and root parts are the same for
    every map with n edges, so they are formatted once."""
    sigmas = _census_sigmas(n, genus)
    names = [f"h{i}" for i in range(2 * n)]
    alpha = _named_cycles([h ^ 1 for h in range(2 * n)], names)
    if form == "text":
        tail = f"; alpha: {_cycles_text(alpha)}; root: h0"
        return "\n".join("sigma: " + _cycles_text(_named_cycles(s, names)) + tail
                         for s in sigmas)
    # each map object is laid out at its depth in the maps list: keys at 6
    # spaces, cycles at 8, names at 10
    quoted = {nm: "\n          " + json.dumps(nm) for nm in names}

    def cycles_json(cycles: list[list[str]]) -> str:
        return "[" + ",".join("\n        [" + ",".join(quoted[nm] for nm in c)
                              + "\n        ]" for c in cycles) + "\n      ]"

    head = ('{\n      "alpha": ' + cycles_json(alpha)
            + ',\n      "root": "h0",\n      "sigma": ')
    maps = [head + cycles_json(_named_cycles(s, names)) + "\n    }"
            for s in sigmas]
    # one null stands for the maps (none for an empty census)
    return json.dumps({"count": len(maps), "maps": [None] * bool(maps)},
                      indent=2, sort_keys=True).replace("null", ",\n    ".join(maps))


def partition_function(n: int, genus: int | None = None) -> BivariatePolynomial:
    """Sum of the embedding-activity generating function over the census,
    one monomial per (map, spanning tree) pair, computed on the bare
    rotations (see the module docstring)."""
    sigmas = _census_sigmas(n, genus)
    he_pos = [h >> 1 for h in range(2 * n)]

    def pairs() -> Iterator[tuple]:
        for sigma in sigmas:
            kernel = _scan(sigma, 0, he_pos)
            for flags in _tree_flags(*_census_ends(sigma)):
                yield kernel(flags)

    return _activity_sum(pairs())
