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
census filters genus on the rotation (``cmap._euler``). ``census_document``
lays out the printed census from the rotations: half-edge i is named h<i>
and the root is h0, so only the sigma cycles differ from map to map. Only
``enumerate_rooted_maps`` builds ``CombinatorialMap``s, and only for the
rotations it keeps.

``partition_function`` sums x^|I| y^|E| over the (map, spanning tree)
pairs by one of two routes that share no code:
- For genus g >= 1, the census sum (``_census_sum``) runs on the bare
  rotations: the tree walk (``spanning._tree_flags``) on the edge
  endpoints numbered by rotation cycle, and the tour kernel
  (``activity._scan``) on sigma with half-edge h on edge h >> 1.
- For all genera and for genus 0, a transfer over tour words
  (``_word_sum``) builds no map and walks no rotation or tree. A rooted map
  with a spanning tree is its tour, read as a word of 2n steps: the tree
  steps pair as nested parentheses and the external steps pair freely, or
  also nested when the map is planar (Bernardi, Bijective counting of
  tree-rooted maps and shuffles of parenthesis systems, EJC 14 (2007) R9).
  ``_scan``'s two rules then read off the word: a tree step is active
  unless an external step that opened before it closes inside its frame,
  and an external step is active if the frame on top at its opening is
  still open at its close. The transfer counts the prefixes of the words
  by what those rules still need to know, one word position at a time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Iterator

from .activity import _activity_sum, _scan
from .cmap import (CombinatorialMap, _cycle_labels, _cycles_text, _euler,
                   _named_cycles)
from .poly import BivariatePolynomial
from .spanning import _tree_flags

__all__ = ["enumerate_rooted_maps", "census_document", "partition_function",
           "MAX_CENSUS_EDGES", "MAX_WORD_STATES"]

# The census grows more than 10x per edge (8,162 maps at 5 edges, 110,410
# at 6), and partition_function sums every spanning tree of every map of a
# genus g >= 1; 5 edges already reach genus 2, which is all the desk-scale
# demonstration needs.
MAX_CENSUS_EDGES = 5

# The tour-word sum keeps at most this many states per word position. The
# widest position holds 17,872 states at 9 edges and 53,763 at 10 over all
# genera (19,893 and 61,598 planar), so it sums up to 9 edges, in well
# under a second.
MAX_WORD_STATES = 2 ** 15


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


def _census_sum(n: int, genus: int | None) -> BivariatePolynomial:
    """The census sum of ``partition_function``, one monomial per (map,
    spanning tree) pair, computed on the bare rotations (see the module
    docstring)."""
    sigmas = _census_sigmas(n, genus)
    he_pos = [h >> 1 for h in range(2 * n)]

    def pairs() -> Iterator[tuple]:
        for sigma in sigmas:
            kernel = _scan(sigma, 0, he_pos)
            for flags in _tree_flags(*_census_ends(sigma)):
                yield kernel(flags)

    return _activity_sum(pairs())


def _word_sum(n: int, planar: bool) -> BivariatePolynomial:
    """The sum of ``partition_function`` over all genera, or over genus 0
    when ``planar``, as a transfer over the positions of the tour words
    (see the module docstring). A state is (depth, dead, opens, i, j),
    counted with the number of word prefixes that reach it:
    - depth open tree steps stand as frames above the root's, which never
      closes; bit k of dead is set once an external step that opened
      before the frame at depth k has closed inside it;
    - opens holds 2m + alive for each open external step, where m is the
      lowest depth since it opened and alive says the frame on top at its
      opening is still open. A planar word may close only its newest
      external step, so it lists them newest first; any other word may
      close any of them, so it keeps them sorted, largest first, and
      states that differ only in their order merge;
    - i and j count the active tree and external steps so far."""
    level = {(0, 0, (), 0, 0): 1}
    for left in range(2 * n, 0, -1):  # the positions still to fill
        after = defaultdict(int)
        for (d, dead, opens, i, j), w in level.items():
            if d + len(opens) + 2 <= left:  # an open leaves room to close all
                after[d + 1, dead, opens, i, j] += w
                after[d, dead, (2 * d + 1,) + opens, i, j] += w
            if d:  # the top frame closes, active unless dead; an external
                # step whose lowest depth was d reaches d - 1, and the frame
                # on top at its opening has closed by now
                top, below = divmod(dead, 1 << d)
                fallen = [e if e >> 1 < d else 2 * d - 2 for e in opens]
                if not planar:
                    fallen.sort(reverse=True)
                after[d - 1, below, tuple(fallen), i + 1 - top, j] += w
            for e in opens[:1] if planar else opens:
                k = opens.index(e)
                kill = (2 << d) - (2 << (e >> 1))  # the frames deeper than m
                after[d, dead | kill, opens[:k] + opens[k + 1:], i, j + (e & 1)] += w
        if len(after) > MAX_WORD_STATES:
            raise ValueError(f"state budget is {MAX_WORD_STATES} per word position;"
                             f" {n} edges need {len(after)}")
        level = after
    return BivariatePolynomial((key[3:], w) for key, w in level.items())


def partition_function(n: int, genus: int | None = None) -> BivariatePolynomial:
    """Sum of the embedding-activity generating function over the rooted
    maps with n edges and, when given, that genus: one monomial per (map,
    spanning tree) pair. All genera and genus 0 come from the tour words
    (``_word_sum``), within MAX_WORD_STATES states per word position; genus
    g >= 1 from the census (``_census_sum``), within MAX_CENSUS_EDGES."""
    if n < 1 or genus not in (None, 0):
        return _census_sum(n, genus)  # which also refuses a bad n or genus
    return _word_sum(n, genus == 0)
