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
genus is filtered inside the walk (``_rooted_sigmas``), not on finished
rotations: the walk counts the vertex and face cycles as they close and
cuts every branch whose count can no longer reach V + F = n + 2 - 2g.
``census_document`` lays out the printed census from the rotations:
half-edge i is named h<i> and the root is h0, so only the sigma cycles
differ from map to map, and each distinct cycle is formatted once. Only
``enumerate_rooted_maps`` builds ``CombinatorialMap``s, and only for the
rotations it keeps.

``partition_function`` sums x^|I| y^|E| over the (map, spanning tree)
pairs by a transfer over tour words (``_word_sum``), which builds no map
and walks no rotation or tree. A rooted map with a spanning tree is its
tour, read as a word of 2n steps: the tree steps pair as nested
parentheses and the external steps pair freely (Bernardi, Bijective
counting of tree-rooted maps and shuffles of parenthesis systems, EJC 14
(2007) R9). An edge ranks by the step that opens it, and the nesting turns
the classical definition in that order into two rules on the word: a tree
step is active unless an external step that opened before it closes
inside its frame, and an external step is active if the frame on top at
its opening is still open at its close. Contracting the tree keeps
the faces and leaves one vertex whose rotation is the order of the
external steps, so the map has the genus of the chord diagram that they
form. The transfer counts the prefixes of the words by what the two rules
and, for a genus, that diagram's faces still need, one word position at a
time, on the level sweep that delcon and the map recursion run
(``engines._sweep``). For a genus g >= 1 it drops the prefixes that can no
longer reach g.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

from .cmap import CombinatorialMap
from .engines import _sweep
from .poly import ZERO, BivariatePolynomial

__all__ = ["enumerate_rooted_maps", "census_document", "partition_function",
           "MAX_CENSUS_EDGES", "MAX_WORD_STATES"]

# The census grows more than 10x per edge (8,162 maps at 5 edges, 110,410
# at 6); 5 edges already reach genus 2, which is all the desk-scale listing
# needs. partition_function walks no census and has no such bound.
MAX_CENSUS_EDGES = 5

# The tour-word sum keeps at most this many states per word position. The
# widest position holds 6,742 states at 9 edges and 19,989 at 10 over all
# genera, and 7,768 and 22,521 for genus 0. At 8 edges it holds 15,740,
# 13,215, 5,754 and 253 for genus 1 to 4; at 9 edges genus 4 holds 7,568,
# while genera 1 to 3 each need more (genus 1 56,725 at one position). So
# it sums all genera and genus 0 up to 10 edges and every genus up to 8
# edges, each in under half a second, genus 4 at 9 and genus 5 at 10.
MAX_WORD_STATES = 2 ** 15


def _rooted_sigmas(n: int, target: int | None = None) -> Iterator[tuple[int, ...]]:
    """The rotation of every rooted map with n edges, once each, in its
    first-visit labelling (see the module docstring), or of those with
    ``target`` vertices plus faces.

    The assigned arrows h -> sigma(h) form vertex chains and the arrows
    h ^ 1 -> sigma(h) face chains. An open chain runs from an untaken head
    to an unassigned tail; vfirst[tail] and vlast[head] hold its ends
    (ffirst and flast for faces). Setting sigma(h) = t closes a vertex cycle
    if t heads h's chain and a face cycle if t heads h ^ 1's, and otherwise
    joins the two chains; undoing it puts the two ends back. Every open
    chain must still close, and each assignment closes at most one cycle of
    each kind, so a branch whose count cannot reach ``target`` is cut."""
    size = 2 * n
    sigma = [0] * size
    taken = [False] * size  # already the image of some half-edge
    vfirst, vlast, ffirst, flast = (list(range(size)) for _ in range(4))

    def walk(h: int, reached: int, closed: int) -> Iterator[tuple[int, ...]]:
        left = size - h - 1  # the assignments after this one
        f = h ^ 1
        for t in range(reached + (reached < size)):
            if taken[t]:
                continue
            sigma[h] = t
            if not left:  # the last chains close; the step before fixed the count
                yield tuple(sigma)
                continue
            nxt = reached + 2 * (t == reached)
            if h + 1 == nxt:  # the walk closed before it met every edge
                continue
            if target is None:
                taken[t] = True
                yield from walk(h + 1, nxt, 0)
                taken[t] = False
                continue
            a, b, c, d = vfirst[h], vlast[t], ffirst[f], flast[t]
            now = closed + (a == t) + (c == t)
            if now + 2 <= target <= now + 2 * left:
                taken[t], vlast[a], vfirst[b], flast[c], ffirst[d] = True, b, a, d, c
                yield from walk(h + 1, nxt, now)
                taken[t], vlast[a], vfirst[b], flast[c], ffirst[d] = False, h, t, f, t

    return walk(0, 2, 0)


def _check_input(n: int, genus: int | None) -> None:
    """Refuse an edge count or genus that no map has."""
    if n < 1:
        raise ValueError("a map census needs at least one edge")
    if genus is not None and genus < 0:
        raise ValueError("genus cannot be negative")


def _census_sigmas(n: int, genus: int | None) -> Iterator[tuple[int, ...]]:
    """The rotations of the census maps with n edges and, when given, that
    genus (Euler characteristic 2 - 2*genus). The bounds are checked here,
    before the first rotation is made; a genus above n / 2 has no map, so
    it makes none."""
    if n > MAX_CENSUS_EDGES:
        raise ValueError(
            f"census bound is {MAX_CENSUS_EDGES} edges"
            " (the census grows more than 10x per edge)"
        )
    _check_input(n, genus)
    if genus is None:
        return _rooted_sigmas(n)
    if 2 * genus > n:
        return iter(())
    return _rooted_sigmas(n, n + 2 - 2 * genus)  # V - n + F = 2 - 2 * genus


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
    map as its ``to_json_obj()``. Cycles are read on ints in the order the
    maps print them (each from its least name, sorted by it, names compared
    as strings), and each distinct cycle is laid out once per document."""
    sigmas = _census_sigmas(n, genus)
    size = 2 * n
    names = [f"h{i}" for i in range(size)]
    order = sorted(range(size), key=names.__getitem__)  # h10 before h2
    if form == "text":
        left, sep, right, shown = "(", " ", ")", names
    else:
        # each map object is laid out at its depth in the maps list: keys
        # at 6 spaces, cycles at 8, names at 10
        left, sep, right = "\n        [", ",", "\n        ]"
        shown = ["\n          " + json.dumps(nm) for nm in names]
    laid: dict[tuple[int, ...], str] = {}

    def cycles(perm: Sequence[int]) -> list[str]:
        seen = bytearray(size)
        parts = []
        for h in order:
            if seen[h]:
                continue
            cycle = []  # h leads it: its least name
            while not seen[h]:
                seen[h] = 1
                cycle.append(h)
                h = perm[h]
            key = tuple(cycle)
            if key not in laid:
                laid[key] = left + sep.join(shown[k] for k in key) + right
            parts.append(laid[key])
        return parts

    alpha = cycles([h ^ 1 for h in range(size)])
    if form == "text":
        tail = "; alpha: " + "".join(alpha) + "; root: h0"
        return "\n".join("sigma: " + "".join(cycles(s)) + tail for s in sigmas)
    head = ('{\n      "alpha": [' + ",".join(alpha)
            + '\n      ],\n      "root": "h0",\n      "sigma": [')
    maps = [head + ",".join(cycles(s)) + "\n      ]\n    }" for s in sigmas]
    # one null stands for the maps (none for an empty census)
    return json.dumps({"count": len(maps), "maps": [None] * bool(maps)},
                      indent=2, sort_keys=True).replace("null", ",\n    ".join(maps))


def _word_pivot(left: int, genus: int | None):
    """``_sweep``'s pivot at the word position with ``left`` positions still
    to fill: the states that one more step takes a state to, each with the
    factor x or y that the step's activity gives (see ``_word_sum``)."""
    def pivot(state: tuple) -> list:
        d, dead, opens, paths, e = state
        steps = []
        if d + len(opens) + 2 <= left:  # an open leaves room to close all
            steps.append(((d + 1, dead, opens, paths, e), 0, 0))
            # the frontier's path ends at the new step, whose slot ends at
            # the frontier
            opened = paths if genus is None else (
                paths[0] + 1, 0, *(end + 1 for end in paths[1:]))
            steps.append(((d, dead, (2 * d + 1,) + opens, opened, e), 0, 0))
        if d:  # the top frame closes, active unless dead; an external step
            # whose lowest depth was d reaches d - 1, and the frame on top
            # at its opening has closed by now
            top, below = divmod(dead, 1 << d)
            fallen = [o if o >> 1 < d else 2 * d - 2 for o in opens]
            if genus is None:
                fallen.sort(reverse=True)
            steps.append(((d - 1, below, tuple(fallen), paths, e), 1 - top, 0))
        for k, o in enumerate(opens):
            ends, t = paths, 0
            if genus is not None:
                t = paths[k + 1]  # the end of head k + 1's path
                if t and e == 2 * genus:  # it would close no face
                    continue
                # head k + 1's path joins the frontier's, which now ends at
                # t, or closes a face when t is the frontier; the path that
                # reached opens[k] ends at the new frontier
                ends = tuple([0 if (u := x or t) == k + 1 else u - (u > k + 1)
                              for x in paths[:k + 1] + paths[k + 2:]])
            kill = (2 << d) - (2 << (o >> 1))  # the frames deeper than m
            steps.append(((d, dead | kill, opens[:k] + opens[k + 1:], ends, e + (t > 0)),
                          0, o & 1))
        if genus:  # drop the steps to dead states, by _word_sum's bound
            return [(nxt, dx, dy) for nxt, dx, dy in steps
                    if nxt[4] + (left - 1 - nxt[0] + len(nxt[2])) // 2 >= 2 * genus]
        return steps

    return pivot


def _word_sum(n: int, genus: int | None) -> BivariatePolynomial:
    """The sum of ``partition_function`` over all genera, or over one genus,
    as a transfer over the positions of the tour words (see the module
    docstring), run on ``engines._sweep`` with one ``_word_pivot`` per
    position. A state is (depth, dead, opens, paths, e), weighted by the
    sum of x^i y^j over the word prefixes that reach it, where i and j
    count their active tree and external steps:
    - depth open tree steps stand as frames above the root's, which never
      closes; bit k of dead is set once an external step that opened
      before the frame at depth k has closed inside it;
    - opens holds 2m + alive for each open external step, where m is the
      lowest depth since it opened and alive says the frame on top at its
      opening is still open. Over all genera it is kept sorted, largest
      first, and states that differ only in its order merge; for a genus
      it is kept newest first;
    - for a genus, paths and e follow the faces of the chord diagram that
      the external steps form. Head 0 is the word's start and head k + 1
      the slot after opens[k]; end 0 is the frontier and end k + 1 is
      opens[k]; paths[h] is the end that the partial face from head h
      reaches. e counts the external closes less the faces closed, so it
      never falls; m chords of genus g make m + 1 - 2g faces, the last of
      which closes at the word's end, so a word of that genus ends with
      e = 2g. Over all genera paths stays (0,) and e stays 0.
    For a genus g >= 1 the pivots drop the steps to dead states. e never
    falls and each external close raises it by at most one, so a state with
    rest positions after it is dead when
    e + len(opens) + (rest - depth - len(opens)) // 2 < 2g, that is
    e + (rest - depth + len(opens)) // 2 < 2g: the rest holds depth tree
    closes, len(opens) external closes and whole new pairs, one close
    each. At genus 0 the bound drops nothing, so it does not run.

    A step lists at most n + 3 states (two opens, one tree close and at
    most n external closes) and j stays within n, so ``_sweep`` runs with
    fan n + 3 and width n + 1. Every state left at the end has e = 2g: e
    never passes 2g, and for g >= 1 the last pivot drops e < 2g."""
    def budget(size: int) -> None:
        if size > MAX_WORD_STATES:
            raise ValueError(f"state budget is {MAX_WORD_STATES} per word position;"
                             f" {n} edges need {size}")

    pivots = [_word_pivot(left, genus) for left in range(2 * n, 0, -1)]
    return _sweep((0, 0, (), (0,), 0), pivots, n + 1, n + 3, budget)


def partition_function(n: int, genus: int | None = None) -> BivariatePolynomial:
    """Sum of the embedding-activity generating function over the rooted
    maps with n edges and, when given, that genus: one monomial per (map,
    spanning tree) pair, from the tour words (``_word_sum``) within
    MAX_WORD_STATES states per word position. No map with n edges has a
    genus above n / 2, so such a genus sums to 0 at once."""
    _check_input(n, genus)
    if genus is not None and 2 * genus > n:
        return ZERO
    return _word_sum(n, genus)
