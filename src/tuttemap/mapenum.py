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
"""

from __future__ import annotations

from typing import Iterator

from .cmap import CombinatorialMap
from .engines import _activity_sum, _embedding_tree_terms
from .poly import BivariatePolynomial

__all__ = ["enumerate_rooted_maps", "partition_function", "MAX_CENSUS_EDGES"]

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


def enumerate_rooted_maps(n: int,
                          genus: int | None = None) -> tuple[CombinatorialMap, ...]:
    """Census of rooted maps with n edges, one per rooted isomorphism class.

    ``genus``, when given, keeps only maps with Euler characteristic
    2 - 2*genus. Bounded at MAX_CENSUS_EDGES edges.
    """
    if n < 1:
        raise ValueError("a map census needs at least one edge")
    if n > MAX_CENSUS_EDGES:
        raise ValueError(
            f"census bound is {MAX_CENSUS_EDGES} edges"
            " (the census grows more than 10x per edge)"
        )
    if genus is not None and genus < 0:
        raise ValueError("genus cannot be negative")
    names = tuple(f"h{i}" for i in range(2 * n))
    maps = (CombinatorialMap(s, names, root=0) for s in _rooted_sigmas(n))
    return tuple(m for m in maps if genus is None or m.genus() == genus)


def partition_function(n: int, genus: int | None = None) -> BivariatePolynomial:
    """Sum of the embedding-activity generating function over the census,
    one monomial per (map, spanning tree) pair."""
    census = enumerate_rooted_maps(n, genus)
    return _activity_sum(pair for m in census for pair in _embedding_tree_terms(m))
