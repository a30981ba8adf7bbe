"""Exhaustive census of rooted maps with n edges, and the activity
generating function summed over the census.

Enumeration fixes the half-edge pairing to partner(2i) = 2i+1 and the root
to half-edge 0, scans every rotation permutation of the 2n symbols, keeps
the transitive ones, and deduplicates by the rooted canonical form (rooted
maps have no nontrivial automorphisms fixing the root, so canonical-form
equality is exact deduplication).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .cmap import CombinatorialMap
from .engines import _activity_sum, _embedding_tree_terms
from .poly import BivariatePolynomial

__all__ = ["MapCensus", "enumerate_rooted_maps", "partition_function",
           "MAX_CENSUS_EDGES"]

# (2n)! rotation scan; 5 edges is ~3.6M permutations and already reaches
# genus 2, which is all the desk-scale demonstration needs.
MAX_CENSUS_EDGES = 5


@dataclass(frozen=True)
class MapCensus:
    """All rooted maps with n_edges edges (optionally of one genus), free of
    rooted-isomorphic duplicates."""

    n_edges: int
    genus: int | None
    maps: tuple[CombinatorialMap, ...]

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[CombinatorialMap]:
        return iter(self.maps)


def _is_transitive(sigma: tuple[int, ...]) -> bool:
    n = len(sigma)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        h = stack.pop()
        for nxt in (sigma[h], h ^ 1):
            if not seen[nxt]:
                seen[nxt] = 1
                count += 1
                stack.append(nxt)
    return count == n


def enumerate_rooted_maps(n: int, genus: int | None = None) -> MapCensus:
    """Census of rooted maps with n edges, up to rooted isomorphism.

    ``genus``, when given, keeps only maps with Euler characteristic
    2 - 2*genus. Bounded at MAX_CENSUS_EDGES edges.
    """
    if n < 1:
        raise ValueError("a map census needs at least one edge")
    if n > MAX_CENSUS_EDGES:
        raise ValueError(
            f"census bound is {MAX_CENSUS_EDGES} edges"
            " (the rotation scan is factorial in 2n)"
        )
    if genus is not None and genus < 0:
        raise ValueError("genus cannot be negative")
    names = tuple(f"h{i}" for i in range(2 * n))
    seen: set = set()
    kept: list[CombinatorialMap] = []
    for perm in itertools.permutations(range(2 * n)):
        if not _is_transitive(perm):
            continue
        m = CombinatorialMap(perm, names, root=0)
        if genus is not None and m.genus() != genus:
            continue
        key = m.canonical_form()
        if key in seen:
            continue
        seen.add(key)
        kept.append(m)
    return MapCensus(n, genus, tuple(kept))


def partition_function(n: int, genus: int | None = None) -> BivariatePolynomial:
    """Sum of the embedding-activity generating function over the census,
    one monomial per (map, spanning tree) pair."""
    census = enumerate_rooted_maps(n, genus)
    return _activity_sum(pair for m in census for pair in _embedding_tree_terms(m))
