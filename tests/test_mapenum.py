"""Census of rooted maps and the summed generating function."""

import functools
import itertools
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttemap import (
    BivariatePolynomial,
    CombinatorialMap,
    GraphError,
    Multigraph,
    enumerate_rooted_maps,
    enumerate_spanning_trees,
    partition_function,
    tutte_embedding_activities,
)
from tuttemap.cmap import _euler
from tuttemap import mapenum
from tuttemap.mapenum import MAX_CENSUS_EDGES, _canonical, _census_sigmas, _narrow

from helpers import (all_rooted_sigmas, brute_force_trees, census_ends, census_sum, make_map,
                     rooted_iso_oracle, tour_word_sums, tree_flags, unpruned_rooted_sigmas,
                     vertices_plus_faces, word_levels, word_steps, word_sum)

P = BivariatePolynomial.parse


def test_one_edge_census():
    census = enumerate_rooted_maps(1)
    assert len(census) == 2
    kinds = sorted(m.underlying_graph().vertex_count for m in census)
    assert kinds == [1, 2]  # the loop and the isthmus
    assert len(enumerate_rooted_maps(1, genus=0)) == 2
    assert all(m.euler_characteristic() == 2 for m in census)


def test_two_edge_census_matches_brute_force_oracle():
    # oracle: scan all transitive rotations and group by exhaustive rooted
    # isomorphism search, with no canonical forms involved
    for n, total, planar_total in ((2, 10, 9), (3, 74, 54)):
        reps = []
        for sigma in all_rooted_sigmas(n):
            m = make_map(sigma)
            if not any(rooted_iso_oracle(m, r) for r in reps):
                reps.append(m)
        census = enumerate_rooted_maps(n)
        assert len(census) == len(reps) == total
        planar = enumerate_rooted_maps(n, genus=0)
        planar_reps = [m for m in reps if m.euler_characteristic() == 2]
        assert len(planar) == len(planar_reps) == planar_total


def test_census_members_are_valid_and_distinct():
    census = enumerate_rooted_maps(3)
    assert len(census) == 74
    seen = set()
    for m in census:
        m.validate()
        assert m.edge_count == 3
        assert m.root == 0
        key = m.canonical_form()
        assert key not in seen
        seen.add(key)
    # the census generates each map in its canonical (first-visit) labelling
    for n in (1, 2, 3, 4):
        for m in enumerate_rooted_maps(n):
            assert m.canonical_form() == m._sigma


def test_census_deterministic():
    a = enumerate_rooted_maps(3)
    b = enumerate_rooted_maps(3)
    assert [m.to_text() for m in a] == [m.to_text() for m in b]


def test_genus_partition_sums_to_total():
    for n in (1, 2, 3):
        total = len(enumerate_rooted_maps(n))
        by_genus = 0
        g = 0
        while True:
            part = len(enumerate_rooted_maps(n, genus=g))
            if part == 0 and 2 - 2 * g < 2 - n:  # below the minimum characteristic
                break
            by_genus += part
            g += 1
            if g > n:
                break
        assert by_genus == total


def test_bounds():
    with pytest.raises(ValueError, match="at least one"):
        enumerate_rooted_maps(0)
    with pytest.raises(ValueError, match="bound"):
        enumerate_rooted_maps(MAX_CENSUS_EDGES + 1)
    with pytest.raises(ValueError, match="genus"):
        enumerate_rooted_maps(2, genus=-1)


def test_z1_is_x_plus_y():
    assert partition_function(1) == P("x + y")
    assert partition_function(1, genus=0) == P("x + y")


def test_z_counts_tree_rooted_maps():
    # Z_n(1,1) over planar maps counts (map, spanning tree) pairs; the
    # independent count enumerates trees by subset scan per census member
    expected = {1: 2, 2: 10, 3: 70}
    for n, want in expected.items():
        z = partition_function(n, genus=0)
        assert z.evaluate(1, 1) == want
        pairs = sum(
            len(brute_force_trees(m.underlying_graph()))
            for m in enumerate_rooted_maps(n, genus=0)
        )
        assert pairs == want


def test_partition_function_matches_per_map_sum():
    # the flat sum over bare rotations against the per-map route, which
    # builds each map, its underlying graph and its SpanningTrees
    for n in (1, 2, 3, 4):
        for genus in (None, 0, 1, 2):
            census = enumerate_rooted_maps(n, genus)
            total = sum(
                (tutte_embedding_activities(m) for m in census),
                start=P("0"),
            )
            assert partition_function(n, genus) == total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_word_transfer_matches_the_census_sum(n):
    # every genus filter comes from the tour words; the census sum over the
    # rotations, which walks trees and tours, is their reference
    for genus in (None, 0, 1, 2, 3):
        assert partition_function(n, genus) == census_sum(n, genus)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tour_words_match_every_genus(n):
    # the word oracle counts faces on the words themselves, with no rotation
    # walk, and sorts them by genus
    sums = {g: BivariatePolynomial(c) for g, c in tour_word_sums(n).items()}
    for genus in (0, 1, 2):
        assert partition_function(n, genus) == sums.get(genus, P("0"))
    assert partition_function(n) == sum(sums.values(), start=P("0"))
    assert sorted(sums) == sorted(GENUS_COUNTS[n])


def _face_count(sigma) -> int:
    """The cycles of h -> sigma(h ^ 1), counted apart from cmap."""
    seen: set = set()
    faces = 0
    for start in range(len(sigma)):
        if start not in seen:
            faces += 1
            h = start
            while h not in seen:
                seen.add(h)
                h = sigma[h ^ 1]
    return faces


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flat_genus_matches_map_genus(n):
    census = enumerate_rooted_maps(n)
    for m in census:
        chi = m.underlying_graph().vertex_count - n + _face_count(m._sigma)
        assert _euler(m._sigma) == m.euler_characteristic() == chi
        assert m.genus() == (2 - chi) // 2
    for genus in (0, 1, 2):
        assert list(_census_sigmas(n, genus)) == [
            m._sigma for m in census if m.genus() == genus]


def test_flat_tree_walk_matches_the_enumerator():
    # the census numbers edge k as half-edges 2k, 2k+1 and vertices as
    # rotation cycles; matched through edge ids, it finds the same trees, in
    # the enumerator's descending flags order
    for m in enumerate_rooted_maps(4):
        ids = m.edge_ids
        flat = [frozenset(ids[k] for k, f in enumerate(flags) if f)
                for flags in tree_flags(*census_ends(m._sigma))]
        trees = enumerate_spanning_trees(m.underlying_graph())
        assert flat == [st.internal_edges for st in
                        sorted(trees, key=lambda st: st.flags, reverse=True)]
        assert len(set(flat)) == len(flat)


def test_flat_tree_walk_rejects_disconnected_ends():
    with pytest.raises(GraphError, match="connected"):
        list(tree_flags(4, [(0, 1), (2, 3)]))
    with pytest.raises(GraphError, match="connected"):
        list(tree_flags(2, [(0, 0), (1, 1)]))


def test_partition_function_builds_no_map_or_graph(monkeypatch):
    # every genus comes from the tour words: per-map objects, or a walk over
    # the rotations, would bring back the census the transfer replaced
    genera = (None, 0, 1, 2)
    wants = [sum((tutte_embedding_activities(m) for m in enumerate_rooted_maps(4, genus)),
                 start=P("0")) for genus in genera]

    def refuse(*args, **kwargs):
        raise AssertionError("partition_function must not build this")

    monkeypatch.setattr(CombinatorialMap, "__init__", refuse)
    monkeypatch.setattr(Multigraph, "__init__", refuse)
    monkeypatch.setattr(mapenum, "_rooted_sigmas", refuse)
    assert [partition_function(4, genus) for genus in genera] == wants


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


# rooted maps with n edges by genus: Walsh and Lehman, Counting rooted maps
# by genus I, J. Combin. Theory Ser. B 13 (1972)
GENUS_COUNTS = {
    1: {0: 2},
    2: {0: 9, 1: 1},
    3: {0: 54, 1: 20},
    4: {0: 378, 1: 307, 2: 21},
    5: {0: 2916, 1: 4280, 2: 966},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_counts_match_closed_forms(n):
    census = enumerate_rooted_maps(n)
    assert len(census) == {1: 2, 2: 10, 3: 74, 4: 706, 5: 8162}[n]
    # Tutte's count of rooted planar maps
    planar = 2 * 3**n * math.factorial(2 * n) // (
        math.factorial(n) * math.factorial(n + 2))
    assert GENUS_COUNTS[n][0] == planar
    assert Counter(m.genus() for m in census) == GENUS_COUNTS[n]
    for g, count in GENUS_COUNTS[n].items():
        assert len(enumerate_rooted_maps(n, genus=g)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pruned_walk_matches_the_unpruned_walk(n):
    # the walk cuts a branch once its closed cycles cannot reach V + F; the
    # unpruned walk, filtered by a count of its own, keeps the same
    # rotations in the same order
    walk = [(s, vertices_plus_faces(s)) for s in unpruned_rooted_sigmas(n)]
    assert [s for s, _ in walk] == list(_census_sigmas(n, None))
    for genus in (0, 1, 2, 3):
        assert list(_census_sigmas(n, genus)) == [
            s for s, count in walk if count == n + 2 - 2 * genus], genus


def test_six_edge_walk_counts_by_genus():
    # Walsh and Lehman by genus, summing to A000698's 110,410 rooted maps;
    # the census bound stays at 5 edges, so the walk is called directly
    counts = [sum(1 for _ in mapenum._rooted_sigmas(6, 8 - 2 * g)) for g in range(4)]
    assert counts == [24057, 56914, 27954, 1485]
    assert sum(counts) == 110410


def test_census_document_sorts_cycles_by_name_past_ten_half_edges(monkeypatch):
    # from 6 edges on, names do not sort as numbers: a cycle holding h10 and
    # h2 starts at h10, and a cycle led by h10 prints before one led by h2.
    # The maps' own text and JSON are the reference, on every 28th map of
    # genus 2 (27,954 in all)
    monkeypatch.setattr(mapenum, "MAX_CENSUS_EDGES", 6)
    maps = [make_map(s) for s in itertools.islice(_census_sigmas(6, 2), 0, None, 28)]
    lines = mapenum.census_document(6, 2, "text").split("\n")[::28]
    assert lines == [m.to_text("; ") for m in maps]
    sigmas = [line.partition(";")[0] for line in lines]
    assert any(re.search(r"\(h1[01] [^)]*h[2-9]\b", s) for s in sigmas)
    assert any(re.search(r"\(h1[01][ )].*\(h[2-9][ )]", s) for s in sigmas)
    document = json.loads(mapenum.census_document(6, 2, "json"))
    assert document["count"] == 27954
    assert document["maps"][::28] == [m.to_json_obj() for m in maps]


def _baxter(k: int) -> int:
    # A001181: Baxter permutations of length k
    c = math.comb
    return sum(c(k + 1, j - 1) * c(k + 1, j) * c(k + 1, j + 1)
               for j in range(1, k + 1)) // (c(k + 1, 1) * c(k + 1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_planar_linear_coefficients_are_baxter_numbers(n):
    # over rooted planar maps the coefficient of x counts plane bipolar
    # orientations, A001181(n - 1) (Baxter, Ann. Comb. 5 (2001)); the
    # single isthmus gives 1 at n = 1, and duality gives y the same count
    assert [_baxter(k) for k in range(1, 8)] == [1, 2, 6, 22, 92, 422, 2074]
    terms = partition_function(n, genus=0).terms()
    want = 1 if n == 1 else _baxter(n - 1)
    assert terms.get((1, 0), 0) == terms.get((0, 1), 0) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_z11_matches_closed_forms(n):
    # planar: C_n * C_{n+1} tree-rooted maps (Mullin 1967), and duality
    # swaps the two activities, so the planar sum is symmetric in x and y
    planar = partition_function(n, genus=0)
    assert planar.evaluate(1, 1) == _catalan(n) * _catalan(n + 1)
    terms = planar.terms()
    assert terms == {(j, i): c for (i, j), c in terms.items()}
    # all genera: the tour word of a tree-rooted map has its 2k tree
    # half-edges as a parenthesis system (Cat_k ways) and its other 2n - 2k
    # half-edges matched freely (Bernardi, EJC 14 (2007) R9)
    everything = sum(
        math.comb(2 * n, 2 * k) * _catalan(k) * _double_factorial(2 * n - 2 * k - 1)
        for k in range(n + 1)
    )
    assert partition_function(n).evaluate(1, 1) == everything
    if n == 7:
        assert (planar.evaluate(1, 1), everything) == (613_470, 5_318_742)


def _harer_zagier(g: int, m: int) -> int:
    """Chord diagrams with m chords and genus g (Harer and Zagier, Invent.
    Math. 85 (1986)), from (m + 1) e_g(m) = 2 (2m - 1) e_g(m - 1)
    + (m - 1)(2m - 1)(2m - 3) e_{g-1}(m - 2)."""
    if g < 0 or m < 0:
        return 0
    if m == 0:
        return int(g == 0)
    return (2 * (2 * m - 1) * _harer_zagier(g, m - 1) + (m - 1) * (2 * m - 1)
            * (2 * m - 3) * _harer_zagier(g - 1, m - 2)) // (m + 1)


def _tree_rooted(n: int, g: int) -> int:
    """Tree-rooted maps with n edges and genus g: contracting the tree keeps
    the faces, so such a map has the genus of the chord diagram that its
    2n - 2k external steps form, and its 2k tree steps nest in Cat_k ways
    (Bernardi, EJC 14 (2007) R9)."""
    return sum(math.comb(2 * n, 2 * k) * _catalan(k) * _harer_zagier(g, n - k)
               for k in range(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_z11_by_genus_matches_harer_zagier(n):
    assert [_harer_zagier(1, m) for m in range(2, 6)] == [1, 10, 70, 420]
    assert [_harer_zagier(2, m) for m in range(4, 7)] == [21, 483, 6468]
    sums = [partition_function(n, g) for g in range(5)]
    assert [z.evaluate(1, 1) for z in sums] == [_tree_rooted(n, g) for g in range(5)]
    # no map with at most 8 edges has genus 5 or more
    assert sum(sums, start=P("0")) == partition_function(n)
    if n >= 6:
        assert sums[1].evaluate(1, 1) == {6: 152_460, 7: 2_576_574, 8: 42_942_900}[n]
        assert sums[2].evaluate(1, 1) == {6: 59_136, 7: 1_936_935, 8: 55_165_110}[n]


@pytest.mark.parametrize("n, genus, widest", [(8, 3, 4_999), (8, 4, 19), (9, 4, 2_028)])
def test_a_genus_keeps_the_documented_widest_position(monkeypatch, n, genus, widest):
    # the widths that the MAX_WORD_STATES comment gives: a budget one state
    # short is refused with the widest count, and that count is enough
    monkeypatch.setattr(mapenum, "MAX_WORD_STATES", widest - 1)
    with pytest.raises(ValueError, match=f" {n} edges need {widest}$"):
        partition_function(n, genus)
    monkeypatch.setattr(mapenum, "MAX_WORD_STATES", widest)
    assert partition_function(n, genus).evaluate(1, 1) == _tree_rooted(n, genus)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_word_transfer_matches_the_unnarrowed_transfer(n):
    # the prune and the merge change no coefficient of any genus
    for genus in (None, *range(n // 2 + 2)):
        assert partition_function(n, genus) == word_sum(n, genus), genus


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_genus_prune_drops_only_dead_states(n):
    # walking the unnarrowed transfer back from its last position marks the
    # states with a continuation that ends at e = 2g; the prune keeps each
    # of them, and at genus 0 it neither drops nor merges a state
    dropped = 0
    for genus in range(n // 2 + 1):
        levels = word_levels(n, genus)
        live = {state for state in levels[-1] if state[4] == 2 * genus}
        for p in range(2 * n - 1, 0, -1):  # levels[p] has 2n - p positions after it
            live = {state for state in levels[p]
                    if any(nxt in live for nxt in word_steps(state, 2 * n - p, genus))}
            for state in levels[p]:
                if not _narrow({state: 1}, 2 * n - p, genus, {}):
                    assert genus and state not in live, (genus, p, state)
                    dropped += 1
            if not genus:
                assert len(_narrow(levels[p], 2 * n - p, 0, {})) == len(levels[p])
    assert dropped or n == 1


@functools.cache
def _reachable_open_states() -> list:
    """The (opens, paths) pairs of the genus states with two open external
    steps or more that the unnarrowed transfer reaches at up to 6 edges."""
    return sorted({state[2:4] for n in range(4, 7) for genus in range(1, n // 2 + 1)
                   for level in word_levels(n, genus) for state in level
                   if len(state[2]) > 1})


@settings(max_examples=300)
@given(data=st.data())
def test_every_relabelling_of_the_open_steps_has_one_canonical_form(data):
    opens, paths = data.draw(st.sampled_from(_reachable_open_states()))
    pi = data.draw(st.permutations(range(len(opens))))
    # opens[k] moves to pi[k]; head and end k + 1 both become pi[k] + 1
    moved = [0, *(k + 1 for k in pi)]
    relabelled = [0] * len(opens)
    for k, o in enumerate(opens):
        relabelled[pi[k]] = o
    conjugated = [0] * len(paths)
    for h, end in enumerate(paths):
        conjugated[moved[h]] = moved[end]
    form = _canonical(opens, paths)
    assert _canonical(tuple(relabelled), tuple(conjugated)) == form
    assert _canonical(*form) == form
