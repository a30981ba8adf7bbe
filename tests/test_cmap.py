"""Combinatorial maps: validation, derived graph, minors, isomorphism, IO."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tuttemap import (CombinatorialMap, MapError, Multigraph, all_rotation_systems, embed,
                      erase_check)
from tuttemap.cmap import _named_cycles, _rooted, _rooted_minor, _splice

from helpers import (
    ALPHA_DIAGNOSTICS,
    TORUS_MAP_TEXT,
    _transitive,
    all_rooted_sigmas,
    compose,
    contract_in,
    cycles_of,
    delete_from,
    edge_dict,
    torus_map,
    torus_map_alt,
    k3,
    make_map,
    name_alpha,
    name_sigma,
    nx_isomorphic,
    random_rooted_map,
    relabel_map,
    rooted_iso_oracle,
    single_isthmus_map,
    single_loop_map,
)


def test_torus_map_is_valid():
    m = torus_map()
    m.validate()
    assert m.n_half_edges == 12
    assert m.root_name == "a"


def test_alpha_fixed_point_rejected():
    with pytest.raises(MapError, match="fixes 'h'"):
        CombinatorialMap.from_permutations({"h": "h"}, {"h": "h"})


def test_alpha_non_involution_rejected():
    with pytest.raises(MapError, match="involution"):
        CombinatorialMap.from_permutations(
            {}, {"a": "b", "b": "c", "c": "a"}
        )
    with pytest.raises(MapError, match="involution"):
        CombinatorialMap.from_text("sigma: (a b c)\nalpha: (a b c)\n")


def test_two_disjoint_loops_not_transitive():
    with pytest.raises(MapError, match="transitively"):
        CombinatorialMap.from_permutations(
            {"p": "p'", "p'": "p", "q": "q'", "q'": "q"},
            {"p": "p'", "p'": "p", "q": "q'", "q'": "q"},
        )


def test_map_without_half_edges_rejected():
    with pytest.raises(MapError, match="no half-edges"):
        CombinatorialMap((), ())


@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(2 * n)), st.none() | st.integers(0, 2 * n - 1))))
def test_validate_reaches_the_orbit_of_the_root(case):
    # the constructor's validate raises exactly on a non-transitive map,
    # and the count it gives is the orbit of the root (or of half-edge 0)
    # under sigma and the pairing
    sigma, root = case
    orbit = [0 if root is None else root]
    for h in orbit:  # breadth first; the list grows as it is read
        for nxt in (sigma[h], h ^ 1):
            if nxt not in orbit:
                orbit.append(nxt)
    if _transitive(tuple(sigma)):
        make_map(tuple(sigma), root)
    else:
        reached = f"transitively .*\\(reached {len(orbit)} of {len(sigma)}\\)"
        with pytest.raises(MapError, match=reached):
            make_map(tuple(sigma), root)


def test_unknown_root_rejected():
    with pytest.raises(MapError, match="root 'z'"):
        CombinatorialMap.from_text("sigma: (h)(h')\nalpha: (h h')\nroot: z\n")


def test_edge_numbers_and_roots_must_be_ints():
    # int() would truncate: 2.7 would name edge cc' and 1.9 edge bb'
    m = torus_map()
    for remove in (m.delete_edge, m.contract_edge):
        with pytest.raises(MapError, match="edge number 2.7 is out of range"):
            remove(2.7)
    tree = ["aa'", "dd'", "ee'"]
    assert erase_check(m, tree, 1)
    with pytest.raises(MapError, match="edge number 1.9 is out of range"):
        erase_check(m, tree, 1.9)
    with pytest.raises(MapError, match="root 0.5 is outside the half-edge range"):
        CombinatorialMap((1, 0), ("a", "b"), 0.5)
    # bool is an int subclass: True would name edge bb' and root b
    for flag in (True, False):
        for remove in (m.delete_edge, m.contract_edge):
            with pytest.raises(MapError, match=f"edge number {flag} is out of range"):
                remove(flag)
        with pytest.raises(MapError, match=f"edge number {flag} is out of range"):
            erase_check(m, tree, flag)
        with pytest.raises(MapError, match=f"root {flag} is outside the half-edge range"):
            CombinatorialMap((1, 0), ("a", "b"), flag)
        with pytest.raises(MapError, match=f"root {flag} is outside the half-edge range"):
            m.with_root(flag)


@pytest.mark.parametrize("build, message", [
    (lambda: CombinatorialMap((0,), ("a",)), "a map needs an even number of half-edges"),
    (lambda: CombinatorialMap((1, 0), ("a", "b", "c")), "2 half-edges but 3 names"),
    (lambda: CombinatorialMap((0, 0), ("a", "b")),
     "sigma is not a permutation of the half-edges"),
    (lambda: CombinatorialMap((1, 0), ("a,", "b")),
     "half-edge name 'a,' contains reserved characters"),
    (lambda: CombinatorialMap((1, 0), ("a", "a")), "duplicate half-edge name 'a'"),
    (lambda: CombinatorialMap((1, 2, 3, 0), ("a", "bc", "ab", "c")),
     "two edges would print as 'abc'; rename the half-edges"),
    (lambda: CombinatorialMap.from_permutations({}, {"a": "c", "b": "a"}),
     "alpha image 'c' of 'a' is not a half-edge"),
    (lambda: CombinatorialMap.from_permutations({"z": "a"}, {"a": "b", "b": "a"}),
     "sigma moves unknown half-edge 'z'"),
    (lambda: CombinatorialMap.from_permutations({"a": "b", "b": "b"}, {"a": "b", "b": "a"}),
     "sigma maps two half-edges to 'b'"),
    (lambda: embed(Multigraph(["v"], {})), "an embedding needs at least one edge"),
    (lambda: embed(Multigraph([1, 2], {"a": (1, 2)}), {3: ["a"]}),
     "rotation given for unknown vertex 3"),
    (lambda: embed(Multigraph([1, 2], {"a": (1, 2), "b": (1, 2)}), {1: ["a", "a"]}),
     "rotation at vertex 1 must permute ['a', 'b']"),
    (lambda: embed(Multigraph([1, 2], {"a": (1, 2), "a'": (1, 2)})),
     "edge id \"a'\" yields a clashing half-edge name; rename it"),
])
def test_map_constructors_refuse_what_is_not_a_map(build, message):
    with pytest.raises(MapError) as info:
        build()
    assert str(info.value) == message


def test_underlying_graph_torus_map():
    m = torus_map()
    g = m.underlying_graph()
    # count the permutation cycles directly
    assert len(cycles_of(name_sigma(m))) == 4 == g.vertex_count
    assert len(cycles_of(name_alpha(m))) == 6 == g.edge_count
    # each edge joins the rotation cycles of its two half-edges, vertices
    # numbered in order of their cycles' least half-edges
    rotation = {h: m.sigma(h) for h in range(m.n_half_edges)}
    vertex = {h: v for v, cyc in enumerate(sorted(cycles_of(rotation), key=min))
              for h in cyc}
    for k, eid in enumerate(m.edge_ids):
        assert sorted(g.endpoints(eid)) == sorted((vertex[2 * k], vertex[2 * k + 1]))


def test_underlying_graph_single_edge_maps():
    lm = single_loop_map()
    g = lm.underlying_graph()
    assert g.vertex_count == 1 and g.edge_count == 1 and g.is_loop("hh'")

    im = single_isthmus_map()
    g = im.underlying_graph()
    assert g.vertex_count == 2 and g.edge_count == 1 and not g.is_loop("hh'")


def test_euler_characteristic():
    assert single_loop_map().euler_characteristic() == 2
    assert single_isthmus_map().euler_characteristic() == 2
    m = torus_map()
    # composition oracle: count the cycles of sigma(alpha(.)) by hand
    sa = compose(name_sigma(m), name_alpha(m))
    assert len(cycles_of(sa)) == 2
    assert m.euler_characteristic() == 4 + 2 - 6 == 0
    assert m.genus() == 1


def test_cycles_print_in_name_order():
    # names compare as strings, so in a 6-edge map h10 comes before h3,
    # and a cycle through h3, h9 and h10 starts at h10
    names = [f"h{i}" for i in range(12)]
    sigma = [2, 1, 4, 9, 6, 5, 8, 7, 0, 10, 3, 11]
    assert _named_cycles(sigma, names) == [
        ["h0", "h2", "h4", "h6", "h8"], ["h1"], ["h10", "h3", "h9"],
        ["h11"], ["h5"], ["h7"]]
    m = CombinatorialMap(sigma, names, root=0)
    assert m.to_text("; ").startswith(
        "sigma: (h0 h2 h4 h6 h8)(h1)(h10 h3 h9)(h11)(h5)(h7); "
        "alpha: (h0 h1)(h10 h11)(h2 h3)")
    assert m.to_json_obj()["sigma"] == _named_cycles(sigma, names)


def test_euler_characteristic_even_and_bounded():
    rng = random.Random(71)
    for _ in range(80):
        m = random_rooted_map(rng, rng.randint(1, 5))
        chi = m.euler_characteristic()
        assert chi <= 2 and chi % 2 == 0
        assert relabel_map(m, rng).euler_characteristic() == chi


def _delete_skip_oracle(m, k):
    """Expected rotation after deletion: skip the removed pair in place."""
    h1, h2 = m.name(2 * k), m.name(2 * k + 1)
    sig = name_sigma(m)
    out = {}
    for h in sig:
        if h in (h1, h2):
            continue
        nxt = sig[h]
        while nxt in (h1, h2):
            nxt = sig[nxt]
        out[h] = nxt
    return out


def _contract_jump_oracle(m, k):
    """Expected rotation after contraction: continue through the rotation at
    the other endpoint when the removed edge is met."""
    h1, h2 = m.name(2 * k), m.name(2 * k + 1)
    sig, alp = name_sigma(m), name_alpha(m)
    out = {}
    for h in sig:
        if h in (h1, h2):
            continue
        nxt = sig[h]
        while nxt in (h1, h2):
            nxt = sig[alp[nxt]]
        out[h] = nxt
    return out


def test_rooted_minor_is_one_walk_of_splice_then_relabel():
    # every rooted map up to 4 edges, in its first-visit labelling, every
    # edge deleted and contracted: k == 0 is the re-rooting case, which
    # walks from half-edge 2; a disconnected deletion stays short. Both
    # views rest on one _bypass, so _splice is held to the name-level
    # oracles too, isthmuses and root edges included; no caller contracts
    # a loop, so that case is left out
    for n in range(1, 5):
        for sigma in all_rooted_sigmas(n):
            if _rooted(sigma, 0) != sigma:
                continue
            m = make_map(sigma)
            for k in range(n):
                kept = m.names[:2 * k] + m.names[2 * k + 2:]
                for contract in (False, True):
                    spliced = _splice(sigma, k, contract)
                    want = _rooted(spliced, 0) if n > 1 else ()
                    assert _rooted_minor(sigma, k, contract) == want
                    if contract and m.underlying_graph().is_loop(m.edge_ids[k]):
                        continue
                    oracle = _contract_jump_oracle if contract else _delete_skip_oracle
                    assert {kept[h]: kept[s] for h, s in enumerate(spliced)} == oracle(m, k)


def test_delete_edge_torus_map():
    m = torus_map()
    result = m.delete_edge(m.edge_index("ee'"))
    result.validate()
    assert name_sigma(result) == _delete_skip_oracle(m, m.edge_index("ee'"))
    assert result.root_name == "a"


def test_delete_edge_triangle():
    m = embed(k3())
    for eid in m.edge_ids:
        if m.root in (2 * m.edge_index(eid), 2 * m.edge_index(eid) + 1):
            continue
        out = m.delete_edge(eid)
        out.validate()
        assert out.edge_count == 2


def test_delete_isthmus_rejected():
    with pytest.raises(MapError, match="isthmus"):
        single_isthmus_map().delete_edge(0)
    with pytest.raises(MapError, match="isthmus"):
        torus_map().delete_edge(torus_map().edge_index("dd'"))


def test_contract_edge_merges_rotations():
    m = torus_map()
    k = m.edge_index("bb'")
    result = m.contract_edge(k)
    result.validate()
    assert name_sigma(result) == _contract_jump_oracle(m, k)
    g = result.underlying_graph()
    assert g.vertex_count == 3 and g.edge_count == 5


def test_removing_the_only_edge_rejected():
    # the minor would be the single-vertex map, which has no half-edges;
    # this rule comes before the one for an edge that carries the root
    for m in (single_isthmus_map(), single_isthmus_map().with_root(None)):
        with pytest.raises(MapError, match="only edge.*single-vertex map"):
            m.contract_edge(0)
    for m in (single_loop_map(), single_loop_map().with_root(None)):
        with pytest.raises(MapError, match="only edge.*single-vertex map"):
            m.delete_edge(0)


def test_contract_loop_rejected():
    with pytest.raises(MapError, match="loop"):
        single_loop_map().with_root(None).contract_edge(0)


def test_contract_triangle_edge():
    m = embed(k3(), root="b")
    out = m.contract_edge(m.edge_index("a"))
    out.validate()
    g = out.underlying_graph()
    assert g.vertex_count == 2 and g.edge_count == 2
    assert not any(g.is_loop(e) for e in g.edge_ids)


def test_minor_edges_need_reroot_when_root_removed():
    m = torus_map()  # rooted at a
    for remove in (m.contract_edge, m.delete_edge):
        with pytest.raises(MapError, match="\"aa'\" carries the root; re-root"):
            remove("aa'")
    moved = m.with_root("e").contract_edge("aa'")
    assert moved.root_name == "e"
    moved.validate()


def test_erasure_and_merge_laws_on_random_maps():
    rng = random.Random(72)
    for _ in range(120):
        m = random_rooted_map(rng, rng.randint(1, 8)).with_root(None)
        g = m.underlying_graph()
        for k in range(m.edge_count):
            eid = m.edge_ids[k]
            if m.edge_count == 1:
                with pytest.raises(MapError, match="only edge"):
                    (m.contract_edge if g.is_isthmus(eid) else m.delete_edge)(k)
                continue
            if not g.is_isthmus(eid):
                out = m.delete_edge(k)
                out.validate()
                assert name_sigma(out) == _delete_skip_oracle(m, k)
            if not g.is_loop(eid):
                out = m.contract_edge(k)
                out.validate()
                assert name_sigma(out) == _contract_jump_oracle(m, k)


def test_minor_commutes_with_underlying_graph():
    rng = random.Random(73)
    for _ in range(60):
        m = random_rooted_map(rng, rng.randint(2, 6)).with_root(None)
        g = m.underlying_graph()
        edges = edge_dict(g)
        for k in range(m.edge_count):
            eid = m.edge_ids[k]
            if not g.is_isthmus(eid):
                out = edge_dict(m.delete_edge(k).underlying_graph())
                assert nx_isomorphic(out, delete_from(edges, eid))
            if not g.is_loop(eid):
                out = edge_dict(m.contract_edge(k).underlying_graph())
                assert nx_isomorphic(out, contract_in(edges, eid))


def same_form(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    return a.canonical_form() == b.canonical_form()


def test_self_isomorphic():
    m = torus_map()
    assert same_form(m, m) and rooted_iso_oracle(m, m)


def test_rotation_variants_not_isomorphic():
    left, right = torus_map(), torus_map_alt()
    assert not same_form(left, right)
    assert not rooted_iso_oracle(left, right)
    # their underlying graphs still agree
    assert nx_isomorphic(edge_dict(left.underlying_graph()),
                         edge_dict(right.underlying_graph()))


def test_relabel_preserves_isomorphism():
    rng = random.Random(74)
    for _ in range(40):
        m = random_rooted_map(rng, rng.randint(1, 5))
        m2 = relabel_map(m, rng)
        assert same_form(m, m2)
        assert rooted_iso_oracle(m, m2)


def test_isomorphism_matches_oracles_on_small_maps():
    rng = random.Random(75)
    pool = [random_rooted_map(rng, 2) for _ in range(12)]
    for a in pool:
        for b in pool:
            assert same_form(a, b) == rooted_iso_oracle(a, b)


def test_text_round_trip():
    m = torus_map()
    text = m.to_text()
    again = CombinatorialMap.from_text(text)
    assert again.to_text() == text
    assert same_form(again, m) and rooted_iso_oracle(again, m)
    # single-line form with ';' separators parses too
    assert CombinatorialMap.from_text(m.to_text(line_separator="; ")).to_text() == text


# names a map can carry: no whitespace and none of "()#;,"
_half_edge_names = st.text(
    st.characters(exclude_categories=("Z", "Cc"), exclude_characters="()#;,"),
    min_size=1, max_size=4)


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.randoms(use_true_random=False), st.integers(0, 2 * n - 1),
    st.lists(_half_edge_names, min_size=2 * n, max_size=2 * n, unique=True))))
def test_text_round_trip_random_names(case):
    rng, root, names = case
    edge_ids = {"".join(sorted(names[k:k + 2])) for k in range(0, len(names), 2)}
    assume(2 * len(edge_ids) == len(names))  # no two edges print alike
    m = random_rooted_map(rng, len(names) // 2)
    m = CombinatorialMap([m.sigma(h) for h in range(m.n_half_edges)], names, root)
    again = CombinatorialMap.from_text(m.to_text())
    assert again.to_text() == m.to_text()
    assert again.canonical_form() == m.canonical_form()


# each cycle-record diagnostic, exactly as the parser words it
CYCLE_DIAGNOSTICS = (
    ("(a (b))", "nested '(' in sigma"),
    ("(a a'))", "unbalanced ')' in sigma"),
    ("(a a')( \t)", "empty cycle in sigma"),
    ("ab(c)", "token outside parentheses in sigma: 'a'"),
    ("(a)bc", "token outside parentheses in sigma: 'b'"),
    ("(a a'", "unbalanced '(' in sigma"),
    (" \t ", "sigma record lists no cycles"),
    ("(a a')(a b)", "half-edge 'a' appears twice in sigma"),
)


def test_parse_diagnostics():
    for sigma, message in CYCLE_DIAGNOSTICS:
        with pytest.raises(MapError) as info:
            CombinatorialMap.from_text(f"sigma: {sigma}\nalpha: (a a')(b b')\n")
        assert str(info.value) == message
    with pytest.raises(MapError, match="not a half-edge"):
        CombinatorialMap.from_text("sigma: (a z)\nalpha: (a a')\n")
    with pytest.raises(MapError, match="sigma"):
        CombinatorialMap.from_text("alpha: (a a')\n")
    # the alpha record: repeats are caught in the parser, the rest by
    # from_permutations, each message naming a half-edge
    for sigma, alpha, message in ALPHA_DIAGNOSTICS:
        with pytest.raises(MapError, match=message):
            CombinatorialMap.from_text(f"sigma: {sigma}\nalpha: {alpha}\n")


def test_serializer_sorts_cycles():
    text = TORUS_MAP_TEXT.replace("(a f' b d)(d')", "(d')(b d a f')")
    m = CombinatorialMap.from_text(text)
    assert m.to_text() == torus_map().to_text()


def test_all_rotation_systems_counts():
    # one rotation system per product of cyclic orders: (deg-1)! per vertex
    assert len(list(all_rotation_systems(k3()))) == 1
    from helpers import k4

    systems = list(all_rotation_systems(k4()))
    assert len(systems) == 16
    for m in systems:
        m.with_root(0).validate()


def test_rotation_systems_and_new_roots_build_each_map_once(monkeypatch):
    # embed builds and checks each rotation system once; with_root copies a
    # checked map, so neither builds a map twice
    built = []
    init = CombinatorialMap.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CombinatorialMap, "__init__", counted)
    from helpers import k4

    systems = list(all_rotation_systems(k4()))
    assert len(built) == len(systems) == 16
    assert all(m.root is None for m in systems)
    m = torus_map()
    built.clear()
    moved = m.with_root("c")
    assert not built
    assert moved.root == m.index("c") and moved.to_text() != m.to_text()
    assert moved == CombinatorialMap(m._sigma, m.names, m.index("c"))
    assert moved.with_root(None) == CombinatorialMap(m._sigma, m.names)
    for bad, message in ((len(m._sigma), "outside the half-edge range"),
                         (-1, "outside the half-edge range"),
                         ("z", "unknown half-edge 'z'")):
        with pytest.raises(MapError, match=message):
            m.with_root(bad)


def test_embed_k3_default():
    m = embed(k3())
    m.validate()
    g = m.underlying_graph()
    assert g.vertex_count == 3 and g.edge_count == 3
    assert m.root_name == "a"
