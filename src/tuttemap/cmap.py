"""Combinatorial maps: rotation systems over a set of half-edges.

A map is a permutation sigma (the counterclockwise order of half-edges
around each vertex) together with a fixed-point-free pairing alpha whose
orbits are the edges, acting transitively, with at least one edge.
Internally half-edges are normalized to 0..2m-1 with partner(2i) = 2i+1,
so the pairing is the xor with 1 and permutations are flat tuples;
user-facing names are carried alongside for parsing and display.

The ``CombinatorialMap`` constructor checks all of this, transitivity
included, so every instance is a map and nothing downstream checks again.

Every minor skips its edge by one rule, ``_bypass``: map minors
(``_splice``), the ``recursive`` route's and the tour erase check's.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Mapping, Sequence

from .graph import Multigraph

__all__ = [
    "MapError",
    "CombinatorialMap",
    "embed",
    "all_rotation_systems",
]

_FORBIDDEN_NAME_CHARS = set("()#;,")


class MapError(ValueError):
    """Malformed map input, or an operation the map structure rules out."""


def _named_cycles(perm: Sequence[int],
                  names: Sequence[str]) -> list[list[str]]:
    """The cycles of ``perm`` as names, in the order map text and JSON
    print them: each cycle starts at its least name and the cycles are
    sorted by it, comparing names as strings (h10 comes before h2)."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if not seen[start]:
            named = []
            h = start
            while not seen[h]:
                seen[h] = True
                named.append(names[h])
                h = perm[h]
            j = named.index(min(named))
            cycles.append(named[j:] + named[:j])
    cycles.sort()  # the first names differ, so they alone decide
    return cycles


def _cycles_text(cycles: list[list[str]]) -> str:
    return "".join("(" + " ".join(c) + ")" for c in cycles)


def _cycle_labels(perm: Sequence[int]) -> tuple[list[int], int]:
    """The number of each element's cycle, cycles numbered 0, 1, ... in
    order of their least element, and the number of cycles."""
    label = [-1] * len(perm)
    count = 0
    for start in range(len(perm)):
        if label[start] < 0:
            h = start
            while label[h] < 0:
                label[h] = count
                h = perm[h]
            count += 1
    return label, count


def _euler(sigma: Sequence[int]) -> int:
    """The Euler characteristic of the map with rotation ``sigma``:
    vertices (cycles of h -> sigma(h)) plus faces (cycles of
    h -> sigma(h ^ 1)) minus edges. Each kind is counted in one pass, with
    one visited mark per half-edge."""
    n = len(sigma)
    chi = -(n >> 1)
    for face in (0, 1):
        seen = bytearray(n)
        for start in range(n):
            if not seen[start]:
                chi += 1
                h = start
                while not seen[h]:
                    seen[h] = 1
                    h = sigma[h ^ face]
    return chi


def _bypass(sigma: Sequence[int], k: int, contract: bool) -> list[int]:
    """The rotation, labels kept, with each half-edge whose image t lies on
    edge k (half-edges 2k, 2k+1) pointed past it: a deletion skips t through
    sigma[t], a contraction goes on through sigma[t ^ 1], around the other
    endpoint."""
    out = list(sigma)
    for t in (2 * k, 2 * k + 1):
        p = sigma.index(t)
        if p >> 1 != k:
            while t >> 1 == k:
                t = sigma[t ^ 1] if contract else sigma[t]
            out[p] = t
    return out


def _splice(sigma: Sequence[int], k: int, contract: bool) -> tuple[int, ...]:
    """``_bypass`` less edge k, later half-edges renumbered down by two."""
    return tuple([s - 2 if s > 2 * k else s
                  for h, s in enumerate(_bypass(sigma, k, contract)) if h >> 1 != k])


def _rooted(sigma: Sequence[int], root: int) -> tuple[int, ...]:
    """The rotation relabelled in first-visit order from ``root``: root and
    partner become 0 and 1, and reading labels 0, 1, 2, ... in turn, an
    unlabelled image sigma(h) takes the next even label and its partner the
    odd one after it. Only half-edges the walk reaches are kept, so a
    result shorter than ``sigma`` means a disconnected map. A rooted map
    has exactly one such labelling."""
    label = [-1] * len(sigma)
    label[root], label[root ^ 1] = 0, 1
    order = [root, root ^ 1]
    free = 2  # the next unused label
    for h in order:  # order grows as the walk reaches new edges
        s = sigma[h]
        if label[s] < 0:
            label[s] = free
            label[s ^ 1] = free + 1
            free += 2
            order.append(s)
            order.append(s ^ 1)
    return tuple([label[sigma[h]] for h in order])


def _rooted_minor(sigma: tuple[int, ...], k: int,
                  contract: bool) -> tuple[int, ...]:
    """``_rooted(_splice(sigma, k, contract), 0)`` in one walk over the old
    labels of ``_bypass(sigma, k, contract)``, from half-edge 0, or from 2
    when k == 0 (the splice renumbers either to 0). The walk never reaches
    2k or 2k + 1. A one-edge map leaves ()."""
    if len(sigma) == 2:
        return ()
    return _rooted(_bypass(sigma, k, contract), 2 if k == 0 else 0)


class CombinatorialMap:
    """An embedded connected multigraph with at least one edge, optionally
    rooted at a half-edge.

    Instances are immutable, and the constructor refuses anything that is
    not a map (see ``validate``). Edge deletion and contraction return new
    maps; since a map has at least one edge, removing a map's only edge is
    an error.
    """

    __slots__ = ("_sigma", "_names", "_root", "_index",
                 "_edge_ids", "_underlying")

    def __init__(self, sigma: Sequence[int], names: Sequence[str],
                 root: int | None = None) -> None:
        sigma = tuple(sigma)
        names = tuple(names)
        n = len(sigma)
        if not n:
            raise MapError("map has no half-edges")
        if n % 2:
            raise MapError("a map needs an even number of half-edges")
        if len(names) != n:
            raise MapError(f"{n} half-edges but {len(names)} names")
        if sorted(sigma) != list(range(n)):
            raise MapError("sigma is not a permutation of the half-edges")
        index = {}
        for i, nm in enumerate(names):
            if not nm or any(ch.isspace() or ch in _FORBIDDEN_NAME_CHARS for ch in nm):
                raise MapError(f"half-edge name {nm!r} contains reserved characters")
            if nm in index:
                raise MapError(f"duplicate half-edge name {nm!r}")
            index[nm] = i
        if root is not None and (isinstance(root, bool)
                                 or not (isinstance(root, int) and 0 <= root < n)):
            raise MapError(f"root {root!r} is outside the half-edge range")
        edge_ids = []
        for k in range(n // 2):
            a, b = names[2 * k], names[2 * k + 1]
            edge_ids.append(a + b if a < b else b + a)
        if len(set(edge_ids)) != len(edge_ids):
            dup = next(e for e in edge_ids if edge_ids.count(e) > 1)
            raise MapError(
                f"two edges would print as {dup!r}; rename the half-edges"
            )
        self._sigma = sigma
        self._names = names
        self._root = root
        self._index = index
        self._edge_ids = tuple(edge_ids)
        self._underlying = None
        self.validate()

    # -- basic access ---------------------------------------------------

    @property
    def n_half_edges(self) -> int:
        return len(self._sigma)

    @property
    def edge_count(self) -> int:
        return len(self._sigma) // 2

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def edge_ids(self) -> tuple[str, ...]:
        """Printed edge ids, indexed by edge number; the id of edge k joins
        the names of half-edges 2k and 2k+1, smaller name first."""
        return self._edge_ids

    @property
    def root(self) -> int | None:
        return self._root

    @property
    def root_name(self) -> str | None:
        return None if self._root is None else self._names[self._root]

    def name(self, h: int) -> str:
        return self._names[h]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MapError(f"unknown half-edge {name!r}") from None

    def sigma(self, h: int) -> int:
        return self._sigma[h]

    def alpha(self, h: int) -> int:
        return h ^ 1

    def edge_index(self, token: str) -> int:
        """Resolve an edge id, or the name of either of its half-edges. A
        token that is both (an edge id and a half-edge of another edge) is
        refused."""
        h = self._index.get(token)
        if token in self._edge_ids:
            if h is not None:
                raise MapError(f"edge token {token!r} is both an edge id and "
                               "a half-edge name")
            return self._edge_ids.index(token)
        if h is not None:
            return h >> 1
        raise MapError(f"unknown edge {token!r}")

    def with_root(self, root) -> "CombinatorialMap":
        """Same map rooted at the given half-edge (index, name, or None).

        The root does not change whether sigma and the pairing act
        transitively, so the copy shares this map's checked parts and is
        not built, or walked, again."""
        if root is not None and not isinstance(root, int):
            root = self.index(root)
        elif root is not None and (isinstance(root, bool) or not 0 <= root < len(self._sigma)):
            raise MapError(f"root {root} is outside the half-edge range")
        m = CombinatorialMap.__new__(CombinatorialMap)
        for slot in CombinatorialMap.__slots__:
            setattr(m, slot, getattr(self, slot))
        m._root = root
        return m

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Raise MapError unless sigma and the pairing act transitively.

        The constructor calls this last, once the rest of its checks have
        passed: sigma is a permutation of at least two half-edges, and the
        pairing is a fixed-point-free involution (it is built in). The
        first-visit walk of ``_rooted`` from the root (or half-edge 0) must
        then reach every half-edge.
        """
        reached = len(_rooted(self._sigma, self._root or 0))
        if reached != len(self._sigma):
            raise MapError(
                "sigma and alpha do not act transitively on the half-edges "
                f"(reached {reached} of {len(self._sigma)})"
            )

    # -- construction from named permutations ------------------------------

    @classmethod
    def from_permutations(cls, sigma: Mapping[str, str], alpha: Mapping[str, str],
                          root: str | None = None) -> "CombinatorialMap":
        """Build a map from name-level permutations.

        ``alpha`` must be a fixed-point-free involution covering every
        half-edge; names missing from ``sigma`` are taken as fixed points.
        """
        domain = set(alpha)
        for h, h2 in alpha.items():
            if h2 == h:
                raise MapError(f"alpha fixes {h!r}; every half-edge needs a distinct partner")
            if h2 not in alpha:
                raise MapError(f"alpha image {h2!r} of {h!r} is not a half-edge")
            if alpha[h2] != h:
                raise MapError(f"alpha is not an involution at {h!r}")
        for h, s in sigma.items():
            if h not in domain:
                raise MapError(f"sigma moves unknown half-edge {h!r}")
            if s not in domain:
                raise MapError(f"sigma image {s!r} of {h!r} is not a half-edge")
        full = {h: sigma.get(h, h) for h in domain}
        images = list(full.values())
        if len(set(images)) != len(domain):
            dup = next(s for s in images if images.count(s) > 1)
            raise MapError(f"sigma maps two half-edges to {dup!r}")
        pairs = sorted({tuple(sorted((h, alpha[h]))) for h in domain})
        names: list[str] = []
        for a, b in pairs:
            names.extend((a, b))
        index = {nm: i for i, nm in enumerate(names)}
        sig = tuple(index[full[nm]] for nm in names)
        r = None
        if root is not None:
            if root not in index:
                raise MapError(f"root {root!r} is not a half-edge")
            r = index[root]
        return cls(sig, names, r)

    # -- derived structure ----------------------------------------------------

    def underlying_graph(self) -> Multigraph:
        """The abstract multigraph: one vertex per rotation cycle, numbered
        0, 1, ... in order of the cycles' least half-edges, and one edge per
        half-edge pair, named by ``edge_ids``."""
        if self._underlying is None:
            vertex_of, nv = _cycle_labels(self._sigma)
            edges = {
                self._edge_ids[k]: (vertex_of[2 * k], vertex_of[2 * k + 1])
                for k in range(self.edge_count)
            }
            self._underlying = Multigraph(range(nv), edges)
        return self._underlying

    def euler_characteristic(self) -> int:
        """Rotation cycles plus face cycles minus edges; 2 - 2 * genus."""
        return _euler(self._sigma)

    def genus(self) -> int:
        return (2 - self.euler_characteristic()) // 2

    # -- minors -----------------------------------------------------------------

    def _edge_arg(self, e) -> int:
        if isinstance(e, str):
            return self.edge_index(e)
        if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < self.edge_count:
            raise MapError(f"edge number {e!r} is out of range")
        return e

    def delete_edge(self, e) -> "CombinatorialMap":
        """Remove a non-isthmus edge, keeping the rotation order of the
        surviving half-edges around each vertex. The edge may be neither
        the map's only edge nor the one carrying the root (re-root first
        with ``with_root``)."""
        k = self._edge_arg(e)
        if self.underlying_graph().is_isthmus(self._edge_ids[k]):
            raise MapError(
                f"edge {self._edge_ids[k]!r} is an isthmus; deleting it would "
                "disconnect the map"
            )
        return self._minor(k, False)

    def contract_edge(self, e) -> "CombinatorialMap":
        """Merge the two endpoint rotations of a non-loop edge: where a
        rotation reaches the removed edge it continues, in order, through
        the rotation at the other endpoint. The same two edges are refused
        as by ``delete_edge``."""
        k = self._edge_arg(e)
        if self.underlying_graph().is_loop(self._edge_ids[k]):
            raise MapError(
                f"edge {self._edge_ids[k]!r} is a loop and cannot be contracted"
            )
        return self._minor(k, True)

    def _minor(self, k: int, contract: bool) -> "CombinatorialMap":
        h1, h2 = 2 * k, 2 * k + 1
        eid = self._edge_ids[k]
        if self.n_half_edges == 2:
            raise MapError(
                f"edge {eid!r} is the only edge; its minor is the single-vertex "
                "map, which has no half-edges"
            )
        if self._root in (h1, h2):
            raise MapError(
                f"edge {eid!r} carries the root; re-root first (with_root, "
                "or --root on the command line)"
            )
        new_root = self._root
        if new_root is not None and new_root > h2:
            new_root -= 2
        names = self._names[:h1] + self._names[h2 + 1:]
        return CombinatorialMap(_splice(self._sigma, k, contract), names, new_root)

    # -- canonical form ------------------------------------------------------

    def canonical_form(self) -> tuple:
        """The rotation relabelled in first-visit order from the root (see
        ``_rooted``); the census generates maps in this labelling. Two
        rooted maps are isomorphic exactly when these forms coincide."""
        if self._root is None:
            raise MapError("canonical form needs a root")
        return _rooted(self._sigma, self._root)

    # -- text and JSON forms ------------------------------------------------------

    def _printed_cycles(self) -> tuple[list[list[str]], list[list[str]]]:
        """The sigma cycles and the alpha pairs, named and ordered as the
        text and JSON forms print them."""
        alpha = [h ^ 1 for h in range(len(self._sigma))]
        return (_named_cycles(self._sigma, self._names),
                _named_cycles(alpha, self._names))

    def to_text(self, line_separator: str = "\n") -> str:
        """Serialize as ``sigma:``/``alpha:``/``root:`` records, rotation
        cycles sorted by their smallest half-edge name."""
        sig, alp = self._printed_cycles()
        parts = [f"sigma: {_cycles_text(sig)}", f"alpha: {_cycles_text(alp)}"]
        if self._root is not None:
            parts.append(f"root: {self._names[self._root]}")
        return line_separator.join(parts)

    def to_json_obj(self) -> dict:
        sig, alp = self._printed_cycles()
        return {"sigma": sig, "alpha": alp, "root": self.root_name}

    @classmethod
    def from_text(cls, text: str) -> "CombinatorialMap":
        """Parse the text form. Records may be separated by newlines or
        ';'; ``#`` starts a comment; the ``root:`` record is optional."""
        records: dict[str, str] = {}
        for chunk in text.replace(";", "\n").splitlines():
            line = chunk.split("#", 1)[0].strip()
            if not line:
                continue
            key, colon, rest = line.partition(":")
            key = key.strip()
            if not colon or key not in ("sigma", "alpha", "root"):
                raise MapError(f"unrecognized map record {line!r}")
            if key in records:
                raise MapError(f"duplicate {key!r} record")
            records[key] = rest.strip()
        if "sigma" not in records or "alpha" not in records:
            raise MapError("map text needs both a sigma: and an alpha: record")

        return cls.from_permutations(_parse_cycles(records["sigma"], "sigma"),
                                     _parse_cycles(records["alpha"], "alpha"),
                                     records.get("root"))

    # -- equality --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CombinatorialMap):
            return NotImplemented
        return (
            self._sigma == other._sigma
            and self._names == other._names
            and self._root == other._root
        )

    def __hash__(self) -> int:
        return hash((self._sigma, self._names, self._root))

    def __repr__(self) -> str:
        return f"CombinatorialMap.from_text({self.to_text('; ')!r})"


def _parse_cycles(text: str, what: str) -> dict[str, str]:
    """The permutation a record's cycles spell out, name -> image. Each
    name may appear once; ``from_permutations`` checks the rest."""
    cycles: list[list[str]] = []
    current = None  # the names of the open cycle, None between cycles
    for token in re.findall(r"[()]|[^\s()]+", text):
        if token == "(":
            if current is not None:
                raise MapError(f"nested '(' in {what}")
            current = []
        elif token == ")":
            if current is None:
                raise MapError(f"unbalanced ')' in {what}")
            if not current:
                raise MapError(f"empty cycle in {what}")
            cycles.append(current)
            current = None
        elif current is None:
            raise MapError(f"token outside parentheses in {what}: {token[0]!r}")
        else:
            current.append(token)
    if current is not None:
        raise MapError(f"unbalanced '(' in {what}")
    if not cycles:
        raise MapError(f"{what} record lists no cycles")
    perm: dict[str, str] = {}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in perm:
                raise MapError(f"half-edge {a!r} appears twice in {what}")
            perm[a] = b
    return perm


# -- embeddings of an abstract graph ---------------------------------------


def _graph_incidences(graph: Multigraph) -> tuple[dict, dict]:
    """Half-edge names per vertex (edge-id order) and name -> partner name.

    Edge e contributes half-edges str(e) at its first endpoint and
    str(e) + "'" at the second (both at the same vertex for a loop). The
    partner keys list every half-edge in that order, which ``embed`` takes
    as its numbering.
    """
    at_vertex: dict = {v: [] for v in graph.vertices}
    partner: dict[str, str] = {}
    for e in graph.edge_ids:
        u, v = graph.endpoints(e)
        a, b = str(e), str(e) + "'"
        if a in partner or b in partner:
            raise MapError(
                f"edge id {e!r} yields a clashing half-edge name; rename it"
            )
        partner[a] = b
        partner[b] = a
        at_vertex[u].append(a)
        at_vertex[v].append(b)
    return at_vertex, partner


def embed(graph: Multigraph, rotations: Mapping | None = None,
          root: str | None = None) -> CombinatorialMap:
    """Choose an embedding of a connected multigraph.

    ``rotations[v]``, when given, lists the half-edge names around v in
    counterclockwise order (default: edge-id order). Half-edge names derive
    from edge ids: edge e becomes the pair str(e) / str(e) + "'". The root
    defaults to the first half-edge of the smallest edge id.
    """
    if not graph.is_connected():
        raise MapError("only connected graphs have embeddings")
    if graph.edge_count == 0:
        raise MapError("an embedding needs at least one edge")
    at_vertex, partner = _graph_incidences(graph)
    if rotations:
        for v, order in rotations.items():
            order = list(order)
            if v not in at_vertex:
                raise MapError(f"rotation given for unknown vertex {v!r}")
            if sorted(order) != sorted(at_vertex[v]):
                raise MapError(
                    f"rotation at vertex {v!r} must permute {sorted(at_vertex[v])}"
                )
            at_vertex[v] = order
    sigma_map: dict[str, str] = {}
    for order in at_vertex.values():
        for a, b in zip(order, order[1:] + order[:1]):
            sigma_map[a] = b
    names = list(partner)
    index = {nm: i for i, nm in enumerate(names)}
    sigma = tuple(index[sigma_map[nm]] for nm in names)
    if root is None:
        root = names[0]
    if root not in index:
        raise MapError(f"root {root!r} is not a half-edge of this embedding")
    return CombinatorialMap(sigma, names, index[root])


def all_rotation_systems(graph: Multigraph) -> Iterator[CombinatorialMap]:
    """Every embedding of the graph, one map per rotation system (unrooted).

    There are prod over vertices of (degree - 1)! of them; the first
    incident half-edge at each vertex is pinned so that each cyclic order
    appears exactly once.
    """
    at_vertex, _ = _graph_incidences(graph)
    vs = sorted(at_vertex, key=str)
    choices = []
    for v in vs:
        inc = at_vertex[v]
        if len(inc) <= 1:
            choices.append([tuple(inc)])
        else:
            choices.append([
                (inc[0],) + rest for rest in itertools.permutations(inc[1:])
            ])
    for combo in itertools.product(*choices):
        yield embed(graph, rotations=dict(zip(vs, combo)), root=None).with_root(None)
