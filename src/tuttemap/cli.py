"""Command line front end.

Exit status: 0 on success, 1 on any input problem (unreadable file, parse
failure, violated precondition) or when a resource limit is reached (memory
or Python's recursion depth runs out; no evaluator recurses, and ``check``'s
isomorphism guard, which recurses once per vertex, runs only within the
expansion's edge bound, so the depth is only guarded), 2 when an internal
invariant breaks (a non-cyclic tour, a drawn edge set that is no spanning
tree, or evaluators that should agree but do not).

Output is text, or with ``--format json`` the bytes that
``json.dumps(payload, indent=2, sort_keys=True)`` would give. ``_json``
writes them itself, a polynomial by one template per term, and a command
builds only the form it prints.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .activity import _activity_sum, _erase_walk, _scan, _tour_args, motion_function
from .cmap import CombinatorialMap, MapError, _graph_incidences, embed
from .engines import (
    _require_connected,
    cross_check,
    tutte_deletion_contraction,
    tutte_embedding_activities,
    tutte_order_activities,
    tutte_recursive_map,
    tutte_subgraph_expansion,
)
from .graph import Multigraph
from .mapenum import census_document, partition_function
from .poly import BivariatePolynomial
from .spanning import enumerate_spanning_trees, kirchhoff_tree_count

DEFAULT_SEED = 1729

METHODS = ("expansion", "delcon", "order", "embedding", "recursive")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> Multigraph:
    return Multigraph.from_text(_read(path))


def _load_map(path: str, root: str | None) -> CombinatorialMap:
    m = CombinatorialMap.from_text(_read(path))
    if root is not None:
        m = m.with_root(root)
    if m.root is None:
        raise MapError("this command needs a rooted map (root: record or --root)")
    return m


def _json(obj, pad: str = "") -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` for what the
    commands print: str-keyed dicts, lists, tuples, str, int, bool, None, and
    polynomials, each laid out as its ``json_terms()`` by one term template."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{\n" + ",\n".join([
            f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
            for k, v in sorted(obj.items())]) + f"\n{pad}}}"
    if isinstance(obj, BivariatePolynomial):
        term = (f'{inner}{{\n{inner}  "c": "%d",\n{inner}  "dx": %d,\n'
                f'{inner}  "dy": %d\n{inner}}}')
        items = [term % (c, dx, dy) for dx, dy, c in obj.sorted_terms()]
    elif isinstance(obj, (list, tuple)):
        items = [inner + _json(v, inner) for v in obj]
    elif isinstance(obj, str):
        return encode_basestring_ascii(obj)
    elif obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    else:  # raises TypeError on anything but an int, as json.dumps does
        return int.__repr__(obj)
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _emit(args, payload, text) -> None:
    """Print the form asked for. Both forms are callables, so the one that
    is not printed is never built."""
    print(_json(payload()) if args.format == "json" else text())


def _cmd_tutte(args) -> int:
    graph = _load_graph(args.graph)
    _require_connected(graph)
    methods = METHODS if args.method == "all" else (args.method,)
    needs_map = any(m in methods for m in ("embedding", "recursive"))
    # a given root is checked whatever the method
    emb = embed(graph, root=args.root) if needs_map or args.root is not None else None
    evaluators = {
        "expansion": lambda: tutte_subgraph_expansion(graph),
        "delcon": lambda: tutte_deletion_contraction(graph),
        "order": lambda: tutte_order_activities(graph),
        "embedding": lambda: tutte_embedding_activities(emb),
        "recursive": lambda: tutte_recursive_map(emb),
    }
    polys = {m: evaluators[m]() for m in methods}
    agree = len(set(polys.values())) == 1  # a single method always agrees
    shown = {"agreement": agree} if args.method == "all" else {}
    _emit(args, lambda: {"polynomials": polys, **shown}, lambda: "\n".join(
        [f"{m}: {polys[m]}" for m in methods]
        + [f"agreement: {'yes' if ok else 'NO'}" for ok in shown.values()]))
    return 0 if agree else 2


def _resolve_tree(m: CombinatorialMap, tree_arg: str) -> list[str]:
    """The edge ids the comma-separated tokens name, each edge once."""
    edges: list[str] = []
    for t in tree_arg.split(","):
        if t:
            e = m.edge_ids[m.edge_index(t)]
            if e in edges:
                raise MapError(f"tree token {t!r} repeats edge {e!r}")
            edges.append(e)
    return edges


def _cmd_tour(args) -> int:
    m = _load_map(args.map, args.root)
    tree = _resolve_tree(m, args.tree)
    order = motion_function(m, tree)
    _emit(args, lambda: {
        "tour": order.cycle,
        "half_edge_order": order.half_edge_order,
        "edge_order": order.edge_order,
    }, lambda: "\n".join([
        "(" + " ".join(order.cycle) + ")",
        "half-edges: " + " < ".join(order.half_edge_order),
        "edges: " + " < ".join(order.edge_order),
    ]))
    return 0


def _cmd_activities(args) -> int:
    m = _load_map(args.map, args.root)
    graph = m.underlying_graph()
    ids = graph.edge_ids
    kernel = _scan(*_tour_args(m))
    # descending flags list the trees in lexicographic order of their
    # sorted edge-id sets, whatever order the enumerator yields them in
    trees = sorted(enumerate_spanning_trees(graph), key=lambda st: st.flags, reverse=True)
    pairs = [kernel(st.flags) for st in trees]
    # per tree: its edges, internal-active and external-active edges, monomial
    rows = [(sorted(st.internal_edges), sorted(ids[p] for p in internal),
             sorted(ids[p] for p in external),
             BivariatePolynomial.monomial(len(internal), len(external)))
            for st, (internal, external) in zip(trees, pairs)]
    total = _activity_sum(pairs)
    _emit(args, lambda: {"trees": [
        {"tree": t, "internal_active": ia, "external_active": ea, "monomial": mono}
        for t, ia, ea, mono in rows], "total": total}, lambda: "\n".join([
            "tree {%s}: internal-active {%s} external-active {%s} -> %s"
            % (",".join(t), ",".join(ia), ",".join(ea), mono)
            for t, ia, ea, mono in rows] + [f"total: {total}"]))
    return 0


def _cmd_minor(args) -> int:
    m = _load_map(args.map, args.root)
    if args.delete is not None:
        result = m.delete_edge(args.delete)
    else:
        result = m.contract_edge(args.contract)
    _emit(args, result.to_json_obj, result.to_text)
    return 0


def _cmd_euler(args) -> int:
    m = CombinatorialMap.from_text(_read(args.map))
    if args.root is not None:  # chi and genus do not depend on the root
        m.index(args.root)
    chi, genus = m.euler_characteristic(), m.genus()
    _emit(args, lambda: {"chi": chi, "genus": genus}, lambda: f"chi: {chi}\ngenus: {genus}")
    return 0


def _cmd_census(args) -> int:
    print(census_document(args.edges, args.genus, args.format))
    return 0


def _cmd_zpoly(args) -> int:
    z = partition_function(args.edges, args.genus)
    _emit(args, lambda: {"z": z}, lambda: str(z))
    return 0


def _random_embedding(graph: Multigraph, rng: random.Random) -> CombinatorialMap:
    at_vertex, partner = _graph_incidences(graph)
    for v in sorted(at_vertex, key=str):
        rng.shuffle(at_vertex[v])
    return embed(graph, rotations=at_vertex, root=rng.choice(list(partner)))


def _cmd_check(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    graph = _load_graph(args.graph)
    rng = random.Random(args.seed)
    rows: list[tuple] = []

    def report(name: str, ok: bool, detail=None) -> None:
        """One row; ``detail`` is a callable, called only for a failed row."""
        rows.append((name, ok, detail))

    _require_connected(graph)
    emb = embed(graph)
    trials = range(1, args.trials + 1)
    orders = [graph.edge_ids] + [rng.sample(graph.edge_ids, graph.edge_count)
                                 for _ in trials]
    # lazy, so a graph over the expansion's bound builds no random embedding
    polys = cross_check(graph, itertools.chain(
        [emb], (_random_embedding(graph, rng) for _ in trials)), orders)
    five = {m: polys[m if m in ("expansion", "delcon") else f"{m}[0]"]
            for m in METHODS}
    reference = five["expansion"]
    report("five evaluator methods agree",
           all(v == reference for v in five.values()),
           lambda: " / ".join(f"{k}={v}" for k, v in five.items()))

    # the walk tours each tree and raises MotionNotCyclicError unless the
    # tour is one cycle; a list, not a short-circuiting all(), so that every
    # tree is toured before the tour row claims it, and the trees stream
    # through the walk unkept, their count being len(erased). The trees are
    # the ones the tree routes draw, so a DAG that drops or adds a tree fails
    # the T(1,1) row, and one that swaps a tree for another the five-way row
    walk = _erase_walk(emb)
    erased = [walk(st.flags, range(emb.edge_count))
              for st in enumerate_spanning_trees(emb.underlying_graph())]
    # the Kirchhoff count shares no code with the enumeration it checks
    t11, kirchhoff = reference.evaluate(1, 1), kirchhoff_tree_count(graph)
    report("T(1,1) equals the spanning tree count",
           t11 == kirchhoff == len(erased),
           lambda: f"T(1,1)={t11}, Kirchhoff={kirchhoff}, trees={len(erased)}")
    report("T(2,2) equals 2^|E|",
           reference.evaluate(2, 2) == 2 ** graph.edge_count)
    report("every tree tour is a single cycle", True)
    report("minor tours equal the original tour with two half-edges erased",
           all(erased))

    for name, labels in (
        (f"embedding independence over {args.trials} random rooted embeddings",
         [f"{r}[{i}]" for i in trials for r in ("embedding", "recursive")]),
        (f"order independence over {args.trials} random edge orders",
         [f"order[{i}]" for i in trials]),
    ):
        bad = next((polys[k] for k in labels if polys[k] != reference), None)
        report(name, bad is None, lambda bad=bad: f"{bad} != {reference}")

    failures = sum(not ok for _, ok, _ in rows)
    _emit(args, lambda: {"checks": [{"name": name, "ok": ok} for name, ok, _ in rows],
                         "ok": not failures}, lambda: "\n".join(
        [f"ok: {name}" if ok else f"FAIL: {name}" + (f" ({detail()})" if detail else "")
         for name, ok, detail in rows]
        + [f"{failures} check(s) failed" if failures else "all checks passed"]))
    return 2 if failures else 0


@functools.cache  # built on first use, then shared: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuttemap",
        description="Tutte polynomials of multigraphs and embedded graphs, "
                    "computed by independent cross-checking methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_root: bool = False) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
        if with_root:
            p.add_argument("--root", default=None,
                           help="override the root half-edge")

    p = sub.add_parser("tutte", help="Tutte polynomial of a graph file")
    p.add_argument("--graph", required=True, help="graph file (v/e line format)")
    p.add_argument("--method", choices=METHODS + ("all",), default="all")
    common(p, with_root=True)
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("tour", help="tour of a spanning tree of a rooted map")
    p.add_argument("--map", required=True, help="map file (sigma/alpha/root format)")
    p.add_argument("--tree", required=True,
                   help="comma-separated edge ids of the spanning tree")
    common(p, with_root=True)
    p.set_defaults(func=_cmd_tour)

    p = sub.add_parser("activities",
                       help="per-tree active edges and monomials of a rooted map")
    p.add_argument("--map", required=True)
    common(p, with_root=True)
    p.set_defaults(func=_cmd_activities)

    p = sub.add_parser("minor", help="delete or contract one edge of a map")
    p.add_argument("--map", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delete", metavar="EDGE")
    group.add_argument("--contract", metavar="EDGE")
    common(p, with_root=True)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("euler", help="Euler characteristic and genus of a map")
    p.add_argument("--map", required=True)
    common(p, with_root=True)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("census", help="all rooted maps with n edges")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--genus", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("zpoly",
                       help="activity generating function summed over the census")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--genus", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_zpoly)

    p = sub.add_parser("check", help="run the invariant suite on one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"random seed (default: {DEFAULT_SEED})")
    p.add_argument("--trials", type=int, default=20,
                   help="random embeddings/orders to try (default: 20)")
    common(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on usage errors; those are input errors here
        return 0 if not ex.code else 1
    try:
        return args.func(args)
    except (RecursionError, MemoryError) as exc:
        # RecursionError is a RuntimeError, so this comes first
        detail = str(exc) or "out of memory"
        print(f"error: resource limit reached ({detail}); the input is too "
              "large for this method", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
