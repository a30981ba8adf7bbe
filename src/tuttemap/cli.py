"""Command line front end.

Exit status: 0 on success, 1 on any input problem (unreadable file, parse
failure, violated precondition) or when a resource limit is reached (memory
or Python's recursion depth runs out; no evaluator recurses, and ``check``'s
isomorphism guard, which recurses once per vertex, runs only within the
expansion's edge bound, so the depth is only guarded), 2 when an internal
invariant breaks (a non-cyclic tour, a drawn edge set that is no spanning
tree, or evaluators that should agree but do not).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
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


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


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
    lines = [f"{m}: {polys[m]}" for m in methods]
    payload: dict = {"polynomials": {m: polys[m].json_terms() for m in methods}}
    status = 0
    if args.method == "all":
        agree = len(set(polys.values())) == 1
        lines.append(f"agreement: {'yes' if agree else 'NO'}")
        payload["agreement"] = agree
        if not agree:
            status = 2
    _emit(args, payload, "\n".join(lines))
    return status


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
    text = "\n".join([
        "(" + " ".join(order.cycle) + ")",
        "half-edges: " + " < ".join(order.half_edge_order),
        "edges: " + " < ".join(order.edge_order),
    ])
    payload = {
        "tour": list(order.cycle),
        "half_edge_order": list(order.half_edge_order),
        "edge_order": list(order.edge_order),
    }
    _emit(args, payload, text)
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
    lines = []
    rows = []
    for st, (internal, external) in zip(trees, pairs):
        tree_ids = sorted(st.internal_edges)
        internal_active = sorted(ids[p] for p in internal)
        external_active = sorted(ids[p] for p in external)
        mono = BivariatePolynomial.monomial(len(internal), len(external))
        lines.append(
            "tree {%s}: internal-active {%s} external-active {%s} -> %s"
            % (
                ",".join(tree_ids),
                ",".join(internal_active),
                ",".join(external_active),
                mono,
            )
        )
        rows.append({
            "tree": tree_ids,
            "internal_active": internal_active,
            "external_active": external_active,
            "monomial": mono.json_terms(),
        })
    total = _activity_sum(pairs)
    lines.append(f"total: {total}")
    _emit(args, {"trees": rows, "total": total.json_terms()}, "\n".join(lines))
    return 0


def _cmd_minor(args) -> int:
    m = _load_map(args.map, args.root)
    if args.delete is not None:
        result = m.delete_edge(args.delete)
    else:
        result = m.contract_edge(args.contract)
    _emit(args, result.to_json_obj(), result.to_text())
    return 0


def _cmd_euler(args) -> int:
    m = CombinatorialMap.from_text(_read(args.map))
    if args.root is not None:  # chi and genus do not depend on the root
        m.index(args.root)
    chi = m.euler_characteristic()
    _emit(args, {"chi": chi, "genus": m.genus()},
          f"chi: {chi}\ngenus: {m.genus()}")
    return 0


def _cmd_census(args) -> int:
    print(census_document(args.edges, args.genus, args.format))
    return 0


def _cmd_zpoly(args) -> int:
    z = partition_function(args.edges, args.genus)
    _emit(args, {"z": z.json_terms()}, str(z))
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
    lines: list[str] = []
    rows: list[dict] = []

    def report(name: str, ok: bool, detail: str = "") -> None:
        tail = f" ({detail})" if detail and not ok else ""
        lines.append(f"{'ok' if ok else 'FAIL'}: {name}{tail}")
        rows.append({"name": name, "ok": ok})

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
           " / ".join(f"{k}={v}" for k, v in five.items()))

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
           f"T(1,1)={t11}, Kirchhoff={kirchhoff}, trees={len(erased)}")
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
        report(name, bad is None, f"{bad} != {reference}")

    failures = sum(not row["ok"] for row in rows)
    lines.append(
        f"{failures} check(s) failed" if failures else "all checks passed"
    )
    _emit(args, {"checks": rows, "ok": not failures}, "\n".join(lines))
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
