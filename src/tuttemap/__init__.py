"""Tutte polynomials of connected multigraphs and embedded graphs.

The same polynomial is computed by independent routes (subgraph expansion,
deletion/contraction, linear-order activities, tour-based embedding
activities, and a root-pivot recursion on combinatorial maps) so that each
result certifies the others. A census of rooted maps and its summed
generating function round the package out.
"""

from .activity import (
    ActivitySummary,
    MotionNotCyclicError,
    TourOrder,
    embedding_activities,
    erase_check,
    motion_function,
    order_activities,
)
from .cmap import CombinatorialMap, MapError, all_rotation_systems, embed
from .engines import (
    cross_check,
    graph_certificate,
    graphs_isomorphic,
    tutte_deletion_contraction,
    tutte_embedding_activities,
    tutte_order_activities,
    tutte_recursive_map,
    tutte_subgraph_expansion,
)
from .graph import GraphError, Multigraph
from .mapenum import enumerate_rooted_maps, partition_function
from .poly import ONE, X, Y, ZERO, BivariatePolynomial, PolynomialParseError
from .spanning import SpanningTree, enumerate_spanning_trees, kirchhoff_tree_count

__version__ = "0.1.0"

__all__ = [
    "ActivitySummary",
    "BivariatePolynomial",
    "CombinatorialMap",
    "GraphError",
    "MapError",
    "MotionNotCyclicError",
    "Multigraph",
    "ONE",
    "PolynomialParseError",
    "SpanningTree",
    "TourOrder",
    "X",
    "Y",
    "ZERO",
    "all_rotation_systems",
    "cross_check",
    "embed",
    "embedding_activities",
    "enumerate_rooted_maps",
    "enumerate_spanning_trees",
    "erase_check",
    "graph_certificate",
    "graphs_isomorphic",
    "kirchhoff_tree_count",
    "motion_function",
    "order_activities",
    "partition_function",
    "tutte_deletion_contraction",
    "tutte_embedding_activities",
    "tutte_order_activities",
    "tutte_recursive_map",
    "tutte_subgraph_expansion",
]
