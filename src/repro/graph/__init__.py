"""Graph substrate: containers, normalizations, PageRank, stats, walks."""

from repro.graph.graph import Graph, build_adjacency
from repro.graph.delta import DeltaLog, GraphDelta, apply_delta, k_hop_rows
from repro.graph.normalize import (
    add_self_loops,
    gcn_normalize,
    row_normalize,
    row_normalize_features,
)
from repro.graph.pagerank import pagerank, personalized_propagation_matrix
from repro.graph.subgraph import InductiveSplit, induced_subgraph, make_inductive_split
from repro.graph.stats import GraphStats, edge_homophily, summarize
from repro.graph.walks import batch_random_walks

__all__ = [
    "Graph",
    "build_adjacency",
    "GraphDelta",
    "DeltaLog",
    "apply_delta",
    "k_hop_rows",
    "gcn_normalize",
    "row_normalize",
    "row_normalize_features",
    "add_self_loops",
    "pagerank",
    "induced_subgraph",
    "make_inductive_split",
    "InductiveSplit",
    "personalized_propagation_matrix",
    "GraphStats",
    "edge_homophily",
    "summarize",
    "batch_random_walks",
]
