"""Graph substrate: containers, normalizations, PageRank, stats, walks."""

from repro.graph.graph import Graph, build_adjacency, graph_fingerprint
from repro.graph.delta import DeltaLog, GraphDelta, apply_delta, k_hop_rows
from repro.graph.normalize import (
    add_self_loops,
    gcn_normalize,
    row_normalize,
    row_normalize_features,
)
from repro.graph.pagerank import pagerank
from repro.graph.subgraph import InductiveSplit, induced_subgraph, make_inductive_split
from repro.graph.stats import GraphStats, edge_homophily, summarize
from repro.graph.walks import batch_random_walks

__all__ = [
    "Graph",
    "build_adjacency",
    "graph_fingerprint",
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
    "GraphStats",
    "edge_homophily",
    "summarize",
    "batch_random_walks",
]
