"""Synthetic citation-network datasets calibrated to the paper's Table 2."""

from repro.datasets.citation import (
    CITESEER,
    CORA,
    NELL,
    PUBMED,
    CitationSpec,
    citeseer_like,
    cora_like,
    generate_citation_graph,
    nell_like,
    pubmed_like,
)
from repro.datasets.features import generate_topic_features, one_hot_identity_features
from repro.datasets.registry import available_datasets, load_dataset, register_dataset
from repro.datasets.sbm import generate_dcsbm_graph, sample_block_sizes, sample_dcsbm_edges
from repro.datasets.splits import max_train_per_class, planetoid_split, resample_train_index

__all__ = [
    "CitationSpec",
    "CORA",
    "CITESEER",
    "PUBMED",
    "NELL",
    "generate_citation_graph",
    "cora_like",
    "citeseer_like",
    "pubmed_like",
    "nell_like",
    "generate_dcsbm_graph",
    "sample_block_sizes",
    "sample_dcsbm_edges",
    "generate_topic_features",
    "one_hot_identity_features",
    "planetoid_split",
    "resample_train_index",
    "max_train_per_class",
    "available_datasets",
    "load_dataset",
    "register_dataset",
]
