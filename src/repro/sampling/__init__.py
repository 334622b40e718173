"""Shared neighbor-sampling subsystem.

One vectorized CSR sampling kernel (:mod:`repro.sampling.neighbor`)
feeds every sampled code path: mini-batch training blocks
(:mod:`repro.sampling.blocks`), seed batching
(:mod:`repro.sampling.items`), and the serving engine's inductive
context expansion
(:func:`~repro.sampling.neighbor.layerwise_neighborhood`).
"""

from repro.sampling.blocks import Block, BlockBuilder, MiniBatch
from repro.sampling.items import ItemSampler
from repro.sampling.neighbor import (
    NeighborSampler,
    check_node_ids,
    layerwise_neighborhood,
    sample_adjacent,
)

__all__ = [
    "Block",
    "BlockBuilder",
    "MiniBatch",
    "ItemSampler",
    "NeighborSampler",
    "check_node_ids",
    "layerwise_neighborhood",
    "sample_adjacent",
]
