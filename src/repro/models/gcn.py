"""The standard multi-layer GCN (Kipf & Welling), paper Eq. 2.

Two layers with hidden dimension 16 and heavy input dropout is the paper's
base model for every ensemble method, including RDD's students.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.nn.layers import Dropout, FeatureInput, GraphConvolution
from repro.nn.module import Module, ModuleList
from repro.sampling.blocks import Block
from repro.tensor import ops
from repro.tensor.tensor import Tensor


class GCN(GraphModel):
    """``Z = Â ReLU(... ReLU(Â X W1) ...) WL`` with dropout between layers.

    Parameters
    ----------
    num_features / num_classes:
        Input feature dimension and number of output classes.
    rng:
        Generator for weight init and dropout masks.
    hidden:
        Hidden width(s).  An int replicates across ``num_layers - 1`` hidden
        layers; a sequence sets each hidden layer explicitly.
    num_layers:
        Total number of graph convolutions (>= 1).
    dropout:
        Drop probability applied to the input of every layer.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int | Sequence[int] = 16,
        num_layers: int = 2,
        dropout: float = 0.5,
    ):
        super().__init__()
        if num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {num_layers}")
        if isinstance(hidden, int):
            widths = [hidden] * (num_layers - 1)
        else:
            widths = list(hidden)
            if len(widths) != num_layers - 1:
                raise ConfigError(
                    f"{num_layers}-layer {type(self).__name__} needs {num_layers - 1} "
                    f"hidden widths, got {len(widths)}"
                )
        if any(width < 1 for width in widths):
            raise ConfigError(f"hidden widths must be >= 1, got {widths}")
        dims = [num_features] + widths + [num_classes]
        self.layers = ModuleList(self._layer(dims[i], dims[i + 1], rng) for i in range(num_layers))
        self.dropout = Dropout(dropout, rng)

    def _layer(self, in_features: int, out_features: int, rng: np.random.Generator) -> Module:
        """One graph convolution; subclasses swap the aggregation here."""
        return GraphConvolution(in_features, out_features, rng)

    def forward(self, graph: Graph) -> Tensor:
        return self.propagate([graph.normalized_adjacency()] * len(self.layers), graph.features)

    def propagate(self, adjacencies: Sequence[sp.spmatrix], h: FeatureInput) -> Tensor:
        """The layer loop: dropout, then ``layer(adjacencies[i], h)``, then
        ReLU except after the last layer.

        Every forward runs through here: the full graph passes the same
        matrix for each layer, a sampled batch one block matrix per layer.
        """
        last = len(self.layers) - 1
        for i, (layer, adjacency) in enumerate(zip(self.layers, adjacencies)):
            h = self.dropout(h)
            h = layer(adjacency, h)
            if i < last:
                h = ops.relu(h)
        return h

    def block_adjacency(self, block: Block) -> sp.spmatrix:
        """The matrix a layer aggregates with over a sampled ``block``."""
        return block.adjacency
