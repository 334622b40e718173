"""Jumping Knowledge Network (Xu et al. 2018) with concat aggregation.

All intermediate layer representations "jump" to the output, where they
are concatenated and projected to class logits.  The paper chose the
concatenation aggregator because it performed best on the citation
networks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.models.densegcn import shrinking_widths
from repro.nn.layers import Dropout, GraphConvolution, Linear
from repro.nn.module import ModuleList
from repro.tensor import ops
from repro.tensor.tensor import Tensor


class JKNet(GraphModel):
    """GCN stack whose per-layer outputs are concatenated at the end."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: Sequence[int] | int | None = None,
        num_layers: int = 2,
        dropout: float = 0.5,
    ):
        super().__init__()
        if hidden is None:
            widths = shrinking_widths(num_layers)
        elif isinstance(hidden, int):
            widths = [hidden] * (num_layers - 1)
        else:
            widths = list(hidden)
        if len(widths) != num_layers - 1:
            raise ConfigError(
                f"{num_layers}-layer JKNet needs {num_layers - 1} hidden widths, got {len(widths)}"
            )

        dims = [num_features] + widths
        self.layers = ModuleList(
            GraphConvolution(dims[i], dims[i + 1], rng) for i in range(len(widths))
        )
        self.classifier = Linear(sum(widths), num_classes, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, graph: Graph) -> Tensor:
        adjacency = graph.normalized_adjacency()
        h = graph.features
        jumps = []
        for layer in self.layers:
            h = ops.relu(layer(adjacency, self.dropout(h)))
            jumps.append(h)
        combined = ops.concat(jumps, axis=1) if len(jumps) > 1 else jumps[0]
        return self.classifier(self.dropout(combined))
