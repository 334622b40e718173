"""Seed-node batching for mini-batch training.

An :class:`ItemSampler` owns a label-split index (typically
``graph.train_index``) and yields shuffled batches of seed nodes each
epoch.  The shuffle can be *reliability-weighted*: given positive
per-node weights, each item draws an independent exponential key scaled
by ``1/w`` and batches are formed in ascending key order — a weighted
shuffle without replacement, so high-weight (reliable) seeds front-load
the epoch while every seed still appears exactly once.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.errors import GraphError


class ItemSampler:
    """Shuffled (optionally weighted) seed batches over a node index.

    Parameters
    ----------
    index:
        Node ids to batch over (e.g. the training split).  Deduplicated
        order is **not** imposed; the caller's index order is the
        identity permutation.
    batch_size:
        Seeds per batch; the final batch of an epoch may be smaller
        (never dropped — every seed is visited exactly once per epoch).
    seed / rng:
        Shuffle stream, independent of neighbor-sampling randomness.
    """

    def __init__(
        self,
        index: np.ndarray,
        batch_size: int,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size < 1:
            raise GraphError(f"batch_size must be >= 1, got {batch_size}")
        self.index = np.asarray(index, dtype=np.int64)
        if self.index.ndim != 1 or self.index.size == 0:
            raise GraphError("ItemSampler needs a non-empty 1-D node index")
        self.batch_size = int(batch_size)
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def __len__(self) -> int:
        return -(-len(self.index) // self.batch_size)

    def epoch(self, weights: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """One epoch's batches: a shuffled partition of ``index``.

        ``weights`` (aligned with ``index``, finite and strictly
        positive) biases the shuffle so heavier seeds land in earlier
        batches; ``None`` shuffles uniformly.
        """
        if weights is None:
            shuffled = self.rng.permutation(self.index)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != self.index.shape:
                raise GraphError(
                    f"weights must align with index {self.index.shape}, got {weights.shape}"
                )
            if not (np.isfinite(weights).all() and weights.min() > 0.0):
                raise GraphError("seed weights must be finite and strictly positive")
            # Exponential keys scaled by 1/w: ascending-key order is a
            # weighted shuffle without replacement.
            keys = self.rng.exponential(size=len(self.index)) / weights
            shuffled = self.index[np.argsort(keys, kind="stable")]
        return [
            shuffled[i : i + self.batch_size]
            for i in range(0, len(shuffled), self.batch_size)
        ]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.epoch())
