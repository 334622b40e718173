"""Deterministic seeding helpers.

Every stochastic component in this library takes an explicit
``numpy.random.Generator``; these helpers derive independent child
generators from one experiment seed so runs are reproducible and
components don't share streams.
"""

from __future__ import annotations

from typing import List

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """A fresh generator for ``seed``."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """``count`` statistically independent generators derived from ``seed``."""
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]
