"""Weight initialization schemes.

GCNs in the paper (following Kipf & Welling) use Glorot/Xavier
initialization; all initializers take an explicit ``numpy.random.Generator``
so experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import get_default_dtype


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot (Xavier) uniform init for a ``(fan_in, fan_out)`` weight."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def zeros(shape) -> np.ndarray:
    """All-zeros array (bias init) in the active compute dtype."""
    return np.zeros(shape, dtype=get_default_dtype())
