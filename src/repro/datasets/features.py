"""Class-conditional sparse bag-of-words feature generation.

Citation-network node features are sparse binary bag-of-words vectors.
We model each class as a topic: a small set of "signal" vocabulary terms
with elevated occurrence probability, on top of a shared background
distribution.  The resulting features are informative but noisy — an MLP
on features alone performs clearly worse than a GCN, matching the relative
behaviour on the real datasets.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import DatasetError


def generate_topic_features(
    labels: np.ndarray,
    num_features: int,
    rng: np.random.Generator,
    words_per_doc: float = 18.0,
    signal_fraction: float = 0.25,
    signal_strength: float = 15.0,
    noise: float = 0.0,
) -> sp.csr_matrix:
    """Sample sparse binary features from a class-topic model.

    Parameters
    ----------
    labels:
        Integer class per node.
    num_features:
        Vocabulary size.
    words_per_doc:
        Expected number of nonzero terms per node.
    signal_fraction:
        Fraction of the vocabulary reserved as per-class signal terms.
    signal_strength:
        Probability multiplier of signal terms relative to background.
    noise:
        Fraction of nodes whose features are drawn from a *random* class's
        topic (failure-injection knob used by the robustness tests).
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = labels.max() + 1
    signal_per_class = max(1, int(num_features * signal_fraction / num_classes))
    if signal_per_class * num_classes > num_features:
        raise DatasetError("vocabulary too small for the requested signal fraction")
    if not 0.0 <= noise <= 1.0:
        raise DatasetError(f"noise must be in [0, 1], got {noise}")

    # Class c owns vocabulary slice [c*s, (c+1)*s).
    base_rate = words_per_doc / (num_features + signal_per_class * (signal_strength - 1.0))
    base_rate = min(base_rate, 0.5)

    effective = labels.copy()
    if noise > 0:
        flip = rng.random(len(labels)) < noise
        effective[flip] = rng.integers(0, num_classes, size=int(flip.sum()))

    rows, cols = [], []
    for c in range(num_classes):
        nodes = np.flatnonzero(effective == c)
        if len(nodes) == 0:
            continue
        probs = np.full(num_features, base_rate)
        start = c * signal_per_class
        probs[start : start + signal_per_class] = min(base_rate * signal_strength, 0.9)
        draws = rng.random((len(nodes), num_features)) < probs
        r, col = np.nonzero(draws)
        rows.append(nodes[r])
        cols.append(col)

    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    data = np.ones(len(rows), dtype=np.float64)
    features = sp.csr_matrix((data, (rows, cols)), shape=(len(labels), num_features))

    # Guarantee at least one active term per node (real BoW rows are nonempty).
    empty = np.flatnonzero(np.asarray(features.sum(axis=1)).ravel() == 0)
    if len(empty):
        fill_cols = (effective[empty] * signal_per_class) % num_features
        patch = sp.csr_matrix(
            (np.ones(len(empty)), (empty, fill_cols)), shape=features.shape
        )
        features = ((features + patch) > 0).astype(np.float64).tocsr()
    return features


def one_hot_identity_features(num_nodes: int, num_extra: int = 0) -> sp.csr_matrix:
    """Unique one-hot feature per node (the NELL setup from the paper).

    The paper extends NELL features "by assigning a unique one-hot
    representation for every node", yielding a very wide sparse matrix;
    ``num_extra`` pads additional all-zero columns to emulate the
    relation-feature dimensions.
    """
    eye = sp.identity(num_nodes, format="csr", dtype=np.float64)
    if num_extra > 0:
        pad = sp.csr_matrix((num_nodes, num_extra), dtype=np.float64)
        eye = sp.hstack([eye, pad], format="csr")
    return eye
