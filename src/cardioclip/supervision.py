"""Pathology vectors and the soft supervision matrix for contrastive training.

Each case's structured report becomes a +/-1 vector over the seven findings;
batch-pairwise cosine similarities of those vectors form the affinity matrix,
which is remapped to row-stochastic targets for the cross-entropy loss. All
three are plain arrays.
"""

from __future__ import annotations

import numpy as np

from .reports import StructuredReport


def pathology_vector(s: StructuredReport) -> np.ndarray:
    """+1 where the report asserts a finding, -1 where it denies it."""
    return np.where(s.flags, 1, -1)


def affinity_matrix(vs) -> np.ndarray:
    """Pairwise cosine similarities (b, b) of b +/-1 vectors of one length:
    (D - 2k)/D at Hamming distance k."""
    y = np.asarray(vs, dtype=np.float64)
    if y.ndim != 2 or len(y) < 1:
        raise ValueError(f"need at least one pathology vector, all of one length; got shape {y.shape}")
    norms = np.linalg.norm(y, axis=1)
    return (y @ y.T) / np.outer(norms, norms)


def targets_from_affinity(a: np.ndarray) -> np.ndarray:
    """Shift affinities onto [0, 1] and row-normalize into a proper distribution.

    (A+1)/2 keeps the similarity ordering, puts the (unit) diagonal at each
    row's maximum, and degenerates to identity targets when all off-diagonal
    affinities are -1.
    """
    shifted = (a + 1.0) / 2.0
    return shifted / shifted.sum(axis=1, keepdims=True)
