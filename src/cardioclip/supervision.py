"""Pathology vectors and the soft supervision matrix for contrastive training.

Each case's structured report becomes a +/-1 vector over the seven findings;
batch-pairwise cosine similarities of those vectors form the affinity matrix,
which is remapped to row-stochastic targets for the cross-entropy loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import StructuredReport


@dataclass(frozen=True)
class PathologyVector:
    case_id: str
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError(f"pathology vector entries must be +/-1, got {self.values}")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AffinityMatrix:
    entries: np.ndarray
    case_ids: tuple[str, ...]

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] != len(self.case_ids):
            raise ValueError(f"affinity matrix shape {e.shape} inconsistent with {len(self.case_ids)} ids")

    @property
    def batch(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class TargetMatrix:
    rows: np.ndarray

    def __post_init__(self):
        r = self.rows
        if np.any(r < 0):
            raise ValueError("target matrix entries must be non-negative")
        if not np.allclose(r.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("target matrix rows must sum to 1")


def pathology_vector(s: StructuredReport) -> PathologyVector:
    return PathologyVector(
        case_id=s.case_id,
        values=tuple(1 if f else -1 for f in s.flags),
    )


def affinity_matrix(vs) -> AffinityMatrix:
    """Pairwise cosine similarities of +/-1 vectors: (D - 2k)/D at Hamming distance k."""
    if len(vs) < 1:
        raise ValueError("need at least one pathology vector")
    dims = {v.dim for v in vs}
    if len(dims) != 1:
        raise ValueError(f"pathology vectors have mixed lengths {sorted(dims)}")
    y = np.asarray([v.values for v in vs], dtype=np.float64)
    norms = np.linalg.norm(y, axis=1)
    entries = (y @ y.T) / np.outer(norms, norms)
    return AffinityMatrix(entries=entries, case_ids=tuple(v.case_id for v in vs))


def targets_from_affinity(a: AffinityMatrix) -> TargetMatrix:
    """Shift affinities onto [0, 1] and row-normalize into a proper distribution.

    (A+1)/2 keeps the similarity ordering, puts the (unit) diagonal at each
    row's maximum, and degenerates to identity targets when all off-diagonal
    affinities are -1.
    """
    shifted = (a.entries + 1.0) / 2.0
    return TargetMatrix(rows=shifted / shifted.sum(axis=1, keepdims=True))
