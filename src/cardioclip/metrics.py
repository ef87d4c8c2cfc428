"""Ranking metrics on plain arrays: AUROC (Mann-Whitney with tie credit),
ordinal AUROC over graded labels, Recall@K and Precision@K over rankings
given as index orders into a candidate pool. auroc alone decides that an
AUROC is undefined (one class absent), and returns None there."""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)


def auroc(scores, labels) -> float | None:
    """Fraction of (positive, negative) pairs ranked correctly; ties count 1/2.

    scores (n,) are finite; labels (n,) are truthy for positives. Computed via
    the rank-sum form of the Mann-Whitney U statistic, which is exactly the
    pair-counting definition. None when the labels hold one class only.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"score at index {bad[0]} is non-finite")
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    # a run of tied scores at sorted positions i..j shares the rank 0.5*(i+j)+1
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + (first + counts - 1)) + 1.0, counts)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def ordinal_auroc(grades, scores, n_grades: int = 5) -> list[tuple[int, float | None]]:
    """AUROC of (grade > t) at every cut t in 1..n_grades-1.

    grades (n,) lie in [1, n_grades]. scores is (n,), one score per case that
    ranks every cut, or (n, n_grades), cut t ranked by column t. A cut where
    one side is empty (every cut, when all grades are equal) is (t, None).
    """
    grades = np.asarray(grades)
    scores = np.asarray(scores, dtype=np.float64)
    if np.any((grades < 1) | (grades > n_grades)):
        raise ValueError(f"grades must lie in [1, {n_grades}]")
    if scores.shape not in ((len(grades),), (len(grades), n_grades)):
        raise ValueError(f"scores must be ({len(grades)},) or ({len(grades)}, {n_grades}), "
                         f"got {scores.shape}")
    out = []
    for t in range(1, n_grades):
        value = auroc(scores if scores.ndim == 1 else scores[:, t], grades > t)
        if value is None:
            logger.warning("ordinal AUROC undefined at threshold %d (single class)", t)
        out.append((t, value))
    return out


def head_ordinal_auroc(probs, grades) -> list[tuple[int, float | None]]:
    """Ordinal AUROC of a K-class grading head (class k is grade k+1).

    Cut t is the binary task (grade > t), and the head's own score for it is
    P(grade > t), the sum of p_k over classes k >= t. One score shared by all
    cuts, such as the expected class index, can let mass spread over the
    higher grades outrank a confident low grade. A cut where one side is
    empty is reported as (t, None), as in ordinal_auroc.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != len(grades):
        raise ValueError(f"probs must be (n_cases, K) with n_cases={len(grades)}, got {probs.shape}")
    exceed = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]  # exceed[:, t] = P(grade > t)
    return ordinal_auroc(grades, exceed, probs.shape[1])


def rank_pool(scores) -> np.ndarray:
    """Pool indices by descending score along the last axis; equal scores
    keep pool order."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")


def _effective_k(k: int, pool_size: int) -> int:
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if k > pool_size:
        logger.warning("K=%d exceeds pool size %d; clamping", k, pool_size)
        return pool_size
    return k


def recall_at_k(orders, k: int) -> float:
    """Mean over queries of 1 iff the query's counterpart is in its top K.

    orders (n_queries, pool) holds each query's ranking of the pool, as
    rank_pool returns it; query i's counterpart is pool item i.
    """
    orders = np.asarray(orders)
    k = _effective_k(k, orders.shape[1])
    hits = (orders[:, :k] == np.arange(len(orders))[:, None]).any(axis=1)
    return float(hits.mean())


def precision_at_k(order, positive, k: int) -> float:
    """Fraction of the top K of the ranking order that is relevant, with
    positive (pool,) marking the relevant pool items."""
    k = _effective_k(k, len(order))
    return int(np.asarray(positive, dtype=bool)[order[:k]].sum()) / k
