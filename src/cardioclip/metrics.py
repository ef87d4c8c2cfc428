"""Ranking metrics: AUROC (Mann-Whitney with tie credit), Recall@K,
Precision@K, and ordinal AUROC over graded labels."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class UndefinedMetricError(ValueError):
    """Metric has no value for this input (e.g. single-class AUROC)."""


@dataclass(frozen=True)
class ScoredCase:
    case_id: str
    score: float
    label: object

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError(f"score for {self.case_id!r} is non-finite")


@dataclass(frozen=True)
class RankedList:
    query_id: str
    ranked_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.ranked_ids) != len(self.scores):
            raise ValueError("ranked_ids and scores must have equal length")
        if len(set(self.ranked_ids)) != len(self.ranked_ids):
            raise ValueError("ranked ids must be distinct")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing")


@dataclass(frozen=True)
class GradeSet:
    """Cases with ordinal grades in [1, n_grades] and continuous scores."""

    cases: tuple
    n_grades: int = 5

    def __post_init__(self):
        for cid, grade, score in self.cases:
            if not 1 <= grade <= self.n_grades:
                raise ValueError(f"grade {grade} for {cid!r} outside [1, {self.n_grades}]")
            if not np.isfinite(score):
                raise ValueError(f"score for {cid!r} is non-finite")


def auroc(cases) -> float:
    """Fraction of (positive, negative) pairs ranked correctly; ties count 1/2.

    Computed via the rank-sum form of the Mann-Whitney U statistic, which is
    exactly the pair-counting definition.
    """
    scores = np.asarray([c.score for c in cases], dtype=np.float64)
    labels = np.asarray([bool(c.label) for c in cases])
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC undefined: {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    # average ranks across tied scores
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _effective_k(k: int, pool_size: int) -> int:
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if k > pool_size:
        logger.warning("K=%d exceeds pool size %d; clamping", k, pool_size)
        return pool_size
    return k


def recall_at_k(ranked: RankedList, relevant_id: str, k: int) -> int:
    """1 iff the relevant id appears in the top K."""
    if relevant_id not in ranked.ranked_ids:
        raise ValueError(f"relevant id {relevant_id!r} not in the candidate pool")
    k = _effective_k(k, len(ranked.ranked_ids))
    return int(relevant_id in ranked.ranked_ids[:k])


def mean_recall_at_k(ranked_lists, relevant_ids, k: int) -> float:
    hits = [recall_at_k(r, rid, k) for r, rid in zip(ranked_lists, relevant_ids)]
    return float(np.mean(hits))


def precision_at_k(ranked: RankedList, positive_ids, k: int) -> float:
    """Fraction of the top K that is relevant."""
    k = _effective_k(k, len(ranked.ranked_ids))
    positive_ids = set(positive_ids)
    return sum(rid in positive_ids for rid in ranked.ranked_ids[:k]) / k


def _auroc_per_cut(case_ids, grades, scores_at, n_grades: int) -> list[tuple[int, float | None]]:
    """AUROC of (grade > t) at every cut t in 1..n_grades-1, cut t ranked by
    scores_at(t). A cut where one side is empty is reported as (t, None)."""
    if len(set(grades)) < 2:
        raise UndefinedMetricError("grades must span at least two distinct values")
    out = []
    for t in range(1, n_grades):
        relabeled = [ScoredCase(cid, float(score), grade > t)
                     for cid, grade, score in zip(case_ids, grades, scores_at(t))]
        try:
            out.append((t, auroc(relabeled)))
        except UndefinedMetricError:
            logger.warning("ordinal AUROC undefined at threshold %d (single class)", t)
            out.append((t, None))
    return out


def ordinal_auroc(g: GradeSet) -> list[tuple[int, float | None]]:
    """AUROC of (grade > t) at every cut t in 1..n_grades-1, every cut ranked
    by the one score per case.

    A threshold where one side is empty is reported as (t, None).
    """
    ids = [cid for cid, _, _ in g.cases]
    grades = [grade for _, grade, _ in g.cases]
    scores = [score for _, _, score in g.cases]
    return _auroc_per_cut(ids, grades, lambda t: scores, g.n_grades)


def head_ordinal_auroc(probs, grades) -> list[tuple[int, float | None]]:
    """Ordinal AUROC of a K-class grading head (class k is grade k+1).

    Cut t is the binary task (grade > t), and the head's own score for it is
    P(grade > t), the sum of p_k over classes k >= t. One score shared by all
    cuts, such as the expected class index, can let mass spread over the
    higher grades outrank a confident low grade. A cut where one side is
    empty is reported as (t, None), as in ordinal_auroc.
    """
    probs = np.asarray(probs, dtype=np.float64)
    grades = [int(g) for g in grades]
    if probs.ndim != 2 or probs.shape[0] != len(grades):
        raise ValueError(f"probs must be (n_cases, K) with n_cases={len(grades)}, got {probs.shape}")
    n_grades = probs.shape[1]
    if any(not 1 <= g <= n_grades for g in grades):
        raise ValueError(f"grades must lie in [1, {n_grades}]")
    exceed = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]  # exceed[:, t] = P(grade > t)
    ids = [str(i) for i in range(len(grades))]
    return _auroc_per_cut(ids, grades, lambda t: exceed[:, t], n_grades)


def rank_pool(scores: np.ndarray, pool_ids, query_id: str) -> RankedList:
    """Descending ranking with deterministic ties: equal scores keep pool order."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    return RankedList(
        query_id=query_id,
        ranked_ids=tuple(pool_ids[i] for i in order),
        scores=tuple(float(scores[i]) for i in order),
    )
