import numpy as np
import pytest

from cardioclip.metrics import (
    auroc,
    head_ordinal_auroc,
    ordinal_auroc,
    precision_at_k,
    rank_pool,
    recall_at_k,
)


def brute_force_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAUROC:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_hand_counted_three_quarters(self):
        assert auroc([0.9, 0.2, 0.8, 0.3], [1, 0, 0, 1]) == pytest.approx(0.75)

    def test_single_class_is_none(self):
        assert auroc([0.1, 0.2], [1, 1]) is None
        assert auroc([0.1, 0.2], [0, 0]) is None

    def test_brute_force_oracle_on_100_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(5, 201))
            scores = rng.choice(np.round(rng.normal(0, 1, 40), 2), size=n)  # forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            fast = auroc(scores, labels)
            slow = brute_force_auroc(list(scores), list(labels))
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_naming_its_index(self, bad):
        with pytest.raises(ValueError, match="index 2 is non-finite"):
            auroc([0.1, 0.2, bad, 0.4], [1, 0, 1, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            auroc([0.1, 0.2, 0.3], [1, 0])


class TestRecallPrecision:
    # a ranking of the pool 0..n-1 listed best first
    def test_recall_hit_at_rank_one(self):
        assert recall_at_k([[0, 1, 2, 3, 4, 5]], 5) == 1.0

    def test_recall_boundary(self):
        order = [[6, 1, 2, 3, 4, 0, 5]]  # the counterpart 0 ranks sixth
        assert recall_at_k(order, 5) == 0.0
        assert recall_at_k(order, 10) == 1.0  # clamped to pool size

    def test_recall_chance_level(self):
        rng = np.random.default_rng(1)
        hits = [recall_at_k([rng.permutation(100)], 10) for _ in range(10_000)]
        assert abs(np.mean(hits) - 0.10) < 0.02

    def test_precision_all_relevant(self):
        assert precision_at_k(np.array([0, 1, 2]), np.ones(3, dtype=bool), 3) == 1.0

    def test_precision_none_relevant(self):
        assert precision_at_k(np.array([0, 1, 2]), np.zeros(3, dtype=bool), 3) == 0.0

    def test_precision_chance_level(self):
        rng = np.random.default_rng(2)
        positive = np.arange(50) < 15  # prevalence 0.3
        vals = [precision_at_k(rng.permutation(50), positive, 10) for _ in range(5_000)]
        assert abs(np.mean(vals) - 0.3) < 0.02

    def test_precision_brute_force_definition(self):
        rng = np.random.default_rng(3)
        positive = np.array([rng.random() < 0.4 for _ in range(30)])
        order = rng.permutation(30)
        for k in (1, 5, 10, 30):
            manual = sum(1 for i in order[:k] if positive[i]) / k
            assert precision_at_k(order, positive, k) == pytest.approx(manual)

    def test_mean_recall(self):
        # query 0 ranks its counterpart first, query 1 ranks its counterpart last
        assert recall_at_k([[0, 1, 2], [2, 0, 1]], 1) == 0.5

    def test_recall_brute_force_definition(self):
        rng = np.random.default_rng(6)
        orders = np.array([rng.permutation(12) for _ in range(12)])
        for k in (1, 3, 12):
            manual = np.mean([i in list(orders[i][:k]) for i in range(12)])
            assert recall_at_k(orders, k) == manual


class TestOrdinalAUROC:
    def test_perfect_ordering(self):
        result = ordinal_auroc([1, 2, 3, 4, 5], [0.1, 0.2, 0.3, 0.4, 0.5])
        assert [v for _, v in result] == [1.0, 1.0, 1.0, 1.0]

    def test_constant_scores(self):
        assert [v for _, v in ordinal_auroc([1, 2, 3, 4, 5], [0.5] * 5)] == [0.5, 0.5, 0.5, 0.5]

    def test_hand_computed_example(self):
        result = dict(ordinal_auroc([1, 2, 3, 4, 5], [0.1, 0.3, 0.2, 0.8, 0.9]))
        assert result[1] == pytest.approx(1.0)
        assert result[2] == pytest.approx(5.0 / 6.0)
        assert result[3] == pytest.approx(1.0)
        assert result[4] == pytest.approx(1.0)

    def test_undefined_threshold_reported_none(self):
        result = dict(ordinal_auroc([1, 1, 2, 2], [0.1, 0.2, 0.6, 0.7]))
        assert result[1] == 1.0
        assert result[2] is None and result[3] is None and result[4] is None

    def test_single_grade_is_none_at_every_cut(self):
        assert ordinal_auroc([3, 3, 3], [0.1, 0.2, 0.3]) == [(t, None) for t in range(1, 5)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="grades"):
            ordinal_auroc([1, 6], [0.1, 0.2])
        with pytest.raises(ValueError, match="scores"):
            ordinal_auroc([1, 2], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="non-finite"):
            ordinal_auroc([1, 2], [0.1, np.nan])

    def test_compositional_equivalence_with_auroc(self):
        rng = np.random.default_rng(4)
        grades = rng.integers(1, 6, size=60)
        scores = rng.normal(0, 1, size=60) + 0.3 * grades
        for t, value in ordinal_auroc(grades, scores):
            assert value == pytest.approx(auroc(scores, grades > t), abs=1e-12)

    def test_per_cut_columns_rank_each_cut(self):
        rng = np.random.default_rng(7)
        grades = rng.integers(1, 6, size=30)
        scores = rng.normal(0, 1, size=(30, 5))
        for t, value in ordinal_auroc(grades, scores):
            assert value == auroc(scores[:, t], grades > t)


class TestHeadOrdinalAUROC:
    # a confident grade 2 against a grade 1 whose mass is split between the
    # lowest and the highest grade
    LOW_SPLIT = [0.5, 0.0, 0.0, 0.0, 0.5]
    CONFIDENT_2 = [0.1, 0.9, 0.0, 0.0, 0.0]

    def test_cut_scored_by_exceedance_not_expected_index(self):
        probs = np.array([self.LOW_SPLIT, self.CONFIDENT_2])
        grades = [1, 2]
        # P(grade > 1): 0.5 vs 0.9, so the grade-2 case ranks first
        assert dict(head_ordinal_auroc(probs, grades))[1] == 1.0
        # the expected class index (2.0 vs 0.9) ranks them the other way
        assert dict(ordinal_auroc(grades, probs @ np.arange(5)))[1] == 0.0

    def test_each_cut_matches_auroc_of_its_tail_probability(self):
        rng = np.random.default_rng(5)
        grades = rng.integers(1, 6, size=40)
        logits = rng.normal(0, 1, size=(40, 5)) + 0.8 * np.eye(5)[grades - 1]
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        result = head_ordinal_auroc(probs, grades)
        assert [t for t, _ in result] == [1, 2, 3, 4]
        for t, value in result:
            assert value == pytest.approx(auroc(probs[:, t:].sum(axis=1), grades > t),
                                          abs=1e-12)

    def test_undefined_cut_reported_none(self):
        probs = np.array([self.LOW_SPLIT, self.CONFIDENT_2, self.CONFIDENT_2])
        result = dict(head_ordinal_auroc(probs, [1, 2, 2]))
        assert result[1] == 1.0
        assert result[2] is None and result[3] is None and result[4] is None
        # a single grade leaves every cut one-sided
        assert head_ordinal_auroc(probs[:2], [3, 3]) == [(t, None) for t in range(1, 5)]

    def test_invalid_inputs_rejected(self):
        probs = np.full((2, 5), 0.2)
        with pytest.raises(ValueError, match="grades"):
            head_ordinal_auroc(probs, [1, 6])
        with pytest.raises(ValueError, match="probs"):
            head_ordinal_auroc(probs, [1, 2, 3])


class TestRankPool:
    def test_descending_with_stable_ties(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        order = rank_pool(scores)
        assert order.tolist() == [1, 0, 2, 3]  # tie 0/2 keeps pool order
        assert scores[order].tolist() == [0.9, 0.5, 0.5, 0.1]

    def test_rows_of_a_matrix_rank_independently(self):
        scores = np.array([[0.5, 0.9, 0.5], [0.2, 0.2, 0.7]])
        assert rank_pool(scores).tolist() == [rank_pool(row).tolist() for row in scores]
