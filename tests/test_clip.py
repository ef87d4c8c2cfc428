import math

import numpy as np
import pytest

from cardioclip.clip import (
    ContrastiveConfig,
    contrastive_loss,
    contrastive_pairs,
    cosine_rows,
    sample_text_variant,
    train_clip,
)
from cardioclip.reports import load_catalog, structured_from_flags
from cardioclip.synth import SynthCase
from cardioclip.tokenizer import UNK_ID, normalize_words

CAT = load_catalog()


class TestSimilarityMatrix:
    """cosine_rows, the batch similarity matrix of the contrastive step."""

    def test_orthonormal_identity(self):
        v = np.eye(2)
        S, _ = cosine_rows(v, v)
        assert np.allclose(S, np.eye(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.normal(0, 1, (3, 4))
        t = rng.normal(0, 1, (3, 4))
        S1, _ = cosine_rows(v, t)
        S2, _ = cosine_rows(7.3 * v, t)
        assert np.allclose(S1, S2)

    def test_hand_computed_2x2(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        S, _ = cosine_rows(v, t)
        r = 1 / math.sqrt(2)
        assert np.allclose(S, [[r, r], [r, -r]], atol=1e-7)

    def test_zero_norm_error_names_index(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match="index 1"):
            cosine_rows(v, t)

    def test_count_mismatch(self):
        # one volume against two reports: the loss refuses the non-square matrix
        S, _ = cosine_rows(np.array([[1.0, 0.0]]), np.eye(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            contrastive_loss(S, np.full((1, 2), 0.5), tau=1.0)


class TestContrastiveLoss:
    def test_fixed_point_ln_1_plus_e_inv(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = contrastive_loss(S, np.eye(2), tau=1.0)
        assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        S = rng.normal(0, 1, (4, 4))
        T = np.abs(rng.normal(0, 1, (4, 4)))
        T = T / T.sum(axis=1, keepdims=True)
        l1, _ = contrastive_loss(S, T, tau=0.3)
        l2, _ = contrastive_loss(S + 17.5, T, tau=0.3)
        assert l1 == pytest.approx(l2, abs=1e-10)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        A = rng.normal(0, 1, (3, 3))
        S = (A + A.T) / 2
        B = np.abs(rng.normal(0, 1, (3, 3)))
        T = (B + B.T) / 2
        T = T / T.sum(axis=1, keepdims=True)
        # symmetric T is only row-stochastic if doubly stochastic; use raw CE terms
        loss, _ = contrastive_loss(S, T, tau=1.0)
        loss_t, _ = contrastive_loss(S.T, T.T, tau=1.0)
        assert loss == pytest.approx(loss_t, abs=1e-10)

    def test_symmetric_inputs_make_terms_equal(self):
        rng = np.random.default_rng(3)
        A = rng.normal(0, 1, (3, 3))
        S = (A + A.T) / 2
        T = np.eye(3)
        loss, _ = contrastive_loss(S, T, tau=0.5)
        # each CE term equals the total when S and T are symmetric
        logp = S / 0.5 - np.log(np.exp(S / 0.5).sum(axis=1, keepdims=True))
        ce = float(-(T * logp).mean(axis=0).sum())
        assert loss == pytest.approx(ce, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        S = rng.normal(0, 1, (3, 3))
        B = np.abs(rng.normal(0, 1, (3, 3)))
        T = B / B.sum(axis=1, keepdims=True)
        _, dS = contrastive_loss(S, T, tau=0.7)
        eps = 1e-6
        worst = 0.0
        for i in range(3):
            for j in range(3):
                Sp, Sm = S.copy(), S.copy()
                Sp[i, j] += eps
                Sm[i, j] -= eps
                up, _ = contrastive_loss(Sp, T, tau=0.7)
                dn, _ = contrastive_loss(Sm, T, tau=0.7)
                gn = (up - dn) / (2 * eps)
                worst = max(worst, abs(gn - dS[i, j]) / max(1e-8, abs(gn) + abs(dS[i, j])))
        assert worst < 1e-4

    def test_hard_label_limit_equals_infonce(self):
        # antipodal pathology vectors -> identity targets -> standard
        # symmetric cross-entropy on the diagonal
        rng = np.random.default_rng(5)
        S = rng.normal(0, 1, (2, 2))
        tau = 0.2
        loss, _ = contrastive_loss(S, np.eye(2), tau)

        def infonce_oracle(S, tau):
            # independent hard-label implementation
            def ce_diag(M):
                total = 0.0
                for i in range(M.shape[0]):
                    z = M[i] / tau
                    total += -(z[i] - np.log(np.exp(z - z.max()).sum()) - z.max())
                return total / M.shape[0]

            return 0.5 * (ce_diag(S) + ce_diag(S.T))

        assert loss == pytest.approx(infonce_oracle(S, tau), abs=1e-10)

    def test_temperature_monotonicity_on_aligned_example(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        losses = [contrastive_loss(S, np.eye(2), tau)[0] for tau in (1.0, 0.5, 0.1)]
        assert losses[0] > losses[1] > losses[2]

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(2), np.eye(2), tau=0.0)


class TestVariantSampling:
    def structured(self):
        return structured_from_flags("c0", (True,) + (False,) * 6, CAT)

    def test_binomial_fraction(self):
        rng = np.random.default_rng(1)
        st = self.structured()
        n = 10_000
        hits = sum(sample_text_variant("free", st, rng) == st.text() for _ in range(n))
        assert abs(hits / n - 0.5) < 0.02

    def test_deterministic_per_rng_state(self):
        st = self.structured()
        a = [sample_text_variant("free", st, np.random.default_rng(7)) for _ in range(5)]
        b = [sample_text_variant("free", st, np.random.default_rng(7)) for _ in range(5)]
        assert a == b


class TestContrastivePairs:
    def test_vocab_covers_structured_texts_and_vectors_match_flags(self):
        flags = [tuple(bool((i >> d) & 1) for d in range(CAT.size)) for i in (0, 5, 127)]
        cases = [SynthCase(f"c{i}", f"vol{i}", f, f"free text {i}", None)
                 for i, f in enumerate(flags)]
        pairs, vocab = contrastive_pairs(cases)
        assert [(p[0], p[1]) for p in pairs] == [(c.volume, c.free_text) for c in cases]
        for c, (_, _, s, vec) in zip(cases, pairs):
            assert s.text() == structured_from_flags(c.case_id, c.flags, CAT).text()
            assert vec.tolist() == [1 if f else -1 for f in c.flags]
            for text in (s.text(), c.free_text):
                assert all(vocab.id_of(w) != UNK_ID for w in normalize_words(text))


class TestConfigs:
    def test_pair_batch_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            train_clip([("v", "t", "s", "p")], {}, None, None, None, ContrastiveConfig(), seed=0)

    def test_contrastive_config_invariants(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(temperature=0.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(proj_lr=0.0)
