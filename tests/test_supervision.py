import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioclip.reports import load_catalog, structured_from_flags
from cardioclip.supervision import affinity_matrix, pathology_vector, targets_from_affinity

CAT = load_catalog()


class TestPathologyVector:
    def test_single_positive(self):
        s = structured_from_flags("a", (True,) + (False,) * 6, CAT)
        assert pathology_vector(s).tolist() == [1, -1, -1, -1, -1, -1, -1]

    def test_all_absent(self):
        s = structured_from_flags("b", (False,) * 7, CAT)
        assert pathology_vector(s).tolist() == [-1] * 7

    def test_all_present(self):
        s = structured_from_flags("c", (True,) * 7, CAT)
        assert pathology_vector(s).tolist() == [1] * 7


class TestAffinityMatrix:
    def test_identical_vectors(self):
        a = affinity_matrix([[1, -1, 1, -1, 1, -1, 1], [1, -1, 1, -1, 1, -1, 1]])
        assert a[0, 1] == pytest.approx(1.0)

    def test_antipodal_vectors(self):
        v = [1, -1, 1, -1, 1, -1, 1]
        a = affinity_matrix([v, [-x for x in v]])
        assert a[0, 1] == pytest.approx(-1.0)

    def test_two_of_seven_differ(self):
        v1 = [1, 1, 1, 1, 1, 1, 1]
        v2 = [1, 1, 1, 1, 1, -1, -1]
        a = affinity_matrix([v1, v2])
        assert a[0, 1] == pytest.approx(3.0 / 7.0)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 32))
    @settings(max_examples=40, deadline=None)
    def test_brute_force_oracle(self, seed, batch):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1, 1], size=(batch, 7))
        a = affinity_matrix(list(signs))
        # independent double loop over dot products
        for i in range(batch):
            for j in range(batch):
                yi, yj = signs[i].astype(float), signs[j].astype(float)
                expected = float(yi @ yj / (np.linalg.norm(yi) * np.linalg.norm(yj)))
                assert abs(a[i, j] - expected) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_entries_quantized(self, seed):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1, 1], size=(8, 7))
        a = affinity_matrix(signs)
        allowed = np.array([(7 - 2 * k) / 7 for k in range(8)])
        dists = np.abs(a[..., None] - allowed[None, None, :]).min(axis=-1)
        assert dists.max() < 1e-12

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(0)
        signs = rng.choice([-1, 1], size=(6, 7))
        a = affinity_matrix(signs)
        assert np.allclose(a, a.T)
        assert np.allclose(np.diag(a), 1.0)

    def test_empty_and_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            affinity_matrix([])
        with pytest.raises(ValueError):
            affinity_matrix([[1, -1], [1, -1, 1]])


class TestTargets:
    def test_single_case(self):
        t = targets_from_affinity(affinity_matrix([[1] * 7]))
        assert t.shape == (1, 1)
        assert t[0, 0] == pytest.approx(1.0)

    def test_hard_label_limit(self):
        t = targets_from_affinity(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(t, np.eye(2))

    def test_hand_arithmetic(self):
        # affinity 3/7 -> shifted (1, 5/7); row sum 12/7
        t = targets_from_affinity(np.array([[1.0, 3 / 7], [3 / 7, 1.0]]))
        assert t[0, 0] == pytest.approx(1.0 / (12 / 7))
        assert t[0, 1] == pytest.approx((5 / 7) / (12 / 7))
        assert t[0, 0] == pytest.approx(0.583333333)
        assert t[0, 1] == pytest.approx(0.416666666)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions_with_diagonal_argmax(self, seed):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1, 1], size=(6, 7))
        t = targets_from_affinity(affinity_matrix(signs))
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(t >= 0)
        for i in range(6):
            assert t[i, i] == pytest.approx(float(t[i].max()))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        signs = rng.choice([-1, 1], size=(5, 7))
        vs = list(signs)
        perm = [3, 0, 4, 1, 2]
        a = affinity_matrix(vs)
        ap = affinity_matrix([vs[i] for i in perm])
        assert np.allclose(ap, a[np.ix_(perm, perm)])
        t = targets_from_affinity(affinity_matrix(vs))
        tp = targets_from_affinity(affinity_matrix([vs[i] for i in perm]))
        assert np.allclose(tp, t[np.ix_(perm, perm)])
