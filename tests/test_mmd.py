import numpy as np
import pytest

from tsgad.mmd import median_heuristic, mmd_unbiased


def mmd_direct(gen_set, ref_set, sigma):
    """Triple-loop oracle: the three-term unbiased sum, evaluated literally."""
    g = np.asarray(gen_set, dtype=float).reshape(len(gen_set), -1)
    r = np.asarray(ref_set, dtype=float).reshape(len(ref_set), -1)
    n, m = len(g), len(r)
    k = lambda a, b: np.exp(-np.sum((a - b) ** 2) / (2 * sigma**2))
    t1 = sum(k(g[i], g[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    t2 = sum(k(g[i], r[j]) for i in range(n) for j in range(m)) * 2.0 / (m * n)
    t3 = sum(k(r[i], r[j]) for i in range(m) for j in range(m) if i != j) / (m * (m - 1))
    return t1 - t2 + t3


class TestMmdUnbiased:
    def test_flat_kernel_vanishes(self):
        # a near-constant kernel (huge bandwidth) makes all three terms 1
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(9, 3)) + 5.0
        value = mmd_unbiased(a, b, 1e9)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_two_identical_points_match_direct_sum(self):
        point = np.array([[1.0, 2.0], [1.0, 2.0]])
        value = mmd_unbiased(point, point, 1.5)
        assert value == pytest.approx(mmd_direct(point, point, 1.5), abs=1e-14)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_random_sets_match_direct_sum(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(5, 4))
        value = mmd_unbiased(a, b, 2.0)
        assert value == pytest.approx(mmd_direct(a, b, 2.0), abs=1e-12)

    def test_separated_clouds_dominate_same_cloud(self):
        rng = np.random.default_rng(2)
        near = rng.normal(0.0, 1.0, (50, 1))
        near2 = rng.normal(0.0, 1.0, (50, 1))
        far = rng.normal(10.0, 1.0, (50, 1))
        sigma = median_heuristic(np.concatenate([near, far]))
        separated = mmd_unbiased(near, far, sigma)
        same = abs(mmd_unbiased(near, near2, sigma))
        assert separated == pytest.approx(mmd_direct(near, far, sigma), abs=1e-12)
        assert separated > 10.0 * same

    def test_sequence_sets_are_flattened(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4, 2))
        b = rng.normal(size=(6, 4, 2))
        flat = mmd_unbiased(a.reshape(6, 8), b.reshape(6, 8), 1.0)
        seq = mmd_unbiased(a, b, 1.0)
        assert seq == pytest.approx(flat, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=(11, 3))
        assert mmd_unbiased(a, b, 1.0) == pytest.approx(mmd_unbiased(b, a, 1.0), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(9, 2))
        b = rng.normal(size=(7, 2))
        base = mmd_unbiased(a, b, 0.7)
        assert mmd_unbiased(a[::-1], b, 0.7) == pytest.approx(base, abs=1e-12)
        assert mmd_unbiased(a, rng.permutation(b), 0.7) == pytest.approx(base, abs=1e-12)

    def test_same_distribution_concentrates_near_zero(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(200, 1))
        b = rng.normal(size=(200, 1))
        assert abs(mmd_unbiased(a, b, median_heuristic(b))) < 0.05

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            mmd_unbiased(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mmd_unbiased(np.zeros((3, 2)), np.zeros((3, 4)), 1.0)


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_identical_points_fallback(self):
        assert median_heuristic(np.zeros((5, 3))) == 1.0

    def test_three_points(self):
        # distances {1, 2, 3} -> median 2
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(2.0)

    def test_too_few(self):
        with pytest.raises(ValueError):
            median_heuristic(np.zeros((1, 2)))


def test_non_positive_bandwidth_rejected():
    for bandwidth in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            mmd_unbiased(np.zeros((3, 2)), np.ones((3, 2)), bandwidth)
