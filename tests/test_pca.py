import numpy as np
import numpy.testing as npt
import pytest

from tsgad.pca import (
    PcaModel,
    fit_pca,
    project,
    spe,
    variance_ratios,
)


def eigh_oracle(data, n_components):
    """Independent route: numpy's symmetric eigensolver on the covariance."""
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (data.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    return values[order][:n_components], vectors[:, order][:, :n_components].T


class TestFitPca:
    def test_axis_aligned(self):
        data = np.zeros((10, 2))
        data[:, 0] = np.arange(10.0)
        model = fit_pca(data, 1)
        npt.assert_allclose(model.loadings[0], [1.0, 0.0], atol=1e-12)
        npt.assert_allclose(variance_ratios(model), [1.0], atol=1e-12)

    def test_perfectly_correlated_columns(self):
        model = fit_pca(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), 2)
        npt.assert_allclose(model.loadings[0], [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_eigensolve(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data = rng.normal(size=(20, 5)) @ rng.normal(size=(5, 5))
            model = fit_pca(data.copy(), 5)
            ref_values, ref_vectors = eigh_oracle(data, 5)
            npt.assert_allclose(model.eigenvalues, ref_values, atol=1e-8)
            for row, ref in zip(model.loadings, ref_vectors):
                # eigenvectors agree up to sign
                sign = np.sign(row @ ref)
                npt.assert_allclose(row, sign * ref, atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        model = fit_pca(rng.normal(size=(30, 4)), 4)
        for row in model.loadings:
            assert row[np.argmax(np.abs(row))] > 0

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((1, 3)), 1)

    def test_zero_variance_gives_zero_eigenvalues(self):
        model = fit_pca(np.full((5, 3), 2.0), 2)
        npt.assert_allclose(model.eigenvalues, 0.0, atol=1e-15)

    def test_too_many_components(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((5, 2)), 3)

    def test_eigendecomposition_of_covariance(self):
        rng = np.random.default_rng(4)
        for size in (2, 3, 6, 10):
            data = rng.normal(size=(3 * size, size)) @ rng.normal(size=(size, size))
            model = fit_pca(data.copy(), size)
            centered = data - data.mean(axis=0)
            cov = centered.T @ centered / (data.shape[0] - 1)
            loadings, values = model.loadings, model.eigenvalues
            npt.assert_allclose(loadings @ loadings.T, np.eye(size), atol=1e-10)
            npt.assert_allclose(cov @ loadings.T, loadings.T @ np.diag(values), atol=1e-9)
            assert np.all(np.diff(values) <= 0.0)
            npt.assert_allclose(values, np.linalg.eigvalsh(cov)[::-1], atol=1e-10)


class TestProject:
    def test_mean_replicated_projects_to_zero(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(12, 3))
        model = fit_pca(data, 2)
        scores = project(model, np.tile(model.mean, (4, 1)))
        npt.assert_allclose(scores, 0.0, atol=1e-12)

    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(15, 4))
        model = fit_pca(data.copy(), 4)
        scores = project(model, data.copy())
        npt.assert_allclose(scores @ model.loadings + model.mean, data, atol=1e-8)

    def test_projected_variances_reproduce_eigenvalues(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(40, 5)) * np.array([3.0, 1.0, 0.5, 0.2, 0.1])
        model = fit_pca(data.copy(), 5)
        scores = project(model, data)
        npt.assert_allclose(scores.var(axis=0, ddof=1), model.eigenvalues, atol=1e-8)

    def test_dimension_mismatch(self):
        model = fit_pca(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(ValueError):
            project(model, np.zeros((5, 4)))


class TestVarianceRatios:
    def test_arithmetic(self):
        model = PcaModel(
            mean=np.zeros(2),
            loadings=np.eye(2),
            eigenvalues=np.array([3.0, 1.0]),
            total_variance=4.0,
        )
        npt.assert_allclose(variance_ratios(model), [0.75, 0.25])

    def test_rank_one_data(self):
        model = fit_pca(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]), 1)
        npt.assert_allclose(variance_ratios(model), [1.0], atol=1e-12)

    def test_zero_total_variance(self):
        model = fit_pca(np.full((4, 2), 7.0), 2)
        npt.assert_array_equal(variance_ratios(model), [0.0, 0.0])

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(8)
        model = fit_pca(rng.normal(size=(25, 6)), 6)
        assert variance_ratios(model).sum() == pytest.approx(1.0, abs=1e-10)


class TestSpe:
    def test_complete_basis_gives_zero(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(10, 3))
        model = fit_pca(data.copy(), 3)
        npt.assert_allclose(spe(model, data), 0.0, atol=1e-12)

    def test_row_in_retained_span(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(20, 4))
        model = fit_pca(data, 2)
        row = model.mean + 0.3 * model.loadings[0] - 1.7 * model.loadings[1]
        assert spe(model, row[None])[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_reconstruction(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(10, 4))
        model = fit_pca(data.copy(), 2)
        expected = np.empty(10)
        for i in range(10):
            centered = data[i] - model.mean
            recon = np.zeros(4)
            for comp in model.loadings:
                recon += (centered @ comp) * comp
            expected[i] = np.sum((centered - recon) ** 2)
        npt.assert_allclose(spe(model, data), expected, atol=1e-10)

    def test_pythagoras_identity(self):
        # SPE depends only on the retained subspace: residual norm equals
        # total centered norm minus projection norm
        rng = np.random.default_rng(13)
        data = rng.normal(size=(30, 5))
        model = fit_pca(data, 3)
        test = rng.normal(size=(8, 5))
        centered = test - model.mean
        expected = np.sum(centered**2, axis=1) - np.sum(project(model, test.copy()) ** 2, axis=1)
        npt.assert_allclose(spe(model, test), expected, atol=1e-10)


def test_orthonormal_loadings():
    rng = np.random.default_rng(14)
    model = fit_pca(rng.normal(size=(40, 7)), 4)
    npt.assert_allclose(model.loadings @ model.loadings.T, np.eye(4), atol=1e-10)


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    model = fit_pca(rng.normal(size=(20, 3)), 2)
    path = tmp_path / "pca.json"
    model.save(path)
    loaded = PcaModel.load(path)
    npt.assert_array_equal(loaded.loadings, model.loadings)
    npt.assert_array_equal(loaded.mean, model.mean)
    assert loaded.total_variance == model.total_variance
