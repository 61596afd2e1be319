import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgad.pca import PcaModel
from tsgad.scoring import (
    anomaly_score,
    calibrate_tau,
    flag_anomalies,
    metrics,
    per_variable_labels,
    threshold_for_fpr,
)


class TestAnomalyScore:
    def test_lambda_one_is_normalized_residual(self):
        res = np.array([1.0, 3.0, 2.0])
        disc = np.array([0.5, 0.5, 0.5])
        res_norm, combined = anomaly_score(res, disc, 1.0, 1.0, 3.0)
        npt.assert_allclose(combined, [0.0, 1.0, 0.5])
        npt.assert_array_equal(res_norm, combined)

    def test_lambda_zero_is_probability_of_fake(self):
        # an empty holdout residual range must not divide by zero
        disc = np.array([0.9, 0.1, 0.4])
        _, combined = anomaly_score(np.zeros(3), disc, 0.0, 0.0, 0.0)
        npt.assert_allclose(combined, 1.0 - disc)

    def test_hand_case(self):
        res_norm, combined = anomaly_score(
            np.array([0.0, 2.0]), np.array([0.9, 0.1]), 0.5, 0.0, 2.0)
        npt.assert_allclose(res_norm, [0.0, 1.0])
        npt.assert_allclose(combined, [0.05, 0.95])

    def test_combined_within_unit_interval(self):
        rng = np.random.default_rng(0)
        res = rng.exponential(size=50)
        _, combined = anomaly_score(res, rng.uniform(0.01, 0.99, 50), 0.7, res.min(), res.max())
        assert np.all(combined >= 0.0) and np.all(combined <= 1.0)

    def test_external_normalization_stats(self):
        _, combined = anomaly_score(np.array([5.0, 15.0]), np.full(2, 0.5), 1.0,
                                    res_min=0.0, res_max=10.0)
        npt.assert_allclose(combined, [0.5, 1.5])

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError, match="lambda"):
            anomaly_score(np.zeros(2), np.full(2, 0.5), 1.5, 0.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            anomaly_score(np.zeros(2), np.full(3, 0.5), 0.5, 0.0, 1.0)


class TestAssignLabels:
    """Label assignment by the cross-entropy rule -log(p) > tau, applied by
    :func:`flag_anomalies` to the probability of being normal p = 1 - S."""

    def test_zero_threshold_flags_everything_below_one(self):
        p = np.array([0.3, 0.999, 0.5])
        npt.assert_array_equal(flag_anomalies(1.0 - p, 0.0), [1, 1, 1])

    def test_confident_normal_not_flagged(self):
        p = np.array([1.0 - 1e-7])
        npt.assert_array_equal(flag_anomalies(1.0 - p, 0.5), [0])

    def test_log_threshold_hand_case(self):
        # -ln 0.9 = 0.105, -ln 0.2 = 1.609: only the second exceeds 0.5
        p = np.array([0.9, 0.2])
        npt.assert_array_equal(flag_anomalies(1.0 - p, 0.5), [0, 1])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_tau(self, values, tau_low, extra):
        scores = 1.0 - np.asarray(values)
        low = flag_anomalies(scores, tau_low)
        high = flag_anomalies(scores, tau_low + extra)
        assert np.all(high <= low)


class TestFlagAnomalies:
    def test_flags_high_scores(self):
        flags = flag_anomalies(np.array([0.05, 0.95]), 0.5)
        npt.assert_array_equal(flags, [0, 1])

    def test_calibrated_tau_hits_target_rate(self):
        rng = np.random.default_rng(1)
        normal_scores = rng.uniform(0.0, 0.5, 2000)
        tau = calibrate_tau(normal_scores, 0.01)
        rate = flag_anomalies(normal_scores, tau).mean()
        assert rate == pytest.approx(0.01, abs=0.005)
        # clearly anomalous scores are still flagged
        npt.assert_array_equal(flag_anomalies(np.array([0.9, 0.99]), tau), [1, 1])

    def test_threshold_for_fpr_quantile(self):
        stats = np.arange(100.0)
        cut = threshold_for_fpr(stats, 0.05)
        assert (stats > cut).mean() <= 0.05


class TestMetrics:
    def test_direct_formulas(self):
        truth = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        pred = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        report = metrics(pred, truth)
        assert (report["tp"], report["fp"], report["tn"], report["fn"]) == (2, 1, 6, 1)
        assert report["accuracy"] == pytest.approx(0.8)
        assert report["precision"] == pytest.approx(2 / 3)
        assert report["recall"] == pytest.approx(2 / 3)
        assert report["f1"] == pytest.approx(2 / 3)
        assert report["fpr"] == pytest.approx(1 / 7)
        assert report["undefined"] == []

    def test_perfect_detector(self):
        truth = np.array([0, 1, 0, 1])
        report = metrics(truth, truth)
        assert report["accuracy"] == 1.0
        assert report["fpr"] == 0.0

    def test_all_positive_predictor_pathology(self):
        # a detector that alarms everywhere scores perfect recall and a 100%
        # false positive rate
        truth = (np.random.default_rng(2).random(200) < 0.13).astype(int)
        report = metrics(np.ones(200, dtype=int), truth)
        assert report["recall"] == 1.0
        assert report["fpr"] == 1.0

    def test_undefined_ratios_reported_as_zero_with_flag(self):
        report = metrics(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0
        assert report["f1"] == 0.0
        assert set(report["undefined"]) == {"precision", "recall", "f1"}

    def test_matches_brute_force_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pred = (rng.random(100) < 0.4).astype(int)
            truth = (rng.random(100) < 0.2).astype(int)
            report = metrics(pred, truth)
            tp = fp = tn = fn = 0
            for p, t in zip(pred, truth):
                if p == 1 and t == 1:
                    tp += 1
                elif p == 1 and t == 0:
                    fp += 1
                elif p == 0 and t == 0:
                    tn += 1
                else:
                    fn += 1
            assert (report["tp"], report["fp"], report["tn"], report["fn"]) == (tp, fp, tn, fn)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_labels_outside_0_1_rejected(self):
        with pytest.raises(ValueError, match=r"truth labels must be 0 or 1, got \[0, 2\]"):
            metrics(np.zeros(4, dtype=int), np.array([0, 2, 0, 2]))
        with pytest.raises(ValueError, match="predicted labels"):
            metrics(np.array([0, -1]), np.zeros(2, dtype=int))


class TestPerVariableLabels:
    @pytest.mark.parametrize("columns", [1, 3])
    def test_single_variable_reduces_to_scalar_flagging(self, columns):
        # with identity loadings each variable is flagged exactly as its own
        # column would be on the shared min-max scale
        model = PcaModel(
            mean=np.zeros(columns),
            loadings=np.eye(columns),
            eigenvalues=np.ones(columns),
            total_variance=float(columns),
        )
        res = np.random.default_rng(8).exponential(size=(40, columns))
        res[5] = 6.0
        flags = per_variable_labels(res, model, tau=1.0)
        scaled = (res - res.min()) / (res.max() - res.min())
        for j in range(columns):
            npt.assert_array_equal(flags[:, j], flag_anomalies(scaled[:, j], 1.0))
        assert flags.dtype == np.int64
        assert 0 < flags.sum() < flags.size

    def test_identity_loadings_pass_residuals_through(self):
        model = PcaModel(
            mean=np.zeros(3),
            loadings=np.eye(3),
            eigenvalues=np.ones(3),
            total_variance=3.0,
        )
        res = np.zeros((6, 3))
        res[2:4, 1] = 10.0  # attack window on the middle variable
        res += 0.05
        flags = per_variable_labels(res, model, tau=1.0)
        assert flags[:, 1].sum() > flags[:, 0].sum()
        assert flags[:, 1].sum() > flags[:, 2].sum()
        npt.assert_array_equal(flags[2:4, 1], [1, 1])

    def test_attack_variable_flagged_most(self):
        # 3 variables under a mild PC rotation; attack residual concentrated
        # on the middle variable attributes back to it far more strongly than
        # the 0.5 cross-talk leaked into its neighbour
        c, s = np.cos(np.radians(15)), np.sin(np.radians(15))
        loadings = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        model = PcaModel(
            mean=np.zeros(3),
            loadings=loadings,
            eigenvalues=np.array([2.0, 1.0, 0.5]),
            total_variance=3.5,
        )
        rng = np.random.default_rng(4)
        res = np.abs(rng.normal(0.0, 0.02, size=(200, 3)))
        attack_dir = loadings @ np.array([0.0, 1.0, 0.0])  # variable 2 in PC space
        res[80:120] += np.abs(attack_dir) * 3.0
        flags = per_variable_labels(res, model, tau=1.0)
        counts = flags.sum(axis=0)
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]
        assert counts[1] >= 40

    def test_dimension_mismatch(self):
        model = PcaModel(
            mean=np.zeros(2),
            loadings=np.eye(2),
            eigenvalues=np.ones(2),
            total_variance=2.0,
        )
        with pytest.raises(ValueError):
            per_variable_labels(np.zeros((5, 3)), model, 1.0)
