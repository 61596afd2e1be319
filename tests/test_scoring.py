import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsgad.pca import PcaModel
from tsgad.scoring import (
    anomaly_score,
    metrics,
    per_variable_labels,
    ranking_metrics,
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


def _cross_entropy_flags(scores, holdout_scores, target_fpr: float) -> np.ndarray:
    """The cross-entropy form of the flag rule, as a reference: flag -ln(p) >
    tau on the probability of being normal p = 1 - S, clipped into
    [1e-7, 1 - 1e-7], with tau from the target_fpr quantile of p on the
    holdout."""
    eps = 1e-7
    normality = 1.0 - np.asarray(holdout_scores, dtype=np.float64)
    cut = float(np.quantile(normality, target_fpr))
    tau = -np.log(np.clip(cut, eps, 1.0 - eps))
    p = np.clip(1.0 - np.asarray(scores, dtype=np.float64), eps, 1.0 - eps)
    return (-np.log(p) > tau).astype(np.int64)


def _flags(scores, holdout_scores, target_fpr: float) -> np.ndarray:
    """The flag rule as ``run_detect`` applies it."""
    threshold = threshold_for_fpr(holdout_scores, target_fpr)
    return (np.asarray(scores, dtype=np.float64) > threshold).astype(np.int64)


# scores outside [0, 1], as an unclipped residual_norm gives, and repeated
# values, so that quantiles land on ties
SCORES = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
    st.floats(min_value=-2.0, max_value=3.0),
)


class TestAssignLabels:
    """Label assignment: a score is flagged when it exceeds the holdout
    quantile, which is the cross-entropy test -ln(1 - S) > tau written
    directly."""

    def test_zero_threshold_flags_everything_below_one(self):
        # an all-zero holdout gives threshold 0, which flags every p = 1 - S below one
        p = np.array([0.3, 0.999, 0.5])
        assert threshold_for_fpr(np.zeros(50), 0.01) == 0.0
        npt.assert_array_equal(_flags(1.0 - p, np.zeros(50), 0.01), [1, 1, 1])

    def test_confident_normal_not_flagged(self):
        holdout = np.random.default_rng(5).uniform(0.0, 0.5, 200)
        p = np.array([1.0 - 1e-7])
        npt.assert_array_equal(_flags(1.0 - p, holdout, 0.01), [0])

    def test_log_threshold_hand_case(self):
        # -ln 0.9 = 0.105, -ln 0.2 = 1.609: at tau 0.5, the threshold
        # 1 - e^-0.5 = 0.393 on S = 1 - p, only the second is flagged
        p = np.array([0.9, 0.2])
        holdout = np.full(10, 1.0 - math.exp(-0.5))
        npt.assert_array_equal(_flags(1.0 - p, holdout, 0.1), [0, 1])
        npt.assert_array_equal(_cross_entropy_flags(1.0 - p, holdout, 0.1), [0, 1])

    @given(
        st.lists(SCORES, min_size=1, max_size=40),
        st.lists(SCORES, min_size=1, max_size=40),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_cross_entropy_rule(self, holdout, test, target_fpr):
        threshold = threshold_for_fpr(holdout, target_fpr)
        assume(1e-6 <= threshold <= 1.0 - 1e-6)
        # the two rules interpolate the quantile at different indices,
        # target_fpr * (n - 1) and (1 - target_fpr) * (n - 1), and round 1 - S,
        # so a score nearer the threshold than a few ulp of that index times
        # the holdout's spread may fall either side
        band = 4 * len(holdout) * np.spacing(1.0) * max(1.0, np.ptp(holdout))
        near = threshold + band * np.array([-2.0, -1.01, 1.01, 2.0])
        scores = np.concatenate([test, holdout, near])
        new = _flags(scores, holdout, target_fpr)
        reference = _cross_entropy_flags(scores, holdout, target_fpr)
        away = np.abs(scores - threshold) > band
        npt.assert_array_equal(new[away], reference[away])

    def test_clip_edge(self):
        # a holdout quantile at or above 1 - 1e-7 clips tau: the
        # cross-entropy rule flags nothing, the quantile rule flags S above it
        holdout = np.full(20, 1.0 - 1e-8)
        scores = np.array([0.5, 1.0 - 1e-8, 1.0, 2.0])
        npt.assert_array_equal(_cross_entropy_flags(scores, holdout, 0.05), [0, 0, 0, 0])
        npt.assert_array_equal(_flags(scores, holdout, 0.05), [0, 0, 1, 1])
        # and a quantile at or below 1e-7 misses S in (threshold, 1e-7]
        scores = np.array([0.0, 5e-8, 0.5])
        npt.assert_array_equal(_cross_entropy_flags(scores, np.zeros(20), 0.05), [0, 0, 1])
        npt.assert_array_equal(_flags(scores, np.zeros(20), 0.05), [0, 1, 1])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, values, target_fpr, extra):
        scores = np.asarray(values)
        low = threshold_for_fpr(scores, min(target_fpr + extra, 0.999))
        high = threshold_for_fpr(scores, target_fpr)
        assert low <= high
        assert np.all((scores > high) <= (scores > low))


class TestFlagAnomalies:
    def test_flags_high_scores(self):
        holdout = np.random.default_rng(6).uniform(0.0, 0.5, 200)
        npt.assert_array_equal(_flags(np.array([0.05, 0.95]), holdout, 0.01), [0, 1])

    def test_calibrated_threshold_hits_target_rate(self):
        rng = np.random.default_rng(1)
        normal_scores = rng.uniform(0.0, 0.5, 2000)
        rate = _flags(normal_scores, normal_scores, 0.01).mean()
        assert rate == pytest.approx(0.01, abs=0.005)
        # clearly anomalous scores are still flagged
        npt.assert_array_equal(_flags(np.array([0.9, 0.99]), normal_scores, 0.01), [1, 1])

    def test_threshold_for_fpr_quantile(self):
        stats = np.arange(100.0)
        cut = threshold_for_fpr(stats, 0.05)
        assert (stats > cut).mean() <= 0.05

    @given(
        st.lists(SCORES, min_size=1, max_size=60),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_holdout_flag_rate_at_most_target_plus_one_value(self, values, target_fpr):
        stat = np.array(values)
        flagged = np.mean(stat > threshold_for_fpr(stat, target_fpr))
        assert flagged <= target_fpr + 1.0 / len(stat)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.001, max_value=0.999),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_column_thresholds_equal_each_column(self, rows, columns, target_fpr, seed):
        rng = np.random.default_rng(seed)
        # rounded values repeat, so some columns have ties
        stat = np.round(rng.exponential(size=(rows, columns)), 1)
        thresholds = threshold_for_fpr(stat, target_fpr)
        assert thresholds.shape == (columns,)
        for j in range(columns):
            assert thresholds[j] == threshold_for_fpr(stat[:, j], target_fpr)

    def test_target_fpr_outside_unit_interval(self):
        for target_fpr in (0.0, 1.0):
            with pytest.raises(ValueError, match="target_fpr"):
                threshold_for_fpr(np.arange(5.0), target_fpr)


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


def _brute_force_ranking(stat, truth):
    """AUROC by counting every (attacked, normal) pair, ties as one half, and
    average precision as the precision at each attacked row's statistic."""
    pos = [s for s, t in zip(stat, truth) if t == 1]
    neg = [s for s, t in zip(stat, truth) if t == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    precisions = [
        sum(1 for s, t in zip(stat, truth) if t == 1 and s >= p)
        / sum(1 for s in stat if s >= p)
        for p in pos
    ]
    return wins / (len(pos) * len(neg)), sum(precisions) / len(pos)


class TestRankingMetrics:
    @given(
        st.lists(
            # few distinct values, so that ties are common
            st.tuples(st.sampled_from([-1.5, 0.0, 0.25, 0.5, 3.0]), st.integers(0, 1)),
            min_size=2, max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_pairwise_count(self, rows):
        stat, truth = (list(c) for c in zip(*rows))
        assume(0 < sum(truth) < len(truth))
        auroc, ap = _brute_force_ranking(stat, truth)
        report = ranking_metrics(np.array(stat), np.array(truth))
        assert report["auroc"] == pytest.approx(auroc, abs=1e-12)
        assert report["average_precision"] == pytest.approx(ap, abs=1e-12)

    def test_hand_case_with_ties(self):
        # pairs (attack, normal): 3>1, 3>2, 2=2 (half), 2>1 -> 3.5 of 4
        report = ranking_metrics([1.0, 2.0, 2.0, 3.0], [0, 0, 1, 1])
        assert report["auroc"] == 0.875
        # at 3.0: 1 of 1 rows attacked; at 2.0: 2 of 3
        assert report["average_precision"] == pytest.approx((1.0 + 2 / 3) / 2)

    def test_perfect_and_reversed_rankings(self):
        truth = np.array([0, 0, 1, 1, 1])
        stat = np.arange(5.0)
        assert ranking_metrics(stat, truth) == {"auroc": 1.0, "average_precision": 1.0}
        assert ranking_metrics(-stat, truth)["auroc"] == 0.0
        # a constant statistic ties every pair
        assert ranking_metrics(np.ones(5), truth) == {"auroc": 0.5, "average_precision": 0.6}

    def test_one_class_leaves_undefined_values_none(self):
        stat = np.array([0.3, 0.1, 0.2])
        assert ranking_metrics(stat, np.zeros(3)) == {"auroc": None, "average_precision": None}
        assert ranking_metrics(stat, np.ones(3)) == {"auroc": None, "average_precision": 1.0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            ranking_metrics(np.zeros(3), np.zeros(4, dtype=int))


def _pca_model(loadings):
    k = loadings.shape[0]
    return PcaModel(
        mean=np.zeros(loadings.shape[1]),
        loadings=loadings,
        eigenvalues=np.ones(k),
        total_variance=float(k),
    )


class TestPerVariableLabels:
    @pytest.mark.parametrize("columns", [1, 3])
    def test_single_variable_reduces_to_scalar_flagging(self, columns):
        # with identity loadings each variable is flagged exactly as its own
        # column would be against its own holdout quantile
        model = _pca_model(np.eye(columns))
        rng = np.random.default_rng(8)
        hold = rng.exponential(size=(200, columns))
        res = rng.exponential(size=(40, columns))
        res[5] = 6.0
        flags = per_variable_labels(hold, res, model, target_fpr=0.05)
        for j in range(columns):
            npt.assert_array_equal(flags[:, j], res[:, j] > threshold_for_fpr(hold[:, j], 0.05))
        assert flags.dtype == np.int64
        assert 0 < flags.sum() < flags.size

    def test_identity_loadings_pass_residuals_through(self):
        model = _pca_model(np.eye(3))
        hold = np.random.default_rng(9).uniform(0.0, 0.1, size=(100, 3))
        res = np.full((6, 3), 0.05)
        res[2:4, 1] = 10.0  # attack window on the middle variable
        flags = per_variable_labels(hold, res, model, target_fpr=0.01)
        npt.assert_array_equal(flags[:, 1], [0, 0, 1, 1, 0, 0])
        npt.assert_array_equal(flags[:, [0, 2]], 0)

    def test_attack_variable_flagged_most(self):
        # 3 variables under a mild PC rotation; attack residual concentrated
        # on the middle variable attributes back to it twice as strongly as
        # the cross-talk leaked into its neighbour.  An attack far above the
        # noise pushes both over their holdout thresholds, so this one is
        # three times the noise's scale
        c, s = np.cos(np.radians(15)), np.sin(np.radians(15))
        loadings = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        model = _pca_model(loadings)
        rng = np.random.default_rng(4)
        hold = np.abs(rng.normal(0.0, 0.02, size=(400, 3)))
        res = np.abs(rng.normal(0.0, 0.02, size=(200, 3)))
        attack_dir = loadings @ np.array([0.0, 1.0, 0.0])  # variable 2 in PC space
        res[80:120] += np.abs(attack_dir) * 0.06
        flags = per_variable_labels(hold, res, model, target_fpr=0.01)
        counts = flags.sum(axis=0)
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]
        assert counts[1] >= 40

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.001, max_value=0.999),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_holdout_flag_rate_per_variable_at_most_target_plus_one_value(
        self, rows, components, dropped, target_fpr, seed
    ):
        rng = np.random.default_rng(seed)
        variables = components + dropped
        model = _pca_model(rng.uniform(-1.0, 1.0, size=(components, variables)))
        # rounded residuals repeat, so some contributions tie
        hold = np.round(rng.exponential(size=(rows, components)), 1)
        flags = per_variable_labels(hold, hold, model, target_fpr)
        assert np.all(flags.mean(axis=0) <= target_fpr + 1.0 / rows)

    def test_dimension_mismatch(self):
        model = _pca_model(np.eye(2))
        with pytest.raises(ValueError, match=r"test residuals must be \(timesteps x 2\)"):
            per_variable_labels(np.zeros((5, 2)), np.zeros((5, 3)), model, 0.01)

    def test_holdout_columns_differ_from_test(self):
        model = _pca_model(np.eye(2))
        with pytest.raises(ValueError, match=r"holdout residuals .* got \(5, 3\)"):
            per_variable_labels(np.zeros((5, 3)), np.zeros((5, 2)), model, 0.01)
