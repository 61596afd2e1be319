import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgad import baselines
from tsgad.baselines import cusum_detect, cusum_statistic, fit_cusum_config, spe_detect
from tsgad.pca import fit_pca
from tsgad.scoring import metrics, threshold_for_fpr


def _scalar_scan(series, mean, slack, threshold=None):
    """The scalar recurrence on Python floats: the reference for the scan,
    which resets exactly when it is given a ``threshold``."""
    stat, s_hi, s_lo = [], 0.0, 0.0
    mean, slack = float(mean), float(slack)
    for value in series.tolist():
        s_hi = max(0.0, s_hi + (value - mean - slack))
        s_lo = max(0.0, s_lo + (mean - value - slack))
        peak = max(s_hi, s_lo)
        stat.append(peak)
        if threshold is not None and peak > threshold:
            s_hi = s_lo = 0.0
    return np.array(stat, dtype=np.float64)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestCusum:
    def test_constant_series_never_alarms(self):
        npt.assert_array_equal(cusum_detect(np.full(50, 3.0), 3.0, 0.1, 1.0), np.zeros(50))

    def test_hand_iterated_recurrence_with_reset(self):
        # mu0=0, k=0.5, h=2, eight ones.  S- = max(0, S- + (0 - 1 - 0.5)) stays
        # at 0, so max(S+, S-) is S+ = max(0, S+ + (1 - 0 - 0.5)), which walks
        # 0.5, 1.0, ..., 4.0 without resets; with them the strict > rule first
        # fires at 2.5 (fifth step) and the climb restarts at 0.5
        npt.assert_array_equal(cusum_statistic(np.ones(8), 0.0, 0.5), np.arange(1, 9) * 0.5)
        flags = cusum_detect(np.ones(8), 0.0, 0.5, 2.0)
        npt.assert_array_equal(flags, [0, 0, 0, 0, 1, 0, 0, 0])
        # as two columns of one scan, the second with a limit never reached
        flags = cusum_detect(np.ones((8, 2)), np.zeros(2), np.full(2, 0.5),
                             np.array([2.0, 100.0]))
        npt.assert_array_equal(flags[:, 0], [0, 0, 0, 0, 1, 0, 0, 0])
        npt.assert_array_equal(flags[:, 1], np.zeros(8))

    def test_tie_does_not_alarm(self):
        # k=0: S+ = 2, 2, 2 reaches exactly h and stays; S- = max(0, -2), then
        # max(0, 0) stays at 0.  Neither strictly exceeds h
        series = np.array([2.0, 0.0, 0.0])
        npt.assert_array_equal(cusum_statistic(series, 0.0, 0.0), [2.0, 2.0, 2.0])
        npt.assert_array_equal(cusum_detect(series, 0.0, 0.0, 2.0), [0, 0, 0])

    def test_two_sided_catches_downward_step(self):
        series = np.concatenate([np.zeros(10), np.full(20, -3.0)])
        assert cusum_detect(series, 0.0, 0.5, 2.0).sum() > 0

    def test_statistic_nonnegative(self):
        rng = np.random.default_rng(0)
        stat = cusum_statistic(rng.normal(size=200), 0.0, 0.5)
        assert np.all(stat >= 0.0)

    def test_statistic_first_crossing_matches_first_alarm(self):
        rng = np.random.default_rng(1)
        series = np.concatenate([rng.normal(size=50), rng.normal(3.0, 1.0, 50)])
        stat = cusum_statistic(series, 0.0, 0.5)
        alarms = cusum_detect(series, 0.0, 0.5, 4.0)
        assert np.argmax(stat > 4.0) == np.argmax(alarms == 1)

    @given(st.floats(min_value=-100.0, max_value=100.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_equivariance(self, offset, seed):
        rng = np.random.default_rng(seed)
        series = rng.normal(size=80)
        npt.assert_array_equal(
            cusum_detect(series, 0.0, 0.5, 2.0), cusum_detect(series + offset, offset, 0.5, 2.0)
        )

    @pytest.mark.parametrize("reset", [False, True], ids=["no-reset", "reset"])
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_column_scan_equals_each_column(self, reset, seed):
        # columns with mean shifts, exact zeros of both signs, zero slack and
        # limits low enough to alarm; each column must be bitwise the
        # single-column scan and the scalar recurrence
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        x = rng.normal(size=(rows, cols)) + rng.choice([0.0, 3.0], size=(rows, cols))
        x[rng.random(x.shape) < 0.2] = rng.choice([0.0, -0.0])
        mean = rng.choice([0.0, -0.0, 0.5], size=cols)
        slack = rng.choice([0.0, 0.5], size=cols)
        threshold = rng.choice([0.5, 2.0, 50.0], size=cols)
        limit = threshold if reset else None
        stat = baselines._cusum_scan(x, mean, slack, limit)
        flags = cusum_detect(x, mean, slack, threshold)
        for j in range(cols):
            column = mean[j], slack[j], None if limit is None else limit[j]
            want = _scalar_scan(x[:, j], *column)
            npt.assert_array_equal(_bits(stat[:, j]), _bits(want))
            npt.assert_array_equal(_bits(baselines._cusum_scan(x[:, j], *column)), _bits(want))
            npt.assert_array_equal(flags[:, j],
                                   cusum_detect(x[:, j], mean[j], slack[j], threshold[j]))
        npt.assert_array_equal(_bits(cusum_statistic(x, mean, slack)),
                               _bits(baselines._cusum_scan(x, mean, slack)))

    def test_fit_per_column_equals_single_column_fits(self):
        rng = np.random.default_rng(8)
        train = rng.normal(3.0, 2.0, (500, 4))
        train[:, 2] = 1.5  # a constant channel
        fit = fit_cusum_config(train)
        for j in range(4):
            one = fit_cusum_config(train[:, j])
            for field in range(2):  # target mean, slack
                assert _bits(fit[field][j]) == _bits(one[field])
        assert fit[1][2] == 0.5

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            cusum_detect(np.array([0.0, np.inf]), 0.0, 0.5, 2.0)

    def test_fit_config_from_training_slice(self):
        rng = np.random.default_rng(2)
        train = rng.normal(5.0, 2.0, 5000)
        mean, slack = fit_cusum_config(train)
        assert mean == pytest.approx(5.0, abs=0.1)
        assert slack == pytest.approx(1.0, abs=0.1)  # 0.5 sigma

    def test_fit_config_constant_channel(self):
        # sigma 1 in place of 0: the chart keeps a positive slack
        assert fit_cusum_config(np.full(10, 1.0)) == (1.0, 0.5)

    def test_config_validation(self):
        series = np.zeros(4)
        with pytest.raises(ValueError, match="slack must be >= 0"):
            cusum_statistic(series, 0.0, -0.1)
        with pytest.raises(ValueError, match="slack must be >= 0"):
            cusum_detect(series, 0.0, -0.1, 1.0)
        with pytest.raises(ValueError, match="threshold must be > 0"):
            cusum_detect(series, 0.0, 0.1, 0.0)
        # one column's bad entry is enough
        with pytest.raises(ValueError, match="threshold must be > 0"):
            cusum_detect(np.zeros((4, 2)), np.zeros(2), np.full(2, 0.1), np.array([1.0, -1.0]))


class TestSpeDetect:
    def test_full_rank_model_never_alarms(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 3))
        model = fit_pca(data.copy(), 3)
        for threshold in (1e-12, 0.5, 10.0):
            assert spe_detect(model, data, threshold).sum() == 0

    def test_zero_threshold_flags_every_nonzero_residual(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 3))
        model = fit_pca(data.copy(), 1)
        flags = spe_detect(model, data, 0.0)
        assert flags.sum() == 30

    def test_flags_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 4))
        model = fit_pca(data, 2)
        test = rng.normal(size=(20, 4))
        previous = spe_detect(model, test, 0.0)
        for threshold in (0.5, 1.0, 2.0, 5.0):
            current = spe_detect(model, test, threshold)
            assert np.all(current <= previous)
            previous = current

    def test_detects_correlation_breaking_attack(self):
        # two strongly correlated channels; the attack decouples them
        rng = np.random.default_rng(6)
        t = np.arange(600)
        base = np.sin(2 * np.pi * t / 50)
        train = np.column_stack([base, 2.0 * base]) + rng.normal(0, 0.05, (600, 2))
        model = fit_pca(train, 1)

        holdout = np.column_stack([base, 2.0 * base]) + rng.normal(0, 0.05, (600, 2))
        test = np.column_stack([base, 2.0 * base]) + rng.normal(0, 0.05, (600, 2))
        truth = np.zeros(600, dtype=int)
        test[200:300, 1] = 0.4  # stuck sensor breaks the coupling
        truth[200:300] = 1

        from tsgad.pca import spe

        threshold = threshold_for_fpr(spe(model, holdout), 0.01)
        report = metrics(spe_detect(model, test, threshold), truth)
        assert report["f1"] > 0.0
