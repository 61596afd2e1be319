import json

import numpy as np
import numpy.testing as npt
import pytest

from tsgad.ingest import (
    downsample_median,
    load_csv,
    load_window_bundle,
    normalize,
    save_window_bundle,
    window,
)


def normalize_on_itself(values):
    values = np.asarray(values, dtype=float)
    return normalize(values, values.min(axis=0), values.max(axis=0))


def cut(values, length, shift, factor, labels=None):
    windows, labels = window(np.asarray(values, dtype=float), labels, length, shift)
    return downsample_median(windows, labels, factor)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,b\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n")
        values, labels, names = load_csv(p, "ts")
        npt.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert values.dtype == np.float64
        assert names == ["a", "b"]
        assert labels is None

    def test_label_mapping(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,state\n0,1,Normal\n1,2,Attack\n2,3,Normal\n")
        values, labels, names = load_csv(p, "ts", "state", {"Normal": 0, "Attack": 1})
        npt.assert_array_equal(labels, [0, 1, 0])
        assert labels.dtype == np.int64
        npt.assert_array_equal(values[:, 0], [1, 2, 3])
        assert names == ["a"]

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n5,1\n3,2\n")
        with pytest.raises(ValueError, match="non-monotone timestamps"):
            load_csv(p, "ts")

    def test_duplicate_timestamps_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n1,1\n1,2\n")
        with pytest.raises(ValueError, match="non-monotone"):
            load_csv(p, "ts")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "ts")

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,b\n0,1,2\n1,3\n")
        with pytest.raises(ValueError, match="ragged row 3"):
            load_csv(p, "ts")

    def test_unknown_schema_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n0,1\n")
        with pytest.raises(ValueError, match="not in header"):
            load_csv(p, "time")
        with pytest.raises(ValueError, match="not in header"):
            load_csv(p, "ts", "state", {"Normal": 0, "Attack": 1})

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n0,1\n1,oops\n")
        with pytest.raises(ValueError, match="non-numeric cell 'oops'"):
            load_csv(p, "ts")

    def test_unmapped_label(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,state\n0,1,Weird\n")
        with pytest.raises(ValueError, match="not in label_mapping"):
            load_csv(p, "ts", "state", {"Normal": 0, "Attack": 1})

    def test_datetime_timestamps(self, tmp_path):
        fmt = "%d/%m/%Y %I:%M:%S %p"
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n28/12/2015 10:00:00 AM,1\n28/12/2015 10:00:01 AM,2\n")
        values, _, _ = load_csv(p, "ts", timestamp_format=fmt)
        npt.assert_array_equal(values[:, 0], [1, 2])
        p.write_text("ts,a\n28/12/2015 10:00:01 AM,1\n28/12/2015 10:00:00 AM,2\n")
        with pytest.raises(ValueError, match="non-monotone timestamps"):
            load_csv(p, "ts", timestamp_format=fmt)


class TestNormalizer:
    def test_minmax(self):
        out = normalize_on_itself([[2.0], [4.0], [6.0]])
        npt.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        out = normalize_on_itself([[5.0], [5.0], [5.0]])
        npt.assert_array_equal(out[:, 0], [0.0, 0.0, 0.0])

    def test_unseen_data_not_clipped(self):
        out = normalize(np.array([[12.0]]), np.array([0.0]), np.array([10.0]))
        assert out[0, 0] == pytest.approx(1.2)

    def test_column_mismatch(self):
        # one value column would broadcast silently against two bounds
        with pytest.raises(ValueError, match="columns"):
            normalize(np.zeros((3, 1)), np.zeros(2), np.ones(2))

    def test_fit_apply_hits_unit_range(self):
        rng = np.random.default_rng(3)
        out = normalize_on_itself(rng.normal(5.0, 3.0, (40, 4)))
        npt.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        npt.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)


class TestWindow:
    def test_count_and_offsets(self):
        windows, labels = window(np.arange(100.0).reshape(100, 1), None, 12, 10)
        assert windows.shape == (9, 12, 1)
        assert labels is None
        npt.assert_array_equal(windows[:, 0, 0], np.arange(0, 90, 10))
        npt.assert_array_equal(windows[3][:, 0], np.arange(30, 42))

    def test_single_window_boundary(self):
        values = np.arange(7.0).reshape(7, 1)
        for shift in (1, 3, 100):
            windows, _ = window(values, None, 7, shift)
            assert windows.shape[0] == 1

    def test_window_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            window(np.zeros((5, 1)), None, 6, 1)

    def test_labels_carried_per_row(self):
        labels = np.zeros(20, dtype=np.int64)
        labels[7] = 1
        _, out = window(np.zeros((20, 1)), labels, 5, 5)
        assert out.shape == (4, 5)
        npt.assert_array_equal(out.sum(axis=1), [0, 1, 0, 0])

    def test_concat_reconstructs_covered_prefix(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(53, 3))
        windows, _ = window(values, None, 10, 10)
        covered = np.concatenate(list(windows), axis=0)
        npt.assert_array_equal(covered, values[: len(windows) * 10])


class TestDownsampleMedian:
    def test_even_count_median(self):
        windows, _ = cut(np.arange(1.0, 11.0).reshape(10, 1), 10, 10, 10)
        assert windows[0, 0, 0] == pytest.approx(5.5)

    def test_swat_shape(self):
        windows, _ = cut(np.zeros((240, 2)), 120, 120, 10)
        assert windows.shape == (2, 12, 2)

    def test_constant_block(self):
        windows, _ = cut(np.full((8, 1), 3.25), 8, 8, 4)
        npt.assert_array_equal(windows[0][:, 0], [3.25, 3.25])

    def test_factor_one_is_identity(self):
        windows, labels = window(np.random.default_rng(1).normal(size=(12, 2)), None, 6, 6)
        out, out_labels = downsample_median(windows, labels, 1)
        npt.assert_array_equal(out, windows)
        assert out_labels is None

    def test_indivisible_factor(self):
        with pytest.raises(ValueError, match="divisible"):
            cut(np.zeros((10, 1)), 10, 10, 3)

    def test_any_anomalous_label_aggregation(self):
        labels = np.zeros(12, dtype=np.int64)
        labels[5] = 1
        _, out = cut(np.zeros((12, 1)), 12, 12, 4, labels)
        npt.assert_array_equal(out, [[0, 1, 0]])

    def test_commutes_with_column_permutation(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(24, 4))
        perm = [2, 0, 3, 1]
        a, _ = cut(values, 12, 12, 3)
        b, _ = cut(values[:, perm], 12, 12, 3)
        npt.assert_array_equal(a[:, :, perm], b)


def test_window_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    labels = (rng.random(40) < 0.2).astype(np.int64)
    values = rng.normal(size=(40, 2))
    test = cut(values, 8, 8, 2, labels)
    train = cut(values, 8, 4, 2)
    save_window_bundle(tmp_path / "bundle", {"test": test, "train": train}, {"note": "x"})
    loaded, manifest = load_window_bundle(tmp_path / "bundle")
    assert sorted(loaded) == ["test_labels", "test_windows", "train_windows"]
    npt.assert_array_equal(loaded["test_windows"], test[0])
    npt.assert_array_equal(loaded["test_labels"], test[1])
    npt.assert_array_equal(loaded["train_windows"], train[0])
    assert manifest["note"] == "x"
    assert manifest["window_sets"]["test"] == {
        "count": 5, "window_length": 4, "columns": 2, "has_labels": True,
    }
    assert manifest["window_sets"]["train"] == {
        "count": 9, "window_length": 4, "columns": 2, "has_labels": False,
    }
    with np.load(tmp_path / "bundle" / "windows.npz") as data:
        assert sorted(data.files) == sorted(loaded)


def test_bundle_with_offsets_and_shift_keys_still_loads(tmp_path):
    # the older layout also stored each set's window start rows and the
    # per-set raw_window_length/shift keys
    rng = np.random.default_rng(6)
    windows = rng.normal(size=(3, 4, 2))
    labels = (rng.random((3, 4)) < 0.3).astype(np.int64)
    np.savez_compressed(
        tmp_path / "windows.npz",
        test_windows=windows, test_offsets=np.arange(0, 24, 8), test_labels=labels,
        train_windows=windows[:2], train_offsets=np.arange(0, 16, 8),
    )
    meta = {"count": 3, "raw_window_length": 8, "window_length": 4, "shift": 8, "columns": 2}
    (tmp_path / "manifest.json").write_text(json.dumps({
        "window_sets": {
            "test": {**meta, "has_labels": True},
            "train": {**meta, "count": 2, "has_labels": False},
        },
        "sequence_length": 4,
    }))
    loaded, manifest = load_window_bundle(tmp_path)
    assert sorted(loaded) == ["test_labels", "test_windows", "train_windows"]
    npt.assert_array_equal(loaded["test_windows"], windows)
    npt.assert_array_equal(loaded["test_labels"], labels)
    npt.assert_array_equal(loaded["train_windows"], windows[:2])
    assert manifest["sequence_length"] == 4
