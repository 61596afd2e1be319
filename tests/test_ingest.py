import json

import numpy as np
import numpy.testing as npt
import pytest

from tsgad.ingest import (
    CsvSchema,
    NormalizationStats,
    RawSeries,
    apply_normalizer,
    downsample_median,
    fit_normalizer,
    load_csv,
    load_window_bundle,
    save_window_bundle,
    trim_startup,
    window,
)


def make_series(values, labels=None):
    values = np.asarray(values, dtype=float)
    return RawSeries(
        timestamps=np.arange(len(values), dtype=float),
        values=values,
        column_names=[f"c{i}" for i in range(values.shape[1])],
        labels=labels,
    )


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,b\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n")
        series = load_csv(p, CsvSchema(timestamp_column="ts"))
        assert series.values.shape == (3, 2)
        assert series.column_names == ["a", "b"]
        npt.assert_array_equal(series.timestamps, [0, 1, 2])
        assert series.labels is None

    def test_label_mapping(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,state\n0,1,Normal\n1,2,Attack\n2,3,Normal\n")
        series = load_csv(p, CsvSchema(timestamp_column="ts", label_column="state"))
        npt.assert_array_equal(series.labels, [0, 1, 0])
        assert series.column_names == ["a"]

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n5,1\n3,2\n")
        with pytest.raises(ValueError, match="non-monotone timestamps"):
            load_csv(p, CsvSchema(timestamp_column="ts"))

    def test_duplicate_timestamps_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n1,1\n1,2\n")
        with pytest.raises(ValueError, match="non-monotone"):
            load_csv(p, CsvSchema(timestamp_column="ts"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", CsvSchema(timestamp_column="ts"))

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,b\n0,1,2\n1,3\n")
        with pytest.raises(ValueError, match="ragged row 3"):
            load_csv(p, CsvSchema(timestamp_column="ts"))

    def test_unknown_schema_column(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n0,1\n")
        with pytest.raises(ValueError, match="not in header"):
            load_csv(p, CsvSchema(timestamp_column="time"))
        with pytest.raises(ValueError, match="not in header"):
            load_csv(p, CsvSchema(timestamp_column="ts", label_column="state"))

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n0,1\n1,oops\n")
        with pytest.raises(ValueError, match="non-numeric cell 'oops'"):
            load_csv(p, CsvSchema(timestamp_column="ts"))

    def test_unmapped_label(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a,state\n0,1,Weird\n")
        with pytest.raises(ValueError, match="not in label_mapping"):
            load_csv(p, CsvSchema(timestamp_column="ts", label_column="state"))

    def test_datetime_timestamps(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text(
            "ts,a\n28/12/2015 10:00:00 AM,1\n28/12/2015 10:00:01 AM,2\n"
        )
        schema = CsvSchema(
            timestamp_column="ts", timestamp_format="%d/%m/%Y %I:%M:%S %p"
        )
        series = load_csv(p, schema)
        assert series.timestamps[1] - series.timestamps[0] == 1.0


class TestTrimStartup:
    def test_zero_is_identity(self):
        s = make_series(np.arange(20).reshape(10, 2))
        out = trim_startup(s, 0)
        npt.assert_array_equal(out.values, s.values)

    def test_slicing(self):
        s = make_series(np.arange(10).reshape(10, 1), labels=np.arange(10) % 2)
        out = trim_startup(s, 4)
        npt.assert_array_equal(out.values[:, 0], [4, 5, 6, 7, 8, 9])
        npt.assert_array_equal(out.timestamps, [4, 5, 6, 7, 8, 9])
        npt.assert_array_equal(out.labels, [0, 1, 0, 1, 0, 1])

    def test_swat_scale_counts(self):
        # 496,800 normal rows minus the stabilization prefix leaves 475,200
        s = make_series(np.zeros((496_800, 1)))
        assert trim_startup(s, 21_600).n_rows == 475_200

    def test_too_many_rows(self):
        s = make_series(np.zeros((10, 1)))
        with pytest.raises(ValueError):
            trim_startup(s, 10)


class TestNormalizer:
    def test_minmax(self):
        s = make_series(np.array([[2.0], [4.0], [6.0]]))
        out = apply_normalizer(s, fit_normalizer(s))
        npt.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        s = make_series(np.array([[5.0], [5.0], [5.0]]))
        out = apply_normalizer(s, fit_normalizer(s))
        npt.assert_array_equal(out.values[:, 0], [0.0, 0.0, 0.0])

    def test_unseen_data_not_clipped(self):
        stats = NormalizationStats(col_min=np.array([0.0]), col_max=np.array([10.0]))
        s = make_series(np.array([[12.0]]))
        out = apply_normalizer(s, stats)
        assert out.values[0, 0] == pytest.approx(1.2)

    def test_column_mismatch(self):
        stats = NormalizationStats(col_min=np.zeros(2), col_max=np.ones(2))
        with pytest.raises(ValueError, match="columns"):
            apply_normalizer(make_series(np.zeros((3, 1))), stats)

    def test_fit_apply_hits_unit_range(self):
        rng = np.random.default_rng(3)
        s = make_series(rng.normal(5.0, 3.0, (40, 4)))
        out = apply_normalizer(s, fit_normalizer(s))
        npt.assert_allclose(out.values.min(axis=0), 0.0, atol=1e-12)
        npt.assert_allclose(out.values.max(axis=0), 1.0, atol=1e-12)


class TestWindow:
    def test_count_and_offsets(self):
        s = make_series(np.arange(100).reshape(100, 1))
        ws = window(s, 12, 10)
        assert ws.n_windows == 9
        npt.assert_array_equal(ws.windows[:, 0, 0], np.arange(0, 90, 10))
        npt.assert_array_equal(ws.windows[3][:, 0], np.arange(30, 42))

    def test_single_window_boundary(self):
        s = make_series(np.arange(7).reshape(7, 1))
        for shift in (1, 3, 100):
            ws = window(s, 7, shift)
            assert ws.n_windows == 1

    def test_window_too_long(self):
        s = make_series(np.zeros((5, 1)))
        with pytest.raises(ValueError, match="exceeds"):
            window(s, 6, 1)

    def test_labels_carried_per_row(self):
        labels = np.zeros(20, dtype=int)
        labels[7] = 1
        s = make_series(np.zeros((20, 1)), labels=labels)
        ws = window(s, 5, 5)
        npt.assert_array_equal(ws.labels.sum(axis=1), [0, 1, 0, 0])

    def test_concat_reconstructs_covered_prefix(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(53, 3))
        s = make_series(values)
        ws = window(s, 10, 10)
        covered = np.concatenate(list(ws.windows), axis=0)
        npt.assert_array_equal(covered, values[: ws.n_windows * 10])


class TestDownsampleMedian:
    def test_even_count_median(self):
        s = make_series(np.arange(1.0, 11.0).reshape(10, 1))
        ws = downsample_median(window(s, 10, 10), 10)
        assert ws.windows[0, 0, 0] == pytest.approx(5.5)

    def test_swat_shape(self):
        s = make_series(np.zeros((240, 2)))
        ws = downsample_median(window(s, 120, 120), 10)
        assert ws.windows.shape == (2, 12, 2)

    def test_constant_block(self):
        s = make_series(np.full((8, 1), 3.25))
        ws = downsample_median(window(s, 8, 8), 4)
        npt.assert_array_equal(ws.windows[0][:, 0], [3.25, 3.25])

    def test_factor_one_is_identity(self):
        s = make_series(np.random.default_rng(1).normal(size=(12, 2)))
        ws = window(s, 6, 6)
        out = downsample_median(ws, 1)
        npt.assert_array_equal(out.windows, ws.windows)

    def test_indivisible_factor(self):
        s = make_series(np.zeros((10, 1)))
        with pytest.raises(ValueError, match="divisible"):
            downsample_median(window(s, 10, 10), 3)

    def test_any_anomalous_label_aggregation(self):
        labels = np.zeros(12, dtype=int)
        labels[5] = 1
        s = make_series(np.zeros((12, 1)), labels=labels)
        ws = downsample_median(window(s, 12, 12), 4)
        npt.assert_array_equal(ws.labels[0], [0, 1, 0])

    def test_commutes_with_column_permutation(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(24, 4))
        perm = [2, 0, 3, 1]
        a = downsample_median(window(make_series(values), 12, 12), 3)
        b = downsample_median(window(make_series(values[:, perm]), 12, 12), 3)
        npt.assert_array_equal(a.windows[:, :, perm], b.windows)


def test_window_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    labels = (rng.random(40) < 0.2).astype(int)
    s = make_series(rng.normal(size=(40, 2)), labels=labels)
    ws = downsample_median(window(s, 8, 8), 2)
    save_window_bundle(tmp_path / "bundle", {"test": ws}, {"note": "x"})
    loaded, manifest = load_window_bundle(tmp_path / "bundle")
    npt.assert_array_equal(loaded["test"].windows, ws.windows)
    npt.assert_array_equal(loaded["test"].labels, ws.labels)
    assert manifest["note"] == "x"
    assert manifest["window_sets"]["test"] == {
        "count": 5, "window_length": 4, "columns": 2, "has_labels": True,
    }
    assert sorted(np.load(tmp_path / "bundle" / "windows.npz").files) == [
        "test_labels", "test_windows",
    ]


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
    npt.assert_array_equal(loaded["test"].windows, windows)
    npt.assert_array_equal(loaded["test"].labels, labels)
    npt.assert_array_equal(loaded["train"].windows, windows[:2])
    assert loaded["train"].labels is None
    assert manifest["sequence_length"] == 4
