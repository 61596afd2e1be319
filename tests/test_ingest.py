import hashlib
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsgad import ingest
from tsgad.config import ConfigError
from tsgad.ingest import (
    downsample_median,
    load_csv,
    load_window_bundle,
    normalize,
    save_window_bundle,
    window,
    write_csv,
    write_fixed_point_csv,
)


def normalize_on_itself(values):
    values = np.asarray(values, dtype=float)
    return normalize(values, values.min(axis=0), values.max(axis=0))


def cut(values, length, shift, factor, labels=None):
    windows, labels = window(np.asarray(values, dtype=float), labels, length, shift)
    return downsample_median(windows, labels, factor)


def stacked(values, labels, length, shift):
    """:func:`window` as a copy: one ``np.stack`` of the windows, and of
    their labels, the way windows were cut before they became views."""
    offsets = range(0, len(values) - length + 1, shift)
    windows = np.stack([values[o : o + length] for o in offsets])
    if labels is not None:
        labels = np.stack([labels[o : o + length] for o in offsets])
    return windows, labels


def plant_rows(rows=60, columns=3, seed=0):
    """A rounded series with ties inside blocks and its 0/1 labels."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=(rows, columns)) * 1e3, 1)
    labels = (rng.random(rows) < 0.2).astype(np.int64)
    return values, labels


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
        with pytest.raises(ValueError, match=r"data.csv: non-monotone timestamps at rows 2 and 3"):
            load_csv(p, "ts")
        # the blank line is skipped but still counted in the row numbers
        p.write_text("ts,a\n0,1\n\n5,2\n3,3\n")
        with pytest.raises(
            ValueError, match=r"data.csv: non-monotone timestamps at rows 4 and 5 \(5.0 -> 3.0\)"
        ):
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
        with pytest.raises(ConfigError, match="column 'ts' cannot be both timestamp and label"):
            load_csv(p, "ts", "ts", {"0": 0, "1": 1})

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n0,1\n1,oops\n")
        with pytest.raises(ValueError, match="non-numeric cell 'oops'"):
            load_csv(p, "ts")

    @pytest.mark.parametrize("cell, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")])
    def test_non_finite_cell(self, tmp_path, cell, shown):
        # the blank line is skipped but still counted in the row number
        p = tmp_path / "data.csv"
        p.write_text(f"ts,a,b\n0,1,2\n\n1,3,{cell}\n2,5,6\n")
        with pytest.raises(ValueError, match=rf"data.csv: row 4: non-finite cell {shown} in column 'b'"):
            load_csv(p, "ts")

    @pytest.mark.parametrize("text, row, shown", [
        ("ts,a\n0,1\nnan,2\n2,3\n", 3, "nan"),
        ("ts,a\n0,1\n1,2\ninf,3\n", 4, "inf"),
        ("ts,a\n-inf,1\n1,2\n2,3\n", 2, "-inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_timestamp(self, tmp_path, text, row, shown):
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"data.csv: row {row}: non-finite timestamp {shown}$"):
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
        with pytest.raises(ValueError, match="data.csv: non-monotone timestamps at rows 2 and 3"):
            load_csv(p, "ts", timestamp_format=fmt)
        p.write_text("ts,a\n28/12/2015 10:00:00 AM,1\n2015-12-28 10:00:01,2\n")
        with pytest.raises(ValueError, match="data.csv: row 3: bad timestamp '2015-12-28"):
            load_csv(p, "ts", timestamp_format=fmt)

    def test_naive_datetimes_are_utc_in_every_machine_zone(self, tmp_path, monkeypatch):
        # 02:30 does not exist on 2021-03-14 in New York: read in that zone,
        # it lands after 03:10 and the rows look out of order
        fmt = "%Y-%m-%d %H:%M:%S"
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n2021-03-14 01:59:00,1\n2021-03-14 02:30:00,2\n"
                     "2021-03-14 03:10:00,3\n")
        try:
            for zone in ("UTC", "Asia/Singapore", "America/New_York"):
                monkeypatch.setenv("TZ", zone)
                time.tzset()
                values, _, _ = load_csv(p, "ts", timestamp_format=fmt)
                npt.assert_array_equal(values[:, 0], [1, 2, 3])
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_datetime_offsets_are_kept(self, tmp_path):
        # 10:00+02:00 is 08:00 UTC, before 09:30+00:00
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n2021-01-01 10:00:00+0200,1\n2021-01-01 09:30:00+0000,2\n")
        values, _, _ = load_csv(p, "ts", timestamp_format="%Y-%m-%d %H:%M:%S%z")
        npt.assert_array_equal(values[:, 0], [1, 2])
        p.write_text("ts,a\n2021-01-01 10:00:00+0000,1\n2021-01-01 09:30:00+0000,2\n")
        with pytest.raises(ValueError, match="non-monotone timestamps at rows 2 and 3"):
            load_csv(p, "ts", timestamp_format="%Y-%m-%d %H:%M:%S%z")

    def test_repeated_header_name_rejected(self, tmp_path):
        # each name would map to its last column, and the first A would be lost
        p = tmp_path / "data.csv"
        p.write_text("timestamp,A,A,label\n0,1.0,10.0,Normal\n1,2.0,20.0,Normal\n")
        with pytest.raises(ValueError, match=r"data.csv: header repeats \['A'\]"):
            load_csv(p, "timestamp", "label", {"Normal": 0})
        p.write_text("ts,b,a,b,ts,a\n0,1,2,3,4,5\n")
        with pytest.raises(ValueError, match=r"data.csv: header repeats \['a', 'b', 'ts'\]"):
            load_csv(p, "ts")

    def test_feature_named_index_rejected(self, tmp_path):
        # per_variable_flags.csv puts its own index column before the features
        p = tmp_path / "data.csv"
        p.write_text("ts,index,a\n0,1,2\n1,3,4\n")
        with pytest.raises(ConfigError, match=r"data.csv: feature column 'index'"):
            load_csv(p, "ts")
        # as the timestamp column it is not a feature
        assert load_csv(p, "index")[2] == ["ts", "a"]

    def test_non_numeric_timestamp(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("ts,a\n0,1\nabc,2\n")
        with pytest.raises(ValueError, match="data.csv: row 3: non-numeric timestamp 'abc'"):
            load_csv(p, "ts")


# (file text, label column, values or refusal after the path, labels): each
# case reads as the row-by-row csv.reader loader read it, except the 1_000 and
# non-ASCII digit cells, which float() read and numpy's C parser refuses
PARITY_CASES = {
    "crlf": ("ts,a,b\r\n0,1.5,2\r\n1,3,4\r\n", None, [[1.5, 2], [3, 4]], None),
    "quoted-numeric-cell": ('ts,a,b\n0,"1.5",2\n"1",3,"4"\n', None, [[1.5, 2], [3, 4]], None),
    "blank-line": ("ts,a,b\n0,1,2\n\n1,3,4\n", None, [[1, 2], [3, 4]], None),
    "whitespace-only-line": (
        "ts,a,b\n0,1,2\n   \n1,3,4\n", None, "ragged row 3: expected 3 cells, got 1", None
    ),
    "hash-inside-a-cell": (
        "ts,a,b\n0,1 # c,2\n", None, "row 2: non-numeric cell '1 # c' in column 'a'", None
    ),
    "line-starting-with-hash": (
        "ts,a,b\n0,1,2\n# x\n1,3,4\n", None, "ragged row 3: expected 3 cells, got 1", None
    ),
    "full-width-line-starting-with-hash": (
        "ts,a,b\n0,1,2\n#1,3,4\n", None,
        "row 3: non-numeric timestamp '#1' (set timestamp_format for datetime strings)", None,
    ),
    "every-row-one-cell-wider": (
        "ts,a,b\n0,1,2,9\n1,3,4,9\n", None, "ragged row 2: expected 3 cells, got 4", None
    ),
    "header-only": ("ts,a,b\n", None, "no data rows", None),
    "header-and-blank-lines": ("ts,a,b\n\n\n", None, "no data rows", None),
    "trailing-comma-on-every-line": (
        "ts,a,b,\n0,1,2,\n1,3,4,\n", None, "row 2: non-numeric cell '' in column ''", None
    ),
    "trailing-comma-on-data-lines": (
        "ts,a,b\n0,1,2,\n1,3,4,\n", None, "ragged row 2: expected 3 cells, got 4", None
    ),
    "label-cell-with-spaces": (
        "ts,a,label\n0,1, Attack \n1,2,Normal\n", "label", [[1], [2]], [1, 0]
    ),
    "digit-grouping": (
        "ts,a,b\n0,1,2\n1,1_000,4\n", None, "row 3: non-numeric cell '1_000' in column 'a'", None
    ),
    "digit-grouping-timestamp": (
        "ts,a,b\n1_0,1,2\n", None,
        "row 2: non-numeric timestamp '1_0' (set timestamp_format for datetime strings)", None,
    ),
    "non-ascii-digit": (
        "ts,a,b\n0,1,\u0661\n", None, "row 2: non-numeric cell '\u0661' in column 'b'", None
    ),
}


@pytest.mark.parametrize("case", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_loader_parity(tmp_path, monkeypatch, case):
    text, label_column, want, want_labels = case
    p = tmp_path / "data.csv"
    p.write_bytes(text.encode())
    mapping = {"Normal": 0, "Attack": 1}
    if isinstance(want, str):
        with pytest.raises(ConfigError) as refused:
            load_csv(p, "ts", label_column, mapping)
        assert str(refused.value) == f"{p}: {want}"
        return

    def no_scan(*_):
        raise AssertionError("an accepted file went through the row-by-row scan")

    monkeypatch.setattr(ingest, "_scan_body", no_scan, raising=False)
    values, labels, _ = load_csv(p, "ts", label_column, mapping)
    npt.assert_array_equal(values, want)
    assert labels is None if want_labels is None else labels.tolist() == want_labels


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
@example(np.array([[-0.0, 5e-324, -2.2250738585072014e-308],
                   [1.7976931348623157e308, -1.7976931348623157e308, 0.0]]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_then_load_is_bitwise(tmp_path, matrix):
    # write_csv prints str(float), the shortest round-trip text; the C parser
    # must round it back as float() does, or the scores would drift
    p = tmp_path / "plant.csv"
    header = ["ts"] + [f"v{j}" for j in range(matrix.shape[1])]
    write_csv(p, header, ([float(i), *row] for i, row in enumerate(matrix.tolist())))
    values, labels, names = load_csv(p, "ts")
    assert values.flags.c_contiguous and values.dtype == np.float64
    npt.assert_array_equal(_bits(values), _bits(matrix))
    assert labels is None and names == header[1:]


NUMBERS = ["0", "1", "2.5", "-3", "1e3", " 4 ", '"5"', "-0.0"]
CELLS = NUMBERS + ["nan", "inf", "1_0", "", "   ", "x", '"6,7"', "# c", "#", '"', "\r",
                   "Normal", "Attack", " Attack "]


@st.composite
def csv_lines(draw):
    """Up to 5 lines, mostly full-width numeric rows with increasing
    timestamps, the others lines of any width made of awkward cells."""
    lines = []
    for i in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)):
            cells = [str(i), *draw(st.lists(st.sampled_from(NUMBERS), min_size=2, max_size=2))]
            if draw(st.booleans()):
                cells[2] = draw(st.sampled_from(["Normal", "Attack", " Attack "]))
        else:
            cells = draw(st.lists(st.sampled_from(CELLS), max_size=4))
        lines.append(",".join(cells))
    return lines


@given(csv_lines(), st.sampled_from(["\n", "\r\n"]), st.booleans())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fast_path_matches_row_scan(tmp_path, lines, newline, with_label):
    # the row-by-row csv.reader scan is the reference: wherever loadtxt
    # accepts a file, it must give the scan's arrays; elsewhere the scan runs
    p = tmp_path / "fuzz.csv"
    header = "ts,a,label" if with_label else "ts,a,b"
    p.write_text(newline.join([header, *lines]) + newline, newline="")
    args = ("ts", "label" if with_label else None, {"Normal": 0, "Attack": 1})

    def outcome():
        try:
            values, labels, names = load_csv(p, *args)
        except ConfigError as exc:
            return str(exc)
        assert values.flags.c_contiguous
        return _bits(values).tolist(), None if labels is None else labels.tolist(), names

    fast = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_body", lambda *_: None)
        assert outcome() == fast


def test_write_csv_writes_each_cell_with_str(tmp_path):
    path = tmp_path / "sub" / "out.csv"
    # tolist() widens the float32 0.1 exactly; str() of the numpy scalar is '0.1'
    narrow = np.array([0.1], dtype=np.float32).tolist()
    write_csv(path, ["i", "s", "x", "y"], [[3, "Normal", 0.1, *narrow], [-1, "", 2.0, 1e-20]])
    assert path.read_text() == "i,s,x,y\n3,Normal,0.1,0.10000000149011612\n-1,,2.0,1e-20\n"


def test_write_fixed_point_csv_formats_each_row(tmp_path):
    path = tmp_path / "sub" / "fixed.csv"
    values = np.array([[0.1, -0.0], [-2.5e-7, 9.9999996], [1e17, -0.9999999]])
    write_fixed_point_csv(path, ["t", "a,b", "c", "label"], values, 6,
                          np.array([0, 1, 0]), ("Normal", "Attack"))
    # the header is still quoted through csv.writer; the carries reach the
    # integer part, and -0.0 keeps its sign, as with %
    assert path.read_text() == (
        't,"a,b",c,label\n'
        "0.0,0.100000,-0.000000,Normal\n"
        "1.0,-0.000000,10.000000,Attack\n"
        "2.0,100000000000000000.000000,-1.000000,Normal\n"
    )


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

    def test_is_a_read_only_view_of_the_series(self):
        values, labels = plant_rows()
        windows, window_labels = window(values, labels, 12, 4)
        for view, series in ((windows, values), (window_labels, labels)):
            assert not view.flags.writeable
            assert np.shares_memory(view, series)
        with pytest.raises(ValueError, match="read-only"):
            windows[0, 0, 0] = 1.0

    # a shift below, equal to and above the length of 12
    @pytest.mark.parametrize("shift", [5, 12, 17])
    @pytest.mark.parametrize("with_labels", [False, True])
    def test_equals_the_stacked_copy(self, shift, with_labels):
        values, labels = plant_rows(rows=61)
        labels = labels if with_labels else None
        windows, window_labels = window(values, labels, 12, shift)
        want, want_labels = stacked(values, labels, 12, shift)
        assert (windows.shape, windows.dtype) == (want.shape, want.dtype)
        npt.assert_array_equal(windows, want)
        if with_labels:
            assert (window_labels.shape, window_labels.dtype) == (
                want_labels.shape, want_labels.dtype)
            npt.assert_array_equal(window_labels, want_labels)
        else:
            assert window_labels is None


class TestDownsampleMedian:
    @pytest.mark.parametrize("factor", range(1, 13))
    def test_is_np_median_bit_for_bit(self, factor):
        # rounded readings make ties inside a block; the halved sum of an
        # even block's middle two must round as np.median's mean does
        rng = np.random.default_rng(factor)
        windows = np.round(rng.normal(size=(6, 4 * factor, 5)) * 1e3, 1)
        windows[0] = 0.1
        out, _ = downsample_median(windows, None, factor)
        want = np.median(windows.reshape(6, 4, factor, 5), axis=2)
        npt.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
        assert out.flags.c_contiguous

    # an even, an odd and the identity factor, each with windows that
    # overlap by less than a block, by whole blocks, or not at all
    @pytest.mark.parametrize("factor", [4, 3, 1])
    @pytest.mark.parametrize("shift", [1, 12, 13])
    def test_view_downsamples_as_its_copy_bit_for_bit(self, factor, shift):
        values, labels = plant_rows(rows=50)
        windows, window_labels = window(values, labels, 12, shift)
        out, out_labels = downsample_median(windows, window_labels, factor)
        want, want_labels = downsample_median(
            np.ascontiguousarray(windows), np.ascontiguousarray(window_labels), factor
        )
        assert (out.shape, out_labels.shape) == (want.shape, want_labels.shape)
        npt.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
        npt.assert_array_equal(out_labels, want_labels)
        if factor > 1:
            assert out.flags.c_contiguous and out_labels.flags.c_contiguous

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


@pytest.mark.parametrize("shift", [4, 8, 11])
def test_window_bundle_of_a_view_is_the_bundle_of_its_copy(tmp_path, shift):
    values, labels = plant_rows(rows=40, columns=2)
    view = window(values, labels, 8, shift)
    copy = tuple(np.ascontiguousarray(a) for a in view)
    for name, pair in (("view", view), ("copy", copy)):
        save_window_bundle(tmp_path / name, {"test": pair, "train": (pair[0], None)})
    for artifact in ("windows.npz", "manifest.json"):
        assert (tmp_path / "view" / artifact).read_bytes() == (
            tmp_path / "copy" / artifact
        ).read_bytes()


def test_window_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    labels = (rng.random(40) < 0.2).astype(np.int64)
    values = rng.normal(size=(40, 2))
    test = cut(values, 8, 8, 2, labels)
    train = cut(values, 8, 4, 2)
    save_window_bundle(tmp_path / "bundle", {"test": test, "train": train}, {"note": "x"})
    loaded, manifest, digest = load_window_bundle(tmp_path / "bundle")
    assert digest == hashlib.sha256((tmp_path / "bundle" / "windows.npz").read_bytes()).hexdigest()
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
