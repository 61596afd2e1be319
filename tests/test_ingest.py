import hashlib
import json
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
    covered_rows,
    downsample_median,
    load_csv,
    load_window_bundle,
    normalize,
    save_window_bundle,
    unwindow,
    window,
    write_csv,
)
from tsgad.pca import fit_pca, project


def normalize_on_itself(values):
    values = np.asarray(values, dtype=float)
    return normalize(values, values.min(axis=0), values.max(axis=0))


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


def _row_major(values):
    """The layout load_csv documents: each row one run of adjacent cells,
    the rows in order and apart by at least a row's width, as in a C-order
    array or a view of a run of columns of a wider table."""
    rows, columns = values.strides
    return columns == values.itemsize and rows >= values.shape[1] * values.itemsize


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
    assert _row_major(values) and values.dtype == np.float64
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
        assert _row_major(values)
        return _bits(values).tolist(), None if labels is None else labels.tolist(), names

    fast = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_body", lambda *_: None)
        assert outcome() == fast


@given(
    features=st.integers(1, 5),
    rows=st.integers(2, 40),
    positions=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    factor=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_steps_see_the_loaded_layout_as_a_contiguous_copy(
    tmp_path, features, rows, positions, factor, seed
):
    # the timestamp and label at either end or in the middle: the features
    # are one run of columns, which load_csv returns as a view of its table,
    # or split, which it copies, as it copies a single column.  Either way
    # each ingest step gives, bit for bit, what it gives on a C-contiguous
    # copy
    rng = np.random.default_rng(seed)
    matrix = np.round(rng.normal(size=(rows, features)) * 1e3, 1)
    matrix[:, 0] = np.round(matrix[:, 0], -2)  # ties for the block medians
    names = [f"v{j}" for j in range(features)]
    header = names.copy()
    ts_at, label_at = (min(at, len(header)) for at in positions)
    header.insert(ts_at, "ts")
    header.insert(label_at, "label")
    cells = {name: matrix[:, j].tolist() for j, name in enumerate(names)}
    cells["ts"] = list(range(rows))
    cells["label"] = ["Attack" if i % 3 else "Normal" for i in range(rows)]
    p = tmp_path / "plant.csv"
    write_csv(p, header, zip(*(cells[name] for name in header)))
    at = [header.index(name) for name in names]
    run = features > 1 and at == list(range(at[0], at[0] + features))

    def load():
        values, _, loaded_names = load_csv(p, "ts", "label", {"Normal": 0, "Attack": 1})
        assert _row_major(values) and loaded_names == names
        npt.assert_array_equal(_bits(values), _bits(matrix))
        return values

    assert load().flags.owndata is not run
    col_min, col_max = matrix.min(axis=0), matrix.max(axis=0)
    components = 1 + seed % features

    def steps(layout):
        values = layout(load())
        norm = normalize(values, col_min, col_max)
        assert norm is values
        # taken before fit_pca centres the rows in place; at factor 1 the
        # stream is the rows themselves, so it is copied
        down = downsample_median(norm, None, factor)[0].copy()
        model = fit_pca(norm, components)
        scores = project(model, normalize(layout(load()), col_min, col_max))
        return [norm, down, model.mean, model.loadings, model.eigenvalues,
                np.float64(model.total_variance), scores]

    for got, want in zip(steps(lambda v: v), steps(np.ascontiguousarray)):
        assert got.shape == want.shape
        npt.assert_array_equal(_bits(got), _bits(want))


def test_write_csv_writes_each_cell_with_str(tmp_path):
    path = tmp_path / "sub" / "out.csv"
    # tolist() widens the float32 0.1 exactly; str() of the numpy scalar is '0.1'
    narrow = np.array([0.1], dtype=np.float32).tolist()
    write_csv(path, ["i", "s", "x", "y"], [[3, "Normal", 0.1, *narrow], [-1, "", 2.0, 1e-20]])
    assert path.read_text() == "i,s,x,y\n3,Normal,0.1,0.10000000149011612\n-1,,2.0,1e-20\n"


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
        windows = window(np.arange(100.0).reshape(100, 1), 12, 10)
        assert windows.shape == (9, 12, 1)
        npt.assert_array_equal(windows[:, 0, 0], np.arange(0, 90, 10))
        npt.assert_array_equal(windows[3][:, 0], np.arange(30, 42))

    def test_single_window_boundary(self):
        values = np.arange(7.0).reshape(7, 1)
        for shift in (1, 3, 100):
            windows = window(values, 7, shift)
            assert windows.shape[0] == 1

    def test_window_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            window(np.zeros((5, 1)), 6, 1)

    def test_labels_carried_per_row(self):
        # a label series is cut as a series of values is
        labels = np.zeros(20, dtype=np.int64)
        labels[7] = 1
        out = window(labels, 5, 5)
        assert out.shape == (4, 5)
        npt.assert_array_equal(out.sum(axis=1), [0, 1, 0, 0])

    def test_concat_reconstructs_covered_prefix(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(53, 3))
        windows = window(values, 10, 10)
        covered = np.concatenate(list(windows), axis=0)
        npt.assert_array_equal(covered, values[: len(windows) * 10])

    def test_is_a_read_only_view_of_the_series(self):
        values, labels = plant_rows()
        windows, window_labels = window(values, 12, 4), window(labels, 12, 4)
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
        # the values, or their 1-D label series
        series = labels if with_labels else values
        windows = window(series, 12, shift)
        want = stacked(series, None, 12, shift)[0]
        assert (windows.shape, windows.dtype) == (want.shape, want.dtype)
        npt.assert_array_equal(windows, want)


class TestUnwindow:
    """:func:`unwindow` puts values per window timestep back on the stream
    rows the windows cover, as :func:`window` cut them."""

    @staticmethod
    def loop_mean(values, step):
        # each covered row's values, window by window, summed in window order
        count, length = values.shape[:2]
        covering = {}
        for k in range(count):
            for j in range(length):
                covering.setdefault(k * step + j, []).append(values[k, j])
        return np.stack([sum(covering[r], 0.0) / len(covering[r]) for r in sorted(covering)])

    # windows that abut and windows with a gap between them
    @pytest.mark.parametrize("step", [6, 9])
    def test_without_overlap_is_the_flattened_values(self, step):
        values = np.random.default_rng(0).normal(size=(4, 6, 3))
        # a negative zero keeps its sign
        values[1, 2, 0] = -0.0
        rows, got = unwindow(values, step)
        want = values.reshape(24, 3)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        npt.assert_array_equal(rows, [k * step + t for k in range(4) for t in range(6)])

    def test_float32_values_come_back_exactly_as_float64(self):
        # the D scores are float32; each covered row's mean is float64
        values = np.random.default_rng(1).random(size=(3, 4)).astype(np.float32)
        rows, got = unwindow(values, 4)
        assert got.dtype == np.float64
        npt.assert_array_equal(got, values.reshape(12).astype(np.float64))

    @given(
        count=st.integers(1, 6),
        length=st.integers(2, 7),
        step_fraction=st.floats(0.0, 1.0, exclude_max=True),
        columns=st.sampled_from([(), (1,), (3,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the two edge rows that one window covers each, and a row that all cover
    @example(count=3, length=5, step_fraction=0.2, columns=(2,), seed=0)
    @settings(max_examples=60, deadline=None)
    def test_overlapping_rows_are_the_loop_mean(self, count, length, step_fraction, columns,
                                                seed):
        step = 1 + int(step_fraction * (length - 1))
        values = np.random.default_rng(seed).normal(size=(count, length, *columns))
        rows, got = unwindow(values, step)
        npt.assert_array_equal(rows, np.arange((count - 1) * step + length))
        assert got.shape == ((count - 1) * step + length, *columns)
        npt.assert_array_equal(got, self.loop_mean(values, step))

    def test_inverts_window(self):
        # the stream rows the windows cover come back, up to the mean's
        # rounding, and covered_rows cuts exactly those rows
        values, _ = plant_rows(rows=40)
        for shift in (3, 8, 11):
            windows = window(values, 8, shift)
            covered = np.unique(np.arange(len(windows))[:, None] * shift + np.arange(8))
            rows, got = unwindow(windows, shift)
            npt.assert_array_equal(rows, covered)
            npt.assert_allclose(got, values[covered], rtol=1e-15)
            table = covered_rows(values, 8, shift)
            npt.assert_array_equal(table.view(np.uint64), values[covered].view(np.uint64))


class TestCoveredRows:
    def test_is_a_contiguous_copy_of_a_view(self):
        # ingest cuts the tables from views of the rows the PCA later
        # centres in place, so a table shares no memory with its stream
        values, _ = plant_rows(rows=40)
        view = values[3:, ::-1]
        table = covered_rows(view, 8, 11)
        assert table.flags.c_contiguous and not np.shares_memory(table, values)
        npt.assert_array_equal(table, np.concatenate([view[0:8], view[11:19], view[22:30]]))

    def test_a_window_longer_than_the_stream_is_refused(self):
        with pytest.raises(ValueError, match="window length 9 exceeds series length 8"):
            covered_rows(np.zeros((8, 2)), 9, 1)


class TestDownsampleMedian:
    @pytest.mark.parametrize("factor", range(1, 13))
    def test_is_np_median_bit_for_bit(self, factor):
        # rounded readings make ties inside a block; the halved sum of an
        # even block's middle two must round as np.median's mean does.  A
        # trailing partial block is dropped
        rng = np.random.default_rng(factor)
        values = np.round(rng.normal(size=(24 * factor + factor // 2, 5)) * 1e3, 1)
        values[:factor] = 0.1
        out, _ = downsample_median(values, None, factor)
        want = np.median(values[: 24 * factor].reshape(24, factor, 5), axis=1)
        npt.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
        assert out.flags.c_contiguous

    # an even, an odd and the identity factor, each on a series that starts
    # 1, 12 or 13 rows into the plant, as the holdout starts at its split
    @pytest.mark.parametrize("factor", [4, 3, 1])
    @pytest.mark.parametrize("shift", [1, 12, 13])
    def test_view_downsamples_as_its_copy_bit_for_bit(self, factor, shift):
        values, labels = plant_rows(rows=50)
        # a strided view: the rows from shift on, with the columns reversed
        view, view_labels = values[shift:, ::-1], labels[shift:]
        out, out_labels = downsample_median(view, view_labels, factor)
        want, want_labels = downsample_median(
            np.ascontiguousarray(view), np.ascontiguousarray(view_labels), factor
        )
        assert (out.shape, out_labels.shape) == (want.shape, want_labels.shape)
        npt.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
        npt.assert_array_equal(out_labels, want_labels)
        if factor > 1:
            assert out.flags.c_contiguous and out_labels.flags.c_contiguous

    def test_even_count_median(self):
        out, _ = downsample_median(np.arange(1.0, 11.0).reshape(10, 1), None, 10)
        assert out[0, 0] == pytest.approx(5.5)

    def test_swat_shape(self):
        stream, _ = downsample_median(np.zeros((240, 2)), None, 10)
        assert stream.shape == (24, 2)
        assert window(stream, 12, 12).shape == (2, 12, 2)

    def test_constant_block(self):
        out, _ = downsample_median(np.full((8, 1), 3.25), None, 4)
        npt.assert_array_equal(out[:, 0], [3.25, 3.25])

    def test_factor_one_is_identity(self):
        values = np.random.default_rng(1).normal(size=(12, 2))
        out, out_labels = downsample_median(values, None, 1)
        assert out is values
        assert out_labels is None

    def test_indivisible_factor(self):
        # the trailing partial block, with its attacked row, is dropped
        labels = np.zeros(10, dtype=np.int64)
        labels[9] = 1
        out, out_labels = downsample_median(np.arange(10.0).reshape(10, 1), labels, 3)
        npt.assert_array_equal(out[:, 0], [1.0, 4.0, 7.0])
        npt.assert_array_equal(out_labels, [0, 0, 0])

    def test_any_anomalous_label_aggregation(self):
        labels = np.zeros(12, dtype=np.int64)
        labels[5] = 1
        _, out = downsample_median(np.zeros((12, 1)), labels, 4)
        npt.assert_array_equal(out, [0, 1, 0])
        assert out.dtype == np.int64

    def test_commutes_with_column_permutation(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(24, 4))
        perm = [2, 0, 3, 1]
        a, _ = downsample_median(values, None, 3)
        b, _ = downsample_median(values[:, perm], None, 3)
        npt.assert_array_equal(a[:, perm], b)


@given(
    factor=st.integers(1, 5),
    blocks=st.integers(1, 4),
    step=st.integers(1, 9),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
# steps below, equal to and above the window's 3 blocks; the first three
# series end in a partial block (37 = 9 * 4 + 1, 41 = 10 * 4 + 1 and
# 42 = 8 * 5 + 2 rows), and the second and third in a partial window
@example(factor=4, blocks=3, step=1, extra=25, seed=0)
@example(factor=4, blocks=3, step=3, extra=29, seed=1)
@example(factor=5, blocks=3, step=4, extra=27, seed=2)
@example(factor=1, blocks=3, step=2, extra=0, seed=3)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bundle_of_streams_cuts_the_downsampled_windows_of_the_series(
        tmp_path, factor, blocks, step, extra, seed):
    # each set is downsampled once and saved as a stream; the windows cut at
    # load are, bit for bit, the block medians (and block maxima of the
    # labels) of the series' windows at a shift of step * factor.  The
    # series is one window long plus extra rows
    length, shift = blocks * factor, step * factor
    values, labels = plant_rows(rows=length + extra, columns=2, seed=seed)
    stream, stream_labels = downsample_median(values, labels, factor)
    save_window_bundle(tmp_path / "bundle", {"test": (stream, stream_labels, blocks, step),
                                             "train": (stream, None, blocks, step)})
    loaded, manifest, _ = load_window_bundle(tmp_path / "bundle")
    windows, window_labels = stacked(values, labels, length, shift)
    count = len(windows)
    want = np.median(windows.reshape(count, blocks, factor, 2), axis=2)
    want_labels = window_labels.reshape(count, blocks, factor).max(axis=2)
    for name in ("test", "train"):
        got = loaded[f"{name}_windows"]
        assert got.shape == want.shape
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert manifest["window_sets"][name]["count"] == len(got)
    # windows carry no labels: each row's is its stream's
    got_labels = window(loaded["test_stream_labels"], blocks, step)
    assert (got_labels.dtype, got_labels.shape) == (np.int64, (count, blocks))
    npt.assert_array_equal(got_labels, want_labels)
    assert "train_stream_labels" not in loaded


# window steps below, equal to and above the window length of 8
@pytest.mark.parametrize("shift", [4, 8, 11])
def test_window_bundle_of_a_view_is_the_bundle_of_its_copy(tmp_path, shift):
    values, labels = plant_rows(rows=40, columns=2)
    # a strided view of the stream: its columns reversed
    view = (values[:, ::-1], labels, 8, shift)
    copy = (np.ascontiguousarray(view[0]), labels, 8, shift)
    for name, stream in (("view", view), ("copy", copy)):
        save_window_bundle(tmp_path / name, {"test": stream, "train": (stream[0], None, 8, shift)})
    for artifact in ("windows.npz", "manifest.json"):
        assert (tmp_path / "view" / artifact).read_bytes() == (
            tmp_path / "copy" / artifact
        ).read_bytes()


def test_window_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    labels = (rng.random(41) < 0.2).astype(np.int64)
    test = downsample_median(rng.normal(size=(41, 2)), labels, 2)
    train = downsample_median(rng.normal(size=(40, 2)), None, 2)
    # a row table lands in windows.npz under its own name, beside the
    # streams, and has no window_sets entry: no stage cuts windows from it
    table = rng.normal(size=(8, 2))
    save_window_bundle(tmp_path / "bundle", {"test": (*test, 4, 4), "train": (*train, 4, 2)},
                       {"note": "x"}, tables={"train_raw": table})
    loaded, manifest, digest = load_window_bundle(tmp_path / "bundle")
    want_digest = hashlib.sha256((tmp_path / "bundle" / "windows.npz").read_bytes())
    want_digest.update(json.dumps(manifest["window_sets"], sort_keys=True).encode())
    assert digest == want_digest.hexdigest()
    assert sorted(loaded) == ["test_stream", "test_stream_labels", "test_windows",
                              "train_raw", "train_stream", "train_windows"]
    assert loaded["train_raw"].tobytes() == table.tobytes()
    npt.assert_array_equal(loaded["test_stream"], test[0])
    npt.assert_array_equal(loaded["test_stream_labels"], test[1])
    npt.assert_array_equal(loaded["train_stream"], train[0])
    npt.assert_array_equal(loaded["test_windows"], stacked(test[0], None, 4, 4)[0])
    npt.assert_array_equal(loaded["train_windows"], stacked(train[0], None, 4, 2)[0])
    for name in ("test_windows", "train_windows"):
        assert not loaded[name].flags.writeable
    assert manifest["note"] == "x"
    assert manifest["window_sets"]["test"] == {
        "count": 5, "window_length": 4, "step": 4,
    }
    assert manifest["window_sets"]["train"] == {
        "count": 9, "window_length": 4, "step": 2,
    }
    assert sorted(manifest["window_sets"]) == ["test", "train"]
    with np.load(tmp_path / "bundle" / "windows.npz") as data:
        assert sorted(data.files) == ["test_stream", "test_stream_labels", "train_raw",
                                      "train_stream"]

