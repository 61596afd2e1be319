"""Loading, normalizing, downsampling and windowing of raw telemetry.

Every function takes and returns plain numpy arrays:

- a series is ``values``, float64 of shape (rows, columns), one row per
  timestamp and one column per variable (real-valued sensor readings or 0/1
  actuator states), with ``labels`` either ``None`` or an int64 array of
  shape (rows,) holding a 0/1 attack flag per row.  A series is row-major
  with a unit column stride: C-contiguous, or, as :func:`load_csv` returns
  it, a view of a run of two or more columns of a wider table, whose rows
  are further apart.  Such a view sums, sorts and multiplies in the order a
  C-contiguous copy does, so every step of ingest gives the copy's results
  bit for bit.  :func:`normalize` rewrites its series in place.  A
  downsampled series, a *stream*, is a new C-contiguous array of the same
  form with one row per block of raw rows;
- a window set is ``windows``, float64 of shape (count, length, columns),
  and carries no labels: a row's label is its stream's.  A window set is a
  read-only strided view of its series, as :func:`window` returns it: a
  reader takes it as it would a contiguous stack, and a writer copies it
  first.  Windows are the GAN's: :func:`unwindow` maps values per window
  timestep back onto the stream rows the windows cover;
- a row table is a new C-contiguous series of the rows of a stream that a
  window set covers, as :func:`covered_rows` cuts them, and is what the
  CUSUM and SPE baselines scan.

The window bundle stores each GAN set's stream, and the test set's labels,
once, with the step its windows start at; :func:`load_window_bundle` cuts
the windows from it.  Beside them it stores the baselines' row tables, cut
from the normalized, downsampled streams before the PCA projection, each
the rows that its set's windows cover.  The training table covers whole
windows at a step of one window length, so CUSUM fits its mean and slack
on every training row up to the last whole window.

File I/O happens only in :func:`load_csv`, the one CSV parser, which reads
the plant CSVs and detect's ``scores.csv``, the one CSV writer
:func:`write_csv`, the bundle helpers and the readers of other stage outputs,
:func:`read_npz` and :func:`read_json_object`, which the bundle loader,
``gan.load_checkpoint``, ``pca.PcaModel.load`` and ``pipeline.run_evaluate``
call.  Every CSV the package writes goes through :func:`write_csv`, except
the plant CSVs of synth: :func:`tsgad.synthetic.save_scenario_csv` writes
those as fixed-point text.  Both write UTF-8, whatever the locale.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import warnings
import zipfile
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ConfigError
from .orderstats import median


class NonNumericTimestamp(ConfigError):
    """A timestamp that is no number, read without a ``strptime`` format."""


def _number(cell: str) -> float:
    """``float(cell)`` for exactly the cells numpy's C parser reads.

    ``float`` also reads digit grouping (``1_000``) and non-ASCII digits;
    the parser that :func:`load_csv` runs refuses both, so this does too.
    """
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not a number: {cell!r}")
    return float(text)


def _epoch_seconds(raw: str, timestamp_format: str) -> float:
    parsed = datetime.strptime(raw.strip(), timestamp_format)
    # a naive time is UTC, not the machine's zone, whose DST jumps would
    # make the order checks of load_csv depend on where it runs
    return (parsed if parsed.tzinfo else parsed.replace(tzinfo=timezone.utc)).timestamp()


class _Layout(NamedTuple):
    """Where :func:`load_csv` finds each column, by cell index."""

    header: list[str]
    features: list[int]
    timestamp: int
    label: int | None


def _read_header(
    reader, path: Path, timestamp_column: str, label_column: str | None
) -> _Layout:
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ConfigError(f"{path}: empty file") from None
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ConfigError(f"{path}: header repeats {repeated}")
    col_index = {name: i for i, name in enumerate(header)}
    for name in [timestamp_column] + ([label_column] if label_column else []):
        if name not in col_index:
            raise ConfigError(f"{path}: schema column {name!r} not in header {header}")
    if label_column == timestamp_column:
        raise ConfigError(f"{path}: column {label_column!r} cannot be both timestamp and label")
    skip = {timestamp_column, label_column}
    feature_names = [h for h in header if h not in skip]
    if not feature_names:
        raise ConfigError(f"{path}: no feature columns")
    if "index" in feature_names:
        raise ConfigError(
            f"{path}: feature column 'index' clashes with the index column of "
            "per_variable_flags.csv; rename it"
        )
    return _Layout(
        header,
        [col_index[c] for c in feature_names],
        col_index[timestamp_column],
        col_index[label_column] if label_column else None,
    )


def load_csv(
    path: str | Path,
    timestamp_column: str,
    label_column: str | None = None,
    label_mapping: dict | None = None,
    timestamp_format: str | None = None,
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Parse a headered CSV file into ``(values, labels, feature_names)``.

    Every column that is neither the timestamp nor the label is a feature, in
    file order.  ``values`` is row-major with a unit column stride: when the
    features are one run of two or more columns, as in every CSV synth
    writes, it is a view of those columns of the table the parser read, so
    the plant is held once; otherwise it is a C-contiguous copy.
    ``label_mapping`` translates raw label cells (e.g. ``Normal``/``Attack``)
    to 0/1; its keys are compared as strings, so the YAML mapping ``{0: 0,
    1: 1}`` matches a 0/1 label column.  ``timestamp_format`` is an optional
    ``strptime`` pattern for non-numeric timestamps; a time without a ``%z``
    offset is read as UTC.  The timestamps are checked, not returned.
    ``pipeline.run_ingest`` reads the plant CSVs with it, and
    ``pipeline.run_evaluate`` detect's ``scores.csv``, with ``index`` as its
    timestamp and ``truth`` as its label column.

    The file is read as UTF-8, and a byte order mark before the header, as
    a spreadsheet's "CSV UTF-8" export writes, is dropped.  The header goes
    through ``csv.reader``, so a quoted name may hold a comma.  The body is
    read by one ``np.loadtxt`` call, numpy's C parser:
    numeric cells, the numeric timestamp included, are parsed in C, and
    only the label cells (and ``strptime`` timestamps) go through Python
    converters.  A cell may be quoted; ``#`` is not a comment.  When
    ``loadtxt`` refuses the body, or the result has the wrong width, no
    rows, a non-finite cell or timestamp, or timestamps that do not
    increase, the file is read again row by row with ``csv.reader``, which
    finds the refusal and its file row (blank lines counted); that slow
    loop runs only for a file that is refused.  A cell is a number when the
    C parser reads it: ``float`` would also read ``1_000`` and non-ASCII
    digits, which are refused as non-numeric.

    Refuses, with a :class:`~tsgad.config.ConfigError` naming the path, a
    header that repeats a name, has a feature named ``index`` or gives one
    column as both timestamp and label, ragged rows, non-numeric or
    non-finite (nan, inf) feature cells and timestamps, unmapped label
    strings and timestamps that are not strictly increasing; a refused cell,
    label or timestamp is named with its column.  A non-numeric timestamp
    read without ``timestamp_format`` is :class:`NonNumericTimestamp`.  A
    missing file raises ``FileNotFoundError``.
    """
    path = Path(path)
    mapping = {str(k): v for k, v in (label_mapping or {}).items()}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        layout = _read_header(csv.reader(fh), path, timestamp_column, label_column)
        table = _parse_body(fh, layout, mapping, timestamp_format)
    if table is None:
        table = _scan_body(path, layout, mapping, timestamp_format)
    values, labels = table
    return values, labels, [layout.header[i] for i in layout.features]


def _parse_body(
    fh, layout: _Layout, mapping: dict, timestamp_format: str | None
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The rows after the header through ``np.loadtxt``; ``None`` when they
    do not pass every check of :func:`_scan_body`."""
    converters = {}
    if timestamp_format is not None:
        converters[layout.timestamp] = lambda raw: _epoch_seconds(raw, timestamp_format)
    if layout.label is not None:
        converters[layout.label] = lambda raw: mapping[raw.strip()]
    with warnings.catch_warnings():
        # a header-only file; _scan_body refuses it as "no data rows"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            # encoding=None hands the converters str cells; numpy < 2.0
            # defaults to encoding="bytes", which would hand them bytes
            table = np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                dtype=np.float64, converters=converters, encoding=None,
            )
        except ValueError:  # converter failures (unmapped labels included) arrive as this
            return None
    # loadtxt takes the width from the first row, so every row may be too wide
    if len(table) == 0 or table.shape[1] != len(layout.header):
        return None
    # pca.fit_pca's column sums round by memory layout, so values is
    # row-major with a unit column stride, as _scan_body's C-order array is:
    # a slice of one run of columns is such a view of the table; otherwise
    # take() copies in C order, where table[:, features] would be F-strided.
    # A single column is copied too: BLAS sums a strided vector's products,
    # as in fit_pca's covariance, in another order than a contiguous one's
    first, width = layout.features[0], len(layout.features)
    if width > 1 and layout.features == list(range(first, first + width)):
        values = table[:, first : first + width]
    else:
        values = table.take(layout.features, axis=1)
    ts = table[:, layout.timestamp]
    if not (_finite(values) and _finite(ts) and np.all(np.diff(ts) > 0)):
        return None
    labels = None if layout.label is None else table[:, layout.label].astype(np.int64)
    return values, labels


def _finite(values: np.ndarray) -> bool:
    # min and max allocate nothing, and a nan fails both comparisons
    return bool(-np.inf < values.min() and values.max() < np.inf)


def _scan_body(
    path: Path, layout: _Layout, mapping: dict, timestamp_format: str | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Row-by-row ``csv.reader`` form of :func:`_parse_body` that raises the
    refusal of the first bad row, numbering rows as the file does."""
    header, feature_idx = layout.header, layout.features
    feature_names = [header[i] for i in feature_idx]
    ts_name = header[layout.timestamp]
    timestamps: list[float] = []
    rows: list[list[float]] = []
    row_nums: list[int] = []
    labels: list[int] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: ragged row {row_num}: expected {len(header)} cells, got {len(row)}"
                )
            raw = row[layout.timestamp]
            try:
                timestamps.append(_number(raw) if timestamp_format is None
                                  else _epoch_seconds(raw, timestamp_format))
            except ValueError as exc:
                if timestamp_format is None:
                    raise NonNumericTimestamp(f"{path}: row {row_num}: non-numeric timestamp "
                                              f"{raw!r} in column {ts_name!r}") from None
                raise ConfigError(f"{path}: row {row_num}: bad timestamp {raw!r} in column "
                                  f"{ts_name!r}: {exc}") from None
            numbers = []
            for i in feature_idx:
                try:
                    numbers.append(_number(row[i]))
                except ValueError:
                    raise ConfigError(f"{path}: row {row_num}: non-numeric cell {row[i]!r} "
                                      f"in column {header[i]!r}") from None
            rows.append(numbers)
            row_nums.append(row_num)
            if layout.label is not None:
                raw_label = row[layout.label].strip()
                if raw_label not in mapping:
                    raise ConfigError(f"{path}: row {row_num}: label {raw_label!r} in column "
                                      f"{header[layout.label]!r} is none of {sorted(mapping)}")
                labels.append(mapping[raw_label])

    if not rows:
        raise ConfigError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ConfigError(
            f"{path}: row {row_nums[r]}: non-finite cell {values[r, c]} "
            f"in column {feature_names[c]!r}"
        )
    ts = np.asarray(timestamps, dtype=np.float64)
    if not np.isfinite(ts).all():
        r = int(np.argmin(np.isfinite(ts)))
        raise ConfigError(
            f"{path}: row {row_nums[r]}: non-finite timestamp {ts[r]} in column {ts_name!r}"
        )
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ConfigError(
            f"{path}: non-monotone timestamps at rows {row_nums[bad]} and "
            f"{row_nums[bad + 1]} ({ts[bad]} -> {ts[bad + 1]}) in column {ts_name!r}"
        )
    return values, np.asarray(labels, dtype=np.int64) if layout.label is not None else None


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and then each row of ``rows`` as newline-ended CSV lines.

    The header goes through ``csv.writer``, so a column name with a comma
    or a quote is quoted and :func:`load_csv` reads it back whole.  Row
    cells are comma-joined unquoted, each with ``str()``: each must be a
    Python ``int``, ``float`` or a ``str`` without commas, quotes or
    newlines, such as the labels tsgad writes.  A float is written as its
    shortest round-trip text.  Pass numpy data through ``tolist()``: it
    turns float32 into the exactly equal float, where ``str()`` of a numpy
    scalar would print fewer digits.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def normalize(values: np.ndarray, col_min: np.ndarray, col_max: np.ndarray) -> np.ndarray:
    """Map a float64 series through the min-max transform with the given
    column bounds, in place: the result is ``values``, overwritten, so a
    caller that still needs the readings passes a copy.

    Data the bounds were taken from lands in [0, 1]; unseen data may fall
    outside and is deliberately not clipped.  Constant columns map to 0.
    """
    if col_min.shape[0] != values.shape[1]:
        raise ValueError(
            f"bounds fitted on {col_min.shape[0]} columns, values have {values.shape[1]}"
        )
    span = col_max - col_min
    values -= col_min
    values /= np.where(span == 0.0, 1.0, span)
    values[:, span == 0.0] = 0.0
    return values


def window(values: np.ndarray, length: int, shift: int) -> np.ndarray:
    """Cut a series into fixed-length windows with the given shift.

    Produces floor((rows - length) / shift) + 1 windows; a trailing remainder
    that does not fill a whole window is dropped.  Window k is
    ``values[k * shift : k * shift + length]``, of shape (length, ...).

    Nothing is copied: the windows are a read-only strided view of the
    series, which they keep alive.  Overlapping windows (``shift < length``)
    share rows, so the view holds the series once however many windows it
    has.  :func:`load_window_bundle` cuts every window set this way from its
    stored stream.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if shift < 1:
        raise ValueError("shift must be >= 1")
    if length > len(values):
        raise ValueError(f"window length {length} exceeds series length {len(values)}")
    # (count, ..., length) views, whose last axis steps through the rows
    return np.moveaxis(sliding_window_view(values, length, axis=0)[::shift], -1, 1)


def _cover(count: int, length: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The stream row of each timestep of ``count`` windows of ``length``
    rows that start every ``step`` rows, window by window, and per stream
    row up to the last covered one the number of windows that cover it."""
    timesteps = (np.arange(count)[:, None] * step + np.arange(length)).reshape(-1)
    return timesteps, np.bincount(timesteps)


def covered_rows(stream: np.ndarray, length: int, step: int) -> np.ndarray:
    """The rows of ``stream`` that its :func:`window` cut at ``length`` and
    ``step`` covers, in stream order, as a new C-contiguous array: the rows
    onto which :func:`unwindow` maps those windows' values.  Rows between
    windows that start further apart than their length, and a trailing
    remainder, are left out."""
    count = len(window(stream, length, step))
    return stream[np.flatnonzero(_cover(count, length, step)[1])]


def unwindow(values: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`window`: values per window timestep, of shape
    (count, length, ...), averaged onto the stream rows the windows cover,
    where window k starts at row ``k * step``.

    Returns ``(rows, means)``: the numbers of the covered rows in stream
    order, the rows :func:`covered_rows` keeps, and per row the mean of the
    values of the windows that cover it, summed in window order, in
    float64.  A row that one window covers gets that window's value bit for
    bit.
    """
    count, length = values.shape[:2]
    timesteps, counts = _cover(count, length, step)
    # -0.0 is the exact identity of addition, so a lone value keeps its sign of zero
    sums = np.full((len(counts), *values.shape[2:]), -0.0)
    # unbuffered, one window timestep at a time, in window order
    np.add.at(sums, timesteps, values.reshape(count * length, *values.shape[2:]))
    rows = np.flatnonzero(counts)
    return rows, sums[rows] / counts[rows].reshape(-1, *(1,) * (values.ndim - 2))


# numbers downsample_median sorts at once: its median sorts a C-order copy of
# what it is given, and a budget in rows would grow with the plant's width
MEDIAN_BLOCK_CELLS = 16_384


def downsample_median(
    values: np.ndarray, labels: np.ndarray | None, factor: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Replace each ``factor``-row block of a series with its per-column median.

    The result is the stream of ``rows // factor`` rows: a trailing partial
    block is dropped.  An even block count uses the arithmetic mean of the
    two middle values.  A downsampled row is labeled anomalous if any row of
    its block is.  With ``factor`` 1 the series and labels are returned as
    given; otherwise both results are new C-contiguous arrays.  The blocks
    are sorted a group at a time, each group's copy about
    :data:`MEDIAN_BLOCK_CELLS` numbers, so the sort holds no second copy of
    the series.

    Windows cut from the stream at a step of ``shift / factor`` rows are,
    bit for bit, the per-window block medians of the series' windows at
    ``shift``, when ``shift`` and the window length are multiples of
    ``factor``: each block median sees the same values in the same order.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return values, labels
    blocks, columns = len(values) // factor, values.shape[1]
    rows = blocks * factor
    down = np.empty((blocks, columns))
    group = max(1, MEDIAN_BLOCK_CELLS // (factor * columns))
    for start in range(0, blocks, group):
        stop = min(start + group, blocks)
        block_rows = values[start * factor : stop * factor]
        down[start:stop] = median(block_rows.reshape(stop - start, factor, columns), axis=1)
    if labels is not None:
        labels = labels[:rows].reshape(blocks, factor).max(axis=1)
    return down, labels


def save_window_bundle(
    directory: str | Path,
    window_sets: dict[str, tuple[np.ndarray, np.ndarray | None, int, int]],
    manifest_extra: dict | None = None,
    tables: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write named ``(stream, labels, length, step)`` window sets, named row
    ``tables`` and a JSON manifest to ``directory``.

    Each set's windows are ``length`` stream rows long and start every
    ``step`` rows.  Its stream lands in one ``windows.npz`` as
    ``<set>_stream`` and, when the set has labels, ``<set>_stream_labels``;
    each table lands there under its own name.  ``manifest.json`` holds
    ``manifest_extra`` at its top level and, under ``window_sets``, one
    entry per set with the keys ``count`` (its windows), ``window_length``
    and ``step``; tables have no entry.  :func:`load_window_bundle` reads
    every set's entry.  Of the rest, ``pipeline.run_detect`` reads each
    set's ``step`` and the top-level ``columns``, ``pipeline.run_evaluate``
    reads ``columns`` alone, and ``bench/stages.py`` and ``bench/checks.py``
    read the per-set ``count`` and the top-level ``sequence_length`` and
    ``columns``.  Returns the manifest path.

    ``windows.npz`` is written uncompressed with ``np.savez``, as
    :func:`tsgad.gan.save_checkpoint` writes checkpoints: on a 51-column
    plant zlib took about 0.1 s of a 0.11 s save to keep the file 8%
    smaller.  Like every artifact it is byte-identical across reruns.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = dict(tables or {})
    manifest: dict = {"window_sets": {}}
    for name, (values, labels, length, step) in window_sets.items():
        arrays[f"{name}_stream"] = values
        if labels is not None:
            arrays[f"{name}_stream_labels"] = labels
        count = len(window(values, length, step))
        manifest["window_sets"][name] = {"count": count, "window_length": length, "step": step}
    if manifest_extra:
        manifest.update(manifest_extra)
    np.savez(directory / "windows.npz", **arrays)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def load_window_bundle(directory: str | Path) -> tuple[dict[str, np.ndarray], dict, str]:
    """Inverse of :func:`save_window_bundle`: ``(arrays, manifest, sha256)``.

    ``arrays`` maps every name ``windows.npz`` stores, each row table's
    included, to its array, and adds per window set ``<set>_windows``, the
    :func:`window` view cut from its stream at its manifest
    ``window_length`` and ``step``.  ``sha256`` is the hex digest of what
    the windows were cut from: the ``windows.npz`` bytes the arrays were
    parsed from, then the sorted JSON of the manifest's ``window_sets``, so
    that a re-ingest at another shift, which may store the same arrays,
    changes it.
    Each file is read once, so a bundle re-ingested meanwhile cannot give
    the arrays another file's digest.  The bytes are dropped on return.

    A directory that lacks either file is refused with a
    :class:`~tsgad.config.ConfigError` that names it, and a damaged file
    with the cure ``re-run ingest``.  A manifest is damaged when a set's
    ``window_length`` or ``step`` is not a positive integer, its stream is
    missing from ``windows.npz`` or shorter than a window, or its ``count``
    is not the number of windows cut.  A missing row table is the reader's
    to refuse: only it knows which tables it needs.
    """
    directory = Path(directory)
    manifest_path, windows_path = directory / "manifest.json", directory / "windows.npz"
    if not (manifest_path.is_file() and windows_path.is_file()):
        raise ConfigError(f"no window bundle in {directory}; run ingest first")
    manifest = read_json_object(manifest_path, "re-run ingest")
    raw = windows_path.read_bytes()
    arrays = read_npz(windows_path, "re-run ingest", raw)
    try:
        for name, entry in manifest["window_sets"].items():
            for key in ("window_length", "step"):
                if type(entry.get(key)) is not int or entry[key] < 1:
                    raise ValueError(f"set {name!r} has {key} {entry.get(key)!r}, "
                                     "not a positive integer")
            if f"{name}_stream" not in arrays:
                raise ValueError(f"set {name!r} has no {name}_stream in windows.npz")
            windows = window(arrays[f"{name}_stream"], entry["window_length"], entry["step"])
            if entry.get("count") != len(windows):
                raise ValueError(f"set {name!r} has count {entry.get('count')!r}, "
                                 f"but its stream cuts {len(windows)} windows")
            arrays[f"{name}_windows"] = windows
    except (KeyError, AttributeError, ValueError) as exc:
        # no window_sets, an entry that is no mapping, or a stream too short
        raise ConfigError(f"{manifest_path}: damaged ({exc}); re-run ingest") from None
    digest = hashlib.sha256(raw)
    digest.update(json.dumps(manifest["window_sets"], sort_keys=True).encode())
    return arrays, manifest, digest.hexdigest()


def read_npz(path: str | Path, cure: str, raw: bytes | None = None) -> dict[str, np.ndarray]:
    """Every array of the npz archive at ``path`` by name, parsed from
    ``raw``, its bytes, when given.  No zip archive, or a member ``np.load``
    cannot read, is refused as damaged, naming ``path`` and the ``cure``."""
    try:
        if not zipfile.is_zipfile(path if raw is None else io.BytesIO(raw)):
            raise ValueError("not an npz archive")
        with np.load(path if raw is None else io.BytesIO(raw)) as data:
            return {k: data[k] for k in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: damaged ({exc}); {cure}") from None


def read_json_object(path: str | Path, cure: str, text: str | bytes | None = None) -> dict:
    """The JSON object in ``text``, or in the file at ``path`` when no text
    is given.  An unreadable file, or text that holds no JSON object, is
    refused as damaged, naming ``path`` and the ``cure``."""
    try:
        value = json.loads(Path(path).read_text() if text is None else text)
        if not isinstance(value, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: damaged ({exc}); {cure}") from None
    return value
