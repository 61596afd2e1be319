"""Loading, normalizing, trimming, downsampling and windowing of raw telemetry.

Everything here is a pure transformation from one in-memory dataset to
another; file I/O happens only in :func:`load_csv` and the bundle helpers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np


@dataclass
class RawSeries:
    """A timestamped multivariate measurement matrix with optional labels.

    ``values`` has one row per timestamp and one column per variable
    (real-valued sensor readings or 0/1 actuator states).  ``labels``, when
    present, is a per-row binary attack flag.
    """

    timestamps: np.ndarray
    values: np.ndarray
    column_names: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n_rows, n_cols = self.values.shape
        if n_cols < 1:
            raise ValueError("series needs at least one variable column")
        if self.timestamps.shape != (n_rows,):
            raise ValueError(
                f"timestamp count {self.timestamps.shape} does not match "
                f"{n_rows} value rows"
            )
        if len(self.column_names) != n_cols:
            raise ValueError("column_names length does not match value columns")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n_rows,):
                raise ValueError("labels length does not match value rows")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


@dataclass
class NormalizationStats:
    """Per-column min/max fitted on training data."""

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self):
        self.col_min = np.asarray(self.col_min, dtype=np.float64)
        self.col_max = np.asarray(self.col_max, dtype=np.float64)
        if self.col_min.shape != self.col_max.shape or self.col_min.ndim != 1:
            raise ValueError("col_min/col_max must be 1-D and the same length")
        if np.any(self.col_min > self.col_max):
            raise ValueError("col_min may not exceed col_max")

    def to_dict(self) -> dict:
        return {"col_min": self.col_min.tolist(), "col_max": self.col_max.tolist()}


@dataclass
class WindowSet:
    """Fixed-length subsequences cut from a RawSeries.

    ``windows`` is (count, rows, columns).  ``labels``, when present, is a
    per-window per-row binary flag array of shape (count, rows).
    """

    windows: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        if self.windows.ndim != 3:
            raise ValueError(f"windows must be 3-D, got shape {self.windows.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.windows.shape[:2]:
                raise ValueError("labels shape does not match windows")

    @property
    def n_windows(self) -> int:
        return self.windows.shape[0]

    @property
    def window_length(self) -> int:
        return self.windows.shape[1]


@dataclass
class CsvSchema:
    """Column roles for :func:`load_csv`.

    ``label_mapping`` translates raw label strings (e.g. ``Normal``/``Attack``)
    to 0/1.  Every column that is neither the timestamp nor the label is a
    feature, in file order.  ``timestamp_format`` is an optional ``strptime``
    pattern for non-numeric timestamp columns.
    """

    timestamp_column: str
    label_column: str | None = None
    label_mapping: dict = field(default_factory=lambda: {"Normal": 0, "Attack": 1})
    timestamp_format: str | None = None


def _parse_timestamp(raw: str, schema: CsvSchema, row_num: int) -> float:
    text = raw.strip()
    if schema.timestamp_format is not None:
        try:
            return datetime.strptime(text, schema.timestamp_format).timestamp()
        except ValueError as exc:
            raise ValueError(f"row {row_num}: bad timestamp {raw!r}: {exc}") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"row {row_num}: non-numeric timestamp {raw!r} "
            "(set timestamp_format for datetime strings)"
        ) from None


def load_csv(path: str | Path, schema: CsvSchema) -> RawSeries:
    """Parse a headered CSV file into a RawSeries.

    Rejects ragged rows, non-numeric feature cells, unmapped label strings and
    timestamps that are not strictly increasing.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None

        col_index = {name: i for i, name in enumerate(header)}
        for name in [schema.timestamp_column] + ([schema.label_column] if schema.label_column else []):
            if name not in col_index:
                raise ValueError(f"{path}: schema column {name!r} not in header {header}")
        skip = {schema.timestamp_column, schema.label_column}
        feature_names = [h for h in header if h not in skip]
        if not feature_names:
            raise ValueError(f"{path}: no feature columns")
        feature_idx = [col_index[c] for c in feature_names]
        ts_idx = col_index[schema.timestamp_column]
        label_idx = col_index[schema.label_column] if schema.label_column else None

        timestamps: list[float] = []
        rows: list[list[float]] = []
        labels: list[int] = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: ragged row {row_num}: expected {len(header)} cells, got {len(row)}"
                )
            timestamps.append(_parse_timestamp(row[ts_idx], schema, row_num))
            try:
                rows.append([float(row[i]) for i in feature_idx])
            except ValueError:
                bad = next(i for i in feature_idx if not _is_number(row[i]))
                raise ValueError(
                    f"{path}: row {row_num}: non-numeric cell {row[bad]!r} "
                    f"in column {header[bad]!r}"
                ) from None
            if label_idx is not None:
                raw_label = row[label_idx].strip()
                if raw_label not in schema.label_mapping:
                    raise ValueError(
                        f"{path}: row {row_num}: label {raw_label!r} not in label_mapping"
                    )
                labels.append(schema.label_mapping[raw_label])

    if not rows:
        raise ValueError(f"{path}: no data rows")
    ts = np.asarray(timestamps, dtype=np.float64)
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ValueError(
            f"{path}: non-monotone timestamps at data row {bad + 2} "
            f"({ts[bad]} -> {ts[bad + 1]})"
        )
    return RawSeries(
        timestamps=ts,
        values=np.asarray(rows, dtype=np.float64),
        column_names=feature_names,
        labels=np.asarray(labels, dtype=np.int64) if label_idx is not None else None,
    )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def trim_startup(series: RawSeries, n_rows: int) -> RawSeries:
    """Drop the first ``n_rows`` rows (plant warm-up / stabilization period)."""
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if n_rows >= series.n_rows:
        raise ValueError(f"cannot trim {n_rows} rows from a {series.n_rows}-row series")
    return RawSeries(
        timestamps=series.timestamps[n_rows:],
        values=series.values[n_rows:],
        column_names=list(series.column_names),
        labels=None if series.labels is None else series.labels[n_rows:],
    )


def fit_normalizer(series: RawSeries) -> NormalizationStats:
    """Fit per-column min/max on (normal) training data."""
    return NormalizationStats(
        col_min=series.values.min(axis=0),
        col_max=series.values.max(axis=0),
    )


def apply_normalizer(series: RawSeries, stats: NormalizationStats) -> RawSeries:
    """Map values through the fitted min-max transform.

    Data the stats were fitted on lands in [0, 1]; unseen data may fall
    outside and is deliberately not clipped.  Constant columns map to 0.
    """
    if stats.col_min.shape[0] != series.n_columns:
        raise ValueError(
            f"stats fitted on {stats.col_min.shape[0]} columns, "
            f"series has {series.n_columns}"
        )
    span = stats.col_max - stats.col_min
    safe_span = np.where(span == 0.0, 1.0, span)
    scaled = (series.values - stats.col_min) / safe_span
    scaled[:, span == 0.0] = 0.0
    return RawSeries(
        timestamps=series.timestamps,
        values=scaled,
        column_names=list(series.column_names),
        labels=series.labels,
    )


def window(series: RawSeries, length: int, shift: int) -> WindowSet:
    """Cut fixed-length windows with the given shift.

    Produces floor((rows - length) / shift) + 1 windows; a trailing remainder
    that does not fill a whole window is dropped.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if shift < 1:
        raise ValueError("shift must be >= 1")
    if length > series.n_rows:
        raise ValueError(
            f"window length {length} exceeds series length {series.n_rows}"
        )
    offsets = range(0, series.n_rows - length + 1, shift)
    windows = np.stack([series.values[o : o + length] for o in offsets])
    labels = None
    if series.labels is not None:
        labels = np.stack([series.labels[o : o + length] for o in offsets])
    return WindowSet(windows=windows, labels=labels)


def downsample_median(window_set: WindowSet, factor: int) -> WindowSet:
    """Replace each ``factor``-row block with its per-column median.

    An even block count uses the arithmetic mean of the two middle values.  A
    downsampled row is labeled anomalous if any row of its block is.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    rows = window_set.window_length
    if rows % factor != 0:
        raise ValueError(f"window length {rows} not divisible by factor {factor}")
    if factor == 1:
        return window_set
    n, _, m = window_set.windows.shape
    out_rows = rows // factor
    blocks = window_set.windows.reshape(n, out_rows, factor, m)
    down = np.median(blocks, axis=2)
    labels = None
    if window_set.labels is not None:
        labels = window_set.labels.reshape(n, out_rows, factor).max(axis=2)
    return WindowSet(windows=down, labels=labels)


def save_window_bundle(
    directory: str | Path,
    window_sets: dict[str, WindowSet],
    manifest_extra: dict | None = None,
) -> Path:
    """Write named WindowSets plus a JSON manifest to ``directory``.

    Arrays land in one ``windows.npz`` as ``<name>_windows`` and, when the set
    has labels, ``<name>_labels``.  ``manifest.json`` holds
    ``manifest_extra`` at its top level and, under ``window_sets``, one entry
    per set with the keys ``count``, ``window_length``, ``columns`` and
    ``has_labels``.  Besides this module, ``bench/stages.py`` and
    ``bench/checks.py`` read the manifest: the per-set ``count`` and the
    top-level ``sequence_length`` and ``columns``.  Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {"window_sets": {}}
    for name, ws in window_sets.items():
        arrays[f"{name}_windows"] = ws.windows
        if ws.labels is not None:
            arrays[f"{name}_labels"] = ws.labels
        count, length, columns = ws.windows.shape
        manifest["window_sets"][name] = {
            "count": count,
            "window_length": length,
            "columns": columns,
            "has_labels": ws.labels is not None,
        }
    if manifest_extra:
        manifest.update(manifest_extra)
    np.savez_compressed(directory / "windows.npz", **arrays)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def load_window_bundle(directory: str | Path) -> tuple[dict[str, WindowSet], dict]:
    """Inverse of :func:`save_window_bundle`.

    Arrays and per-set keys the current writer no longer produces, such as the
    ``<name>_offsets`` arrays and the ``raw_window_length``/``shift`` keys of
    older bundles, are ignored.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    data = np.load(directory / "windows.npz")
    out = {}
    for name, meta in manifest["window_sets"].items():
        out[name] = WindowSet(
            windows=data[f"{name}_windows"],
            labels=data[f"{name}_labels"] if meta["has_labels"] else None,
        )
    return out, manifest
