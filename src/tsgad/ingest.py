"""Loading, normalizing, downsampling and windowing of raw telemetry.

Every function takes and returns plain numpy arrays:

- a series is ``values``, float64 of shape (rows, columns), one row per
  timestamp and one column per variable (real-valued sensor readings or 0/1
  actuator states), with ``labels`` either ``None`` or an int64 array of
  shape (rows,) holding a 0/1 attack flag per row;
- a window set is ``windows``, float64 of shape (count, length, columns),
  with ``labels`` either ``None`` or int64 of shape (count, length) holding
  a 0/1 flag per window row.

File I/O happens only in :func:`load_csv` and the bundle helpers.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime
from pathlib import Path

import numpy as np


def _parse_timestamp(raw: str, timestamp_format: str | None, row_num: int) -> float:
    text = raw.strip()
    if timestamp_format is not None:
        try:
            return datetime.strptime(text, timestamp_format).timestamp()
        except ValueError as exc:
            raise ValueError(f"row {row_num}: bad timestamp {raw!r}: {exc}") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"row {row_num}: non-numeric timestamp {raw!r} "
            "(set timestamp_format for datetime strings)"
        ) from None


def load_csv(
    path: str | Path,
    timestamp_column: str,
    label_column: str | None = None,
    label_mapping: dict | None = None,
    timestamp_format: str | None = None,
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Parse a headered CSV file into ``(values, labels, feature_names)``.

    Every column that is neither the timestamp nor the label is a feature, in
    file order.  ``label_mapping`` translates raw label cells (e.g.
    ``Normal``/``Attack``) to 0/1; its keys are compared as strings, so the
    YAML mapping ``{0: 0, 1: 1}`` matches a 0/1 label column.
    ``timestamp_format`` is an optional ``strptime`` pattern for non-numeric
    timestamps.  The timestamps are checked, not returned.

    Rejects ragged rows, non-numeric feature cells, unmapped label strings and
    timestamps that are not strictly increasing.
    """
    path = Path(path)
    mapping = {str(k): v for k, v in (label_mapping or {}).items()}

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None

        col_index = {name: i for i, name in enumerate(header)}
        for name in [timestamp_column] + ([label_column] if label_column else []):
            if name not in col_index:
                raise ValueError(f"{path}: schema column {name!r} not in header {header}")
        skip = {timestamp_column, label_column}
        feature_names = [h for h in header if h not in skip]
        if not feature_names:
            raise ValueError(f"{path}: no feature columns")
        feature_idx = [col_index[c] for c in feature_names]
        ts_idx = col_index[timestamp_column]
        label_idx = col_index[label_column] if label_column else None

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
            timestamps.append(_parse_timestamp(row[ts_idx], timestamp_format, row_num))
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
                if raw_label not in mapping:
                    raise ValueError(
                        f"{path}: row {row_num}: label {raw_label!r} not in label_mapping"
                    )
                labels.append(mapping[raw_label])

    if not rows:
        raise ValueError(f"{path}: no data rows")
    ts = np.asarray(timestamps, dtype=np.float64)
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ValueError(
            f"{path}: non-monotone timestamps at data row {bad + 2} "
            f"({ts[bad]} -> {ts[bad + 1]})"
        )
    return (
        np.asarray(rows, dtype=np.float64),
        np.asarray(labels, dtype=np.int64) if label_idx is not None else None,
        feature_names,
    )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def normalize(values: np.ndarray, col_min: np.ndarray, col_max: np.ndarray) -> np.ndarray:
    """Map values through the min-max transform with the given column bounds.

    Data the bounds were taken from lands in [0, 1]; unseen data may fall
    outside and is deliberately not clipped.  Constant columns map to 0.
    """
    if col_min.shape[0] != values.shape[1]:
        raise ValueError(
            f"bounds fitted on {col_min.shape[0]} columns, values have {values.shape[1]}"
        )
    span = col_max - col_min
    safe_span = np.where(span == 0.0, 1.0, span)
    scaled = (values - col_min) / safe_span
    scaled[:, span == 0.0] = 0.0
    return scaled


def window(
    values: np.ndarray, labels: np.ndarray | None, length: int, shift: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cut a series into fixed-length windows with the given shift.

    Produces floor((rows - length) / shift) + 1 windows; a trailing remainder
    that does not fill a whole window is dropped.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if shift < 1:
        raise ValueError("shift must be >= 1")
    if length > len(values):
        raise ValueError(f"window length {length} exceeds series length {len(values)}")
    offsets = range(0, len(values) - length + 1, shift)
    windows = np.stack([values[o : o + length] for o in offsets])
    if labels is not None:
        labels = np.stack([labels[o : o + length] for o in offsets])
    return windows, labels


def downsample_median(
    windows: np.ndarray, labels: np.ndarray | None, factor: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Replace each ``factor``-row block of every window with its per-column median.

    An even block count uses the arithmetic mean of the two middle values.  A
    downsampled row is labeled anomalous if any row of its block is.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n, rows, m = windows.shape
    if rows % factor != 0:
        raise ValueError(f"window length {rows} not divisible by factor {factor}")
    if factor == 1:
        return windows, labels
    out_rows = rows // factor
    down = np.median(windows.reshape(n, out_rows, factor, m), axis=2)
    if labels is not None:
        labels = labels.reshape(n, out_rows, factor).max(axis=2)
    return down, labels


def save_window_bundle(
    directory: str | Path,
    window_sets: dict[str, tuple[np.ndarray, np.ndarray | None]],
    manifest_extra: dict | None = None,
) -> Path:
    """Write named ``(windows, labels)`` pairs plus a JSON manifest to ``directory``.

    Arrays land in one ``windows.npz`` as ``<set>_windows`` and, when the set
    has labels, ``<set>_labels``; :func:`load_window_bundle` returns them
    under the same names.  ``manifest.json`` holds ``manifest_extra`` at its
    top level and, under ``window_sets``, one entry per set with the keys
    ``count``, ``window_length``, ``columns`` and ``has_labels``.  Besides
    this module, ``bench/stages.py`` and ``bench/checks.py`` read the
    manifest: the per-set ``count`` and the top-level ``sequence_length`` and
    ``columns``.  Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {"window_sets": {}}
    for name, (windows, labels) in window_sets.items():
        arrays[f"{name}_windows"] = windows
        if labels is not None:
            arrays[f"{name}_labels"] = labels
        count, length, columns = windows.shape
        manifest["window_sets"][name] = {
            "count": count,
            "window_length": length,
            "columns": columns,
            "has_labels": labels is not None,
        }
    if manifest_extra:
        manifest.update(manifest_extra)
    np.savez_compressed(directory / "windows.npz", **arrays)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def load_window_bundle(directory: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_window_bundle`: ``(arrays, manifest)``.

    ``arrays`` maps the names ``windows.npz`` stores, ``<set>_windows`` and,
    for a set with labels, ``<set>_labels``, to their arrays.  The
    ``<set>_offsets`` arrays and the per-set ``raw_window_length``/``shift``
    manifest keys of older bundles are ignored.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    with np.load(directory / "windows.npz") as data:
        arrays = {k: data[k] for k in data.files if k.endswith(("_windows", "_labels"))}
    return arrays, manifest
