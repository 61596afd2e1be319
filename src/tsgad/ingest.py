"""Loading, normalizing, downsampling and windowing of raw telemetry.

Every function takes and returns plain numpy arrays:

- a series is ``values``, float64 of shape (rows, columns), one row per
  timestamp and one column per variable (real-valued sensor readings or 0/1
  actuator states), with ``labels`` either ``None`` or an int64 array of
  shape (rows,) holding a 0/1 attack flag per row;
- a window set is ``windows``, float64 of shape (count, length, columns),
  with ``labels`` either ``None`` or int64 of shape (count, length) holding
  a 0/1 flag per window row.  A window set may be a read-only strided view
  of its series, as :func:`window` returns it: a reader takes it as it
  would a contiguous stack, and a writer copies it first.

File I/O happens only in :func:`load_csv`, the two CSV writers and the
bundle helpers.  Every CSV the package writes goes through a writer:
:func:`write_fixed_point_csv` for the plant readings synth writes,
:func:`write_csv` for the rest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ConfigError


def _number(cell: str) -> float:
    """``float(cell)`` for exactly the cells numpy's C parser reads.

    ``float`` also reads digit grouping (``1_000``) and non-ASCII digits;
    the parser that :func:`load_csv` runs refuses both, so this does too.
    """
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not a number: {cell!r}")
    return float(text)


def _is_number(cell: str) -> bool:
    try:
        _number(cell)
        return True
    except ValueError:
        return False


def _epoch_seconds(raw: str, timestamp_format: str) -> float:
    parsed = datetime.strptime(raw.strip(), timestamp_format)
    # a naive time is UTC, not the machine's zone, whose DST jumps would
    # make the order checks of load_csv depend on where it runs
    return (parsed if parsed.tzinfo else parsed.replace(tzinfo=timezone.utc)).timestamp()


def _parse_timestamp(raw: str, timestamp_format: str | None, path: Path, row_num: int) -> float:
    if timestamp_format is not None:
        try:
            return _epoch_seconds(raw, timestamp_format)
        except ValueError as exc:
            raise ConfigError(f"{path}: row {row_num}: bad timestamp {raw!r}: {exc}") from None
    try:
        return _number(raw)
    except ValueError:
        raise ConfigError(
            f"{path}: row {row_num}: non-numeric timestamp {raw!r} "
            "(set timestamp_format for datetime strings)"
        ) from None


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
    file order.  ``label_mapping`` translates raw label cells (e.g.
    ``Normal``/``Attack``) to 0/1; its keys are compared as strings, so the
    YAML mapping ``{0: 0, 1: 1}`` matches a 0/1 label column.
    ``timestamp_format`` is an optional ``strptime`` pattern for non-numeric
    timestamps; a time without a ``%z`` offset is read as UTC.  The
    timestamps are checked, not returned.

    The header goes through ``csv.reader``, so a quoted name may hold a
    comma.  The body is read by one ``np.loadtxt`` call, numpy's C parser:
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
    strings and timestamps that are not strictly increasing.  A missing
    file raises ``FileNotFoundError``.
    """
    path = Path(path)
    mapping = {str(k): v for k, v in (label_mapping or {}).items()}
    with path.open(newline="") as fh:
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
    # take() returns C order, as _scan_body does; table[:, features] would be
    # F-strided, and pca.fit_pca's column sums round by memory layout
    values = table.take(layout.features, axis=1)
    ts = table[:, layout.timestamp]
    if not (np.isfinite(values).all() and np.isfinite(ts).all() and np.all(np.diff(ts) > 0)):
        return None
    labels = None if layout.label is None else table[:, layout.label].astype(np.int64)
    return values, labels


def _scan_body(
    path: Path, layout: _Layout, mapping: dict, timestamp_format: str | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Row-by-row ``csv.reader`` form of :func:`_parse_body` that raises the
    refusal of the first bad row, numbering rows as the file does."""
    header, feature_idx = layout.header, layout.features
    feature_names = [header[i] for i in feature_idx]
    timestamps: list[float] = []
    rows: list[list[float]] = []
    row_nums: list[int] = []
    labels: list[int] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: ragged row {row_num}: expected {len(header)} cells, got {len(row)}"
                )
            timestamps.append(
                _parse_timestamp(row[layout.timestamp], timestamp_format, path, row_num)
            )
            try:
                rows.append([_number(row[i]) for i in feature_idx])
            except ValueError:
                bad = next(i for i in feature_idx if not _is_number(row[i]))
                raise ConfigError(
                    f"{path}: row {row_num}: non-numeric cell {row[bad]!r} "
                    f"in column {header[bad]!r}"
                ) from None
            row_nums.append(row_num)
            if layout.label is not None:
                raw_label = row[layout.label].strip()
                if raw_label not in mapping:
                    raise ConfigError(
                        f"{path}: row {row_num}: label {raw_label!r} not in label_mapping"
                    )
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
        raise ConfigError(f"{path}: row {row_nums[r]}: non-finite timestamp {ts[r]}")
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ConfigError(
            f"{path}: non-monotone timestamps at rows {row_nums[bad]} and "
            f"{row_nums[bad + 1]} ({ts[bad]} -> {ts[bad + 1]})"
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
    with _open_csv(path, header) as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


@contextmanager
def _open_csv(path: str | Path, header: list[str]):
    """Create the parent directory, open ``path`` for text writing and write
    ``header`` through ``csv.writer``; yields the open file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        yield fh


# numbers formatted at once by write_fixed_point_csv: a block holds about 90
# bytes of text and temporaries per number, so a budget in rows would grow
# with the plant's width
FIXED_POINT_BLOCK_CELLS = 12_000


def _fixed_point(values: np.ndarray, decimals: int, prefix: bytes = b"") -> np.ndarray:
    """The text ``prefix`` + ``"%.{decimals}f" % v`` of each of the 1-d float64
    ``values``, as a digit-major ``(width, cells)`` uint8 table: column j
    holds the text of ``values[j]``, right-aligned and padded on the left
    with NUL bytes.  ``decimals`` is 1 to 9, so that the fraction's digits
    fit an int32, and every value is below 2**63 in magnitude, so that its
    integer part fits an int64.

    The digits are ``floor(|v|)`` and ``rint((|v| - floor(|v|)) * 10**decimals)``,
    with the carry into the integer part when the second reaches
    ``10**decimals``; the sign comes from ``signbit``, so ``-0.0`` is
    ``-0.000000`` as with ``%``.  The subtraction is exact; the product
    rounds once, so where printf sees a decimal tie or a near-tie of the
    exact double, the last digit can differ: see
    :func:`tsgad.pipeline.save_scenario_csv` for the values on which the
    text is exactly printf's.
    """
    scale = 10**decimals
    magnitude = np.abs(values)
    whole = np.floor(magnitude)
    # int32 arithmetic runs several times faster than int64 here
    frac = np.rint((magnitude - whole) * scale).astype(np.int32)
    whole = whole.astype(np.int64)
    carry = frac == scale
    whole[carry] += 1
    frac[carry] = 0
    digits = len(str(whole.max())) if len(whole) else 1
    # prefix, sign, integer digits, point, decimals
    point = len(prefix) + 1 + digits
    table = np.zeros((point + 1 + decimals, len(values)), np.uint8)
    if prefix:
        table[: len(prefix)] = np.frombuffer(prefix, np.uint8)[:, None]
    # x // 10 runs as a multiply and shift; x % 10 is a division per cell
    for row in range(point + decimals, point, -1):
        quotient = frac // 10
        table[row] = frac - 10 * quotient + ord("0")
        frac = quotient
    table[point] = ord(".")
    rest = whole
    for row in range(point - 1, point - 1 - digits, -1):
        quotient = rest // 10
        table[row] = rest - 10 * quotient + ord("0")
        if row < point - 1:  # a leading zero stays NUL
            table[row] *= rest > 0
        rest = quotient
    negative = np.flatnonzero(np.signbit(values))
    if len(negative):
        length = 1 + sum(whole[negative] >= 10**k for k in range(1, digits))
        table[point - 1 - length, negative] = ord("-")
    return table


def write_fixed_point_csv(
    path: str | Path,
    header: list[str],
    values: np.ndarray,
    decimals: int,
    labels: np.ndarray,
    label_text: tuple[str, ...],
) -> None:
    """Write ``header`` and then one line per row of the float64 ``values``:
    the row index as ``%.1f``, each reading as ``%.{decimals}f`` and
    ``label_text[labels[row]]``, comma-separated.

    The header goes through ``csv.writer``, as in :func:`write_csv`.  The
    rows are formatted by numpy digit arithmetic, in blocks of about
    :data:`FIXED_POINT_BLOCK_CELLS` numbers, the timestamps counted: each
    block becomes one byte array, with the NUL padding of the digit tables
    dropped by one boolean mask.  ``decimals`` is 1 to 9 and every reading
    is below 2**63 in magnitude; the text is exactly ``%``'s on the values
    :func:`tsgad.pipeline.save_scenario_csv` names.
    """
    with _open_csv(path, header) as fh:
        ends = [f",{text}\n".encode(fh.encoding) for text in label_text]
        end_table = np.zeros((len(ends), max(map(len, ends))), np.uint8)
        for row, end in zip(end_table, ends):
            row[: len(end)] = np.frombuffer(end, np.uint8)
        # the rows go as bytes to the buffer under the text layer, after
        # the header it holds
        fh.flush()
        block_rows = max(1, FIXED_POINT_BLOCK_CELLS // (1 + values.shape[1]))
        for start in range(0, len(values), block_rows):
            block = values[start : start + block_rows]
            stamps = _fixed_point(np.arange(start, start + len(block), dtype=np.float64), 1)
            cells = _fixed_point(block.reshape(-1), decimals, b",")
            lines = np.concatenate(
                [
                    stamps.T,
                    cells.T.reshape(len(block), -1),
                    end_table[labels[start : start + len(block)]],
                ],
                axis=1,
            )
            fh.buffer.write(lines[lines != 0])


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
    # one new matrix: the quotient overwrites the difference
    scaled = values - col_min
    scaled /= safe_span
    scaled[:, span == 0.0] = 0.0
    return scaled


def window(
    values: np.ndarray, labels: np.ndarray | None, length: int, shift: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cut a series into fixed-length windows with the given shift.

    Produces floor((rows - length) / shift) + 1 windows; a trailing remainder
    that does not fill a whole window is dropped.  Window k is
    ``values[k * shift : k * shift + length]``, and its labels the same rows
    of ``labels``.

    Nothing is copied: the windows, and their labels, are read-only strided
    views of the series, which they keep alive.  Overlapping windows
    (``shift < length``) share rows, so the view holds the series once
    however many windows it has; :func:`downsample_median` and
    ``np.savez`` read it as they would a contiguous stack.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if shift < 1:
        raise ValueError("shift must be >= 1")
    if length > len(values):
        raise ValueError(f"window length {length} exceeds series length {len(values)}")
    # (count, columns, length) views, whose last axis steps through the rows
    windows = sliding_window_view(values, length, axis=0)[::shift].transpose(0, 2, 1)
    if labels is not None:
        labels = sliding_window_view(labels, length)[::shift]
    return windows, labels


def downsample_median(
    windows: np.ndarray, labels: np.ndarray | None, factor: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Replace each ``factor``-row block of every window with its per-column median.

    An even block count uses the arithmetic mean of the two middle values.  A
    downsampled row is labeled anomalous if any row of its block is.  With
    ``factor`` 1 the windows and labels are returned as given; otherwise
    both results are new C-contiguous arrays, whatever the layout of the
    windows: the blocks of a :func:`window` view are cut by a reshape that
    stays a view, so the one copy is the one the sort makes.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n, rows, m = windows.shape
    if rows % factor != 0:
        raise ValueError(f"window length {rows} not divisible by factor {factor}")
    if factor == 1:
        return windows, labels
    out_rows = rows // factor
    # the middle of each sorted block, or the halved sum of its middle two,
    # is np.median's value bit for bit, at a third of its time
    blocks = windows.reshape(n, out_rows, factor, m).copy()
    blocks.sort(axis=2)
    mid = factor // 2
    if factor % 2:
        down = blocks[:, :, mid].copy()
    else:
        down = (blocks[:, :, mid - 1] + blocks[:, :, mid]) / 2
    if labels is not None:
        labels = np.ascontiguousarray(labels.reshape(n, out_rows, factor).max(axis=2))
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

    ``windows.npz`` is written uncompressed with ``np.savez``, as
    :func:`tsgad.gan.save_checkpoint` writes checkpoints: on a 51-column
    plant zlib took about 0.1 s of a 0.11 s save to keep the file 8%
    smaller.  Like every artifact it is byte-identical across reruns.
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
    np.savez(directory / "windows.npz", **arrays)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def load_window_bundle(directory: str | Path) -> tuple[dict[str, np.ndarray], dict, str]:
    """Inverse of :func:`save_window_bundle`: ``(arrays, manifest, sha256)``.

    ``arrays`` maps every name ``windows.npz`` stores, ``<set>_windows`` and,
    for a set with labels, ``<set>_labels``, to its array.  ``sha256`` is
    the hex digest of the bytes the arrays were parsed from: the file is
    read once, so a bundle re-ingested meanwhile cannot give the arrays
    another file's digest.  The bytes are dropped on return.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    raw = (directory / "windows.npz").read_bytes()
    with np.load(io.BytesIO(raw)) as data:
        arrays = {k: data[k] for k in data.files}
    return arrays, manifest, hashlib.sha256(raw).hexdigest()
