"""Synthetic correlated plant telemetry with labeled attack injections.

Scenarios mix sinusoidal sensors, square-wave actuators and coupled sensors
that mirror a source channel with gain and delay.  Attacks overwrite the
observed readings of their target variable only.

Variables and attacks are the validated entries of ``synth.variables`` and
``synth.attacks``: plain dicts tagged with a ``kind``, whose fields and
defaults :data:`tsgad.config.SCHEMA` holds.  :func:`check_scenario` adds the
checks that span entries.

:func:`save_scenario_csv` writes a generated stream as the plant CSV that
``tsgad synth`` leaves for ingest: fixed-point readings on the
:data:`DECIMALS` grid and ``Normal``/``Attack`` labels, the text format of a
plant historian's log.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# a plant historian records readings at a fixed resolution: every reading is
# rounded to this many decimals, 1e-6 against the bench plants' noise of 0.02
DECIMALS = 6


def check_scenario(variables: list[dict], attacks: list[dict], duration: int) -> None:
    """Refuse, with a ``ValueError``, what no single entry's schema can see:
    no variable, a coupled source that is not an earlier variable, a column
    name used twice, an attack target out of range, an attack that runs past
    ``duration`` and two overlapping stuck attacks on one variable."""
    if not variables:
        raise ValueError("at least one variable is required")
    for i, var in enumerate(variables):
        if var["kind"] == "coupled" and not 0 <= var["source"] < i:
            raise ValueError(f"variable {i}: coupled source must reference an earlier variable")
    # save_scenario_csv writes a timestamp and a label column beside the
    # variables, and per_variable_flags.csv an index column
    names = ["timestamp", "label", "index"]
    names += [_column_name(i, var) for i, var in enumerate(variables)]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(
            f"column names {repeated} are used twice; the CSV has its own "
            "timestamp and label columns and per_variable_flags.csv its own "
            "index column"
        )
    for attack in attacks:
        if not 0 <= attack["target"] < len(variables):
            raise ValueError(f"attack target {attack['target']} out of range")
        if attack["start"] + attack["duration"] > duration:
            raise ValueError(
                f"attack on variable {attack['target']} runs past the scenario end"
            )
    # a stuck sensor freezes at its start reading, so on rows two stuck
    # attacks share, the one applied last would win
    stuck = sorted(
        (a["target"], a["start"], a["start"] + a["duration"])
        for a in attacks
        if a["kind"] == "stuck_value"
    )
    for (target, _, end), (other, later, later_end) in zip(stuck, stuck[1:]):
        if other == target and later < end:
            raise ValueError(
                f"stuck_value attacks on variable {target} overlap at rows "
                f"{later}-{min(end, later_end) - 1}"
            )


def _column_name(index: int, var: dict) -> str:
    kind = "act" if var["kind"] == "square" else var["kind"]
    return var["name"] or f"v{index}_{kind}"


def _base_value(var: dict, t: np.ndarray, variables: list[dict]) -> np.ndarray:
    """Noise-free reading of ``var`` at times ``t``; a coupled sensor reads
    its source at ``t - delay``."""
    kind = var["kind"]
    if kind == "sine":
        return var["amplitude"] * np.sin(2.0 * np.pi * t / var["period"] + var["phase"])
    if kind == "square":
        frac = np.mod(t, var["period"]) / var["period"]
        return np.where(frac < var["duty_cycle"], var["high"], var["low"])
    if kind == "coupled":
        source = variables[var["source"]]
        return var["gain"] * _base_value(source, t - var["delay"], variables) + var["offset"]
    raise ValueError(f"unknown variable kind {kind!r}")


def _apply_attacks(column: np.ndarray, attacks) -> None:
    """Add the mean-shift and spike attacks, all on the variable whose
    readings ``column`` holds; a stuck value is frozen later, from the
    observed reading, by ``generate_scenario``."""
    for attack in attacks:
        sl = slice(attack["start"], attack["start"] + attack["duration"])
        if attack["kind"] == "mean_shift":
            column[sl] += attack["magnitude"]
        elif attack["kind"] == "spike":
            signs = np.where(np.arange(attack["duration"]) % 2 == 0, 1.0, -1.0)
            column[sl] += attack["magnitude"] * signs


def generate_scenario(
    variables: list[dict], attacks: list[dict], duration: int, noise_sigma: float, seed: int
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Deterministically synthesize ``duration`` rows of the plant: the
    variables' readings plus Gaussian noise of ``noise_sigma`` drawn from
    ``seed``, with ``attacks`` applied.  The entries must have passed
    :func:`tsgad.config.validate_config`, which fills their defaults and runs
    :func:`check_scenario`.

    Returns ``(values, labels, column_names)``: the (duration, variables)
    readings, the int64 0/1 label of each row (1 inside any attack interval)
    and one name per variable.

    Every reading lies on the ``DECIMALS`` grid: the noisy, attacked signal
    is rounded with ``np.round(observed, DECIMALS)``, which moves a reading
    by at most 5e-7 plus one spacing of the doubles around it (2e-15 below
    10), before a stuck sensor freezes, so a frozen reading is a grid value
    too.  :func:`save_scenario_csv` writes these values as fixed-point text
    that reads back bit for bit.
    """
    t = np.arange(duration, dtype=np.float64)
    rng = np.random.default_rng(seed)
    observed = rng.standard_normal((duration, len(variables)))
    observed *= noise_sigma
    # the attacked signal is added one column at a time, so the plant is
    # held once; IEEE addition commutes, so noise + signal is signal + noise
    for j, var in enumerate(variables):
        signal = _base_value(var, t, variables)
        _apply_attacks(signal, [a for a in attacks if a["target"] == j])
        observed[:, j] += signal
    np.round(observed, DECIMALS, out=observed)

    labels = np.zeros(duration, dtype=np.int64)
    for attack in attacks:
        sl = slice(attack["start"], attack["start"] + attack["duration"])
        # a stuck sensor reports its observed start reading, noise and the
        # other attacks included
        if attack["kind"] == "stuck_value":
            observed[sl, attack["target"]] = observed[attack["start"], attack["target"]]
        labels[sl] = 1

    return observed, labels, [_column_name(j, v) for j, v in enumerate(variables)]


def check_readings(values: np.ndarray, column_names: list[str], path: str | Path) -> None:
    """Refuse, with a ``ValueError`` naming its column, a reading of
    ``values``, bound for ``path``, that is 2**63 or more in magnitude or not
    finite: the integer part of its fixed-point text would not fit an int64."""
    # min and max allocate nothing, and a nan fails both comparisons
    if not values.size or (-(2.0**63) < values.min() and values.max() < 2.0**63):
        return
    row, column = np.argwhere(~(np.abs(values) < 2.0**63))[0]
    raise ValueError(
        f"column {column_names[column]!r} reaches {float(values[row, column])!r} at "
        f"row {row} of {path}; readings must stay below 2**63 in magnitude"
    )


# numbers formatted at once by save_scenario_csv: a block holds about 90
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
    exact double, the last digit can differ: see :func:`save_scenario_csv`
    for the values on which the text is exactly printf's.
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


# the text after the readings of a row, by its 0/1 label; both are 8 bytes
_LINE_ENDS = np.frombuffer(b",Normal\n,Attack\n", np.uint8).reshape(2, -1)


def save_scenario_csv(
    values: np.ndarray, labels: np.ndarray, column_names: list[str], path: str | Path
) -> None:
    """Write a scenario in the CSV schema the ingest loader consumes.

    ``values`` is the float64 array of :func:`generate_scenario`.  The header
    is ``timestamp``, ``column_names`` and ``label``, through ``csv.writer``,
    so a name with a comma or a quote is quoted.  The ``timestamp`` column
    holds the row index as ``%.1f`` (0.0, 1.0, ...) and the ``label`` column
    ``Attack`` or ``Normal`` from the 0/1 ``labels``.

    Each reading is written as fixed-point text with :data:`DECIMALS` digits
    after the point, the text of ``%.6f``, by numpy digit arithmetic on
    blocks of about :data:`FIXED_POINT_BLOCK_CELLS` numbers, the timestamps
    counted, not one ``%`` per cell: each block becomes one byte array, with
    the NUL padding of the digit tables dropped by one boolean mask.  The
    text is byte for byte ``%.6f``'s on every reading ``generate_scenario``
    can emit: a value on the grid, and any double of magnitude from 2**33 to
    below 2**63, whose fraction times 1e6 is exact.  A double below 2**33
    off the grid can differ in its last digit at a decimal near-tie:
    ``0.0000025`` is written ``0.000002``, where ``%.6f`` writes
    ``0.000003``; no stage writes such a value.

    For a reading on the grid :func:`~tsgad.ingest.load_csv` returns the
    same double bit for bit: below 2**33 the text is the grid value the
    double is nearest to, and above it the text is off by at most 5e-7,
    less than half the spacing of the doubles there.  The text is half the
    size of the shortest round-trip text of a noisy reading, and faster to
    write and to parse.

    A reading that :func:`check_readings` refuses raises its ``ValueError``
    before the file is opened.
    """
    check_readings(values, column_names, path)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["timestamp", *column_names, "label"])
        # the rows go as bytes to the buffer under the text layer, after
        # the header it holds
        fh.flush()
        block_rows = max(1, FIXED_POINT_BLOCK_CELLS // (1 + values.shape[1]))
        for start in range(0, len(values), block_rows):
            block = values[start : start + block_rows]
            stamps = _fixed_point(np.arange(start, start + len(block), dtype=np.float64), 1)
            cells = _fixed_point(block.reshape(-1), DECIMALS, b",")
            lines = np.concatenate(
                [
                    stamps.T,
                    cells.T.reshape(len(block), -1),
                    _LINE_ENDS[labels[start : start + len(block)]],
                ],
                axis=1,
            )
            fh.buffer.write(lines[lines != 0])
