"""Synthetic correlated plant telemetry with labeled attack injections.

Scenarios mix sinusoidal sensors, square-wave actuators and coupled sensors
that mirror a source channel with gain and delay.  Attacks overwrite the
observed readings of their target variable only.

Variables and attacks are the validated entries of ``synth.variables`` and
``synth.attacks``: plain dicts tagged with a ``kind``, whose fields and
defaults :data:`tsgad.config.SCHEMA` holds.  :func:`check_scenario` adds the
checks that span entries.
"""

from __future__ import annotations

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
    # pipeline.save_scenario_csv writes a timestamp and a label column
    # beside the variables, and per_variable_flags.csv an index column
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
    too.  :func:`tsgad.pipeline.save_scenario_csv` writes these values
    as fixed-point text that reads back bit for bit.
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

