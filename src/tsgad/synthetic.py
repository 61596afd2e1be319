"""Synthetic correlated plant telemetry with labeled attack injections.

Scenarios mix sinusoidal sensors, square-wave actuators and coupled sensors
that mirror a source channel with gain and delay.  Attacks overwrite the
observed readings of their target variable only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ATTACK_KINDS = ("mean_shift", "stuck_value", "spike")


@dataclass
class SineSensor:
    period: float
    amplitude: float = 1.0
    phase: float = 0.0
    name: str | None = None

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")


@dataclass
class SquareActuator:
    period: float
    duty_cycle: float = 0.5
    low: float = 0.0
    high: float = 1.0
    name: str | None = None

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must lie strictly between 0 and 1")


@dataclass
class CoupledSensor:
    source: int
    gain: float = 1.0
    delay: int = 0
    offset: float = 0.0
    name: str | None = None

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


@dataclass
class AttackSpec:
    kind: str
    target: int
    start: int
    duration: int
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.start < 0 or self.duration < 1:
            raise ValueError("attack interval must satisfy start >= 0, duration >= 1")


@dataclass
class ScenarioSpec:
    duration: int
    variables: list
    noise_sigma: float = 0.0
    attacks: list[AttackSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if not self.variables:
            raise ValueError("need at least one variable")
        for i, var in enumerate(self.variables):
            if isinstance(var, CoupledSensor) and not 0 <= var.source < i:
                raise ValueError(
                    f"variable {i}: coupled source must reference an earlier variable"
                )
        # pipeline.save_scenario_csv writes a timestamp and a label column
        # beside the variables, and per_variable_flags.csv an index column
        names = ["timestamp", "label", "index"]
        names += [_column_name(i, var) for i, var in enumerate(self.variables)]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(
                f"column names {repeated} are used twice; the CSV has its own "
                "timestamp and label columns and per_variable_flags.csv its own "
                "index column"
            )
        for attack in self.attacks:
            if not 0 <= attack.target < len(self.variables):
                raise ValueError(f"attack target {attack.target} out of range")
            if attack.start + attack.duration > self.duration:
                raise ValueError(
                    f"attack on variable {attack.target} runs past the scenario end"
                )
        # a stuck sensor freezes at its start reading, so on rows two stuck
        # attacks share, the one applied last would win
        stuck = sorted(
            (a.target, a.start, a.start + a.duration)
            for a in self.attacks
            if a.kind == "stuck_value"
        )
        for (target, _, end), (other, later, later_end) in zip(stuck, stuck[1:]):
            if other == target and later < end:
                raise ValueError(
                    f"stuck_value attacks on variable {target} overlap at rows "
                    f"{later}-{min(end, later_end) - 1}"
                )


def _column_name(index: int, var) -> str:
    if var.name:
        return var.name
    kind = {SineSensor: "sine", SquareActuator: "act", CoupledSensor: "coupled"}[type(var)]
    return f"v{index}_{kind}"


def _base_value(var, t: np.ndarray, variables: list) -> np.ndarray:
    """Noise-free reading of ``var`` at times ``t``; a coupled sensor reads
    its source at ``t - delay``."""
    if isinstance(var, SineSensor):
        return var.amplitude * np.sin(2.0 * np.pi * t / var.period + var.phase)
    if isinstance(var, SquareActuator):
        frac = np.mod(t, var.period) / var.period
        return np.where(frac < var.duty_cycle, var.high, var.low)
    if isinstance(var, CoupledSensor):
        source = variables[var.source]
        return var.gain * _base_value(source, t - var.delay, variables) + var.offset
    raise TypeError(f"unknown variable spec {type(var)!r}")


def _apply_attacks(matrix: np.ndarray, attacks) -> None:
    """Add the mean-shift and spike attacks; a stuck value is frozen later,
    from the observed reading, by ``generate_scenario``."""
    for attack in attacks:
        j = attack.target
        sl = slice(attack.start, attack.start + attack.duration)
        if attack.kind == "mean_shift":
            matrix[sl, j] += attack.magnitude
        elif attack.kind == "spike":
            length = attack.duration
            signs = np.where(np.arange(length) % 2 == 0, 1.0, -1.0)
            matrix[sl, j] += attack.magnitude * signs


def generate_scenario(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Deterministically synthesize the scenario described by ``spec``.

    Returns ``(values, labels, column_names)``: the (duration, variables)
    readings, the int64 0/1 label of each row (1 inside any attack interval)
    and one name per variable.
    """
    t = np.arange(spec.duration, dtype=np.float64)
    n_vars = len(spec.variables)
    signal = np.column_stack([_base_value(v, t, spec.variables) for v in spec.variables])
    _apply_attacks(signal, spec.attacks)

    rng = np.random.default_rng(spec.seed)
    observed = signal + rng.standard_normal((spec.duration, n_vars)) * spec.noise_sigma

    labels = np.zeros(spec.duration, dtype=np.int64)
    for attack in spec.attacks:
        sl = slice(attack.start, attack.start + attack.duration)
        # a stuck sensor reports its observed start reading, noise and the
        # other attacks included
        if attack.kind == "stuck_value":
            observed[sl, attack.target] = observed[attack.start, attack.target]
        labels[sl] = 1

    return observed, labels, [_column_name(j, v) for j, v in enumerate(spec.variables)]

