"""Synthetic correlated plant telemetry with labeled attack injections.

Scenarios mix sinusoidal sensors, square-wave actuators and coupled sensors
that mirror a source channel with gain and delay.  Attacks overwrite the
observed readings of their target variable only; a configurable switch
propagates them to coupled channels (with the coupling delay) instead, for
indirect-attack experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ATTACK_KINDS = ("mean_shift", "stuck_value", "spike")


@dataclass
class SineSensor:
    period: float
    amplitude: float = 1.0
    phase: float = 0.0
    name: str | None = None


@dataclass
class SquareActuator:
    period: float
    duty_cycle: float = 0.5
    low: float = 0.0
    high: float = 1.0
    name: str | None = None

    def __post_init__(self):
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
    noise_sigma: float | list[float] = 0.0
    attacks: list[AttackSpec] = field(default_factory=list)
    seed: int = 0
    label_coupled: bool = False
    propagate_to_coupled: bool = False

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
        for attack in self.attacks:
            if not 0 <= attack.target < len(self.variables):
                raise ValueError(f"attack target {attack.target} out of range")
            if attack.start + attack.duration > self.duration:
                raise ValueError(
                    f"attack on variable {attack.target} runs past the scenario end"
                )

    @property
    def noise_per_variable(self) -> np.ndarray:
        if np.isscalar(self.noise_sigma):
            return np.full(len(self.variables), float(self.noise_sigma))
        sig = np.asarray(self.noise_sigma, dtype=np.float64)
        if sig.shape != (len(self.variables),):
            raise ValueError("noise_sigma list must match variable count")
        return sig


def _column_name(index: int, var) -> str:
    if var.name:
        return var.name
    kind = {SineSensor: "sine", SquareActuator: "act", CoupledSensor: "coupled"}[type(var)]
    return f"v{index}_{kind}"


def _base_value(var, t: np.ndarray, base_fns: list) -> np.ndarray:
    if isinstance(var, SineSensor):
        return var.amplitude * np.sin(2.0 * np.pi * t / var.period + var.phase)
    if isinstance(var, SquareActuator):
        frac = np.mod(t, var.period) / var.period
        return np.where(frac < var.duty_cycle, var.high, var.low)
    if isinstance(var, CoupledSensor):
        return var.gain * base_fns[var.source](t - var.delay) + var.offset
    raise TypeError(f"unknown variable spec {type(var)!r}")


def _apply_attacks(matrix: np.ndarray, clean: np.ndarray, attacks, targets) -> None:
    for attack in attacks:
        if attack.target not in targets:
            continue
        j = attack.target
        sl = slice(attack.start, attack.start + attack.duration)
        if attack.kind == "mean_shift":
            matrix[sl, j] += attack.magnitude
        elif attack.kind == "spike":
            length = attack.duration
            signs = np.where(np.arange(length) % 2 == 0, 1.0, -1.0)
            matrix[sl, j] += attack.magnitude * signs
        elif attack.kind == "stuck_value":
            matrix[sl, j] = clean[attack.start, j]


def generate_scenario(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Deterministically synthesize the scenario described by ``spec``.

    Returns ``(values, labels, column_names)``: the (duration, variables)
    readings, the int64 0/1 attack flag of each row and one name per variable.
    """
    t = np.arange(spec.duration, dtype=np.float64)
    base_fns = []
    for var in spec.variables:
        # bind loop variable; coupled channels evaluate their source lazily
        base_fns.append(lambda tt, v=var: _base_value(v, np.asarray(tt, dtype=np.float64), base_fns))

    n_vars = len(spec.variables)
    clean = np.column_stack([base_fns[j](t) for j in range(n_vars)])

    signal = clean.copy()
    direct_targets = set(range(n_vars))
    if spec.propagate_to_coupled:
        # attack the sources first, then rebuild coupled channels from the
        # attacked source signal before applying their own direct attacks
        non_coupled = {
            j for j, v in enumerate(spec.variables) if not isinstance(v, CoupledSensor)
        }
        _apply_attacks(signal, clean, spec.attacks, non_coupled)
        for j, var in enumerate(spec.variables):
            if isinstance(var, CoupledSensor):
                shifted = np.empty(spec.duration)
                d = var.delay
                if d > 0:
                    shifted[:d] = base_fns[var.source](t[:d] - d)
                    shifted[d:] = signal[: spec.duration - d, var.source]
                else:
                    shifted[:] = signal[:, var.source]
                signal[:, j] = var.gain * shifted + var.offset
        _apply_attacks(signal, clean, spec.attacks, direct_targets - non_coupled)
    else:
        _apply_attacks(signal, clean, spec.attacks, direct_targets)

    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal((spec.duration, n_vars)) * spec.noise_per_variable
    observed = signal + noise

    # a stuck sensor reports one frozen value, noise included
    for attack in spec.attacks:
        if attack.kind == "stuck_value":
            sl = slice(attack.start, attack.start + attack.duration)
            observed[sl, attack.target] = observed[attack.start, attack.target]

    labels = attack_mask(spec).any(axis=1).astype(np.int64)
    return observed, labels, [_column_name(j, v) for j, v in enumerate(spec.variables)]


def attack_mask(spec: ScenarioSpec) -> np.ndarray:
    """(duration, variables) boolean ground truth of attacked cells.

    Directly attacked intervals are always marked; coupled channels are marked
    after their delay only when ``label_coupled`` is enabled.
    """
    mask = np.zeros((spec.duration, len(spec.variables)), dtype=bool)
    for attack in spec.attacks:
        mask[attack.start : attack.start + attack.duration, attack.target] = True
    if spec.label_coupled:
        for j, var in enumerate(spec.variables):
            if not isinstance(var, CoupledSensor):
                continue
            for attack in spec.attacks:
                if attack.target != var.source:
                    continue
                start = min(attack.start + var.delay, spec.duration)
                end = min(attack.start + var.delay + attack.duration, spec.duration)
                mask[start:end, j] = True
    return mask


def save_scenario_csv(
    values: np.ndarray, labels: np.ndarray, column_names: list[str], path: str | Path
) -> None:
    """Write a scenario in the CSV schema the ingest loader consumes.

    The ``timestamp`` column holds the row index (0.0, 1.0, ...) and the
    ``label`` column ``Attack`` or ``Normal`` from the 0/1 ``labels``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(["timestamp", *column_names, "label"])]
    for i, (row, label) in enumerate(zip(values, labels)):
        cells = [repr(float(i))] + [repr(float(v)) for v in row]
        cells.append("Attack" if label else "Normal")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
