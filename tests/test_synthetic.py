import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tsgad.config import ConfigError, validate_config
from tsgad.ingest import FIXED_POINT_BLOCK_CELLS, load_csv
from tsgad.pipeline import save_scenario_csv
from tsgad.synthetic import DECIMALS, generate_scenario

BASIC_VARIABLES = [
    {"kind": "sine", "period": 40.0},
    {"kind": "square", "period": 50.0, "duty_cycle": 0.4},
    {"kind": "coupled", "source": 0, "gain": 2.0, "delay": 3},
]


def plant(variables=BASIC_VARIABLES, attacks=(), duration=200, noise_sigma=0.0, seed=1):
    """The validated ``synth`` section of a plant: its entries carry the
    defaults of ``config.SCHEMA``, and ``check_scenario`` has passed."""
    cfg = validate_config({"synth": {
        "enabled": True, "test_duration": duration, "noise_sigma": noise_sigma,
        "variables": list(variables), "attacks": list(attacks),
    }})
    return {**cfg["synth"], "seed": seed}


def generate(synth):
    """The attacked run of a validated plant."""
    return generate_scenario(synth["variables"], synth["attacks"], synth["test_duration"],
                             synth["noise_sigma"], synth["seed"])


def scenario(**overrides):
    return generate(plant(**overrides))


def attack(kind, target, start, duration, **fields):
    return {"kind": kind, "target": target, "start": start, "duration": duration, **fields}


class TestGenerateScenario:
    def test_no_attacks_all_labels_zero(self):
        values, labels, names = scenario()
        assert labels.sum() == 0
        assert labels.dtype == np.int64
        assert values.shape == (200, 3)
        assert names == ["v0_sine", "v1_act", "v2_coupled"]

    def test_stuck_value_zeroes_variance(self):
        values, _, _ = scenario(noise_sigma=0.05, attacks=[attack("stuck_value", 0, 50, 40)])
        stuck = values[50:90, 0]
        assert stuck.var() == 0.0
        assert values[90:140, 0].var() > 0.0

    def test_stuck_value_does_not_depend_on_attack_order(self):
        # the shift covers the stuck start row, so the sensor freezes shifted
        shift = attack("mean_shift", 0, 40, 20, magnitude=3.0)
        stuck = attack("stuck_value", 0, 50, 30)
        first, _, _ = scenario(noise_sigma=0.05, attacks=[shift, stuck])
        last, _, _ = scenario(noise_sigma=0.05, attacks=[stuck, shift])
        npt.assert_array_equal(first, last)
        assert np.all(first[50:80, 0] == first[50, 0])

    def test_coupled_column_matches_closed_form(self):
        values, _, _ = scenario()
        t = np.arange(200.0)
        expected = 2.0 * np.sin(2 * np.pi * (t - 3) / 40.0)
        # the reading is the closed form on the DECIMALS grid, exactly
        npt.assert_array_equal(values[:, 2], np.round(expected, DECIMALS))

    def test_square_wave_duty_cycle(self):
        values, _, _ = scenario(duration=500)
        act = values[:, 1]
        assert set(np.unique(act)) == {0.0, 1.0}
        assert act.mean() == pytest.approx(0.4, abs=0.02)

    def test_same_seed_bitwise_identical(self):
        synth = plant(noise_sigma=0.1)
        a, _, _ = generate(synth)
        b, _, _ = generate(synth)
        npt.assert_array_equal(a, b)

    def test_label_coverage_equals_attack_union(self):
        attacks = [
            attack("mean_shift", 0, 20, 10, magnitude=1.0),
            attack("spike", 1, 25, 10, magnitude=2.0),
            attack("stuck_value", 2, 100, 5),
        ]
        _, labels, _ = scenario(attacks=attacks)
        expected = np.zeros(200, dtype=int)
        expected[20:35] = 1
        expected[100:105] = 1
        npt.assert_array_equal(labels, expected)

    def test_mean_shift_moves_interval(self):
        shifted, _, _ = scenario(attacks=[attack("mean_shift", 0, 40, 80, magnitude=5.0)])
        clean, _, _ = scenario()
        npt.assert_allclose(shifted[40:120, 0] - clean[40:120, 0], 5.0)
        npt.assert_allclose(shifted[:40, 0], clean[:40, 0])

    def test_spike_alternates_sign(self):
        spiked, _, _ = scenario(attacks=[attack("spike", 0, 10, 4, magnitude=3.0)])
        diff = spiked[10:14, 0] - scenario()[0][10:14, 0]
        npt.assert_allclose(diff, [3.0, -3.0, 3.0, -3.0])


class TestValidation:
    def test_attack_past_end(self):
        with pytest.raises(ConfigError, match="synth: attack on variable 0 runs past the scenario end"):
            plant(attacks=[attack("spike", 0, 190, 20)])

    def test_bad_target(self):
        with pytest.raises(ConfigError, match="synth: attack target 9 out of range"):
            plant(attacks=[attack("spike", 9, 0, 5)])

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match=r"synth\.attacks\[0\]\.kind: expected one of "
                           r"\['mean_shift', 'spike', 'stuck_value'\], got 'drift'"):
            plant(attacks=[attack("drift", 0, 0, 5)])

    def test_overlapping_stuck_attacks_on_one_variable_rejected(self):
        early = attack("stuck_value", 0, 50, 30)
        late = attack("stuck_value", 0, 60, 30)
        for attacks in ([early, late], [late, early]):
            with pytest.raises(ConfigError, match="synth: stuck_value attacks on variable 0 "
                               "overlap at rows 60-79"):
                plant(attacks=attacks)
        # back to back, or on different variables, the freezes do not interact
        plant(attacks=[early, attack("stuck_value", 0, 80, 10)])
        plant(attacks=[early, attack("stuck_value", 1, 60, 30)])

    def test_coupled_must_reference_earlier_variable(self):
        with pytest.raises(ConfigError, match="synth: variable 0: coupled source must "
                           "reference an earlier variable"):
            plant([{"kind": "coupled", "source": 0}, {"kind": "sine", "period": 5.0}])


def test_csv_roundtrip_through_ingest(tmp_path):
    values, labels, names = scenario(
        noise_sigma=0.1, attacks=[attack("mean_shift", 0, 20, 30, magnitude=2.0)]
    )
    path = tmp_path / "scenario.csv"
    save_scenario_csv(values, labels, names, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,v0_sine,v1_act,v2_coupled,label"
    # the timestamp is the row index
    assert [line.split(",")[0] for line in lines[1:4]] == ["0.0", "1.0", "2.0"]
    # every reading is fixed-point with DECIMALS digits after the point
    cells = [cell for line in lines[1:] for cell in line.split(",")[1:-1]]
    assert all(len(cell.partition(".")[2]) == DECIMALS for cell in cells)
    assert {line.split(",")[-1] for line in lines[1:]} == {"Normal", "Attack"}
    loaded, loaded_labels, loaded_names = load_csv(
        path, "timestamp", "label", {"Normal": 0, "Attack": 1}
    )
    npt.assert_array_equal(loaded, values)
    npt.assert_array_equal(loaded_labels, labels)
    assert loaded_names == names


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


MAGNITUDE = st.floats(-1e9, 1e9)


@st.composite
def plants(draw):
    """Validated plants whose readings stay below 2**33 in magnitude: values
    and magnitudes up to 1e9, coupling gains in [-1, 1], at most three
    couplings and three attacks."""
    duration = draw(st.integers(1, 40))
    period = st.floats(1.0, 100.0)
    variables = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["sine", "square"] + (["coupled"] if i else [])))
        if kind == "sine":
            variables.append({"kind": kind, "period": draw(period), "amplitude": draw(MAGNITUDE),
                              "phase": draw(st.floats(0.0, 7.0))})
        elif kind == "square":
            variables.append({"kind": kind, "period": draw(period),
                              "duty_cycle": draw(st.floats(0.05, 0.95)),
                              "low": draw(MAGNITUDE), "high": draw(MAGNITUDE)})
        else:
            variables.append({"kind": kind, "source": draw(st.integers(0, i - 1)),
                              "gain": draw(st.floats(-1.0, 1.0)),
                              "delay": draw(st.integers(0, 5)), "offset": draw(MAGNITUDE)})
    attacks = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, duration - 1))
        kind = draw(st.sampled_from(["mean_shift", "spike", "stuck_value"]))
        fields = {} if kind == "stuck_value" else {"magnitude": draw(MAGNITUDE)}
        attacks.append(attack(kind, draw(st.integers(0, len(variables) - 1)), start,
                              draw(st.integers(1, duration - start)), **fields))
    try:
        return plant(variables, attacks, duration, draw(st.floats(0.0, 1.0)),
                     draw(st.integers(0, 2**32)))
    except ConfigError:  # overlapping stuck_value attacks on one variable
        assume(False)


@given(plants())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readings_lie_on_the_grid_and_round_trip_bitwise(tmp_path, synth):
    values, labels, names = generate(synth)
    npt.assert_array_equal(_bits(np.round(values, DECIMALS)), _bits(values))
    path = tmp_path / "plant.csv"
    save_scenario_csv(values, labels, names, path)
    loaded, loaded_labels, _ = load_csv(path, "timestamp", "label", {"Normal": 0, "Attack": 1})
    npt.assert_array_equal(_bits(loaded), _bits(values))
    npt.assert_array_equal(loaded_labels, labels)


def test_fixed_point_text_round_trips_above_2_33(tmp_path):
    # beyond 2**33 the doubles are more than 1e-6 apart, so %.6f text is off
    # by less than half their spacing and still reads back as the same double
    rng = np.random.default_rng(5)
    values = rng.uniform(2.0**33, 2.0**45, (50, 3)) * rng.choice([-1.0, 1.0], (50, 3))
    path = tmp_path / "wide.csv"
    save_scenario_csv(values, np.zeros(50, dtype=np.int64), ["a", "b", "c"], path)
    loaded, _, _ = load_csv(path, "timestamp", "label", {"Normal": 0, "Attack": 1})
    npt.assert_array_equal(_bits(loaded), _bits(values))


def _percent_text(values, labels, names):
    """The plant CSV as ``%``-formatting wrote it, one Python float at a time."""
    line = "%.1f," + f"%.{DECIMALS}f," * values.shape[1] + "%s\n"
    rows = zip(values.tolist(), labels.tolist())
    return "timestamp," + ",".join(names) + ",label\n" + "".join(
        line % (i, *row, "Attack" if label else "Normal") for i, (row, label) in enumerate(rows)
    )


# readings on which the digit arithmetic must be exactly %'s: grid values
# below 2**33, any double from 2**33 to below 2**63, -0.0, and off-grid
# carries into the integer part that sit far from a decimal tie
READINGS = st.one_of(
    st.floats(-(2.0**33), 2.0**33).map(lambda x: float(np.round(x, DECIMALS))),
    st.floats(2.0**33, 2.0**63, exclude_max=True),
    st.floats(-(2.0**63), -(2.0**33), exclude_min=True),
    st.sampled_from([0.0, -0.0, 9.9999996, -0.9999999, 99.9999997, -1e-7, 1e17]),
)


def _row_counts(columns: int):
    """Row counts inside which the timestamp gains a digit, at rows 10, 100,
    1000 and 10000, and a block of the CSV writer ends at this width."""
    block = FIXED_POINT_BLOCK_CELLS // (1 + columns)
    return st.one_of(
        st.integers(1, 120),
        st.integers(block - 2, block + 2),
        st.sampled_from([2 * block + 1, 10_001]),
    )


SHAPES = st.integers(1, 4).flatmap(
    lambda columns: st.tuples(_row_counts(columns), st.just(columns))
)


@given(st.lists(READINGS, min_size=1, max_size=12), SHAPES, st.integers(0, 2**32))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plant_csv_is_the_percent_format_text(tmp_path, readings, shape, seed):
    rows, columns = shape
    rng = np.random.default_rng(seed)
    values = np.array(readings)[rng.integers(len(readings), size=(rows, columns))]
    labels = rng.integers(0, 2, rows)
    names = [f"v{j}" for j in range(columns)]
    path = tmp_path / "plant.csv"
    save_scenario_csv(values, labels, names, path)
    assert path.read_bytes() == _percent_text(values, labels, names).encode()


@pytest.mark.parametrize("reading", [2.0**63, -(2.0**63), 1e300, np.inf, -np.inf, np.nan])
def test_readings_beyond_2_63_are_refused(tmp_path, reading):
    # the integer part of the fixed-point text must fit an int64
    values = np.zeros((4, 2))
    values[2, 1] = reading
    path = tmp_path / "plant.csv"
    message = (f"synth: column 'b' reaches {reading!r} at row 2 of {path}; "
               "readings must stay below 2**63 in magnitude")
    with pytest.raises(ConfigError, match=re.escape(message)):
        save_scenario_csv(values, np.zeros(4, dtype=np.int64), ["a", "b"], path)
    assert not path.exists()
    # the largest double below 2**63 is written
    values[2, 1] = np.nextafter(2.0**63, 0.0)
    save_scenario_csv(values, np.zeros(4, dtype=np.int64), ["a", "b"], path)
    assert path.read_text().splitlines()[3] == "2.0,0.000000,9223372036854774784.000000,Normal"
