import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tsgad.ingest import load_csv
from tsgad.pipeline import save_scenario_csv
from tsgad.synthetic import (
    DECIMALS,
    AttackSpec,
    CoupledSensor,
    ScenarioSpec,
    SineSensor,
    SquareActuator,
    generate_scenario,
)


def basic_spec(**overrides):
    base = dict(
        duration=200,
        variables=[
            SineSensor(period=40.0),
            SquareActuator(period=50.0, duty_cycle=0.4),
            CoupledSensor(source=0, gain=2.0, delay=3),
        ],
        noise_sigma=0.0,
        attacks=[],
        seed=1,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGenerateScenario:
    def test_no_attacks_all_labels_zero(self):
        values, labels, names = generate_scenario(basic_spec())
        assert labels.sum() == 0
        assert labels.dtype == np.int64
        assert values.shape == (200, 3)
        assert names == ["v0_sine", "v1_act", "v2_coupled"]

    def test_stuck_value_zeroes_variance(self):
        spec = basic_spec(
            noise_sigma=0.05,
            attacks=[AttackSpec("stuck_value", target=0, start=50, duration=40)],
        )
        values, _, _ = generate_scenario(spec)
        stuck = values[50:90, 0]
        assert stuck.var() == 0.0
        assert values[90:140, 0].var() > 0.0

    def test_stuck_value_does_not_depend_on_attack_order(self):
        # the shift covers the stuck start row, so the sensor freezes shifted
        shift = AttackSpec("mean_shift", target=0, start=40, duration=20, magnitude=3.0)
        stuck = AttackSpec("stuck_value", target=0, start=50, duration=30)
        first, _, _ = generate_scenario(basic_spec(noise_sigma=0.05, attacks=[shift, stuck]))
        last, _, _ = generate_scenario(basic_spec(noise_sigma=0.05, attacks=[stuck, shift]))
        npt.assert_array_equal(first, last)
        assert np.all(first[50:80, 0] == first[50, 0])

    def test_coupled_column_matches_closed_form(self):
        spec = basic_spec()
        values, _, _ = generate_scenario(spec)
        t = np.arange(200.0)
        expected = 2.0 * np.sin(2 * np.pi * (t - 3) / 40.0)
        # the reading is the closed form on the DECIMALS grid, exactly
        npt.assert_array_equal(values[:, 2], np.round(expected, DECIMALS))

    def test_square_wave_duty_cycle(self):
        values, _, _ = generate_scenario(basic_spec(duration=500))
        act = values[:, 1]
        assert set(np.unique(act)) == {0.0, 1.0}
        assert act.mean() == pytest.approx(0.4, abs=0.02)

    def test_same_seed_bitwise_identical(self):
        spec = basic_spec(noise_sigma=0.1)
        a, _, _ = generate_scenario(spec)
        b, _, _ = generate_scenario(spec)
        npt.assert_array_equal(a, b)

    def test_label_coverage_equals_attack_union(self):
        attacks = [
            AttackSpec("mean_shift", target=0, start=20, duration=10, magnitude=1.0),
            AttackSpec("spike", target=1, start=25, duration=10, magnitude=2.0),
            AttackSpec("stuck_value", target=2, start=100, duration=5),
        ]
        _, labels, _ = generate_scenario(basic_spec(attacks=attacks))
        expected = np.zeros(200, dtype=int)
        expected[20:35] = 1
        expected[100:105] = 1
        npt.assert_array_equal(labels, expected)

    def test_mean_shift_moves_interval(self):
        spec = basic_spec(
            attacks=[AttackSpec("mean_shift", target=0, start=40, duration=80, magnitude=5.0)]
        )
        shifted, _, _ = generate_scenario(spec)
        clean, _, _ = generate_scenario(basic_spec())
        npt.assert_allclose(shifted[40:120, 0] - clean[40:120, 0], 5.0)
        npt.assert_allclose(shifted[:40, 0], clean[:40, 0])

    def test_spike_alternates_sign(self):
        spec = basic_spec(
            attacks=[AttackSpec("spike", target=0, start=10, duration=4, magnitude=3.0)]
        )
        diff = generate_scenario(spec)[0][10:14, 0] - generate_scenario(basic_spec())[0][10:14, 0]
        npt.assert_allclose(diff, [3.0, -3.0, 3.0, -3.0])


class TestValidation:
    def test_attack_past_end(self):
        with pytest.raises(ValueError, match="past the scenario end"):
            basic_spec(attacks=[AttackSpec("spike", target=0, start=190, duration=20)])

    def test_bad_target(self):
        with pytest.raises(ValueError, match="out of range"):
            basic_spec(attacks=[AttackSpec("spike", target=9, start=0, duration=5)])

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown attack kind"):
            AttackSpec("drift", target=0, start=0, duration=5)

    def test_overlapping_stuck_attacks_on_one_variable_rejected(self):
        early = AttackSpec("stuck_value", target=0, start=50, duration=30)
        late = AttackSpec("stuck_value", target=0, start=60, duration=30)
        for attacks in ([early, late], [late, early]):
            with pytest.raises(ValueError, match="variable 0 overlap at rows 60-79"):
                basic_spec(attacks=attacks)
        # back to back, or on different variables, the freezes do not interact
        basic_spec(attacks=[early, AttackSpec("stuck_value", target=0, start=80, duration=10)])
        basic_spec(attacks=[early, AttackSpec("stuck_value", target=1, start=60, duration=30)])

    def test_coupled_must_reference_earlier_variable(self):
        with pytest.raises(ValueError, match="earlier variable"):
            ScenarioSpec(
                duration=10,
                variables=[CoupledSensor(source=0), SineSensor(period=5.0)],
            )


def test_csv_roundtrip_through_ingest(tmp_path):
    spec = basic_spec(
        noise_sigma=0.1,
        attacks=[AttackSpec("mean_shift", target=0, start=20, duration=30, magnitude=2.0)],
    )
    values, labels, names = generate_scenario(spec)
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
def scenario_specs(draw):
    """Plants whose readings stay below 2**33 in magnitude: values and
    magnitudes up to 1e9, coupling gains in [-1, 1], at most three couplings
    and three attacks."""
    duration = draw(st.integers(1, 40))
    period = st.floats(1.0, 100.0)
    variables = []
    for i in range(draw(st.integers(1, 4))):
        kinds = ["sine", "square"] + (["coupled"] if i else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "sine":
            variables.append(SineSensor(draw(period), draw(MAGNITUDE), draw(st.floats(0.0, 7.0))))
        elif kind == "square":
            variables.append(SquareActuator(
                draw(period), draw(st.floats(0.05, 0.95)), draw(MAGNITUDE), draw(MAGNITUDE)
            ))
        else:
            variables.append(CoupledSensor(
                draw(st.integers(0, i - 1)), draw(st.floats(-1.0, 1.0)),
                draw(st.integers(0, 5)), draw(MAGNITUDE),
            ))
    attacks = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, duration - 1))
        attacks.append(AttackSpec(
            draw(st.sampled_from(["mean_shift", "spike", "stuck_value"])),
            draw(st.integers(0, len(variables) - 1)),
            start,
            draw(st.integers(1, duration - start)),
            draw(MAGNITUDE),
        ))
    try:
        return ScenarioSpec(duration, variables, draw(st.floats(0.0, 1.0)), attacks,
                            draw(st.integers(0, 2**32)))
    except ValueError:  # overlapping stuck_value attacks on one variable
        assume(False)


@given(scenario_specs())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readings_lie_on_the_grid_and_round_trip_bitwise(tmp_path, spec):
    values, labels, names = generate_scenario(spec)
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
