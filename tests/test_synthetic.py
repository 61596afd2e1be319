import numpy as np
import numpy.testing as npt
import pytest

from tsgad.ingest import load_csv
from tsgad.pipeline import save_scenario_csv
from tsgad.synthetic import (
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
        npt.assert_allclose(values[:, 2], expected, atol=1e-12)

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
    loaded, loaded_labels, loaded_names = load_csv(
        path, "timestamp", "label", {"Normal": 0, "Attack": 1}
    )
    npt.assert_array_equal(loaded, values)
    npt.assert_array_equal(loaded_labels, labels)
    assert loaded_names == names
