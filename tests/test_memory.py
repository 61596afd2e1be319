"""Memory the data path holds, counted in plant matrices with tracemalloc.

numpy reports every array buffer it allocates to ``tracemalloc``, so the
traced peak of a stage, divided by the bytes of one float64 plant matrix,
counts the copies of the plant the stage holds at once.  The count needs no
RSS reading, which the allocator's free lists and the imports blur.

Each bound is the multiple measured on the plant below plus a margin of
about half a matrix.  Before synth and ingest kept one copy of each matrix,
synth held 4.1 matrices here and ingest 6.4; one matrix more than today, a
stacked copy of the windows or a temporary of ``normalize`` say, fails.
"""

import tracemalloc

import pytest

from tsgad import pipeline
from tsgad.config import validate_config

ROWS = 6000
# sensor, coupled sensor and actuator, as in the wide-plant workload
GROUPS = 10
WIDTH = 3 * GROUPS
PLANT_BYTES = ROWS * WIDTH * 8

# measured 2.69 and 2.41, synth's with the CSV writer's block of about
# FIXED_POINT_BLOCK_CELLS numbers, 0.3 matrix on this width; one more matrix
# reads 3.4 or more
BOUNDS = {"synth": 2.9, "ingest": 2.9}


def _wide_config(out_dir) -> dict:
    variables = []
    for g in range(GROUPS):
        variables += [
            {"kind": "sine", "period": 60.0 + 7 * g, "phase": 0.3 * g},
            {"kind": "coupled", "source": 3 * g, "gain": 0.8, "delay": 1 + g % 4},
            {"kind": "square", "period": 240.0 + 16 * g},
        ]
    attacks = [
        {"kind": "mean_shift", "target": 0, "start": 1200, "duration": 240, "magnitude": 5.0},
        {"kind": "spike", "target": 4, "start": 3000, "duration": 120, "magnitude": 2.0},
    ]
    return validate_config({
        "paths": {"out_dir": str(out_dir)},
        # non-overlapping training windows, as in the wide-plant workload: the
        # sort of 12-fold overlapping ones would hold 1.6 projected matrices
        # and hide a plant copy
        "ingest": {"train_shift": 120},
        "synth": {
            "enabled": True, "train_duration": ROWS, "test_duration": ROWS,
            "variables": variables, "attacks": attacks,
        },
    })


def _traced_peak(run) -> int:
    """Bytes ``run()`` allocated at its peak beyond what was held before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def plant_multiples(tmp_path_factory):
    """Traced peak of ``run_synth`` and ``run_ingest``, in plant matrices."""
    cfg = _wide_config(tmp_path_factory.mktemp("wide") / "out")
    # the first run imports modules and fills caches that the second reuses
    pipeline.run_synth(cfg)
    pipeline.run_ingest(cfg)
    return {
        "synth": _traced_peak(lambda: pipeline.run_synth(cfg)) / PLANT_BYTES,
        "ingest": _traced_peak(lambda: pipeline.run_ingest(cfg)) / PLANT_BYTES,
    }


@pytest.mark.parametrize("stage", sorted(BOUNDS))
def test_stage_holds_each_plant_matrix_about_once(plant_multiples, stage):
    assert plant_multiples[stage] <= BOUNDS[stage], (
        f"run_{stage} held {plant_multiples[stage]:.2f} plant matrices at its peak"
    )
