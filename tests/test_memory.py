"""Memory the data path holds, counted in plant matrices with tracemalloc.

numpy reports every array buffer it allocates to ``tracemalloc``, so the
traced peak of a stage, divided by the bytes of one float64 plant matrix,
counts the copies of the plant the stage holds at once.  The count needs no
RSS reading, which the allocator's free lists and the imports blur.

Each bound is the multiple measured on the plant below plus a margin of
about half a matrix.  Before synth and ingest kept one copy of each matrix,
synth held 4.1 matrices here and ingest 6.4.  Ingest then held 2.52 while it
copied the features out of the parsed table, centred copies of the rows for
the PCA fit and projections and sorted a copy of each whole series for its
block medians; rewriting the parsed table in place and sorting a bounded
group of blocks at a time brought it to 1.66.  One matrix more than today,
a stacked copy of the windows or a temporary of ``normalize`` say, fails.

Training is counted in another unit: the backward cache of its per-epoch
MMD batch of ``mmd_samples`` generated windows, which no backward reads.
A pass that kept it would add most of that cache to training's peak.
"""

import tracemalloc

import numpy as np
import pytest

from tsgad import gan, lstm, pipeline
from tsgad.config import validate_config

ROWS = 6000
# sensor, coupled sensor and actuator, as in the wide-plant workload
GROUPS = 10
WIDTH = 3 * GROUPS
PLANT_BYTES = ROWS * WIDTH * 8

# measured 2.69 and 1.66, synth's with the CSV writer's block of about
# synthetic.FIXED_POINT_BLOCK_CELLS numbers, 0.3 matrix on this width, and
# ingest's with the median's group of about ingest.MEDIAN_BLOCK_CELLS, 0.2
# matrix; one more matrix reads 3.4 or more in synth, and the ingest that
# copied the parsed features read 2.52
BOUNDS = {"synth": 2.9, "ingest": 2.2}


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


def test_training_keeps_no_cache_of_its_mmd_batch():
    windows = np.random.default_rng(0).uniform(-1.0, 1.0, (128, 12, 5))
    gan_section = validate_config({"gan": {"epochs": 1, "batch_size": 16, "g_steps": 1}})["gan"]
    latent = gan_section["latent_dim"]
    gen = gan.build_generator(5, latent, gan_section["gen_depth"], gan_section["gen_hidden"], 0)
    layers, outputs = lstm.forward_batch(gen, np.zeros((128, 12, latent)))[1]
    # a layer's input is the hidden state below it: count each array once
    arrays = {id(a): a for layer in layers for a in layer}
    cache_bytes = outputs.nbytes + sum(a.nbytes for a in arrays.values())
    del layers, outputs, arrays

    def peak(mmd_samples):
        settings = {**gan_section, "mmd_samples": mmd_samples}
        return _traced_peak(lambda: gan.train(settings, windows, 0))

    gan.train(gan_section, windows[:8], 0)  # imports and caches outside the count
    # an MMD batch of 128 windows, 8 minibatches, against one of a minibatch
    added = (peak(128) - peak(16)) / cache_bytes
    # measured 0.35, about one layer's arrays and the next layer's gates;
    # keeping the MMD batch's cache added 0.78
    assert added < 0.55, f"the MMD batch added {added:.2f} of its cache to the peak"
