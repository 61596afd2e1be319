"""One benchmark repetition in a fresh process.

Runs the user-facing stage sequence ``synth -> ingest -> train -> detect ->
evaluate`` for one workload config in the current directory, then writes a
JSON record of stage times, peak memory, input sizes and, with ``--trace 1``,
the per-layer span summary.  ``bench/run.py`` starts this script once per
repetition; it is not meant to be run by hand, but can be::

    cd some/work/dir
    PYTHONPATH=<checkout>/src python3 <checkout>/bench/stages.py \
        --config <checkout>/bench/workloads/detect-invert.yaml --seed 1 \
        --record record.json --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

STAGES = ("synth", "ingest", "train", "detect", "evaluate")


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict form
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _input_sizes(cfg: dict) -> dict:
    synth, out = cfg["synth"], Path(cfg["paths"]["out_dir"])
    sizes = {
        "train_rows": synth["train_duration"],
        "test_rows": synth["test_duration"],
        "columns": len(synth["variables"]),
        "epochs": cfg["gan"]["epochs"],
        "iterations": cfg["inversion"]["max_iterations"],
        "restarts": cfg["inversion"]["restarts"],
    }
    manifest = out / "bundle" / "manifest.json"
    if manifest.exists():
        bundle = json.loads(manifest.read_text())
        sizes["sequence_length"] = bundle["sequence_length"]
        sizes["windows"] = {k: v["count"] for k, v in bundle["window_sets"].items()}
    return sizes


def _trace_record(tracer) -> dict:
    return {
        "summary": tracer.summary(),
        "inside_inversion": tracer.descendants_of("inversion.invert_many"),
        "invert_s": tracer.durations("inversion.invert"),
    }


def _run_stages(pipeline, cfg: dict, seed: int, record: dict) -> None:
    """Run every stage in order, stopping at the first that raises.

    ``synth`` runs with the workload seed, so the seed picks the plant's
    noise realization; the later stages keep the config's own seed, so the
    model's initialization and inversion starts are the same for every
    workload seed and the spread between seeds reflects the data.
    """
    synth_cfg = {**cfg, "seed": seed}
    for stage in STAGES:
        if stage == "ingest":
            record["ingest_start"] = time.monotonic()
        record["stages_attempted"] += 1
        # looked up per call so a traced run goes through the tracer's wrapper
        run = getattr(pipeline, f"run_{stage}")
        start = time.perf_counter()
        try:
            run(synth_cfg if stage == "synth" else cfg)
        except Exception:  # noqa: BLE001 - a raising stage is a failed operation
            record["failed_stage"] = stage
            record["error"] = traceback.format_exc()
            return
        record["stage_s"][stage] = time.perf_counter() - start
    record["pipeline_end"] = time.monotonic()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed for synth; the other stages use the config's seed")
    parser.add_argument("--record", required=True, help="where to write the JSON record")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, where to dump every span")
    args = parser.parse_args(argv)

    import numpy as np
    import tsgad
    from tsgad import pipeline
    from tsgad.config import load_config
    from tracer import Tracer

    record: dict = {
        "tsgad_file": tsgad.__file__,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_info(np),
        },
        "stage_s": {},
        "stages_attempted": 0,
        "failed_stage": None,
        "error": None,
    }
    cfg = load_config(args.config)

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        _run_stages(pipeline, cfg, args.seed, record)
    if tracer is not None:
        record["tracer_restored"] = not any(
            hasattr(getattr(sys.modules[module], attr), "__wrapped__")
            for module, attr, _, _ in tracer.targets
        )
        record["trace"] = _trace_record(tracer)
        if args.spans:
            tracer.write(args.spans)

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["sizes"] = _input_sizes(cfg)
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
