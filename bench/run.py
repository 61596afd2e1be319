"""Benchmark of ``tsgad all`` on pinned synthetic workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload detect-invert --seed 1 --seconds 30 --trace 0

Each repetition is a fresh ``python3 bench/stages.py`` process that runs
``synth`` (set-up) and then ``ingest -> train -> detect -> evaluate`` on the
workload's config from ``bench/workloads``, with the seed given here.  The
command repeats until ``--seconds`` are spent (at least three times; two pairs
when traced), checks
every repetition's outputs and prints each metric by name and unit, the
environment, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  ``attempted`` counts pipeline stages
started and ``failed`` the stages that raised.  See ``bench/README.md`` for
why each workload exists and which layer metric moves which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("detect-invert", "train-bptt", "wide-plant")
MIN_REPS = 3
# a traced run repeats untraced + traced pairs; two pairs keep it near --seconds
MIN_TRACED_PAIRS = 2
# a run must end within 180 s; stop starting repetitions well before that
RUN_LIMIT_S = 120.0
# OpenBLAS threading moves train time by ~10%, so pin it and record it
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "f1_gan_ad": "ratio",
    "f1_spe": "ratio",
    "f1_cusum_best": "ratio",
    "inversion_error_median": "1-similarity",
}

# spans whose summed duration is reported as the per-layer metric "<span>.s"
_TIMED = [
    "pipeline.run_synth", "pipeline.run_ingest", "pipeline.run_train",
    "pipeline.run_detect", "pipeline.run_evaluate",
    "inversion.invert_many",
    "lstm.forward_batch", "lstm.backward_batch", "lstm.optimizer_step", "lstm.clip_gradients",
    "gan.train", "gan.discriminator_grads", "gan.generator_grads", "gan.mmd_unbiased",
    "ingest.load_csv", "ingest.window", "ingest.downsample_median",
    "ingest.save_window_bundle", "ingest.load_window_bundle",
    "pca.fit_pca", "pca.project", "pca.spe",
    "baselines.cusum_statistic", "baselines.cusum_detect", "baselines.spe_detect",
    "scoring.anomaly_score", "scoring.per_variable_labels",
    "synthetic.generate_scenario", "synthetic.save_scenario_csv",
    "svgplot.write_line_chart",
]
_COUNTED = ["lstm.forward_batch", "lstm.backward_batch",
            "gan.discriminator_grads", "gan.generator_grads"]

PER_LAYER = {
    **{f"{name}.s": "s" for name in _TIMED},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "pipeline.run_detect.self_s": "s",
    "inversion.invert_many.windows_per_s": "1/s",
    "inversion.invert.p50_ms": "ms",
    "inversion.invert.tail_ms": "ms",
    "inversion.invert.tail_pct": "%",
    "inversion.invert.windows": "count",
    "inversion.iterations_mean": "count",
    "inversion.steps_per_forward": "ratio",
    "lstm.forward_batch.mean_batch": "count",
    "lstm.backward_batch.mean_batch": "count",
    "gan.train.ms_per_window_epoch": "ms",
    "ingest.load_csv.rows_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_rep(config: Path, seed: int, rep_dir: Path, trace: bool, timeout: float,
             spans: Path | None = None) -> dict:
    """One fresh-process repetition; returns its record plus checks."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    record_path = rep_dir / "record.json"
    cmd = [sys.executable, str(BENCH / "stages.py"), "--config", str(config),
           "--seed", str(seed), "--record", str(record_path), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=rep_dir, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"stages_attempted": 1, "failed_stage": "timeout",
                "problems": [f"repetition exceeded {timeout:.0f} s"]}
    if proc.returncode != 0 or not record_path.is_file():
        return {"stages_attempted": 1, "failed_stage": "process",
                "problems": [f"stages.py exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    record = json.loads(record_path.read_text())
    record["problems"] = []
    if not Path(record["tsgad_file"]).resolve().is_relative_to(SRC):
        record["problems"].append(f"tsgad imported from {record['tsgad_file']}, not {SRC}")
    if record["failed_stage"]:
        record["problems"].append(f"stage {record['failed_stage']} raised:\n{record['error']}")
        return record
    if trace and not record["tracer_restored"]:
        record["problems"].append("tracer left tsgad functions patched")
    record["setup_s"] = record["ingest_start"] - spawned
    record["pipeline_s"] = record["pipeline_end"] - record["ingest_start"]
    sizes = record["sizes"]
    problems, record["quality"], record["hashes"] = check_outputs(
        rep_dir / "out", sizes["epochs"], sizes["iterations"])
    record["problems"] += problems
    return record


def _tail(durations: list[float]) -> tuple[int, float]:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(durations)
    pct = max([p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100.0 >= 10], default=50)
    if n < 2:
        return pct, durations[0]
    return pct, statistics.quantiles(durations, n=100, method="inclusive")[pct - 1]


def _layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    summary = rep["trace"]["summary"]
    sizes = rep["sizes"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0}
    span = {name: summary.get(name, empty) for name in _TIMED}
    out = {f"{name}.s": span[name]["s"] for name in _TIMED}
    out.update({f"{name}.calls": span[name]["calls"] for name in _COUNTED})
    out["pipeline.run_detect.self_s"] = span["pipeline.run_detect"]["self_s"]
    inv = span["inversion.invert_many"]
    out["inversion.invert_many.windows_per_s"] = inv["size"] / inv["s"] if inv["s"] else 0.0
    inside = rep["trace"]["inside_inversion"]
    forwards = inside.get("lstm.forward_batch", 0)
    out["inversion.steps_per_forward"] = (
        inside.get("lstm.backward_batch", 0) / forwards if forwards else 0.0)
    out["inversion.iterations_mean"] = rep["quality"]["inversion_iterations_mean"]
    for name in ("lstm.forward_batch", "lstm.backward_batch"):
        calls = span[name]["calls"]
        out[f"{name}.mean_batch"] = span[name]["size"] / calls if calls else 0.0
    window_epochs = sizes["windows"]["train"] * sizes["epochs"]
    out["gan.train.ms_per_window_epoch"] = (
        1000.0 * span["gan.train"]["s"] / window_epochs if window_epochs else 0.0)
    rows = sizes["train_rows"] + sizes["test_rows"]
    load = span["ingest.load_csv"]["s"]
    out["ingest.load_csv.rows_per_s"] = rows / load if load else 0.0
    return out


def _median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def _metrics(plain: list[dict], traced: list[dict]) -> dict:
    first = plain[0]["quality"]
    if not traced:
        values = {
            "setup_s": _median_of(plain, lambda r: r["setup_s"]),
            "pipeline_s": _median_of(plain, lambda r: r["pipeline_s"]),
            "peak_rss_mb": _median_of(plain, lambda r: r["peak_rss_mb"]),
            **{k: first[k] for k in ("f1_gan_ad", "f1_spe", "f1_cusum_best",
                                     "inversion_error_median")},
        }
        units = END_TO_END
    else:
        per_rep = [_layer_metrics(r) for r in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        invert_s = [d for r in traced for d in r["trace"]["invert_s"]]
        if invert_s:
            values["inversion.invert.p50_ms"] = 1000.0 * statistics.median(invert_s)
            pct, tail = _tail(invert_s)
            values["inversion.invert.tail_pct"] = float(pct)
            values["inversion.invert.tail_ms"] = 1000.0 * tail
        values["inversion.invert.windows"] = len(invert_s)
        values["trace.overhead_pct"] = 100.0 * (
            _median_of(traced, lambda r: r["pipeline_s"])
            / _median_of(plain, lambda r: r["pipeline_s"]) - 1.0)
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values}


def run_workload(config: Path, seed: int, seconds: float, trace: bool, work_dir: Path,
                 min_reps: int | None = None) -> dict:
    """Repeat the workload for ``seconds`` (at least ``min_reps`` times)."""
    if min_reps is None:
        min_reps = MIN_TRACED_PAIRS if trace else MIN_REPS
    start = time.monotonic()
    rep_dir = work_dir / "rep"
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        lap_start = time.monotonic()
        timeout = max(RUN_LIMIT_S + 30.0 - (lap_start - start), 10.0)
        plain.append(_run_rep(config, seed, rep_dir, False, timeout))
        if trace and not plain[-1]["problems"]:
            traced.append(_run_rep(config, seed, rep_dir, True, timeout,
                                   spans=work_dir / f"spans-seed{seed}.json"))
        now = time.monotonic()
        reps = plain + traced
        if any(r["problems"] for r in reps):
            break
        if len(plain) >= min_reps and now - start + (now - lap_start) > seconds:
            break
        if now - start + (now - lap_start) > RUN_LIMIT_S:
            break
    shutil.rmtree(rep_dir, ignore_errors=True)

    problems = [p for r in reps for p in r["problems"]]
    distinct = {json.dumps(r["hashes"], sort_keys=True) for r in reps if "hashes" in r}
    if len(distinct) > 1:
        problems.append(f"outputs differ between repetitions of seed {seed}: {sorted(distinct)}")
    result = {
        "correct": not problems,
        "attempted": sum(r["stages_attempted"] for r in reps),
        "failed": sum(1 for r in reps if r["failed_stage"]),
        "metrics": _metrics(plain, traced) if not problems else {},
    }
    return {"result": result, "problems": problems, "reps": reps}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tsgad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, reps: list[dict]) -> dict:
    done = [r for r in reps if "env" in r]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        **(done[0]["env"] if done else {}),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "sizes": done[0]["sizes"] if done else None,
        "repetitions": {"untraced": sum(1 for r in reps if "trace" not in r),
                        "traced": sum(1 for r in reps if "trace" in r)},
    }


def print_report(result: dict, problems: list[str], env: dict) -> None:
    """Print failed checks, one line per metric, the environment, then the
    result object as the last line."""
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark tsgad all on a pinned workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tsgad" / "__init__.py").is_file():
        print(f"error: no tsgad sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work_dir = WORK / args.workload
    outcome = run_workload(BENCH / "workloads" / f"{args.workload}.yaml", args.seed,
                           args.seconds, bool(args.trace), work_dir)
    result, env = outcome["result"], environment(args.seed, outcome["reps"])
    (work_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "result": result, "problems": outcome["problems"],
                    "repetitions": outcome["reps"]}, indent=1, default=str))
    print_report(result, outcome["problems"], env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
