"""Self-test of the benchmark harness on tiny versions of the workloads.

Run from the root of a checkout (takes about ten seconds)::

    python3 bench/selftest.py

Each pinned workload config is shrunk (fewer rows, small networks, at most
two descent steps) but keeps its shape: the same plant width, the same
epochs-versus-iterations balance.  For each, one untraced run of two
repetitions and one traced run go through ``run.run_workload``; the test
asserts that the output checks pass, that every metric ``BENCHMARK.json``
names is printed with its unit, and that the tracer leaves the ``tsgad``
functions it patched unpatched.  It also checks that a raising stage counts
as a failed operation, and that the command refuses to run without the
``tsgad`` sources.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

import run

TINY = {
    "detect-invert": {"test_duration": 480, "max_iterations": 2},
    "train-bptt": {"test_duration": 480, "epochs": 2},
    "wide-plant": {"test_duration": 1680},
}


def _tiny_config(name: str, work: Path) -> Path:
    cfg = yaml.safe_load((run.BENCH / "workloads" / f"{name}.yaml").read_text())
    tiny = TINY[name]
    synth = cfg["synth"]
    synth["train_duration"] = 960
    synth["test_duration"] = tiny["test_duration"]
    synth["attacks"] = [a for a in synth["attacks"]
                        if a["start"] + a["duration"] <= synth["test_duration"]]
    cfg["gan"].update(epochs=tiny.get("epochs", 1), gen_depth=1, gen_hidden=8,
                      disc_hidden=8, batch_size=16, mmd_samples=16)
    inversion = cfg.setdefault("inversion", {})
    inversion["max_iterations"] = min(inversion.get("max_iterations", 0),
                                      tiny.get("max_iterations", 0))
    path = work / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _metric_names(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _check_printed(outcome: dict, expected: dict[str, str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_report(outcome["result"], outcome["problems"], {"seed": 1})
    lines = buf.getvalue().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True and last["failed"] == 0, last
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == expected, (sorted(set(expected) ^ set(got)), got)
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), f"{name} not printed with unit {unit}"


def check_workload(name: str, work: Path) -> None:
    config = _tiny_config(name, work)
    plain = run.run_workload(config, 1, 0.0, False, work / name, min_reps=2)
    assert not plain["problems"], plain["problems"]
    assert plain["result"]["attempted"] == 2 * 5, plain["result"]
    _check_printed(plain, _metric_names("end_to_end"))

    traced = run.run_workload(config, 1, 0.0, True, work / name, min_reps=1)
    assert not traced["problems"], traced["problems"]
    assert all(r["tracer_restored"] for r in traced["reps"] if "trace" in r)
    _check_printed(traced, _metric_names("per_layer"))


def check_tracer_in_process() -> None:
    import numpy as np
    from tracer import TARGETS, Tracer

    import tsgad.baselines
    import tsgad.pca
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}
    rows = np.random.default_rng(0).standard_normal((50, 4))
    with Tracer() as tracer:
        model = tsgad.pca.fit_pca(rows, 2)
        tsgad.baselines.spe_detect(model, rows, 1.0)
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn, f"{module}.{attr} left patched"
    names = [s[0] for s in tracer.spans]
    assert names == ["pca.fit_pca", "baselines.spe_detect", "pca.spe"], names
    assert tracer.spans[2][3] == 1, "pca.spe must be a child of spe_detect"
    summary = tracer.summary()
    detect = summary["baselines.spe_detect"]
    assert 0.0 <= detect["self_s"] <= detect["s"]
    assert detect["self_s"] == detect["s"] - summary["pca.spe"]["s"]


def check_failed_stage(work: Path) -> None:
    cfg = yaml.safe_load(_tiny_config("detect-invert", work).read_text())
    cfg["pca"] = {"n_components": 8}  # more components than the plant's 7 columns
    config = work / "bad.yaml"
    config.write_text(yaml.safe_dump(cfg))
    outcome = run.run_workload(config, 1, 0.0, False, work / "bad", min_reps=1)
    result = outcome["result"]
    assert result["failed"] == 1 and result["attempted"] == 2 and not result["correct"], result


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-bptt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_tracer_in_process()
    print("tracer: ok", flush=True)
    check_failed_stage(work)
    print("failed stage: ok", flush=True)
    check_refuses_without_sources(work)
    print("refuses without sources: ok", flush=True)
    for name in run.WORKLOADS:
        check_workload(name, work)
        print(f"{name}: ok", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
