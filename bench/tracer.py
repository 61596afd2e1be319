"""Call-boundary tracer for the benchmark's traced runs.

Each public ``tsgad`` function the benchmark reports on is replaced, for the
duration of a ``with Tracer():`` block, by a wrapper that records one span:
name, start, end, parent span and an optional work size (for example the
batch size of an LSTM call).  A function is patched in the module whose
namespace its caller looks it up in: ``gan`` binds ``mmd_unbiased``, and
``pipeline`` binds ``generate_scenario`` and ``save_scenario_csv``, by
``from``-import, so those names are patched there and not in ``tsgad.mmd`` or
``tsgad.synthetic``.  Spans stay in memory until :meth:`Tracer.write`; the
originals are put back when the block exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _batch(arg_index: int):
    """Size function: leading dimension of positional argument ``arg_index``."""
    return lambda args: int(args[arg_index].shape[0])


# (module the caller resolves the name in, attribute, span name, size function)
TARGETS = [
    ("tsgad.pipeline", "run_synth", "pipeline.run_synth", None),
    ("tsgad.pipeline", "run_ingest", "pipeline.run_ingest", None),
    ("tsgad.pipeline", "run_train", "pipeline.run_train", None),
    ("tsgad.pipeline", "run_detect", "pipeline.run_detect", None),
    ("tsgad.pipeline", "run_evaluate", "pipeline.run_evaluate", None),
    ("tsgad.pipeline", "generate_scenario", "synthetic.generate_scenario", None),
    ("tsgad.pipeline", "save_scenario_csv", "synthetic.save_scenario_csv", None),
    ("tsgad.ingest", "load_csv", "ingest.load_csv", None),
    ("tsgad.ingest", "window", "ingest.window", None),
    ("tsgad.ingest", "downsample_median", "ingest.downsample_median", None),
    ("tsgad.ingest", "save_window_bundle", "ingest.save_window_bundle", None),
    ("tsgad.ingest", "load_window_bundle", "ingest.load_window_bundle", None),
    ("tsgad.pca", "fit_pca", "pca.fit_pca", None),
    ("tsgad.pca", "project", "pca.project", None),
    ("tsgad.pca", "spe", "pca.spe", None),
    ("tsgad.baselines", "spe", "pca.spe", None),
    ("tsgad.baselines", "cusum_statistic", "baselines.cusum_statistic", None),
    ("tsgad.baselines", "cusum_detect", "baselines.cusum_detect", None),
    ("tsgad.baselines", "spe_detect", "baselines.spe_detect", None),
    ("tsgad.scoring", "anomaly_score", "scoring.anomaly_score", None),
    ("tsgad.scoring", "per_variable_labels", "scoring.per_variable_labels", None),
    ("tsgad.gan", "train", "gan.train", None),
    ("tsgad.gan", "discriminator_grads", "gan.discriminator_grads", None),
    ("tsgad.gan", "generator_grads", "gan.generator_grads", None),
    ("tsgad.gan", "mmd_unbiased", "gan.mmd_unbiased", None),
    ("tsgad.lstm", "forward_batch", "lstm.forward_batch", _batch(1)),
    ("tsgad.lstm", "backward_batch", "lstm.backward_batch", _batch(2)),
    ("tsgad.lstm", "optimizer_step", "lstm.optimizer_step", None),
    ("tsgad.lstm", "clip_gradients", "lstm.clip_gradients", None),
    ("tsgad.inversion", "invert_many", "inversion.invert_many", _batch(1)),
    ("tsgad.inversion", "invert", "inversion.invert", None),
    ("tsgad.svgplot", "write_line_chart", "svgplot.write_line_chart", None),
]


class Tracer:
    """Records spans around the calls listed in :data:`TARGETS`."""

    def __init__(self):
        self.targets = TARGETS
        # one [name, start, end, parent index or -1, size or None] per call
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span_name, size in self.targets:
                owner = importlib.import_module(module_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, span_name, size))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    size(args) if size else None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed work size.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap because the program runs on one
        thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
        for i, (name, start, end, _, size) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["size"] += size or 0
        return dict(out)

    def descendants_of(self, ancestor: str) -> dict[str, int]:
        """Call counts of every span name that runs inside an ``ancestor`` span."""
        inside = [False] * len(self.spans)
        counts: dict[str, int] = defaultdict(int)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside[i] = parent >= 0 and (inside[parent] or self.spans[parent][0] == ancestor)
            if inside[i]:
                counts[name] += 1
        return dict(counts)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str | Path) -> None:
        """Dump every span as JSON: names once, then compact rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], start, end, parent, size] for n, start, end, parent, size in self.spans]
        Path(path).write_text(json.dumps({"names": names, "columns":
                                          ["name", "start", "end", "parent", "size"],
                                          "spans": rows}))
