"""Command-line entry point: config-driven, reproducible pipeline runs."""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import ConfigError, load_config

COMMANDS = {
    "synth": pipeline.run_synth,
    "ingest": pipeline.run_ingest,
    "train": pipeline.run_train,
    "detect": pipeline.run_detect,
    "evaluate": pipeline.run_evaluate,
    "all": pipeline.run_all,
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsgad",
        description=(
            "GAN-based anomaly detection for multivariate time series: "
            "train on normal windows, invert test windows into the latent "
            "space, flag anomalies from residual + discrimination scores, "
            "and compare against CUSUM and PCA/SPE baselines."
        ),
    )
    parser.add_argument("command", choices=sorted(COMMANDS), help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the YAML run configuration")
    parser.add_argument("--out", default=None, help="override paths.out_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        cfg["paths"]["out_dir"] = args.out
    try:
        result = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        if isinstance(result, tuple):
            for item in result:
                print(item)
        else:
            print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
