"""Command-line entry point: config-driven, reproducible pipeline runs."""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .config import ConfigError, load_config

COMMANDS = {
    "synth": pipeline.run_synth,
    "ingest": pipeline.run_ingest,
    "train": pipeline.run_train,
    "generate": pipeline.run_generate,
    "detect": pipeline.run_detect,
    "evaluate": pipeline.run_evaluate,
    "all": pipeline.run_all,
}

# path overrides only; everything else must come from the config file
ENV_OVERRIDES = {
    "TSGAD_INPUT_CSV": "input_csv",
    "TSGAD_TEST_CSV": "test_csv",
    "TSGAD_OUT_DIR": "out_dir",
    "TSGAD_CHECKPOINT": "checkpoint",
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
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override paths.out_dir")
    return parser


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["paths"]["out_dir"] = args.out
    for env, key in ENV_OVERRIDES.items():
        value = os.environ.get(env)
        if value:
            cfg["paths"][key] = value
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
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
