"""Command-line interface.

Subcommands: ``generate``, ``train``, ``evaluate``, ``sweep-observed``,
``sweep-lambda``, ``verify``.  Configuration comes from a plain-text
``key = value`` file plus repeatable ``--set key=value`` overrides; the
``SUBGRAPH_INFOMAX_OUT`` environment variable sets the default output root.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    _read_lines,
    generate_synthetic,
    save_bundle,
)
from .models import ModelConfig, build_model
from .optim import AdamConfig
from .train import (
    DatasetFiles,
    RunConfig,
    evaluate,
    load_bundle,
    sweep_lambda,
    sweep_observed,
    train,
    train_single_seed,
    unpaired_t_test,
    write_csv,
    write_manifest,
    _result_row,
)

log = logging.getLogger("subgraph_infomax")


def _scalar_fields(dc_cls) -> dict[str, tuple[type, bool]]:
    """Scalar fields of a config dataclass: name -> (base type, accepts None)."""
    hints = typing.get_type_hints(dc_cls)
    scalars = {}
    for f in fields(dc_cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        base = next(a for a in args if a is not type(None)) if optional else hints[f.name]
        if base in (int, float, bool, str):
            scalars[f.name] = (base, optional)
    return scalars


# Fields whose config-file key is not the field name: "lambda" is the
# single-stage loss weight; the khop/second weights keep their long names.
KEY_ALIASES = {"lambda_single": "lambda", "eval_fixed_seed": "eval_seed"}


def _config_keys(dc_cls) -> dict[str, str]:
    """Config-file key -> attribute, one key per scalar field of ``dc_cls``."""
    return {KEY_ALIASES.get(name, name): name for name in _scalar_fields(dc_cls)}


MODEL_KEYS = _config_keys(ModelConfig)
PROTOCOL_KEYS = _config_keys(ObservationProtocol)
RUN_KEYS = _config_keys(RunConfig)
ADAM_KEYS = _config_keys(AdamConfig)
# Synthetic keys carry a prefix and six of them are renames, so they stay a table.
SYNTHETIC_KEYS = {
    "synthetic_nodes": "num_nodes",
    "synthetic_communities": "communities",
    "synthetic_p_intra": "p_intra",
    "synthetic_p_inter": "p_inter",
    "synthetic_subgraphs": "num_subgraphs",
    "synthetic_size_min": "subgraph_size_min",
    "synthetic_size_max": "subgraph_size_max",
    "synthetic_n_obs": "n_obs",
    "synthetic_feature_dim": "feature_dim",
    "synthetic_noise": "feature_noise",
    "synthetic_leak": "community_leak",
    "synthetic_seed": "seed",
}
FILES_KEYS = _config_keys(DatasetFiles)
EXPECTED_KEYS = {
    "expected_subgraphs": "num_subgraphs",
    "expected_classes": "num_classes",
    "expected_global_nodes": "num_global_nodes",
}
# Any of these keys selects a file dataset; without them the dataset is synthetic.
FILE_SOURCE_KEYS = frozenset().union(FILES_KEYS, EXPECTED_KEYS, {"split_ratios"})
KNOWN_KEYS = frozenset().union(
    MODEL_KEYS, PROTOCOL_KEYS, RUN_KEYS, ADAM_KEYS, SYNTHETIC_KEYS, FILE_SOURCE_KEYS, {"seeds"}
)


def _check_keys(mapping: dict[str, str]) -> None:
    """Reject config keys that no subcommand reads, so a typo cannot fall back to a default."""
    unknown = sorted(set(mapping) - KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")


def parse_kv_file(path) -> dict[str, str]:
    """Plain-text config: one ``key = value`` per line, '#' comments."""
    mapping: dict[str, str] = {}
    for lineno, line in _read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        mapping[key.strip()] = value.strip()
    return mapping


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, raw: str, target_type):
    """``raw`` as ``target_type``, floats finite; a ValueError names ``key``."""
    try:
        value = _BOOLS[raw.lower()] if target_type is bool else target_type(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{key}: expected {target_type.__name__}, got {raw!r}") from None
    if target_type is float and not math.isfinite(value):
        raise ValueError(f"{key}: expected a finite float, got {raw!r}")
    return value


def _collect(mapping: dict[str, str], keys: dict[str, str], dc_cls) -> dict:
    types = _scalar_fields(dc_cls)
    out = {}
    for key, attr in keys.items():
        if key in mapping:
            base, optional = types[attr]
            raw = mapping[key]
            # Only ``int | None`` keys spell None; for a file key "none" is a path.
            if optional and base is int and raw.lower() in ("none", "inf"):
                out[attr] = None
            else:
                out[attr] = _coerce(key, raw, base)
    return out


def _parse_list(key: str, raw: str, item_type) -> tuple:
    """A comma-separated value of ``key``; empty items are skipped, floats must be finite."""
    try:
        return tuple(_coerce(key, s, item_type) for s in raw.split(",") if s)
    except ValueError:
        raise ValueError(
            f"{key}: expected comma-separated {item_type.__name__}s, got {raw!r}"
        ) from None


def build_run_config(mapping: dict[str, str]) -> RunConfig:
    _check_keys(mapping)
    model = ModelConfig(**_collect(mapping, MODEL_KEYS, ModelConfig))
    protocol = ObservationProtocol(**_collect(mapping, PROTOCOL_KEYS, ObservationProtocol))
    adam = AdamConfig(**_collect(mapping, ADAM_KEYS, AdamConfig))
    run_kwargs = _collect(mapping, RUN_KEYS, RunConfig)
    if "seeds" in mapping:
        run_kwargs["seeds"] = _parse_list("seeds", mapping["seeds"], int)

    synthetic = None
    files = None
    file_keys = sorted(FILE_SOURCE_KEYS & mapping.keys())
    synthetic_keys = sorted(SYNTHETIC_KEYS.keys() & mapping.keys())
    missing = [k for k in ("edge_file", "subgraph_file", "embedding_file") if k not in mapping]
    if not file_keys:
        synthetic = SyntheticSpec(**_collect(mapping, SYNTHETIC_KEYS, SyntheticSpec))
    elif synthetic_keys:
        raise ValueError(
            f"synthetic dataset keys ({', '.join(synthetic_keys)}) and file dataset "
            f"keys ({', '.join(file_keys)}) cannot be mixed"
        )
    elif missing:
        raise ValueError(f"a file dataset needs {', '.join(missing)}")
    else:
        kwargs = _collect(mapping, FILES_KEYS, DatasetFiles)
        if "split_ratios" in mapping:
            kwargs["split_ratios"] = _parse_list("split_ratios", mapping["split_ratios"], float)
        expected_kwargs = _collect(mapping, EXPECTED_KEYS, ExpectedStats)
        if expected_kwargs:
            kwargs["expected"] = ExpectedStats(**expected_kwargs)
        files = DatasetFiles(**kwargs)
    return RunConfig(
        model=model, protocol=protocol, synthetic=synthetic, files=files,
        adam=adam, **run_kwargs,
    )


def _mapping_from_args(args) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        mapping.update(parse_kv_file(args.config))
    for item in getattr(args, "set", None) or []:
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise SystemExit(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def _out_dir(args, default_name: str) -> Path:
    root = os.environ.get("SUBGRAPH_INFOMAX_OUT", "runs")
    out = Path(args.out) if getattr(args, "out", None) else Path(root) / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="plain-text key = value config file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--out", help="output directory")


def cmd_generate(args) -> int:
    mapping = _mapping_from_args(args)
    _check_keys(mapping)
    spec = SyntheticSpec(**_collect(mapping, SYNTHETIC_KEYS, SyntheticSpec))
    bundle = generate_synthetic(spec)
    out = _out_dir(args, "synthetic")
    paths = save_bundle(bundle, out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    mapping = _mapping_from_args(args)
    config = build_run_config(mapping)
    out = _out_dir(args, "train")
    bundle = load_bundle(config)
    metrics = train(config, bundle=bundle, out_dir=out)
    rows = [_result_row(config, bundle.name, r.seed, r.test_accuracy) for r in metrics.per_seed]
    write_csv(out / "metrics.csv", rows)
    write_manifest(
        out, config, started,
        extra={"mean_accuracy": metrics.mean, "std_accuracy": metrics.std},
    )
    for result in metrics.per_seed:
        print(f"seed {result.seed}: test accuracy {result.test_accuracy:.4f}"
              + (" (diverged)" if result.diverged else ""))
    print(f"mean {metrics.mean:.4f} +/- {metrics.std:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    mapping = _mapping_from_args(args)
    config = build_run_config(mapping)
    bundle = load_bundle(config)
    rng = np.random.default_rng(config.seeds[0])
    model = build_model(config.model, bundle, rng, embedding_trainable=config.embedding_trainable)
    model.store.load(args.checkpoint)
    accuracy = evaluate(model, bundle, config.protocol, args.stage)
    print(f"{args.stage} accuracy: {accuracy:.4f}")
    return 0


def cmd_sweep_observed(args) -> int:
    started = time.time()
    mapping = _mapping_from_args(args)
    config = build_run_config(mapping)
    sizes = _parse_list("--sizes", args.sizes, int)
    out = _out_dir(args, "sweep_observed")
    summary = sweep_observed(config, sizes, out_dir=out)
    write_manifest(out, config, started, extra={"sizes": sizes})
    for entry in summary:
        print(
            f"train {entry['n_obs_train']:>3} / test {entry['n_obs_test']:>3}: "
            f"{entry['mean_accuracy']:.4f} +/- {entry['std_accuracy']:.4f}"
        )
    return 0


def cmd_sweep_lambda(args) -> int:
    started = time.time()
    mapping = _mapping_from_args(args)
    config = build_run_config(mapping)
    grid_khop = _parse_list("--grid-khop", args.grid_khop, float)
    grid_second = _parse_list("--grid-second", args.grid_second, float)
    out = _out_dir(args, "sweep_lambda")
    summary = sweep_lambda(config, grid_khop, grid_second, out_dir=out)
    write_manifest(out, config, started, extra={"grid_khop": grid_khop, "grid_second": grid_second})
    for entry in summary:
        print(
            f"lambda_khop {entry['lambda_khop']} / lambda_second {entry['lambda_second']}: "
            f"{entry['mean_accuracy']:.4f} +/- {entry['std_accuracy']:.4f}"
        )
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(
        seed=args.seed, cgd_trials=args.cgd_trials, oracle_graphs=args.oracle_graphs
    )
    failures = 0
    for result in results:
        print(result.line())
        failures += not result.ok
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="subgraph-infomax",
        description="Train and evaluate partial-subgraph representation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic bundle to disk")
    _add_config_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model over the configured seeds")
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stage", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-observed", help="grid over observed-node counts")
    _add_config_args(p)
    p.add_argument("--sizes", required=True, help="comma-separated sizes, e.g. 4,8")
    p.set_defaults(func=cmd_sweep_observed)

    p = sub.add_parser("sweep-lambda", help="grid over the loss-weight lambdas")
    _add_config_args(p)
    p.add_argument("--grid-khop", default="1,2,3")
    p.add_argument("--grid-second", default="1,2,3")
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cgd-trials", type=int, default=1000)
    p.add_argument("--oracle-graphs", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
