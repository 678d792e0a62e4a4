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


def _field_types(dc_cls) -> dict[str, tuple[type, bool, bool]]:
    """Fields a key can set: name -> (value or item type, accepts None, is a tuple)."""
    out = {}
    for name, hint in typing.get_type_hints(dc_cls).items():
        args = typing.get_args(hint)
        base = next((a for a in args if a is not type(None)), hint)
        if base in (int, float, bool, str):
            out[name] = (base, type(None) in args, typing.get_origin(hint) is tuple)
    return out


# Keys that are not their field's name ("lambda" is the single-stage loss
# weight).  SyntheticSpec and ExpectedStats fields are keys only under the
# prefixed names listed here.
_RENAMED = {
    ModelConfig: {"lambda_single": "lambda"},
    ObservationProtocol: {"eval_fixed_seed": "eval_seed"},
    SyntheticSpec: {
        "num_nodes": "synthetic_nodes", "communities": "synthetic_communities",
        "p_intra": "synthetic_p_intra", "p_inter": "synthetic_p_inter",
        "num_subgraphs": "synthetic_subgraphs", "subgraph_size_min": "synthetic_size_min",
        "subgraph_size_max": "synthetic_size_max", "n_obs": "synthetic_n_obs",
        "feature_dim": "synthetic_feature_dim", "feature_noise": "synthetic_noise",
        "community_leak": "synthetic_leak", "seed": "synthetic_seed",
    },
    ExpectedStats: {
        "num_subgraphs": "expected_subgraphs", "num_classes": "expected_classes",
        "num_global_nodes": "expected_global_nodes",
    },
}

# Config-file key -> (config dataclass, field).  Within a class the tuple
# keys come last, the order in which values are checked.
KEYS: dict[str, tuple[type, str]] = {
    _RENAMED.get(dc_cls, {}).get(name, name): (dc_cls, name)
    for dc_cls in (
        ModelConfig, ObservationProtocol, AdamConfig, RunConfig, SyntheticSpec, DatasetFiles,
        ExpectedStats,
    )
    for name, _ in sorted(_field_types(dc_cls).items(), key=lambda item: item[1][2])
    if dc_cls not in (SyntheticSpec, ExpectedStats) or name in _RENAMED[dc_cls]
}


def _keys_for(mapping: dict[str, str], *classes) -> list[str]:
    """The keys of ``mapping`` that set a field of one of ``classes``, sorted."""
    return sorted(key for key in mapping if KEYS[key][0] in classes)


def _check_keys(mapping: dict[str, str]) -> None:
    """Reject config keys that no subcommand reads, so a typo cannot fall back to a default."""
    unknown = sorted(set(mapping) - KEYS.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")


def parse_kv_file(path) -> dict[str, str]:
    """Plain-text config: one ``key = value`` per line, '#' comments."""
    mapping: dict[str, str] = {}
    for lineno, line in _read_lines(path):
        key, eq, value = line.split("#", 1)[0].partition("=")
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


def _collect(mapping: dict[str, str], dc_cls) -> dict:
    """Keyword arguments for ``dc_cls`` from the keys of ``mapping`` that set its fields."""
    types = _field_types(dc_cls)
    out = {}
    for key, (cls, name) in KEYS.items():
        if cls is not dc_cls or key not in mapping:
            continue
        base, optional, is_tuple = types[name]
        raw = mapping[key]
        if is_tuple:
            out[name] = _parse_list(key, raw, base)
        # Only ``int | None`` keys spell None; for a file key "none" is a path.
        elif optional and base is int and raw.lower() in ("none", "inf"):
            out[name] = None
        else:
            out[name] = _coerce(key, raw, base)
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
    model = ModelConfig(**_collect(mapping, ModelConfig))
    protocol = ObservationProtocol(**_collect(mapping, ObservationProtocol))
    adam = AdamConfig(**_collect(mapping, AdamConfig))
    run_kwargs = _collect(mapping, RunConfig)

    # Any file dataset key selects a file dataset; without them the dataset is synthetic.
    files = None
    file_keys = _keys_for(mapping, DatasetFiles, ExpectedStats)
    if file_keys:
        synthetic_keys = _keys_for(mapping, SyntheticSpec)
        missing = [k for k in ("edge_file", "subgraph_file", "embedding_file") if k not in mapping]
        split_keys = [k for k in ("split_ratios", "split_seed") if k in mapping]
        if synthetic_keys:
            raise ValueError(
                f"synthetic dataset keys ({', '.join(synthetic_keys)}) and file dataset "
                f"keys ({', '.join(file_keys)}) cannot be mixed"
            )
        if missing:
            raise ValueError(f"a file dataset needs {', '.join(missing)}")
        if "split_file" in mapping and split_keys:
            raise ValueError(
                f"split_file fixes the splits; {', '.join(split_keys)} would be ignored"
            )
        expected = _collect(mapping, ExpectedStats)
        files = DatasetFiles(
            **_collect(mapping, DatasetFiles),
            expected=ExpectedStats(**expected) if expected else None,
        )
    return RunConfig(
        model=model, protocol=protocol, adam=adam, files=files,
        synthetic=None if files else SyntheticSpec(**_collect(mapping, SyntheticSpec)),
        **run_kwargs,
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
    return Path(args.out) if getattr(args, "out", None) else Path(root) / default_name


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
    file_keys = _keys_for(mapping, DatasetFiles, ExpectedStats)
    if file_keys:
        raise ValueError(
            f"generate makes a synthetic bundle; it takes no file dataset keys "
            f"({', '.join(file_keys)})"
        )
    spec = SyntheticSpec(**_collect(mapping, SyntheticSpec))
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
