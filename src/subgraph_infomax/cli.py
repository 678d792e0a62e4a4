"""Command-line interface: parses arguments, calls the package, prints.

Subcommands: ``generate``, ``train``, ``evaluate``, ``sweep-observed``,
``sweep-lambda``, ``compare``, ``verify``.  Configuration comes from a
plain-text ``key = value`` file plus repeatable ``--set key=value``
overrides.  The ``train`` module writes each run directory.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
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
from .models import VARIANTS, ModelConfig, build_model
from .optim import AdamConfig
from .train import (
    DatasetFiles,
    RunConfig,
    compare,
    evaluate,
    load_bundle,
    sweep_lambda,
    sweep_observed,
    train,
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
        "subgraph_size_max": "synthetic_size_max", "feature_dim": "synthetic_feature_dim",
        "feature_noise": "synthetic_noise", "community_leak": "synthetic_leak",
        "seed": "synthetic_seed",
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


def _build(dc_cls, mapping: dict[str, str]):
    """``dc_cls`` from the keys of ``mapping``; a range error that starts
    with a renamed field's name starts with its key instead."""
    try:
        return dc_cls(**_collect(mapping, dc_cls))
    except ValueError as exc:
        field, space, rest = str(exc).partition(" ")
        key = _RENAMED.get(dc_cls, {}).get(field)
        if key is None:
            raise
        raise ValueError(f"{key}{space}{rest}") from None


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
    model = _build(ModelConfig, mapping)
    protocol = _build(ObservationProtocol, mapping)
    adam = _build(AdamConfig, mapping)
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
        expected = _build(ExpectedStats, mapping) if _keys_for(mapping, ExpectedStats) else None
        files = DatasetFiles(**_collect(mapping, DatasetFiles), expected=expected)
    return RunConfig(
        model=model, protocol=protocol, adam=adam, files=files,
        synthetic=None if files else _build(SyntheticSpec, mapping),
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
    bundle = generate_synthetic(_build(SyntheticSpec, mapping))
    out = _out_dir(args, "synthetic")
    paths = save_bundle(bundle, out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def cmd_train(args) -> int:
    config = build_run_config(_mapping_from_args(args))
    metrics = train(config, out_dir=_out_dir(args, "train"))
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


# Grid subcommand -> (its function, its help, and the list flags it takes in
# argument order: flag, item type, argparse options).
GRIDS = {
    "sweep-observed": (sweep_observed, "grid over observed-node counts", [
        ("--sizes", int, {"required": True, "help": "comma-separated sizes, e.g. 4,8"}),
    ]),
    "sweep-lambda": (sweep_lambda, "grid over the loss-weight lambdas", [
        ("--grid-khop", float, {"default": "1,2,3"}),
        ("--grid-second", float, {"default": "1,2,3"}),
    ]),
    "compare": (compare, "train each variant and t-test it against baseline", [
        ("--variants", str, {"default": ",".join(VARIANTS), "help": "comma-separated variants"}),
    ]),
}

_NOT_CELL_COLUMNS = ("dataset", "mean_accuracy", "std_accuracy", "n_seeds", "p_vs_baseline")


def cmd_grid(args) -> int:
    """Run a grid subcommand and print one line per summary row: its cell
    columns, mean +/- std, and the p-value against baseline where it has one."""
    config = build_run_config(_mapping_from_args(args))
    grid, _, flags = GRIDS[args.command]
    lists = [_parse_list(f, getattr(args, f[2:].replace("-", "_")), item) for f, item, _ in flags]
    for entry in grid(config, *lists, out_dir=_out_dir(args, args.command.replace("-", "_"))):
        cells = " / ".join(f"{k} {v}" for k, v in entry.items() if k not in _NOT_CELL_COLUMNS)
        p_value = entry.get("p_vs_baseline", "")
        print(
            f"{cells}: {entry['mean_accuracy']:.4f} +/- {entry['std_accuracy']:.4f}"
            + (f"  p vs baseline {p_value:.4f}" if p_value != "" else "")
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
    p.add_argument("--stage", default="test", choices=("val", "test"))
    p.set_defaults(func=cmd_evaluate)

    for command, (_, help_text, flags) in GRIDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_config_args(p)
        for flag, _, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cgd-trials", type=int, default=1000)
    p.add_argument("--oracle-graphs", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
