"""Training loop, evaluation, significance testing, and the sweep and compare grids.

Everything emitted is a deterministic function of (config, seed) on a given
platform.  Seeds are independent: each run owns its model, tape, and rng.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import platform
import time
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .data import (
    DEFAULT_SPLIT_RATIOS,
    STAGES,
    DatasetBundle,
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    check_split_ratios,
    generate_synthetic,
    load_dataset,
    sample_observed,
)
from .graph import induced_partial_subgraph
from .models import BATCH_NEGATIVE_VARIANTS, ModelConfig, build_model
from .optim import AdamConfig, adam_step

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "dataset",
    "model",
    "seed",
    "n_obs_train",
    "n_obs_test",
    "lambda_khop",
    "lambda_second",
    "split",
    "accuracy",
)


@dataclass(frozen=True)
class DatasetFiles:
    edge_file: str
    subgraph_file: str
    embedding_file: str
    split_file: str | None = None
    split_ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS
    split_seed: int = 0
    directed: bool = False
    expected: ExpectedStats | None = None

    def __post_init__(self) -> None:
        check_split_ratios(self.split_ratios)
        if self.split_seed < 0:
            raise ValueError(f"split_seed must be >= 0, got {self.split_seed}")


@dataclass
class RunConfig:
    """One run's settings; the dataset is ``files`` when given, else
    ``synthetic`` (default ``SyntheticSpec()``)."""

    model: ModelConfig = field(default_factory=ModelConfig)
    protocol: ObservationProtocol = field(default_factory=ObservationProtocol)
    synthetic: SyntheticSpec | None = None
    files: DatasetFiles | None = None
    adam: AdamConfig = field(default_factory=AdamConfig)
    epochs: int = 100
    batch_size: int = 16
    grad_accum: int = 1
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    embedding_trainable: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        _check_distinct("seeds", self.seeds)
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.batch_size < 1 or self.grad_accum < 1:
            raise ValueError("batch_size and grad_accum must be >= 1")
        if self.batch_size < 2 and self.model.term in BATCH_NEGATIVE_VARIANTS:
            raise ValueError(
                f"{self.model.variant} draws negatives from the other batch members; "
                f"batch_size must be >= 2, got {self.batch_size}"
            )
        if self.synthetic is not None and self.files is not None:
            raise ValueError("give one dataset source, synthetic or files, not both")
        if self.files is None and self.synthetic is None:
            self.synthetic = SyntheticSpec()


@dataclass
class SeedResult:
    seed: int
    test_accuracy: float
    best_epoch: int
    val_accuracy: list[float]
    loss_trace: dict[str, list[float]]
    diverged: bool = False


@dataclass
class MetricsRecord:
    """Per-seed test accuracies plus loss traces; mean/std are derived."""

    per_seed: list[SeedResult]

    @property
    def accuracies(self) -> list[float]:
        return [s.test_accuracy for s in self.per_seed]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))


def load_bundle(config: RunConfig) -> DatasetBundle:
    if config.files is not None:
        files = config.files
        split = files.split_file or (files.split_ratios, files.split_seed)
        return load_dataset(
            files.edge_file,
            files.subgraph_file,
            embeddings=files.embedding_file,
            split=split,
            directed=files.directed,
            expected=files.expected,
        )
    return generate_synthetic(config.synthetic)


def _batches(n: int, size: int) -> list[slice]:
    """Batch slices over ``n`` records; a lone trailing record joins the previous batch."""
    starts = list(range(0, n, size))
    if size > 1 and len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def train_single_seed(
    config: RunConfig, bundle: DatasetBundle, seed: int
) -> tuple[SeedResult, object]:
    """Train one seed; returns its metrics and the best-checkpoint model."""
    for stage in STAGES:  # val and test too: ``evaluate`` would raise only after training
        if not bundle.indices(stage):
            raise ValueError(f"the {stage} split is empty")
    rng = np.random.default_rng(seed)
    model = build_model(config.model, bundle, rng, embedding_trainable=config.embedding_trainable)
    protocol = config.protocol
    train_indices = bundle.indices("train")

    best_val = -1.0
    best_epoch = -1
    best_snapshot = model.store.clone_values()
    val_curve: list[float] = []
    traces: dict[str, list[float]] = {}
    diverged = False

    for epoch in range(config.epochs):
        order = rng.permutation(train_indices)
        epoch_sums: dict[str, float] = {}
        epoch_count = 0
        batches = _batches(len(order), config.batch_size)
        for number, batch in enumerate(batches, 1):
            records = [bundle.records[int(i)] for i in order[batch]]
            views = [
                induced_partial_subgraph(record, sample_observed(record, protocol, "train", rng))
                for record in records
            ]
            out = model.step(records, views, rng=rng, training=True)
            for key, values in out.losses.items():
                epoch_sums[key] = epoch_sums.get(key, 0.0) + float(values.sum())
            epoch_count += len(records)
            batch_obj = ad.scale(out.objective, 1.0 / config.grad_accum)
            if not math.isfinite(batch_obj.item()):
                log.error("seed %d diverged at epoch %d; aborting this seed", seed, epoch)
                diverged = True
                break
            ad.backward(batch_obj)
            step = number % config.grad_accum == 0 or number == len(batches)
            if step and not _checked_adam_step(model.store, config.adam, seed, epoch):
                diverged = True
                break
        if diverged:
            break

        for key, total in epoch_sums.items():
            traces.setdefault(key, []).append(total / epoch_count)
        val_acc = evaluate(model, bundle, protocol, "val")
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_snapshot = model.store.clone_values()

    model.store.load_values(best_snapshot)
    test_acc = evaluate(model, bundle, protocol, "test") if not diverged else float("nan")
    result = SeedResult(
        seed=seed,
        test_accuracy=test_acc,
        best_epoch=best_epoch,
        val_accuracy=val_curve,
        loss_trace=traces,
        diverged=diverged,
    )
    return result, model


def _checked_adam_step(store, adam: AdamConfig, seed: int, epoch: int) -> bool:
    """Apply Adam unless a trainable gradient is non-finite; False on divergence."""
    for name, param in store.items():
        if param.grad is not None and not np.isfinite(param.grad).all():
            log.error(
                "seed %d diverged at epoch %d: non-finite gradient for %s; aborting this seed",
                seed, epoch, name,
            )
            return False
    adam_step(store, adam)
    return True


def train(config: RunConfig, bundle: DatasetBundle | None = None, out_dir=None) -> MetricsRecord:
    """Run every seed; divergent seeds are flagged and the rest continue.

    Given ``out_dir``, writes the run directory: each seed's kept parameters
    to ``params_seed<seed>.npz``, one CSV_COLUMNS row per seed to
    ``metrics.csv``, and ``manifest.json`` with the mean and std accuracy.
    """
    started = time.time()
    bundle = bundle if bundle is not None else load_bundle(config)
    results = []
    for seed in config.seeds:
        result, model = train_single_seed(config, bundle, seed)
        results.append(result)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            model.store.save(out / f"params_seed{seed}.npz")
    metrics = MetricsRecord(per_seed=results)
    if out_dir is not None:
        rows = [_result_row(config, bundle.name, r.seed, r.test_accuracy) for r in results]
        write_csv(Path(out_dir) / "metrics.csv", rows)
        extra = {"mean_accuracy": metrics.mean, "std_accuracy": metrics.std}
        write_manifest(out_dir, [config], started, extra)
    return metrics


def evaluate(
    model,
    bundle: DatasetBundle,
    protocol: ObservationProtocol,
    stage: str,
) -> float:
    """Accuracy over a stage's frozen partial observations; deterministic.

    The observed views, and a k-hop model's partitions, come from the
    bundle's frozen cache, so the step draws nothing from an rng; one step
    covers the whole stage, under ``no_grad``, so no tape is built.
    """
    indices = bundle.indices(stage)
    if not indices:
        raise ValueError(f"stage {stage!r} has no records")
    views = bundle.frozen_views(protocol, stage)
    cfg = model.config
    records = [bundle.records[idx] for idx in indices]
    partitions = None
    if cfg.khop:
        partitions = [
            bundle.frozen_partition(protocol, stage, idx, cfg.k, cfg.neighbor_cap)
            for idx in indices
        ]
    with ad.no_grad():
        logits = model.step(records, [views[idx] for idx in indices], partitions=partitions).logits
    labels = np.array([record.label for record in records])
    return int(np.count_nonzero(np.argmax(logits, axis=1) == labels)) / len(indices)


def unpaired_t_test(sample_a, sample_b) -> float:
    """Welch's two-sided unpaired t-test p-value.

    Zero variance on both sides is a convention case: p = 1.0 for equal
    means, 0.0 otherwise.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 values")
    if a.var(ddof=1) == 0.0 and b.var(ddof=1) == 0.0:
        return 1.0 if a.mean() == b.mean() else 0.0
    import scipy.stats  # about 1 s to import; only this function needs it

    with warnings.catch_warnings():
        # One zero-variance side trips scipy's cancellation warning, although
        # the p-value is right.
        warnings.filterwarnings(
            "ignore", r"Precision loss occurred in moment calculation", RuntimeWarning
        )
        return float(scipy.stats.ttest_ind(a, b, equal_var=False).pvalue)


def _result_row(
    config: RunConfig, dataset: str, seed: int, accuracy: float, n_obs_test: int | None = None
) -> dict:
    """One CSV_COLUMNS row: a seed's test accuracy under ``config``."""
    return {
        "dataset": dataset,
        "model": config.model.variant,
        "seed": seed,
        "n_obs_train": config.protocol.n_obs,
        "n_obs_test": config.protocol.n_obs if n_obs_test is None else n_obs_test,
        "lambda_khop": config.model.lambda_khop,
        "lambda_second": config.model.lambda_second,
        "split": "test",
        "accuracy": accuracy,
    }


def write_csv(path, rows: list[dict], columns=CSV_COLUMNS) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _summarize(rows: list[dict], cell_keys: tuple[str, ...], baseline: str | None = None) -> list:
    """Mean and std of accuracy per dataset, model and grid cell.

    Given ``baseline`` (a model name), each summary row also holds
    ``p_vs_baseline``, the Welch p-value of its accuracies against that
    model's, blank for the baseline itself and when it was not run.
    """
    columns = ("dataset", "model", *cell_keys)
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        cells.setdefault(tuple(row[k] for k in columns), []).append(row["accuracy"])
    reference = next((accs for key, accs in cells.items() if key[1] == baseline), None)
    summary = []
    for key, accs in sorted(cells.items()):
        entry = {
            **dict(zip(columns, key)),
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "n_seeds": len(accs),
        }
        if baseline is not None:
            entry["p_vs_baseline"] = (
                unpaired_t_test(accs, reference)
                if reference is not None and key[1] != baseline else ""
            )
        summary.append(entry)
    return summary


def _check_distinct(name: str, values) -> None:
    """Reject a repeated grid value: its cell would train again and count its seeds twice."""
    repeated = [value for i, value in enumerate(values) if value in values[:i]]
    if repeated:
        raise ValueError(f"{name}: {repeated[0]!r} is repeated")


def _grid(cells, bundle, cell_keys, out_dir, prefix, test_sizes=None, baseline=None) -> list:
    """Train every cell once per seed; one CSV_COLUMNS row per seed and test size
    (default: the trained size).  The trained size reports the seed's test
    accuracy; every other size is evaluated on its own frozen observations.
    Returns the summary; given ``out_dir``, writes ``<prefix>_runs.csv``,
    ``<prefix>_summary.csv`` and ``manifest.json``."""
    started = time.time()
    rows = []
    for cell in cells:
        trained = cell.protocol.n_obs
        for seed in cell.seeds:
            result, model = train_single_seed(cell, bundle, seed)
            for size in test_sizes or [trained]:
                accuracy = result.test_accuracy
                if size != trained and not result.diverged:
                    protocol = dataclasses.replace(cell.protocol, n_obs=size)
                    accuracy = evaluate(model, bundle, protocol, "test")
                rows.append(_result_row(cell, bundle.name, seed, accuracy, n_obs_test=size))
    summary = _summarize(rows, cell_keys, baseline)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / f"{prefix}_runs.csv", rows)
        write_csv(out / f"{prefix}_summary.csv", summary, columns=summary[0].keys())
        write_manifest(out, cells, started)
    return summary


def sweep_observed(
    config: RunConfig,
    sizes: list[int],
    out_dir=None,
    bundle: DatasetBundle | None = None,
) -> list[dict]:
    """Grid over train-size x test-size observed-node counts.

    Each train size is trained once per seed; every test size is then
    evaluated against its own frozen observation sets.  Sizes larger than
    every subgraph are clamped by the sampler (with a warning here).
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    _check_distinct("sizes", sizes)
    bundle = bundle if bundle is not None else load_bundle(config)
    max_size = max(len(r.node_ids) for r in bundle.records)
    for size in sizes:
        if size > max_size:
            log.warning("observed size %d exceeds every subgraph; it will clamp", size)
    cells = [
        dataclasses.replace(config, protocol=dataclasses.replace(config.protocol, n_obs=size))
        for size in sizes
    ]
    cell_keys = ("n_obs_train", "n_obs_test")
    return _grid(cells, bundle, cell_keys, out_dir, "observed_sweep", test_sizes=sizes)


def sweep_lambda(
    config: RunConfig,
    lambda_khop_grid: list[float],
    lambda_second_grid: list[float],
    out_dir=None,
    bundle: DatasetBundle | None = None,
) -> list[dict]:
    """Grid over the k-hop and second-stage loss weights.  Only a k-hop
    variant reads ``lambda_khop`` and only a two-stage one ``lambda_second``;
    a grid of more than one value over a lambda the variant does not read is
    rejected before any training."""
    if not lambda_khop_grid or not lambda_second_grid:
        raise ValueError("both lambda grids must be nonempty")
    _check_distinct("lambda_khop_grid", lambda_khop_grid)
    _check_distinct("lambda_second_grid", lambda_second_grid)
    model = config.model
    for name, grid, needs, reads in (
        ("lambda_khop", lambda_khop_grid, "a k-hop variant", model.khop),
        ("lambda_second", lambda_second_grid, "a two-stage variant", model.is_two_stage),
    ):
        if len(grid) > 1 and not reads:
            raise ValueError(
                f"{name}_grid {list(grid)}: variant {model.variant!r} does not read {name} "
                f"({needs} does), so every cell would train the same model"
            )
    bundle = bundle if bundle is not None else load_bundle(config)
    cells = [
        dataclasses.replace(
            config,
            model=dataclasses.replace(config.model, lambda_khop=lam_k, lambda_second=lam_2),
        )
        for lam_k in lambda_khop_grid
        for lam_2 in lambda_second_grid
    ]
    return _grid(cells, bundle, ("lambda_khop", "lambda_second"), out_dir, "lambda_sweep")


def compare(
    config: RunConfig,
    variants: list[str],
    out_dir=None,
    bundle: DatasetBundle | None = None,
) -> list[dict]:
    """Grid over model variants: each trains once per seed under ``config``,
    and every variant's accuracies are tested against ``baseline``'s."""
    if not variants:
        raise ValueError("variants must be nonempty")
    _check_distinct("variants", variants)
    cells = [
        dataclasses.replace(config, model=dataclasses.replace(config.model, variant=variant))
        for variant in variants
    ]
    if "baseline" in variants and len(config.seeds) < 2:
        raise ValueError(
            f"the t-test against baseline needs at least 2 seeds, got {len(config.seeds)}"
        )
    bundle = bundle if bundle is not None else load_bundle(config)
    return _grid(cells, bundle, (), out_dir, "compare", baseline="baseline")


def _echo(values: list):
    """The cells' shared value; dicts merge key by key, and values that differ
    become the list of the distinct ones in the order the cells first use them."""
    if all(value == values[0] for value in values):
        return values[0]
    if all(isinstance(value, dict) for value in values):
        return {key: _echo([value[key] for value in values]) for key in values[0]}
    return [value for i, value in enumerate(values) if value not in values[:i]]


def write_manifest(out_dir, cells: list[RunConfig], started: float, extra: dict | None = None):
    """JSON run manifest in the run directory ``out_dir``: the echo of the
    trained cells' configs, seeds, versions, wall time."""
    import scipy  # only the manifest reads it; the package import stays without it

    manifest = {
        "config": _echo([asdict(cell) for cell in cells]),
        "seeds": list(cells[0].seeds),
        "versions": {
            "subgraph_infomax": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_seconds": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    with open(Path(out_dir) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
