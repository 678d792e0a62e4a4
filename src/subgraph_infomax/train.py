"""Training loop, evaluation, significance testing, and sweep harnesses.

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
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import autodiff as ad
from .data import (
    DatasetBundle,
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    sample_observed,
)
from .graph import induced_partial_subgraph
from .models import ModelConfig, build_model
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
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    split_seed: int = 0
    directed: bool = False
    expected: ExpectedStats | None = None


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
        if self.batch_size < 1 or self.grad_accum < 1:
            raise ValueError("batch_size and grad_accum must be >= 1")
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

    @property
    def any_diverged(self) -> bool:
        return any(s.diverged for s in self.per_seed)


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
    if config.batch_size < 2 and config.model.uses_batch_negatives:
        raise ValueError(
            f"{config.model.variant} draws negatives from the other batch members; "
            f"batch_size must be >= 2, got {config.batch_size}"
        )
    rng = np.random.default_rng(seed)
    model = build_model(config.model, bundle, rng, embedding_trainable=config.embedding_trainable)
    protocol = config.protocol
    train_indices = bundle.indices("train")
    if not train_indices:
        raise ValueError("the training split is empty")

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
            context = model.prepare_batch(records, rng, training=True)
            objectives = []
            for pos, record in enumerate(records):
                observed = sample_observed(record, protocol, "train", rng)
                partial = induced_partial_subgraph(record, observed)
                out = model.step(
                    record, partial, batch=context.for_target(pos),
                    rng=rng, training=True,
                )
                objectives.append(out.objective)
                for key, value in out.losses.items():
                    epoch_sums[key] = epoch_sums.get(key, 0.0) + value
                epoch_count += 1
            batch_obj = objectives[0]
            for extra in objectives[1:]:
                batch_obj = ad.add(batch_obj, extra)
            batch_obj = ad.scale(batch_obj, 1.0 / (len(objectives) * config.grad_accum))
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


def train(
    config: RunConfig, bundle: DatasetBundle | None = None, out_dir=None
) -> MetricsRecord:
    """Run every seed; divergent seeds are flagged and the rest continue.

    Given ``out_dir``, each seed's kept parameters go to ``params_seed<seed>.npz``.
    """
    bundle = bundle if bundle is not None else load_bundle(config)
    results = []
    for seed in config.seeds:
        result, model = train_single_seed(config, bundle, seed)
        results.append(result)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            model.store.save(out / f"params_seed{seed}.npz")
    return MetricsRecord(per_seed=results)


def evaluate(
    model,
    bundle: DatasetBundle,
    protocol: ObservationProtocol,
    stage: str,
) -> float:
    """Accuracy over a stage's frozen partial observations; deterministic."""
    indices = bundle.indices(stage)
    if not indices:
        raise ValueError(f"stage {stage!r} has no records")
    frozen = bundle.frozen_eval(protocol, stage)
    correct = 0
    for idx in indices:
        record = bundle.records[idx]
        partial = induced_partial_subgraph(record, frozen[idx])
        # Fresh per-record rng: only consumed if neighborhood capping binds.
        rng = np.random.default_rng([protocol.eval_fixed_seed, 104729, idx])
        out = model.step(record, partial, rng=rng, training=False)
        if int(np.argmax(out.logits)) == record.label:
            correct += 1
    return correct / len(indices)


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


def _summarize(
    rows: list[dict],
    cell_keys: tuple[str, ...],
    config: RunConfig,
    bundle: DatasetBundle,
    out_dir,
    prefix: str,
) -> list[dict]:
    """Mean and std of accuracy per cell; writes ``<prefix>_runs.csv`` and
    ``<prefix>_summary.csv`` when ``out_dir`` is given."""
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        cells.setdefault(tuple(row[k] for k in cell_keys), []).append(row["accuracy"])
    summary = [
        {
            **dict(zip(cell_keys, key)),
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "n_seeds": len(accs),
            "dataset": bundle.name,
            "model": config.model.variant,
        }
        for key, accs in sorted(cells.items())
    ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / f"{prefix}_runs.csv", rows)
        write_csv(
            out / f"{prefix}_summary.csv",
            summary,
            columns=("dataset", "model", *cell_keys, "mean_accuracy", "std_accuracy", "n_seeds"),
        )
    return summary


def _check_distinct(name: str, values) -> None:
    """Reject a repeated grid value: its cell would train again and count its seeds twice."""
    repeated = [value for i, value in enumerate(values) if value in values[:i]]
    if repeated:
        raise ValueError(f"{name}: {repeated[0]!r} is repeated")


def _grid(cells: list[RunConfig], bundle: DatasetBundle, test_sizes=None) -> list[dict]:
    """Train every cell once per seed; one CSV_COLUMNS row per seed and test size
    (default: the trained size).  The trained size reports the seed's test
    accuracy; every other size is evaluated on its own frozen observations."""
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
    return rows


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
    rows = _grid(cells, bundle, test_sizes=sizes)
    return _summarize(
        rows, ("n_obs_train", "n_obs_test"), config, bundle, out_dir, "observed_sweep"
    )


def sweep_lambda(
    config: RunConfig,
    lambda_khop_grid: list[float],
    lambda_second_grid: list[float],
    out_dir=None,
    bundle: DatasetBundle | None = None,
) -> list[dict]:
    """Grid over the k-hop and second-stage loss weights."""
    if not lambda_khop_grid or not lambda_second_grid:
        raise ValueError("both lambda grids must be nonempty")
    _check_distinct("lambda_khop_grid", lambda_khop_grid)
    _check_distinct("lambda_second_grid", lambda_second_grid)
    bundle = bundle if bundle is not None else load_bundle(config)
    cells = [
        dataclasses.replace(
            config,
            model=dataclasses.replace(config.model, lambda_khop=lam_k, lambda_second=lam_2),
        )
        for lam_k in lambda_khop_grid
        for lam_2 in lambda_second_grid
    ]
    rows = _grid(cells, bundle)
    return _summarize(
        rows, ("lambda_khop", "lambda_second"), config, bundle, out_dir, "lambda_sweep"
    )


def write_manifest(out_dir, config: RunConfig, started: float, extra: dict | None = None) -> str:
    """JSON run manifest: config echo, seeds, versions, wall time."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(config),
        "seeds": list(config.seeds),
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
    path = out / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return str(path)
