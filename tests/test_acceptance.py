"""Acceptance gates: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end gate
(criterion 7) and the sweep smoke (criterion 10) train real models and take
a few minutes combined; everything else is fast.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, finite_diff_check
from subgraph_infomax.data import (
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    sample_observed,
)
from subgraph_infomax.graph import SubgraphRecord, SubgraphView, disjoint_union
from subgraph_infomax.infomax import cgd_random_trials, gd_loss, infonce_loss, khop_loss
from subgraph_infomax.layers import (
    BilinearDiscriminator,
    GatedAttentionReadout,
    MeanMlpReadout,
    Mlp,
)
from subgraph_infomax.models import ModelConfig, topk_softmax_pool
from subgraph_infomax.optim import AdamConfig, ParameterStore
from subgraph_infomax.train import (
    CSV_COLUMNS,
    RunConfig,
    load_bundle,
    sweep_lambda,
    sweep_observed,
    train,
    unpaired_t_test,
)
from subgraph_infomax.verify import (
    gradient_model_report,
    gradient_op_report,
    khop_oracle_report,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def test_criterion_01_gradient_oracle():
    started = time.time()
    results = gradient_op_report(seed=0) + gradient_model_report(seed=0)
    elapsed = time.time() - started
    worst = max(r.value for r in results)
    ok = all(r.ok for r in results) and elapsed < 60.0
    report(1, "gradient-oracle", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]
    assert elapsed < 60.0


def test_criterion_02_analytic_loss_values():
    gd = gd_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4))).item()
    errors = [abs(gd - 2 * math.log(2))]
    for k in (1, 3, 10):
        nce = ad.mean(infonce_loss(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, k))))).item()
        errors.append(abs(nce - math.log(k + 1)))
    balanced = khop_loss(Tensor(np.zeros((10, 1))), np.arange(10) < 5).item()
    errors.append(abs(balanced - math.log(2)))
    ok = max(errors) < 1e-9
    report(2, "analytic-loss-values", ok, f"max deviation {max(errors):.2e}")
    assert ok


def test_criterion_03_khop_oracle_equivalence():
    started = time.time()
    result = khop_oracle_report(graphs=100, seed=0, max_nodes=200)
    elapsed = time.time() - started
    ok = result.ok and elapsed < 10.0
    report(3, "khop-bfs-oracle", ok, f"{int(result.value)} mismatches, {elapsed:.1f}s")
    assert result.ok
    assert elapsed < 10.0


def test_criterion_04_conditional_gd_bound():
    started = time.time()
    violations = cgd_random_trials(1000, np.random.default_rng(0), tolerance=1e-12)
    elapsed = time.time() - started
    ok = violations == 0 and elapsed < 30.0
    report(4, "conditional-gd-bound", ok, f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_05_pooling_example_and_ties():
    store = ParameterStore()
    mlp = Mlp(store, "m", 2, 2, 2, np.random.default_rng(0))
    mlp.w1.values[:] = np.eye(2)
    mlp.b1.values[:] = 0.0
    mlp.w2.values[:] = np.eye(2)
    mlp.b2.values[:] = 0.0

    scores = Tensor(np.array([[2.0], [1.0], [0.0], [-1.0]]))
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [9.0, 9.0], [9.0, 9.0]]))
    pooled, ids = topk_softmax_pool(scores, h, [0, 1, 2, 3], 0.5, mlp, np.arange(4))
    hand = np.array([0.73106, 0.26894])
    value_ok = np.allclose(pooled.values[0], hand, atol=1e-5)

    tie_scores = Tensor(np.zeros((4, 1)))
    tie_h = Tensor(np.zeros((4, 2)))
    picks = {
        topk_softmax_pool(tie_scores, tie_h, [7, 3, 9, 5], 0.5, mlp, np.arange(4))[1]
        for _ in range(5)
    }
    tie_ok = picks == {(3, 5)}
    ok = value_ok and tie_ok
    report(5, "pooling-example-and-ties", ok,
           f"pooled {np.round(pooled.values[0], 5).tolist()}, ties {sorted(picks)}")
    assert value_ok and tie_ok


def _frozen_sets_fingerprint(env):
    code = (
        "import json\n"
        "from subgraph_infomax.data import ObservationProtocol, SyntheticSpec, generate_synthetic\n"
        "bundle = generate_synthetic(SyntheticSpec())\n"
        "protocol = ObservationProtocol(n_obs=4)\n"
        "out = {stage: {str(i): list(view.node_ids)\n"
        "               for i, view in bundle.frozen_views(protocol, stage).items()}\n"
        "       for stage in ('val', 'test')}\n"
        "print(json.dumps(out, sort_keys=True))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return proc.stdout.strip()


def test_criterion_06_protocol_invariants(subprocess_env):
    # Frozen eval sets: 3 in-process recomputations x 2 separate processes.
    protocol = ObservationProtocol(n_obs=4)
    in_process = []
    for _ in range(3):
        bundle = generate_synthetic(SyntheticSpec())
        in_process.append(
            {stage: {i: view.node_ids for i, view in bundle.frozen_views(protocol, stage).items()}
             for stage in ("val", "test")}
        )
    frozen_ok = in_process[0] == in_process[1] == in_process[2]
    process_ok = (
        _frozen_sets_fingerprint(subprocess_env) == _frozen_sets_fingerprint(subprocess_env)
    )

    record = SubgraphRecord(
        node_ids=tuple(range(30)), edge_pairs=(), label=0,
        observation_order=tuple(np.random.default_rng(5).permutation(30)),
    )
    ordered = ObservationProtocol(n_obs=7, ordered=True, train_jitter=False)
    prefix_ok = all(
        sample_observed(record, ObservationProtocol(n_obs=k, ordered=True, train_jitter=False), "val")
        == record.observation_order[:k]
        for k in range(1, 12)
    )

    jitter = ObservationProtocol(n_obs=8, train_jitter=True)
    rng = np.random.default_rng(0)
    sizes = {len(sample_observed(record, jitter, "train", rng)) for _ in range(1000)}
    jitter_ok = sizes == {6, 7, 8, 9, 10}

    ok = frozen_ok and process_ok and prefix_ok and jitter_ok
    report(6, "protocol-invariants", ok,
           f"frozen {frozen_ok}, cross-process {process_ok}, prefix {prefix_ok}, "
           f"jitter sizes {sorted(sizes)}")
    assert ok


def _headline_run(variant, epochs, bundle, **model_kwargs):
    config = RunConfig(
        model=ModelConfig(variant=variant, hidden_dim=64, **model_kwargs),
        protocol=ObservationProtocol(n_obs=4),
        synthetic=SyntheticSpec(),
        adam=AdamConfig(learning_rate=3e-3),
        epochs=epochs,
        batch_size=16,
        seeds=(0, 1, 2, 3, 4),
    )
    return train(config, bundle=bundle)


@pytest.mark.slow
def test_criterion_07_synthetic_end_to_end():
    # The 300 s gate is on this process's CPU time, so sharing the CPUs with
    # another process cannot fail it; on a quiet host both clocks read the same.
    started, cpu_started = time.time(), time.process_time()
    bundle = load_bundle(RunConfig(synthetic=SyntheticSpec(), epochs=1))
    majority = bundle.majority_class_rate("test")

    infograph = _headline_run("ps-infograph", 80, bundle)
    accuracy_ok = infograph.mean >= majority + 0.25

    halved = 0
    for seed_result in infograph.per_seed:
        graph_trace = seed_result.loss_trace["graph"]
        infomax_trace = seed_result.loss_trace["infomax"]
        if (
            graph_trace[-1] <= 0.5 * graph_trace[0]
            and infomax_trace[-1] <= 0.5 * infomax_trace[0]
        ):
            halved += 1
    halving_ok = halved >= 4

    baseline = _headline_run("baseline", 80, bundle)
    khop_ig = _headline_run("khop+ps-infograph", 50, bundle, pool_ratio=0.25)
    directional_ok = khop_ig.mean >= baseline.mean
    p_value = unpaired_t_test(khop_ig.accuracies, baseline.accuracies)

    elapsed = time.time() - started
    cpu = time.process_time() - cpu_started
    runtime_ok = cpu < 300.0
    ok = accuracy_ok and halving_ok and directional_ok and runtime_ok
    report(
        7, "synthetic-end-to-end", ok,
        f"infograph {infograph.mean:.3f} vs bar {majority + 0.25:.3f}; "
        f"halved {halved}/5; khop+infograph {khop_ig.mean:.3f} >= "
        f"baseline {baseline.mean:.3f} (t-test p {p_value:.3f}); "
        f"{cpu:.0f}s CPU, {elapsed:.0f}s wall",
    )
    assert accuracy_ok, (infograph.mean, majority)
    assert halving_ok, halved
    assert directional_ok, (khop_ig.mean, baseline.mean)
    assert runtime_ok, (cpu, elapsed)


def test_criterion_08_invariance_and_linearity():
    rng = np.random.default_rng(0)
    store = ParameterStore()
    mean_readout = MeanMlpReadout(store, "mean", 6, np.random.default_rng(1))
    attn_readout = GatedAttentionReadout(store, "attn", 6, np.random.default_rng(2), premixer="mlp")
    h = rng.normal(size=(9, 6))
    perm = rng.permutation(9)
    view = disjoint_union([SubgraphView(tuple(range(9)), np.empty((0, 2), dtype=np.int64))])
    mean_drift = np.abs(
        mean_readout(Tensor(h), view).values - mean_readout(Tensor(h[perm]), view).values
    ).max()
    attn_drift = np.abs(
        attn_readout(Tensor(h), view).values - attn_readout(Tensor(h[perm]), view).values
    ).max()

    disc = BilinearDiscriminator(store, "disc", 6, np.random.default_rng(3))
    rows = rng.normal(size=(5, 6))
    summary = Tensor(rng.normal(size=(1, 6)))
    base = disc(Tensor(rows), summary).values
    linear_ok = all(
        np.array_equal(disc(Tensor(alpha * rows), summary).values, alpha * base)
        for alpha in (2.0, 0.5, -1.0, 4.0)
    )
    ok = mean_drift <= 1e-12 and attn_drift <= 1e-12 and linear_ok
    report(8, "invariance-and-linearity", ok,
           f"mean drift {mean_drift:.1e}, attention drift {attn_drift:.1e}, "
           f"bilinear exact {linear_ok}")
    assert ok


DATASET_EXPECTATIONS = {
    "hpo-metab": ExpectedStats(num_subgraphs=2397, num_classes=6, num_global_nodes=14587),
    "em-user": ExpectedStats(num_subgraphs=319, num_classes=2, num_global_nodes=57333),
}


def test_criterion_09_conditional_dataset_check():
    root = os.environ.get("SUBGRAPH_INFOMAX_DATA")
    available = []
    if root:
        for name in DATASET_EXPECTATIONS:
            folder = Path(root) / name
            if (folder / "edges.txt").exists() and (folder / "subgraphs.tsv").exists():
                available.append(name)
    if not available:
        report(9, "dataset-statistics", True, "skipped: no dataset files supplied")
        pytest.skip("real dataset files not present (set SUBGRAPH_INFOMAX_DATA)")
    for name in available:
        folder = Path(root) / name
        bundle = load_dataset(
            folder / "edges.txt",
            folder / "subgraphs.tsv",
            expected=DATASET_EXPECTATIONS[name],
        )
        assert bundle.records
    report(9, "dataset-statistics", True, f"validated {', '.join(available)}")


SMOKE_SPEC = SyntheticSpec(
    num_nodes=80,
    communities=2,
    p_intra=0.25,
    p_inter=0.03,
    num_subgraphs=20,
    subgraph_size_min=5,
    subgraph_size_max=8,
    feature_dim=4,
    feature_noise=0.4,
    seed=13,
)


@pytest.mark.slow
def test_criterion_10_sweep_harnesses(tmp_path):
    started = time.time()
    observed_config = RunConfig(
        model=ModelConfig(variant="ps-dgi", hidden_dim=8),
        protocol=ObservationProtocol(n_obs=4),
        synthetic=SMOKE_SPEC,
        epochs=1,
        batch_size=8,
        seeds=(0,),
    )
    first = sweep_observed(observed_config, [4, 8], out_dir=tmp_path / "obs")
    second = sweep_observed(observed_config, [4, 8])
    observed_ok = first == second and len(first) == 4

    lambda_config = RunConfig(
        model=ModelConfig(variant="khop+ps-dgi", hidden_dim=8, pool_ratio=0.5),
        protocol=ObservationProtocol(n_obs=3),
        synthetic=SMOKE_SPEC,
        epochs=1,
        batch_size=8,
        seeds=(0,),
    )
    grid = [1.0, 2.0, 3.0]
    lam_first = sweep_lambda(lambda_config, grid, grid, out_dir=tmp_path / "lam")
    lam_second = sweep_lambda(lambda_config, grid, grid)
    lambda_ok = lam_first == lam_second and len(lam_first) == 9

    schema_ok = True
    for path in (tmp_path / "obs" / "observed_sweep_runs.csv",
                 tmp_path / "lam" / "lambda_sweep_runs.csv"):
        with open(path, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            schema_ok &= tuple(reader.fieldnames) == CSV_COLUMNS
            rows = list(reader)
            schema_ok &= all(all(row[c] != "" for c in CSV_COLUMNS) for row in rows)

    elapsed = time.time() - started
    runtime_ok = elapsed < 180.0
    ok = observed_ok and lambda_ok and schema_ok and runtime_ok
    report(10, "sweep-harnesses", ok,
           f"observed cells {len(first)}, lambda cells {len(lam_first)}, "
           f"schema {schema_ok}, {elapsed:.0f}s")
    assert observed_ok and lambda_ok and schema_ok
    assert runtime_ok, elapsed
