"""Bit-exact training digests for every variant.

The expected digests were recorded from the two-class model implementation
(``PsiModel`` and ``TwoStageModel`` with separate loss routines) before it
was folded into one step and one MI-loss routine; the fold must reproduce
them exactly.  A change that alters training numerics on purpose (a new rng
draw order, a batched forward) re-records them and says so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.data import ObservationProtocol, SyntheticSpec, sample_observed
from subgraph_infomax.graph import SubgraphRecord, SubgraphView, induced_partial_subgraph
from subgraph_infomax.models import ModelConfig, build_model, khop_forward
from subgraph_infomax.optim import AdamConfig
from subgraph_infomax.train import (
    RunConfig,
    load_bundle,
    sweep_lambda,
    sweep_observed,
    train_single_seed,
)

SPEC = SyntheticSpec(
    num_nodes=80,
    communities=2,
    p_intra=0.25,
    p_inter=0.03,
    num_subgraphs=24,
    subgraph_size_min=5,
    subgraph_size_max=8,
    n_obs=3,
    feature_dim=4,
    feature_noise=0.4,
    seed=13,
)

# 17 training records in batches of 6: no batch holds a single record.
GOLDEN = {
    "baseline": "64cced3b10fe7ffa",
    "ps-dgi": "11cad7e04af0e14f",
    "ps-infograph": "54d68355dcdc8566",
    "ps-mvgrl": "5e85bd47ca4e3171",
    "ps-graphcl": "58269141e41c051b",
    "khop": "07e36d6a2d6829ef",
    "khop+ps-dgi": "a9ea24bc8697fc5e",
    "khop+ps-infograph": "1199397ab126e70b",
}

# Options no variant default turns on: name -> (variant, model overrides,
# run overrides, digest).  The first four were recorded while the
# ``max_positions`` and ``use_global_induced_edges`` options still existed;
# deleting them must not move these digests.  The ``grad-accum`` entries were
# recorded while Adam stepped both inside the batch loop and in a tail block
# after it: with 17 records in batches of 6 (3 batches), accumulation 2 steps
# once in the loop and once in the tail, accumulation 4 only in the tail.
EXTRA_GOLDEN = {
    "khop/pool-neighbors-only": (
        "khop", {"include_observed_in_pool": False}, {}, "cce4b8fa12a84a25",
    ),
    "khop+ps-infograph/concat-summary": (
        "khop+ps-infograph", {"concat_observed_summary": True}, {}, "1e4a1edab2344375",
    ),
    "khop+ps-dgi/positional-ordered": (
        "khop+ps-dgi", {"use_positional_encoding": True},
        {"protocol": ObservationProtocol(n_obs=3, ordered=True)}, "557cf97421cd6dbf",
    ),
    "khop+ps-dgi/attention-bidirectional": (
        "khop+ps-dgi", {"premixer": "attention", "bidirectional": True}, {},
        "6a019689b9238e4b",
    ),
    "ps-infograph/grad-accum-2": ("ps-infograph", {}, {"grad_accum": 2}, "fb8baa58eab99dbf"),
    "ps-infograph/grad-accum-4": ("ps-infograph", {}, {"grad_accum": 4}, "f2eeb86be861ea37"),
}


def golden_config(variant: str) -> RunConfig:
    return RunConfig(
        model=ModelConfig(variant=variant, hidden_dim=8, p_d=0.1, neighbor_cap=20),
        protocol=ObservationProtocol(n_obs=3),
        synthetic=SPEC,
        adam=AdamConfig(learning_rate=3e-3),
        epochs=2,
        batch_size=6,
        seeds=(0,),
    )


def extra_config(name: str) -> RunConfig:
    variant, model_changes, run_changes, _ = EXTRA_GOLDEN[name]
    config = golden_config(variant)
    return dataclasses.replace(
        config, model=dataclasses.replace(config.model, **model_changes), **run_changes
    )


def training_digest(variant: str) -> str:
    return config_digest(golden_config(variant))


def config_digest(config: RunConfig) -> str:
    """Digest of test accuracy, the val curve, every loss-trace value (as float
    hex) and the bytes of the kept parameters in creation order."""
    result, model = train_single_seed(config, load_bundle(config), 0)
    params = hashlib.sha256()
    for name, tensor in model.store.items():
        params.update(name.encode())
        params.update(tensor.values.tobytes())
    payload = [
        params.hexdigest(),
        float(result.test_accuracy).hex(),
        result.best_epoch,
        [float(v).hex() for v in result.val_accuracy],
        {k: [float(v).hex() for v in trace] for k, trace in sorted(result.loss_trace.items())},
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


# The four CSVs of both sweeps on the golden spec (khop+ps-dgi, 1 epoch,
# seeds 0 and 1), recorded while each sweep ran its own cells x seeds loop,
# re-evaluated the trained size, and sweep_lambda went through ``train``.
SWEEP_GOLDEN = "3d13723b2403f9c5"


def sweep_digest(out_dir) -> str:
    config = dataclasses.replace(golden_config("khop+ps-dgi"), epochs=1, seeds=(0, 1))
    sweep_observed(config, [2, 3, 5], out_dir=out_dir)
    sweep_lambda(config, [0.5, 1], [1, 2], out_dir=out_dir)
    digest = hashlib.sha256()
    for prefix in ("observed_sweep", "lambda_sweep"):
        for kind in ("runs", "summary"):
            digest.update((out_dir / f"{prefix}_{kind}.csv").read_bytes())
    return digest.hexdigest()[:16]


# One training-mode ``khop_forward`` on the golden spec: name ->
# (include_observed_in_pool, observe the whole graph, digest).  Observing
# every node leaves no neighbours, so the neighbours-only pool falls back to
# all scored rows.  Recorded before the forward took its scored ids from
# ``KhopPartition.node_ids`` and stopped gathering rows by identity.
KHOP_GOLDEN = {
    "default-pool": (True, False, "3ba3287e3f366f1a"),
    "neighbors-only-pool": (False, False, "f17443ab741b4fd9"),
    "no-neighbors-fallback": (False, True, "44371959dd8880c8"),
}


def khop_forward_digest(name: str) -> str:
    """Digest of scored and selected ids, the pooled summary's bytes, the
    membership loss and every parameter gradient after ``backward``."""
    include_observed, whole_graph, _ = KHOP_GOLDEN[name]
    config = golden_config("khop")
    model_config = dataclasses.replace(
        config.model, include_observed_in_pool=include_observed, pool_ratio=0.5
    )
    bundle = load_bundle(config)
    model = build_model(model_config, bundle, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    if whole_graph:
        record = SubgraphRecord(tuple(range(bundle.graph.num_nodes)), bundle.graph.edges, 0)
        partial = SubgraphView.from_record(record)
    else:
        record = bundle.records[0]
        observed = sample_observed(record, config.protocol, "train", rng)
        partial = induced_partial_subgraph(record, observed)
    res = khop_forward(model, record, partial, rng=rng, training=True)
    ad.backward(ad.add(ad.sum_all(res.s_khop), res.loss_khop))
    digest = hashlib.sha256()
    ids_and_loss = [res.scored_ids, res.selected_ids, res.loss_khop.item().hex()]
    digest.update(json.dumps(ids_and_loss).encode())
    digest.update(res.s_khop.values.tobytes())
    for param_name, tensor in model.store.items():
        if tensor.grad is not None:
            digest.update(param_name.encode())
            digest.update(tensor.grad.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(KHOP_GOLDEN))
def test_khop_forward_digest_is_unchanged(name):
    assert khop_forward_digest(name) == KHOP_GOLDEN[name][-1]


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_training_digest_is_unchanged(variant):
    assert training_digest(variant) == GOLDEN[variant]


@pytest.mark.parametrize("name", sorted(EXTRA_GOLDEN))
def test_option_digest_is_unchanged(name):
    assert config_digest(extra_config(name)) == EXTRA_GOLDEN[name][-1]


def test_sweep_digest_is_unchanged(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_GOLDEN


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{training_digest(name)}",')
    for name in EXTRA_GOLDEN:
        print(f'    "{name}": "{config_digest(extra_config(name))}",')
    for name in KHOP_GOLDEN:
        print(f'    "{name}": "{khop_forward_digest(name)}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'SWEEP_GOLDEN = "{sweep_digest(Path(tmp))}"')
