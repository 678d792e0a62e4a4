"""Bit-exact training digests for every variant.

The expected digests pin training to the byte, so a refactor must reproduce
them exactly.  A change that alters training numerics on purpose (a new rng
draw order, a batched forward) re-records them and says so in CHANGES.md.
"""

import ctypes
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.data import ObservationProtocol, SyntheticSpec, sample_observed
from subgraph_infomax.graph import SubgraphRecord, induced_partial_subgraph
from subgraph_infomax.models import ModelConfig, build_model
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

# The digests hash raw float64 bytes, so they hold only where BLAS rounds as
# it did when they were recorded: under OpenBLAS's AVX2 kernels the training,
# option and k-hop digests fail.
GOLDEN_ENV = {"blas_core": "SkylakeX", "numpy": "2.4.6"}


def blas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library runs, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def env_note() -> str:
    """Where the digests were recorded and where they are checked."""
    return (
        f"recorded on BLAS core {GOLDEN_ENV['blas_core']}, numpy {GOLDEN_ENV['numpy']}; "
        f"running on BLAS core {blas_core()}, numpy {np.__version__}"
    )


# 17 training records in batches of 6: no batch holds a single record.
#
# Every training digest was re-recorded when a step became one forward over
# its batch: a batch's observed views are sampled before its step, the step
# draws in the order the ``models`` docstring states, and each view set is
# encoded once as a disjoint union, so both the random numbers and the
# rounding moved.  ``tests/test_batched.py`` checks the batched step against
# the per-record path at dropout 0, within 1e-10.  The k-hop digests were
# re-recorded again when the k-hop stage became one forward over its batch:
# the partitions are drawn before the observed and k-hop unions' dropout,
# each k-hop row's score is a row product with its own record's summary
# (``sum(h W * s, 1)``, not a matrix product), and the membership loss is a
# segment mean.  ``SWEEP_GOLDEN`` held.
GOLDEN = {
    "baseline": "f33a3c6f014d8ee8",
    "ps-dgi": "d8bad49164bd7ddd",
    "ps-infograph": "d9a7d188154cd650",
    "ps-mvgrl": "cc34d9cc657df09d",
    "ps-graphcl": "16fffd9c7d97931e",
    "khop": "057ab25c837d2301",
    "khop+ps-dgi": "372a39b05f0dedc8",
    "khop+ps-infograph": "e46a617c312c8ece",
}

# Options no variant default turns on: name -> (variant, model overrides,
# run overrides, digest).  With 17 records in batches of 6 (3 batches),
# gradient accumulation 2 steps Adam after batches 2 and 3, and accumulation
# 4 only after batch 3.  ``frozen-table`` trains no embedding row, so no
# gradient reaches the first layer's input.  All were re-recorded with the
# training digests above, and the k-hop ones with the k-hop stage.
EXTRA_GOLDEN = {
    "khop/pool-neighbors-only": (
        "khop", {"include_observed_in_pool": False}, {}, "69905f200201d171",
    ),
    "khop+ps-infograph/concat-summary": (
        "khop+ps-infograph", {"concat_observed_summary": True}, {}, "f2d6cbc83bfbffb4",
    ),
    "khop+ps-dgi/positional-ordered": (
        "khop+ps-dgi", {"use_positional_encoding": True},
        {"protocol": ObservationProtocol(n_obs=3, ordered=True)}, "124fce7e64914aca",
    ),
    "khop+ps-dgi/attention-bidirectional": (
        "khop+ps-dgi", {"premixer": "attention", "bidirectional": True}, {},
        "86a4a6fcc2251d05",
    ),
    "ps-infograph/grad-accum-2": ("ps-infograph", {}, {"grad_accum": 2}, "4364797735241c1a"),
    "ps-infograph/grad-accum-4": ("ps-infograph", {}, {"grad_accum": 4}, "4a9dad392f056374"),
    "khop+ps-infograph/frozen-table": (
        "khop+ps-infograph", {}, {"embedding_trainable": False}, "3d457f3e73a8df5d",
    ),
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


# One training-mode k-hop stage of one record on the golden spec: name ->
# (include_observed_in_pool, observe the whole graph, digest).  Observing
# every node leaves no neighbours, so the neighbours-only pool falls back to
# all scored rows.  Recorded before the forward took its scored ids from
# ``KhopPartition.node_ids`` and stopped gathering rows by identity, and
# re-recorded with the training digests for ``sage_combine``, and again
# when the stage became one forward over its batch, for the row-product
# score.
KHOP_GOLDEN = {
    "default-pool": (True, False, "a45f6bf2fbd1a726"),
    "neighbors-only-pool": (False, False, "44037cf66548b1d4"),
    "no-neighbors-fallback": (False, True, "19863bf560a5a5c1"),
}


def khop_stage_digest(name: str) -> str:
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
        record = SubgraphRecord(tuple(range(bundle.graph.num_nodes)), bundle.graph.pairs(), 0)
        partial = record.view
    else:
        record = bundle.records[0]
        observed = sample_observed(record, config.protocol, "train", rng)
        partial = induced_partial_subgraph(record, observed)
    stage = model.khop_stage([record], [partial], rng=rng, training=True)
    ad.backward(ad.add(ad.sum(stage.s_khop), stage.loss))
    digest = hashlib.sha256()
    ids_and_loss = [stage.partitions[0].node_ids, stage.selected_ids[0], stage.loss.item().hex()]
    digest.update(json.dumps(ids_and_loss).encode())
    digest.update(stage.s_khop.values.tobytes())
    for param_name, tensor in model.store.items():
        if tensor.grad is not None:
            digest.update(param_name.encode())
            digest.update(tensor.grad.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(KHOP_GOLDEN))
def test_khop_forward_digest_is_unchanged(name):
    assert khop_stage_digest(name) == KHOP_GOLDEN[name][-1], env_note()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_training_digest_is_unchanged(variant):
    assert training_digest(variant) == GOLDEN[variant], env_note()


@pytest.mark.parametrize("name", sorted(EXTRA_GOLDEN))
def test_option_digest_is_unchanged(name):
    assert config_digest(extra_config(name)) == EXTRA_GOLDEN[name][-1], env_note()


def test_sweep_digest_is_unchanged(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_GOLDEN, env_note()


if __name__ == "__main__":
    print(f'GOLDEN_ENV = {{"blas_core": "{blas_core()}", "numpy": "{np.__version__}"}}')
    for name in GOLDEN:
        print(f'    "{name}": "{training_digest(name)}",')
    for name in EXTRA_GOLDEN:
        print(f'    "{name}": "{config_digest(extra_config(name))}",')
    for name in KHOP_GOLDEN:
        print(f'    "{name}": "{khop_stage_digest(name)}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'SWEEP_GOLDEN = "{sweep_digest(Path(tmp))}"')
