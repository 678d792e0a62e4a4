"""Bit-exact training digests for every variant.

The expected digests were recorded from the two-class model implementation
(``PsiModel`` and ``TwoStageModel`` with separate loss routines) before it
was folded into one step and one MI-loss routine; the fold must reproduce
them exactly.  A change that alters training numerics on purpose (a new rng
draw order, a batched forward) re-records them and says so in CHANGES.md.
"""

import ctypes
import dataclasses
import hashlib
import json
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.data import ObservationProtocol, SyntheticSpec, sample_observed
from subgraph_infomax.graph import SubgraphRecord, induced_partial_subgraph
from subgraph_infomax.infomax import augment, gd_loss, infonce_loss
from subgraph_infomax.models import (
    GRAPHCL_AUGMENTATIONS,
    ModelConfig,
    build_model,
    khop_forward,
)
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
# ps-infograph, ps-graphcl and khop+ps-infograph (and the three options below
# that train them) were re-recorded when in-batch negatives came to be scored
# once per batch; ``test_batched_negatives_match_the_per_pair_oracle`` checks
# that change against the per-pair formulation.
#
# The digests that train the embedding table were re-recorded when the SAGE
# layer became one ``sage_combine`` node: the first layer's input gradient
# now adds the projected skip's term before the neighbour gather's, where the
# composed ops added it after, so the table's gradient moves in its last bits.
# ps-mvgrl's gradient moves too, but its trained bytes and losses do not.
# Forward values, the second layer's identity-skip order and every ``affine``
# are unchanged (the fused ops are checked against the composed ones in
# ``tests/test_autodiff.py``).
GOLDEN = {
    "baseline": "773e1a2bb236c769",
    "ps-dgi": "d420dc2ad241dddb",
    "ps-infograph": "c9b35f801ef02373",
    "ps-mvgrl": "5e85bd47ca4e3171",
    "ps-graphcl": "71e780f978109728",
    "khop": "1f47f7a72b6e7948",
    "khop+ps-dgi": "1280685b359c7514",
    "khop+ps-infograph": "9f57b21734bc604f",
}

# Options no variant default turns on: name -> (variant, model overrides,
# run overrides, digest).  The first four were recorded while the
# ``max_positions`` and ``use_global_induced_edges`` options still existed;
# deleting them must not move these digests.  The ``grad-accum`` entries were
# first recorded while Adam stepped both inside the batch loop and in a tail
# block after it: with 17 records in batches of 6 (3 batches), accumulation 2
# steps once in the loop and once in the tail, accumulation 4 only in the
# tail.  They and ``concat-summary`` were re-recorded with the variants above.
# ``frozen-table`` trains no embedding row, so no gradient reaches the first
# layer's input; it was recorded before the fused layer ops.
EXTRA_GOLDEN = {
    "khop/pool-neighbors-only": (
        "khop", {"include_observed_in_pool": False}, {}, "bacfd8ed5822cc6c",
    ),
    "khop+ps-infograph/concat-summary": (
        "khop+ps-infograph", {"concat_observed_summary": True}, {}, "e32bcc0fd352ba28",
    ),
    "khop+ps-dgi/positional-ordered": (
        "khop+ps-dgi", {"use_positional_encoding": True},
        {"protocol": ObservationProtocol(n_obs=3, ordered=True)}, "803dde587510eb6f",
    ),
    "khop+ps-dgi/attention-bidirectional": (
        "khop+ps-dgi", {"premixer": "attention", "bidirectional": True}, {},
        "5b686a362a868854",
    ),
    "ps-infograph/grad-accum-2": ("ps-infograph", {}, {"grad_accum": 2}, "4c1f5981a12e19af"),
    "ps-infograph/grad-accum-4": ("ps-infograph", {}, {"grad_accum": 4}, "f29df029c59ff282"),
    "khop+ps-infograph/frozen-table": (
        "khop+ps-infograph", {}, {"embedding_trainable": False}, "3a21318524159ec1",
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


# One training-mode ``khop_forward`` on the golden spec: name ->
# (include_observed_in_pool, observe the whole graph, digest).  Observing
# every node leaves no neighbours, so the neighbours-only pool falls back to
# all scored rows.  Recorded before the forward took its scored ids from
# ``KhopPartition.node_ids`` and stopped gathering rows by identity, and
# re-recorded with the training digests for ``sage_combine``.
KHOP_GOLDEN = {
    "default-pool": (True, False, "9669d402bb7dafca"),
    "neighbors-only-pool": (False, False, "dd06e0c9f507ff79"),
    "no-neighbors-fallback": (False, True, "ccca0c07fafe4aad"),
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
        partial = record.view
    else:
        record = bundle.records[0]
        observed = sample_observed(record, config.protocol, "train", rng)
        partial = induced_partial_subgraph(record, observed)
    res = khop_forward(model, record, partial, rng=rng, training=True)
    ad.backward(ad.add(ad.sum(res.s_khop), res.loss_khop))
    digest = hashlib.sha256()
    ids_and_loss = [res.partition.node_ids, res.selected_ids, res.loss_khop.item().hex()]
    digest.update(json.dumps(ids_and_loss).encode())
    digest.update(res.s_khop.values.tobytes())
    for param_name, tensor in model.store.items():
        if tensor.grad is not None:
            digest.update(param_name.encode())
            digest.update(tensor.grad.tobytes())
    return digest.hexdigest()[:16]


# -- in-batch negatives against the per-pair and per-target oracle ----------
#
# ps-graphcl used to score its summary against each augmented summary with
# one cosine call per pair, and ps-infograph (alone or as the second stage)
# used to push every target's stacked negatives through the bilinear matrix
# again.  The oracle below is that formulation; the batched one must give
# the same objectives and gradients, and draw the same random numbers.


def _per_pair_cosine(h, s, temperature):
    dots = ad.sum(ad.mul(h, s), 1)
    h_norm = ad.sqrt(ad.clip_min(ad.sum(ad.mul(h, h), 1), 1e-30))
    s_norm = ad.sqrt(ad.clip_min(ad.sum(ad.mul(s, s), 1), 1e-30))
    return ad.scale(ad.div(dots, ad.mul(h_norm, s_norm)), 1.0 / temperature)


def _per_target_bilinear(discriminator, h, s):
    return ad.matmul(ad.matmul(h, discriminator.w), ad.transpose(s))


@dataclasses.dataclass
class _PerPairBatch:
    records: tuple
    encoded_full: tuple | None
    aug_summaries: tuple | None
    target_index: int = 0

    def for_target(self, index):
        return dataclasses.replace(self, target_index=index)


def _per_pair_prepare_batch(model, records, rng):
    cfg = model.config
    encoded_full = aug_summaries = None
    if cfg.term == "ps-infograph":
        encoded_full = tuple(
            model.encode_view(r.view, True, rng) for r in records
        )
    if cfg.term == "ps-graphcl":
        summaries = []
        for r in records:
            view = r.view
            for name in GRAPHCL_AUGMENTATIONS:
                view = augment(name, view, cfg.aug_p, rng)
            summaries.append(model.readout(model.encode_view(view, True, rng)))
        aug_summaries = tuple(summaries)
    return _PerPairBatch(tuple(records), encoded_full, aug_summaries)


def _per_pair_mi_loss(model, summary, record, partial, batch, rng, training):
    variant = model.config.term
    # The per-pair path took the second stage's W in a two-stage model.
    two_stage = model.config.is_two_stage
    discriminator = model.discriminator_second if two_stage else model.discriminator
    target = batch.target_index
    if variant == "ps-infograph":
        h_neg = ad.concat([h for i, h in enumerate(batch.encoded_full) if i != target], 0)
        return gd_loss(
            _per_target_bilinear(discriminator, batch.encoded_full[target], summary),
            _per_target_bilinear(discriminator, h_neg, summary),
        )
    tau = model.config.temperature
    pos = _per_pair_cosine(batch.aug_summaries[target], summary, tau)
    negs = ad.concat([
        ad.transpose(_per_pair_cosine(s, summary, tau))
        for i, s in enumerate(batch.aug_summaries) if i != target
    ], 1)
    return infonce_loss(pos, negs)


def _train_batch(config, per_pair):
    """One training batch of 6 records as ``train_single_seed`` runs it:
    per-record objectives, the batch objective, every parameter gradient and
    the rng state after the batch."""
    bundle = load_bundle(config)
    model = build_model(config.model, bundle, np.random.default_rng(0))
    if per_pair:
        model.prepare_batch = types.MethodType(_per_pair_prepare_batch, model)
        model._mi_loss = types.MethodType(_per_pair_mi_loss, model)
    rng = np.random.default_rng(7)
    records = [bundle.records[i] for i in bundle.indices("train")[:6]]
    context = model.prepare_batch(records, rng)
    objectives = []
    for pos, record in enumerate(records):
        partial = induced_partial_subgraph(
            record, sample_observed(record, config.protocol, "train", rng)
        )
        out = model.step(record, partial, batch=context.for_target(pos), rng=rng, training=True)
        objectives.append(out.objective)
    batch_obj = objectives[0]
    for extra in objectives[1:]:
        batch_obj = ad.add(batch_obj, extra)
    batch_obj = ad.scale(batch_obj, 1.0 / len(objectives))
    ad.backward(batch_obj)
    grads = {name: t.grad for name, t in model.store.items()}
    return [o.item() for o in objectives + [batch_obj]], grads, rng.bit_generator.state


@pytest.mark.parametrize("variant", ["ps-graphcl", "ps-infograph", "khop+ps-infograph"])
def test_batched_negatives_match_the_per_pair_oracle(variant):
    config = golden_config(variant)
    objectives, grads, rng_state = _train_batch(config, per_pair=False)
    oracle_objectives, oracle_grads, oracle_rng_state = _train_batch(config, per_pair=True)
    np.testing.assert_allclose(objectives, oracle_objectives, rtol=1e-10, atol=0)
    assert grads.keys() == oracle_grads.keys()
    for name, grad in grads.items():
        oracle = oracle_grads[name]
        assert (grad is None) == (oracle is None), name
        if grad is not None:
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(grad - oracle)) <= 1e-10 * scale, name
    assert rng_state == oracle_rng_state


@pytest.mark.parametrize("name", sorted(KHOP_GOLDEN))
def test_khop_forward_digest_is_unchanged(name):
    assert khop_forward_digest(name) == KHOP_GOLDEN[name][-1], env_note()


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
        print(f'    "{name}": "{khop_forward_digest(name)}",')
    with tempfile.TemporaryDirectory() as tmp:
        print(f'SWEEP_GOLDEN = "{sweep_digest(Path(tmp))}"')
