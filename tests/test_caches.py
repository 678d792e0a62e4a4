"""Values computed once instead of per call, checked against the path they replace.

``evaluate`` reads each record's observed view from the bundle's frozen
cache, reuses the model's k-hop partition of an observed set when the
neighbour cap did not bind, and runs its steps under ``no_grad``.  The old
path, kept inline here as the reference, built a fresh partial view and a
fresh partition per record on the full tape.  ps-mvgrl diffuses each
record's full view once.
"""

import dataclasses

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax import models
from subgraph_infomax.data import ObservationProtocol, generate_synthetic, sample_observed
from subgraph_infomax.graph import induced_partial_subgraph, khop_neighbors
from subgraph_infomax.infomax import ppr_view
from subgraph_infomax.models import VARIANTS, build_model
from subgraph_infomax.train import evaluate
from subgraph_infomax.verify import OPTION_CHECKS, _toy_model_config, _toy_spec

STAGES = ("val", "test")
# The toy spec of the gradient checks, with enough records for val and test.
SPEC = dataclasses.replace(_toy_spec(0), num_subgraphs=24)
PROTOCOL = ObservationProtocol(n_obs=2, train_jitter=False, eval_fixed_seed=0)
# Every variant, then every option row of ``verify.gradient_option_report``;
# its attention pre-mixer row checks the readout alone, so here it runs on a
# two-stage model.
CASES = [(variant, {}) for variant in VARIANTS] + [
    (variant, {option: value}) for variant, option, value in OPTION_CHECKS
] + [("khop+ps-dgi", {"premixer": "attention"})]


def case_id(case):
    variant, overrides = case
    return "/".join([variant, *(f"{k}={v}" for k, v in overrides.items())])


@pytest.fixture(scope="module")
def bundle():
    bundle = generate_synthetic(SPEC)
    assert all(bundle.indices(stage) for stage in STAGES)
    return bundle


def make_model(bundle, variant, **overrides):
    config = dataclasses.replace(_toy_model_config(variant), dropout=0.2, **overrides)
    return build_model(config, bundle, np.random.default_rng(5))


def forget_partitions(model):
    model._partitions.clear()
    model._partition_bytes = 0


def reference_logits(model, bundle, stage):
    """The old evaluation path: a fresh partial view and a fresh k-hop
    partition per record, on the full tape."""
    logits = {}
    for idx in bundle.indices(stage):
        record = bundle.records[idx]
        partial = induced_partial_subgraph(record, sample_observed(record, PROTOCOL, stage))
        forget_partitions(model)
        rng = np.random.default_rng([PROTOCOL.eval_fixed_seed, 104729, idx])
        logits[idx] = model.step(record, partial, rng=rng, training=False).logits
    forget_partitions(model)
    return logits


def accuracy(bundle, logits):
    hits = [int(np.argmax(row)) == bundle.records[idx].label for idx, row in logits.items()]
    return sum(hits) / len(hits)


def recorded_evaluate(model, bundle, stage):
    """``evaluate``'s accuracy plus the logits of each of its steps, in order."""
    logits = []
    step = model.step

    def recording_step(record, partial, **kwargs):
        out = step(record, partial, **kwargs)
        logits.append(out.logits)
        return out

    model.step = recording_step
    try:
        acc = evaluate(model, bundle, PROTOCOL, stage)
    finally:
        del model.step
    return acc, dict(zip(bundle.indices(stage), logits))


def assert_same_logits(got, want):
    assert got.keys() == want.keys()
    for idx in want:
        assert got[idx].tobytes() == want[idx].tobytes(), idx


def assert_two_passes_match_the_reference(model, bundle, stage):
    """A cold and a warm ``evaluate`` pass against the old path: bit-equal
    logits per record and equal accuracies."""
    first_acc, first = recorded_evaluate(model, bundle, stage)
    second_acc, second = recorded_evaluate(model, bundle, stage)
    assert_caches_are_fresh(model, bundle)
    want = reference_logits(model, bundle, stage)
    assert_same_logits(first, want)
    assert_same_logits(second, want)
    assert first_acc == second_acc == accuracy(bundle, want)


def assert_views_equal(got, want):
    assert got.node_ids == want.node_ids
    assert got.edges.dtype == want.edges.dtype
    assert np.array_equal(got.edges, want.edges)
    assert got.masked == want.masked
    if want.edge_weights is None:
        assert got.edge_weights is None
    else:
        assert got.edge_weights.tobytes() == want.edge_weights.tobytes()


def assert_caches_are_fresh(model, bundle):
    """Every cached view and partition equals a fresh computation."""
    for stage in STAGES:
        observed = bundle.frozen_eval(PROTOCOL, stage)
        views = bundle.frozen_views(PROTOCOL, stage)
        assert views.keys() == observed.keys()
        for idx, ids in observed.items():
            assert_views_equal(views[idx], induced_partial_subgraph(bundle.records[idx], ids))
    cfg = model.config
    for ids, partition in model._partitions.items():
        # No rng: a cached partition is one the cap did not bind.
        fresh = khop_neighbors(model.graph, ids, cfg.k, cap=cfg.neighbor_cap)
        assert partition.node_ids == fresh.node_ids
        assert partition.neighbors == fresh.neighbors
        assert partition.edges_khop.dtype == fresh.edges_khop.dtype
        assert np.array_equal(partition.edges_khop, fresh.edges_khop)


def train_step_grads(model, bundle):
    """Leave a gradient on every trainable parameter from one training step."""
    rng = np.random.default_rng(9)
    records = [bundle.records[i] for i in bundle.indices("train")[:3]]
    context = model.prepare_batch(records, rng)
    objectives = [
        model.step(
            record,
            induced_partial_subgraph(record, sample_observed(record, PROTOCOL, "train", rng)),
            batch=context.for_target(pos), rng=rng, training=True,
        ).objective
        for pos, record in enumerate(records)
    ]
    total = objectives[0]
    for extra in objectives[1:]:
        total = ad.add(total, extra)
    ad.backward(total)


def parameter_state(model):
    return {
        name: (p.requires_grad, None if p.grad is None else p.grad.tobytes())
        for name, p in model.store.items()
    }


def assert_grad_mode_restored(model):
    table = model.table
    out = ad.scale(table, 1.0)
    assert out.requires_grad and out._parents == (table,)


class TestEvaluateAgainstTheOldPath:
    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_logits_accuracy_and_caches(self, bundle, case):
        variant, overrides = case
        model = make_model(bundle, variant, **overrides)
        for stage in STAGES:
            assert_two_passes_match_the_reference(model, bundle, stage)
        if model.config.first_variant == "khop":
            # The default cap binds on no toy record, so every partition was kept.
            evaluate(model, bundle, PROTOCOL, "test")
            assert set(model._partitions) == set(bundle.frozen_eval(PROTOCOL, "test").values())

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_builds_no_tape_and_leaves_parameters_alone(self, bundle, case, monkeypatch):
        variant, overrides = case
        model = make_model(bundle, variant, **overrides)
        train_step_grads(model, bundle)
        before = parameter_state(model)
        assert any(grad is not None for _, grad in before.values())
        built = []
        init = ad.Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        for stage in STAGES:
            evaluate(model, bundle, PROTOCOL, stage)
        monkeypatch.undo()
        assert built
        assert all(t._parents == () and t._backward is None for t in built)
        assert parameter_state(model) == before
        assert_grad_mode_restored(model)

    def test_parameters_survive_a_step_that_raises(self, bundle):
        model = make_model(bundle, "khop+ps-infograph")
        train_step_grads(model, bundle)
        before = parameter_state(model)
        step, calls = model.step, []

        def failing_step(record, partial, **kwargs):
            calls.append(record)
            if len(calls) == 2:
                raise RuntimeError("step failed")
            return step(record, partial, **kwargs)

        model.step = failing_step
        with pytest.raises(RuntimeError, match="step failed"):
            evaluate(model, bundle, PROTOCOL, "test")
        del model.step
        assert parameter_state(model) == before
        assert_grad_mode_restored(model)

    def test_a_binding_cap_keeps_only_uncapped_partitions(self, bundle):
        # A cap between the smallest and largest uncapped neighbourhoods:
        # records above it are drawn from their rng each time, the rest are
        # kept.
        sizes = {}
        for stage in STAGES:
            for ids in bundle.frozen_eval(PROTOCOL, stage).values():
                sizes[ids] = len(khop_neighbors(bundle.graph, ids, 1, cap=None).neighbors)
        cap = sorted(sizes.values())[len(sizes) // 2]
        assert min(sizes.values()) < cap < max(sizes.values())
        model = make_model(bundle, "khop", neighbor_cap=cap)
        for stage in STAGES:
            assert_two_passes_match_the_reference(model, bundle, stage)
        for stage in STAGES:
            evaluate(model, bundle, PROTOCOL, stage)
        # A neighbourhood of exactly ``cap`` may have been cut down to it.
        assert set(model._partitions) == {ids for ids, size in sizes.items() if size < cap}

    def test_the_byte_budget_bounds_the_partition_cache(self, bundle, monkeypatch):
        model = make_model(bundle, "khop")
        observed = list(bundle.frozen_eval(PROTOCOL, "test").values())
        budget = sum(
            models._partition_bytes(khop_neighbors(bundle.graph, ids, 1, cap=None))
            for ids in observed[:2]
        )
        monkeypatch.setattr(models, "PARTITION_CACHE_BYTES", budget)
        evaluate(model, bundle, PROTOCOL, "test")
        assert list(model._partitions) == observed[:2]
        assert model._partition_bytes == budget
        assert_two_passes_match_the_reference(model, bundle, "test")


class TestFullDiffusionCache:
    def test_cached_view_equals_a_fresh_diffusion(self, bundle):
        model = make_model(bundle, "ps-mvgrl")
        train_step_grads(model, bundle)
        trained = [bundle.records[i] for i in bundle.indices("train")[:3]]
        assert set(model._diffusions) == set(trained)
        cfg = model.config
        for record in trained:
            cached = model.full_diffusion(record)
            assert cached is model._diffusions[record]
            assert_views_equal(cached, ppr_view(record.view, cfg.ppr_alpha, cfg.ppr_top_t))
