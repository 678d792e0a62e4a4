"""Values computed once instead of per call, checked against the path they replace.

``evaluate`` reads each record's observed view and, for a k-hop model, its
k-hop partition from the bundle's frozen cache, hands ``model.step`` no
rng, and runs one step over the whole stage under ``no_grad``.  The old
path, kept inline here as the reference, stepped each record alone on a
fresh partial view and a fresh partition, drawn from the record's own rng,
on the full tape.  The batched logits match it within 1e-10.  ps-mvgrl
reads each record's full-view diffusion from the same cache.
"""

import dataclasses

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax import data, models
from subgraph_infomax.data import ObservationProtocol, generate_synthetic, sample_observed
from subgraph_infomax.graph import induced_partial_subgraph, khop_neighbors
from subgraph_infomax.infomax import ppr_view
from subgraph_infomax.models import VARIANTS, build_model
from subgraph_infomax.train import RunConfig, evaluate, train
from subgraph_infomax.verify import OPTION_CHECKS, _toy_model_config, _toy_spec

STAGES = ("val", "test")
# The toy spec of the gradient checks, with enough records for val and test.
SPEC = dataclasses.replace(_toy_spec(0), num_subgraphs=24)
PROTOCOL = ObservationProtocol(n_obs=2, train_jitter=False, eval_fixed_seed=0)
# Every variant, then every option row of ``verify.gradient_option_report``.
CASES = [(variant, {}) for variant in VARIANTS] + [
    (variant, {option: value}) for variant, option, value in OPTION_CHECKS
]


def case_id(case):
    variant, overrides = case
    return "/".join([variant, *(f"{k}={v}" for k, v in overrides.items())])


@pytest.fixture
def bundle():
    """A fresh bundle per test, so each starts with a cold cache."""
    bundle = generate_synthetic(SPEC)
    assert all(bundle.indices(stage) for stage in STAGES)
    return bundle


def make_model(bundle, variant, seed=5, **overrides):
    config = dataclasses.replace(_toy_model_config(variant), dropout=0.2, **overrides)
    return build_model(config, bundle, np.random.default_rng(seed))


def record_rng(idx):
    """The rng the old path gave record ``idx``'s eval step."""
    return np.random.default_rng([PROTOCOL.eval_fixed_seed, 104729, idx])


def reference_logits(model, bundle, stage):
    """The old evaluation path: one step per record, on a fresh partial view
    and, inside ``step``, a fresh k-hop partition drawn from the record's
    rng, on the full tape."""
    logits = {}
    for idx in bundle.indices(stage):
        record = bundle.records[idx]
        partial = induced_partial_subgraph(record, sample_observed(record, PROTOCOL, stage))
        logits[idx] = model.step([record], [partial], rng=record_rng(idx)).logits[0]
    return logits


def accuracy(bundle, logits):
    hits = [int(np.argmax(row)) == bundle.records[idx].label for idx, row in logits.items()]
    return sum(hits) / len(hits)


def recorded_evaluate(model, bundle, stage):
    """``evaluate``'s accuracy plus each record's logits.  It must make one
    step over the stage's records, in order, and hand it no rng."""
    calls = []
    step = model.step

    def recording_step(records, views, **kwargs):
        out = step(records, views, **kwargs)
        calls.append((records, kwargs.get("rng"), out.logits))
        return out

    model.step = recording_step
    try:
        acc = evaluate(model, bundle, PROTOCOL, stage)
    finally:
        del model.step
    assert len(calls) == 1
    records, rng, logits = calls[0]
    indices = bundle.indices(stage)
    assert [bundle.records.index(r) for r in records] == indices
    assert rng is None
    return acc, dict(zip(indices, logits))


def assert_same_logits(got, want):
    assert got.keys() == want.keys()
    for idx in want:
        np.testing.assert_allclose(got[idx], want[idx], rtol=1e-10, atol=0, err_msg=str(idx))


def count_khop_calls(monkeypatch, modules=(data, models)):
    """Record every ``khop_neighbors`` call made from ``modules``: by
    default both the bundle's and a model's."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return khop_neighbors(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "khop_neighbors", counting)
    return calls


def assert_passes_match_the_reference(model, bundle, stage):
    """A first and a second ``evaluate`` pass against the old path: logits
    within 1e-10 per record and equal accuracies."""
    first_acc, first = recorded_evaluate(model, bundle, stage)
    second_acc, second = recorded_evaluate(model, bundle, stage)
    want = reference_logits(model, bundle, stage)
    assert_same_logits(first, want)
    assert_same_logits(second, want)
    assert first_acc == second_acc == accuracy(bundle, want)


def assert_cold_warm_and_second_model_match(bundle, monkeypatch, variant, **overrides):
    """Cold and warm passes of one model, then a second model on the same
    bundle: each matches its own reference, and the second model's passes
    draw no k-hop partition."""
    model = make_model(bundle, variant, **overrides)
    for stage in STAGES:
        assert_passes_match_the_reference(model, bundle, stage)
    second = make_model(bundle, variant, seed=6, **overrides)
    calls = count_khop_calls(monkeypatch)
    passes = {stage: recorded_evaluate(second, bundle, stage) for stage in STAGES}
    assert calls == []
    monkeypatch.undo()
    for stage, (acc, logits) in passes.items():
        want = reference_logits(second, bundle, stage)
        assert_same_logits(logits, want)
        assert acc == accuracy(bundle, want)
    assert_caches_are_fresh(bundle)
    return model


def assert_views_equal(got, want):
    assert got.node_ids == want.node_ids
    assert got.edges.dtype == want.edges.dtype
    assert np.array_equal(got.edges, want.edges)
    assert got.masked == want.masked
    if want.edge_weights is None:
        assert got.edge_weights is None
    else:
        assert got.edge_weights.tobytes() == want.edge_weights.tobytes()


def kept_partitions(bundle, stage, k, cap):
    """The partitions the bundle keeps for one stage, ``k`` and cap."""
    key = (PROTOCOL.n_obs, PROTOCOL.ordered, PROTOCOL.eval_fixed_seed, stage, k, cap)
    return bundle._frozen_cache.get(key, {})


def assert_partitions_equal(got, want):
    assert got.node_ids == want.node_ids
    assert got.neighbors == want.neighbors
    assert got.edges.dtype == want.edges.dtype
    assert np.array_equal(got.edges, want.edges)


def assert_caches_are_fresh(bundle):
    """Every cached view equals a fresh computation, and every kept
    partition equals a fresh draw from its record's seed."""
    for stage in STAGES:
        observed = bundle.frozen_eval(PROTOCOL, stage)
        views = bundle.frozen_views(PROTOCOL, stage)
        assert views.keys() == observed.keys()
        for idx, ids in observed.items():
            assert_views_equal(views[idx], induced_partial_subgraph(bundle.records[idx], ids))
    for key, kept in bundle._frozen_cache.items():
        if len(key) != 6:
            continue
        *_, stage, k, cap = key
        observed = bundle.frozen_eval(PROTOCOL, stage)
        for idx, partition in kept.items():
            fresh = khop_neighbors(bundle.graph, observed[idx], k, cap=cap, rng=record_rng(idx))
            assert_partitions_equal(partition, fresh)


def partition_bytes(partition):
    return partition.edges.nbytes + 36 * (len(partition.node_ids) + len(partition.neighbors))


def train_step_grads(model, bundle):
    """Leave a gradient on every trainable parameter from one training step."""
    rng = np.random.default_rng(9)
    records = [bundle.records[i] for i in bundle.indices("train")[:3]]
    views = [
        induced_partial_subgraph(record, sample_observed(record, PROTOCOL, "train", rng))
        for record in records
    ]
    ad.backward(model.step(records, views, rng=rng, training=True).objective)


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
    def test_logits_accuracy_and_caches(self, bundle, monkeypatch, case):
        variant, overrides = case
        model = assert_cold_warm_and_second_model_match(bundle, monkeypatch, variant, **overrides)
        cfg = model.config
        for stage in STAGES:
            kept = kept_partitions(bundle, stage, cfg.k, cfg.neighbor_cap)
            # The default cap binds on no toy record, and the budget holds
            # every partition.
            want = bundle.indices(stage) if cfg.khop else []
            assert sorted(kept) == want

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_builds_no_tape_and_leaves_parameters_alone(self, bundle, case, monkeypatch):
        variant, overrides = case
        model = make_model(bundle, variant, **overrides)
        train_step_grads(model, bundle)
        before = parameter_state(model)
        assert any(grad is not None for _, grad in before.values())
        # Every op output goes through ``_make``, and every constant
        # through ``Tensor.__init__``.
        built = []
        init, make = ad.Tensor.__init__, ad._make

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        def recording_make(*args):
            built.append(make(*args))
            return built[-1]

        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        monkeypatch.setattr(ad, "_make", recording_make)
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
        step = model.step

        def failing_step(records, views, **kwargs):
            step(records, views, **kwargs)
            raise RuntimeError("step failed")

        model.step = failing_step
        with pytest.raises(RuntimeError, match="step failed"):
            evaluate(model, bundle, PROTOCOL, "test")
        del model.step
        assert parameter_state(model) == before
        assert_grad_mode_restored(model)

    def test_a_binding_cap_keeps_partitions_drawn_once(self, bundle, monkeypatch):
        # A cap between the smallest and largest uncapped neighbourhoods:
        # records above it draw their neighbours from their own seed, once,
        # and those partitions are kept as well.
        sizes = {}
        for stage in STAGES:
            for idx, ids in bundle.frozen_eval(PROTOCOL, stage).items():
                sizes[stage, idx] = len(khop_neighbors(bundle.graph, ids, 1, cap=None).neighbors)
        cap = sorted(sizes.values())[len(sizes) // 2]
        assert min(sizes.values()) < cap < max(sizes.values())
        assert_cold_warm_and_second_model_match(bundle, monkeypatch, "khop", neighbor_cap=cap)
        for stage in STAGES:
            kept = kept_partitions(bundle, stage, 1, cap)
            assert sorted(kept) == bundle.indices(stage)
            for idx, partition in kept.items():
                assert len(partition.neighbors) == min(cap, sizes[stage, idx])

    def test_seeds_of_a_run_share_the_eval_partitions(self, bundle, monkeypatch):
        config = RunConfig(
            model=_toy_model_config("khop"), protocol=PROTOCOL, synthetic=SPEC,
            epochs=2, batch_size=4, seeds=(0, 1),
        )
        # Only evaluation reaches ``data.khop_neighbors``; training draws
        # its partitions in the model.
        calls = count_khop_calls(monkeypatch, modules=(data,))
        train(config, bundle=bundle)
        assert len(calls) == sum(len(bundle.indices(stage)) for stage in STAGES)

    def test_the_byte_budget_bounds_the_bundle_cache(self, bundle, monkeypatch):
        observed = bundle.frozen_eval(PROTOCOL, "test")
        first_two = bundle.indices("test")[:2]
        budget = sum(
            partition_bytes(khop_neighbors(bundle.graph, observed[idx], 1, cap=None))
            for idx in first_two
        )
        monkeypatch.setattr(data, "PARTITION_CACHE_BYTES", budget)
        model = make_model(bundle, "khop")
        assert_passes_match_the_reference(model, bundle, "test")
        assert sorted(kept_partitions(bundle, "test", 1, model.config.neighbor_cap)) == first_two
        assert bundle._partition_bytes == budget
        # A second model, and another stage, find the budget spent.
        other = make_model(bundle, "khop+ps-dgi", seed=6)
        for stage in STAGES:
            assert_passes_match_the_reference(other, bundle, stage)
        assert kept_partitions(bundle, "val", 1, model.config.neighbor_cap) == {}
        assert bundle._partition_bytes == budget
        assert_caches_are_fresh(bundle)


class TestFullDiffusionCache:
    def test_models_on_one_bundle_share_each_diffusion(self, bundle, monkeypatch):
        got, diffused = [], []
        diffusion = bundle.diffusion

        def recording_diffusion(record, alpha, top_t):
            view = diffusion(record, alpha, top_t)
            got.append((record, view))
            return view

        def counting_ppr_view(view, alpha, top_t):
            diffused.append(view)
            return ppr_view(view, alpha, top_t)

        monkeypatch.setattr(bundle, "diffusion", recording_diffusion)
        monkeypatch.setattr(data, "ppr_view", counting_ppr_view)
        first, second = (make_model(bundle, "ps-mvgrl", seed=seed) for seed in (5, 6))
        train_step_grads(first, bundle)
        train_step_grads(second, bundle)
        trained = [bundle.records[i] for i in bundle.indices("train")[:3]]
        # Each model diffuses each trained record once per step.
        assert [record for record, _ in got] == trained + trained
        assert len(diffused) == len(trained)
        cfg = first.config
        for record, view in got:
            assert view is got[trained.index(record)][1]
            assert_views_equal(view, ppr_view(record.view, cfg.ppr_alpha, cfg.ppr_top_t))
