import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, backward, finite_diff_check
from subgraph_infomax.data import (
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    sample_observed,
)
from subgraph_infomax.graph import SubgraphRecord, induced_partial_subgraph
from subgraph_infomax.layers import Mlp
from subgraph_infomax.models import (
    VARIANTS,
    ModelConfig,
    PsiModel,
    TwoStageModel,
    _union_chunks,
    build_model,
    khop_forward,
    topk_softmax_pool,
)
from subgraph_infomax.optim import AdamConfig, ParameterStore, adam_step
from subgraph_infomax.verify import OPTION_CHECKS, model_gradient_closure


TOY_SPEC = SyntheticSpec(
    num_nodes=14,
    communities=2,
    p_intra=0.6,
    p_inter=0.2,
    num_subgraphs=6,
    subgraph_size_min=4,
    subgraph_size_max=5,
    n_obs=2,
    feature_dim=3,
    feature_noise=0.3,
    community_leak=0.2,
    seed=5,
)

_ENCODER = ["layer1.w_self", "layer1.w_neigh", "layer1.w_skip", "layer2.w_self", "layer2.w_neigh"]
_MLP = ["w1", "b1", "w2", "b2"]
_BASE = ["embedding", *(f"encoder.{p}" for p in _ENCODER)]
_MEAN_READOUT = [f"readout.{p}" for p in _MLP]
_GATED_READOUT = [f"readout.{part}.{p}" for part in ("premixer", "gate", "feat") for p in _MLP]
_POOL = [f"pool_mlp.{p}" for p in _MLP]
_HEAD = ["head.w", "head.b"]
PARAMETER_NAMES = {
    "baseline": [*_BASE, *_MEAN_READOUT, *_HEAD],
    "ps-dgi": [*_BASE, *_MEAN_READOUT, "discriminator", *_HEAD],
    "ps-infograph": [*_BASE, *_MEAN_READOUT, "discriminator", *_HEAD],
    "ps-mvgrl": [*_BASE, *_MEAN_READOUT, "discriminator", *(f"encoder_b.{p}" for p in _ENCODER), *_HEAD],
    "ps-graphcl": [*_BASE, *_MEAN_READOUT, *_HEAD],
    "khop": [*_BASE, *_MEAN_READOUT, "discriminator", *_POOL, *_HEAD],
    "khop+ps-dgi": [*_BASE, *_GATED_READOUT, "discriminator", "discriminator_second", *_POOL, *_HEAD],
    "khop+ps-infograph": [*_BASE, *_GATED_READOUT, "discriminator", "discriminator_second", *_POOL, *_HEAD],
}


def toy_config(variant, **overrides):
    base = dict(
        variant=variant,
        hidden_dim=4,
        dropout=0.0,
        pool_ratio=0.5,
        ppr_top_t=4,
        neighbor_cap=None,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_toy(variant, seed=0, **overrides):
    bundle = generate_synthetic(TOY_SPEC)
    model = build_model(toy_config(variant, **overrides), bundle, np.random.default_rng(seed))
    return bundle, model


def step_inputs(bundle, seed=0, n_obs=2):
    protocol = ObservationProtocol(n_obs=n_obs, train_jitter=False)
    rng = np.random.default_rng(seed)
    records = list(bundle.records[:3])
    partials = [
        induced_partial_subgraph(r, sample_observed(r, protocol, "train", rng))
        for r in records
    ]
    return records, partials


class TestStepContract:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_inference_mode_has_logits_only(self, variant):
        bundle, model = make_toy(variant)
        records, partials = step_inputs(bundle)
        out = model.step(records, partials, rng=np.random.default_rng(1), training=False)
        assert out.logits.shape == (len(records), bundle.num_classes)
        assert out.objective is None and out.losses == {}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_logits_are_the_one_record_logits(self, variant):
        bundle, model = make_toy(variant)
        records, partials = step_inputs(bundle)
        batch = model.step(records, partials).logits
        for i, (record, partial) in enumerate(zip(records, partials)):
            alone = model.step([record], [partial]).logits
            np.testing.assert_allclose(batch[i : i + 1], alone, rtol=1e-12, atol=1e-14)

    def test_step_needs_one_view_per_record(self):
        bundle, model = make_toy("baseline")
        records, partials = step_inputs(bundle)
        with pytest.raises(ValueError, match="one view per record, got 3 and 2"):
            model.step(records, partials[:2])
        with pytest.raises(ValueError, match="one view per record, got 0 and 0"):
            model.step([], [])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_total_recomposes_bit_exactly(self, variant):
        bundle, model = make_toy(variant)
        records, partials = step_inputs(bundle)
        out = model.step(records, partials, rng=np.random.default_rng(2), training=True)
        cfg = model.config
        if variant == "baseline":
            names = ["graph"]
        elif variant == "khop":
            names = ["graph", "khop"]
        elif "+" in variant:
            names = ["graph", "khop", "second"]
        else:
            names = ["graph", "infomax"]
        assert list(out.losses) == names
        assert all(values.shape == (len(records),) for values in out.losses.values())
        weights = {"khop": cfg.lambda_khop, "second": cfg.lambda_second, "infomax": cfg.lambda_single}
        expected = out.losses["graph"]
        for name in names[1:]:
            expected = expected + weights[name] * out.losses[name]
        assert out.objective.item() == expected.sum() / len(records)

    def test_lambda_zero_total_equals_graph_loss(self):
        bundle, model = make_toy("ps-dgi", lambda_single=0.0)
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(3)
        out = model.step(records, partials, rng=rng, training=True)
        assert out.objective.item() == out.losses["graph"].sum() / len(records)

    def test_two_stage_lambda_zero(self):
        bundle, model = make_toy("khop+ps-dgi", lambda_khop=0.0, lambda_second=0.0)
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(3)
        out = model.step(records, partials, rng=rng, training=True)
        assert out.objective.item() == out.losses["graph"].sum() / len(records)

    def test_invalid_second_stage_rejected(self):
        with pytest.raises(ValueError, match="ps-dgi"):
            ModelConfig(variant="khop+ps-mvgrl")
        with pytest.raises(ValueError, match="ps-dgi"):
            ModelConfig(variant="khop+ps-graphcl")

    @pytest.mark.parametrize(
        "variant, khop, term, two_stage",
        [
            ("baseline", False, None, False),
            ("ps-dgi", False, "ps-dgi", False),
            ("ps-infograph", False, "ps-infograph", False),
            ("ps-mvgrl", False, "ps-mvgrl", False),
            ("ps-graphcl", False, "ps-graphcl", False),
            ("khop", True, None, False),
            ("khop+ps-dgi", True, "ps-dgi", True),
            ("khop+ps-infograph", True, "ps-infograph", True),
        ],
    )
    def test_variant_is_a_khop_stage_and_a_term(self, variant, khop, term, two_stage):
        cfg = ModelConfig(variant=variant)
        assert (cfg.khop, cfg.term, cfg.is_two_stage) == (khop, term, two_stage)

    def test_first_stage_must_be_khop(self):
        for variant in ("ps-dgi+ps-infograph", "ps-dgi+khop"):
            with pytest.raises(ValueError, match=rf"unknown model variant '{re.escape(variant)}'"):
                ModelConfig(variant=variant)

    def test_negative_weight_rejected(self):
        for name in ("lambda_single", "lambda_khop", "lambda_second"):
            for value in (-0.5, float("nan"), math.inf):
                with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0"):
                    ModelConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("dropout", -0.2), ("dropout", 1.5), ("dropout", float("nan")),
            ("aug_p", 2.0), ("aug_p", 1.0), ("aug_p", float("nan")),
            ("p_d", float("nan")),
            ("hidden_dim", 0), ("hidden_dim", 7), ("k", 0), ("ppr_top_t", 0), ("neighbor_cap", 0),
            ("temperature", 0.0), ("temperature", float("nan")), ("temperature", math.inf),
            ("ppr_alpha", 1.5), ("ppr_alpha", 0.0), ("ppr_alpha", float("nan")),
            ("pool_ratio", 0.0), ("pool_ratio", float("nan")),
        ],
    )
    def test_out_of_range_field_rejected_at_construction(self, name, value):
        # bidirectional layers split the hidden width in halves, so it must be even
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            ModelConfig(**{name: value, "bidirectional": True})

    def test_odd_hidden_dim_is_accepted_without_bidirectional(self):
        assert ModelConfig(hidden_dim=7).hidden_dim == 7

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parameter_names_in_creation_order(self, variant):
        # Checkpoints store parameters by name, so these lists are the format.
        bundle = generate_synthetic(TOY_SPEC)
        model = build_model(ModelConfig(variant=variant), bundle, np.random.default_rng(0))
        assert [name for name, _ in model.store.items()] == PARAMETER_NAMES[variant]
        assert type(model) is (TwoStageModel if model.config.is_two_stage else PsiModel)

    @pytest.mark.parametrize("variant", ["ps-infograph", "ps-graphcl", "khop+ps-infograph"])
    def test_in_batch_negatives_need_two_records(self, variant):
        bundle, model = make_toy(variant)
        records, partials = step_inputs(bundle)
        with pytest.raises(ValueError, match="training needs a batch of at least 2 records"):
            model.step(records[:1], partials[:1], rng=np.random.default_rng(0), training=True)
        # Inference needs no negatives.
        assert model.step(records[:1], partials[:1]).logits.shape == (1, bundle.num_classes)


class TestVariantLossValues:
    def test_dgi_with_zero_discriminator(self):
        bundle, model = make_toy("ps-dgi")
        model.mi_discriminator.w.values[:] = 0.0
        records, partials = step_inputs(bundle)
        out = model.step(records, partials, rng=np.random.default_rng(1), training=True)
        assert out.losses["infomax"] == pytest.approx([2 * math.log(2)] * 3, abs=1e-12)

    def test_graphcl_batch_of_two_equal_scores(self):
        # Zeroed parameters make every summary the zero vector, whose cosine
        # score is 0 by convention: one positive, one negative, equal scores.
        bundle, model = make_toy("ps-graphcl")
        for _, param in model.store.items():
            param.values[:] = 0.0
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(4)
        out = model.step(records[:2], partials[:2], rng=rng, training=True)
        assert out.losses["infomax"] == pytest.approx([math.log(2)] * 2, abs=1e-12)

    def test_infograph_matches_scripted_composition(self):
        # Independent end-to-end script of encode -> readout -> scores -> loss,
        # record by record.
        from subgraph_infomax.infomax import gd_loss
        from subgraph_infomax.layers import encode

        bundle, model = make_toy("ps-infograph")
        records, partials = step_inputs(bundle)
        out = model.step(records[:2], partials[:2], rng=np.random.default_rng(7), training=True)

        h_full = [encode(model.encoder, model.table, r.node_ids, r.edges) for r in records[:2]]
        for target in (0, 1):
            h_obs = encode(model.encoder, model.table, partials[target].node_ids, partials[target].edges)
            s_obs = ad.mean(model.readout.mlp(h_obs), 0)
            li = gd_loss(
                model.mi_discriminator(h_full[target], s_obs),
                model.mi_discriminator(h_full[1 - target], s_obs),
            ).item()
            logits = model.head(s_obs).values[0]
            ce = np.log(np.exp(logits).sum()) - logits[records[target].label]
            assert out.losses["infomax"][target] == pytest.approx(li, abs=1e-12)
            assert out.losses["graph"][target] == pytest.approx(ce, abs=1e-12)
        want = (out.losses["graph"] + out.losses["infomax"]).mean()
        assert out.objective.item() == pytest.approx(want, abs=1e-12)

    def test_dgi_matches_scripted_composition(self):
        from subgraph_infomax.infomax import gd_loss
        from subgraph_infomax.layers import encode

        bundle, model = make_toy("ps-dgi")
        records, partials = step_inputs(bundle)
        out = model.step(records, partials, rng=np.random.default_rng(11), training=True)

        # The negatives shuffle each record's rows with one permutation per
        # record, drawn in record order.
        rng = np.random.default_rng(11)
        for record, partial, li in zip(records, partials, out.losses["infomax"]):
            h_obs = encode(model.encoder, model.table, partial.node_ids, partial.edges)
            s_obs = ad.mean(model.readout.mlp(h_obs), 0)
            h_sub = encode(model.encoder, model.table, record.node_ids, record.edges)
            perm = rng.permutation(len(record.node_ids))
            want = gd_loss(
                model.mi_discriminator(h_sub, s_obs),
                model.mi_discriminator(ad.gather_rows(h_sub, perm), s_obs),
            ).item()
            assert li == pytest.approx(want, abs=1e-12)


class TestTopkPooling:
    def identity_mlp(self, dim=2):
        store = ParameterStore()
        mlp = Mlp(store, "m", dim, dim, dim, np.random.default_rng(0))
        mlp.w1.values[:] = np.eye(dim)
        mlp.b1.values[:] = 0.0
        mlp.w2.values[:] = np.eye(dim)
        mlp.b2.values[:] = 0.0
        return mlp

    def test_hand_computed_softmax_weighting(self):
        # softmax([2, 1]) = [0.73106, 0.26894]; with unit-basis rows the
        # pooled summary reproduces the weights.
        scores = Tensor(np.array([[2.0], [1.0], [0.0], [-1.0]]))
        h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [7.0, 7.0]]))
        pooled, ids = topk_softmax_pool(scores, h, [0, 1, 2, 3], 0.5, self.identity_mlp(), np.arange(4))
        assert ids == (0, 1)
        assert pooled.values[0] == pytest.approx([0.73106, 0.26894], abs=1e-5)

    def test_uniform_scores_full_ratio_is_mean(self):
        # Nonnegative rows pass through the stacked-identity layers unchanged.
        rng = np.random.default_rng(1)
        h = Tensor(np.abs(rng.normal(size=(5, 2))))
        scores = Tensor(np.full((5, 1), 0.3))
        pooled, ids = topk_softmax_pool(scores, h, list(range(5)), 1.0, self.identity_mlp(), np.arange(5))
        assert ids == (0, 1, 2, 3, 4)
        assert np.allclose(pooled.values, h.values.mean(axis=0, keepdims=True), atol=1e-12)

    def test_single_selection_is_mlp_of_row(self):
        h = Tensor(np.array([[3.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
        scores = Tensor(np.array([[9.0], [1.0], [0.0]]))
        pooled, ids = topk_softmax_pool(scores, h, [0, 1, 2], 0.01, self.identity_mlp(), np.arange(3))
        assert ids == (0,)
        assert np.allclose(pooled.values, [[3.0, 1.0]], atol=1e-12)

    def test_ties_break_toward_lower_node_id(self):
        h = Tensor(np.zeros((4, 2)))
        scores = Tensor(np.zeros((4, 1)))
        for _ in range(3):
            _, ids = topk_softmax_pool(scores, h, [7, 3, 9, 5], 0.5, self.identity_mlp(), np.arange(4))
            assert ids == (3, 5)


class TestKhopForward:
    def test_result_fields_and_partition(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        stage = model.khop_stage(records, partials, rng=np.random.default_rng(0), training=True)
        assert stage.s_khop.shape == stage.s_obs.shape == (3, model.config.hidden_dim)
        assert stage.loss.shape == (3, 1)
        for partial, partition, selected in zip(partials, stage.partitions, stage.selected_ids):
            observed = set(partial.node_ids)
            assert set(partition.node_ids) == observed | set(partition.neighbors)
            assert set(selected) <= set(partition.node_ids)

    def test_loss_splits_scored_rows_by_record_membership(self):
        from subgraph_infomax.infomax import khop_loss
        from subgraph_infomax.layers import encode

        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        stage = model.khop_stage(records, partials, rng=np.random.default_rng(0), training=True)
        # dropout 0, p_d 0 and no cap: the training forward draws nothing.
        for i, (record, partial, partition) in enumerate(zip(records, partials, stage.partitions)):
            h = encode(model.encoder, model.table, partition.node_ids, partition.edges)
            s_obs = ad.gather_rows(stage.s_obs, [i])
            scores = model.khop_discriminator(h, s_obs)
            member = np.isin(partition.node_ids, record.node_ids)
            assert member.sum() > len(partial.node_ids) and not member.all()
            want = khop_loss(scores, member).item()
            assert stage.loss.values[i, 0] == want

    def test_the_pool_reads_its_records_rows_of_the_batch(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        stage = model.khop_stage(records, partials, rng=np.random.default_rng(0), training=True)
        gen = np.random.default_rng(5)
        sizes = [len(p.node_ids) for p in stage.partitions]
        scores = Tensor(gen.normal(size=(sum(sizes), 1)))
        h = Tensor(gen.normal(size=(sum(sizes), model.config.hidden_dim)))
        start = sizes[0]
        got = khop_forward(model, records[1], stage.partitions[1], scores, h, start)
        rows = np.arange(start, start + sizes[1])
        want = topk_softmax_pool(
            ad.gather_rows(scores, rows), ad.gather_rows(h, rows),
            stage.partitions[1].node_ids, model.config.pool_ratio, model.pool_mlp, np.arange(sizes[1]),
        )
        assert got.selected_ids == want[1]
        np.testing.assert_array_equal(got.s_khop.values, want[0].values)

    def test_inference_has_no_loss(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        assert model.khop_stage(records, partials, training=False).loss is None

    def test_unions_split_at_the_edge_budget(self):
        # The fourth view is over the budget alone, so it forms its own union.
        assert _union_chunks([3, 4, 2, 12, 0, 5], 9) == [(0, 3), (3, 4), (4, 6)]
        assert _union_chunks([3, 4, 2], 9) == [(0, 3)]
        assert _union_chunks([10], 9) == [(0, 1)]

    def test_positions_need_an_order_on_every_record_or_none(self):
        bundle, model = make_toy("khop+ps-dgi", use_positional_encoding=True)
        records, partials = step_inputs(bundle)
        unordered = SubgraphRecord(records[1].node_ids, np.array(records[1].node_ids)[records[1].edges],
                                   records[1].label)
        with pytest.raises(ValueError, match="observation order on every record or on none"):
            model.step([records[0], unordered], partials[:2], training=False)

    def test_eval_forward_is_deterministic(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        a = model.step(records, partials, training=False).logits
        b = model.step(records, partials, training=False).logits
        assert np.array_equal(a, b)

    def test_saturating_scores_drive_khop_loss_to_zero(self):
        from subgraph_infomax.infomax import khop_loss

        # Monotone saturation schedule with all-positive membership.
        previous = None
        for scale in (0.0, 1.0, 4.0, 16.0, 64.0):
            loss = khop_loss(np.full((5, 1), scale), np.ones(5, dtype=bool)).item()
            if previous is not None:
                assert loss <= previous + 1e-15
            previous = loss
        assert previous < 1e-9


class TestGradients:
    @pytest.mark.parametrize("variant", ["ps-dgi", "khop"])
    def test_spot_finite_difference(self, variant):
        closure, params = model_gradient_closure(variant, seed=1)
        assert finite_diff_check(closure, params) < 1e-4

    def test_two_stage_gradient_on_toy(self):
        closure, params = model_gradient_closure("khop+ps-infograph", seed=2)
        assert finite_diff_check(closure, params) < 1e-4

    @pytest.mark.parametrize(
        "variant, option, value", OPTION_CHECKS,
        ids=[f"{variant}-{option}={value}" for variant, option, value in OPTION_CHECKS],
    )
    def test_option_path_gradient_on_toy(self, variant, option, value):
        closure, params = model_gradient_closure(variant, seed=1, **{option: value})
        assert finite_diff_check(closure, params) < 1e-4

    # Every variant under any mix of its options.  All 820 distinct configs
    # on toy seeds 0-3 read at most 3.1e-9 once ``finite_diff_check``
    # discounted the loss's rounding; before, the attention pre-mixer and 9
    # two-stage configs on seed 3 read up to 3.3e-3 at gradients below 1e-7.
    @settings(max_examples=15, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        seed=st.integers(0, 3),
        overrides=st.fixed_dictionaries({
            "bidirectional": st.booleans(),
            "premixer": st.sampled_from(["mlp", "none", "attention"]),
            "use_positional_encoding": st.booleans(),
            "concat_observed_summary": st.booleans(),
            "include_observed_in_pool": st.booleans(),
            "k": st.sampled_from([1, 2]),
        }),
    )
    def test_any_option_mix_gradient_on_toy(self, variant, seed, overrides):
        closure, params = model_gradient_closure(variant, seed, **overrides)
        assert finite_diff_check(closure, params) < 1e-4


@pytest.mark.slow
class TestTrainingDescent:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fifty_steps_decrease_loss_for_most_seeds(self, variant):
        # 50 optimizer steps on a fixed toy must end below the starting loss
        # for at least 45 of 50 seeds.
        bundle = generate_synthetic(TOY_SPEC)
        records = list(bundle.records[:4])
        wins = 0
        for seed in range(50):
            model = build_model(toy_config(variant), bundle, np.random.default_rng(seed))
            rng = np.random.default_rng(seed + 1000)
            protocol = ObservationProtocol(n_obs=2, train_jitter=False)
            partials = [
                induced_partial_subgraph(r, sample_observed(r, protocol, "train", rng))
                for r in records
            ]
            config = AdamConfig(learning_rate=3e-3)
            first = last = None
            for step in range(50):
                total = model.step(records, partials, rng=rng, training=True).objective
                value = total.item()
                if first is None:
                    first = value
                last = value
                backward(total)
                adam_step(model.store, config)
            wins += last < first
        assert wins >= 45, f"{variant}: loss decreased for only {wins}/50 seeds"
