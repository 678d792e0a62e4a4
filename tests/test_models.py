import math
import re

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, backward, finite_diff_check
from subgraph_infomax.data import (
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    sample_observed,
)
from subgraph_infomax.graph import induced_partial_subgraph
from subgraph_infomax.layers import Mlp
from subgraph_infomax.models import (
    VARIANTS,
    ModelConfig,
    PsiModel,
    TwoStageModel,
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


def local_edges(record):
    """The record's global edge pairs as positions into its node ids."""
    position = {n: i for i, n in enumerate(record.node_ids)}
    return np.array([(position[u], position[v]) for u, v in record.edge_pairs]).reshape(-1, 2)


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
        out = model.step(records[0], partials[0], rng=np.random.default_rng(1), training=False)
        assert out.logits.shape == (bundle.num_classes,)
        assert out.objective is None and out.losses == {}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_total_recomposes_bit_exactly(self, variant):
        bundle, model = make_toy(variant)
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(2)
        context = model.prepare_batch(records, rng)
        out = model.step(records[0], partials[0], batch=context.for_target(0), rng=rng, training=True)
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
        weights = {"khop": cfg.lambda_khop, "second": cfg.lambda_second, "infomax": cfg.lambda_single}
        expected = out.losses["graph"]
        for name in names[1:]:
            expected = expected + weights[name] * out.losses[name]
        assert out.objective.item() == expected

    def test_lambda_zero_total_equals_graph_loss(self):
        bundle, model = make_toy("ps-dgi", lambda_single=0.0)
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(3)
        out = model.step(records[0], partials[0], rng=rng, training=True)
        assert out.objective.item() == out.losses["graph"]

    def test_two_stage_lambda_zero(self):
        bundle, model = make_toy("khop+ps-dgi", lambda_khop=0.0, lambda_second=0.0)
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(3)
        out = model.step(records[0], partials[0], rng=rng, training=True)
        assert out.objective.item() == out.losses["graph"]

    def test_invalid_second_stage_rejected(self):
        with pytest.raises(ValueError, match="ps-dgi"):
            ModelConfig(variant="khop+ps-mvgrl")
        with pytest.raises(ValueError, match="ps-dgi"):
            ModelConfig(variant="khop+ps-graphcl")

    def test_first_stage_must_be_khop(self):
        for variant in ("ps-dgi+ps-infograph", "ps-dgi+khop"):
            with pytest.raises(ValueError, match=rf"unknown model variant '{re.escape(variant)}'"):
                ModelConfig(variant=variant)

    def test_negative_weight_rejected(self):
        for name in ("lambda_single", "lambda_khop", "lambda_second"):
            for value in (-0.5, float("nan")):
                with pytest.raises(ValueError, match=name):
                    ModelConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("dropout", -0.2), ("dropout", 1.5), ("dropout", float("nan")),
            ("aug_p", 2.0), ("aug_p", 1.0), ("aug_p", float("nan")),
            ("p_d", float("nan")),
            ("hidden_dim", 0), ("hidden_dim", 7), ("k", 0), ("ppr_top_t", 0), ("neighbor_cap", 0),
            ("temperature", 0.0), ("temperature", float("nan")),
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

    def test_model_classes_check_their_variant_family(self):
        bundle = generate_synthetic(TOY_SPEC)
        args = (bundle, np.random.default_rng(0))
        with pytest.raises(ValueError, match="TwoStageModel"):
            PsiModel(toy_config("khop+ps-dgi"), *args)
        with pytest.raises(ValueError, match="composed variant"):
            TwoStageModel(toy_config("khop"), *args)

    def test_infograph_requires_batch(self):
        bundle, model = make_toy("ps-infograph")
        records, partials = step_inputs(bundle)
        with pytest.raises(ValueError, match="batch"):
            model.step(records[0], partials[0], rng=np.random.default_rng(0), training=True)


class TestVariantLossValues:
    def test_dgi_with_zero_discriminator(self):
        bundle, model = make_toy("ps-dgi")
        model.discriminator.w.values[:] = 0.0
        records, partials = step_inputs(bundle)
        out = model.step(records[0], partials[0], rng=np.random.default_rng(1), training=True)
        assert out.losses["infomax"] == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_graphcl_batch_of_two_equal_scores(self):
        # Zeroed parameters make every summary the zero vector, whose cosine
        # score is 0 by convention: one positive, one negative, equal scores.
        bundle, model = make_toy("ps-graphcl")
        for name in model.store.names():
            model.store[name].values[:] = 0.0
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(4)
        context = model.prepare_batch(records[:2], rng)
        out = model.step(records[0], partials[0], batch=context.for_target(0), rng=rng, training=True)
        assert out.losses["infomax"] == pytest.approx(math.log(2), abs=1e-12)

    def test_infograph_matches_scripted_composition(self):
        # Independent end-to-end script of encode -> readout -> scores -> loss.
        from subgraph_infomax.infomax import gd_loss
        from subgraph_infomax.layers import encode

        bundle, model = make_toy("ps-infograph")
        records, partials = step_inputs(bundle)
        rng = np.random.default_rng(7)
        context = model.prepare_batch(records[:2], rng)
        out = model.step(
            records[0], partials[0], batch=context.for_target(0),
            rng=np.random.default_rng(7), training=True,
        )

        rng2 = np.random.default_rng(7)
        h_own = encode(model.encoder, model.table, records[0].node_ids, local_edges(records[0]))
        h_other = encode(model.encoder, model.table, records[1].node_ids, local_edges(records[1]))
        h_obs = encode(model.encoder, model.table, partials[0].node_ids, partials[0].edges)
        s_obs = model.readout(h_obs)
        li = gd_loss(model.discriminator(h_own, s_obs), model.discriminator(h_other, s_obs))
        from subgraph_infomax.layers import cross_entropy

        logits = model.head(s_obs)
        ce = cross_entropy(logits, records[0].label)
        assert out.losses["infomax"] == pytest.approx(li.item(), abs=1e-12)
        assert out.objective.item() == pytest.approx(ce.item() + li.item(), abs=1e-12)

    def test_dgi_matches_scripted_composition(self):
        from subgraph_infomax.infomax import gd_loss, shuffle_negatives
        from subgraph_infomax.layers import cross_entropy, encode

        bundle, model = make_toy("ps-dgi")
        records, partials = step_inputs(bundle)
        out = model.step(records[0], partials[0], rng=np.random.default_rng(11), training=True)

        rng = np.random.default_rng(11)
        h_obs = encode(model.encoder, model.table, partials[0].node_ids, partials[0].edges)
        s_obs = model.readout(h_obs)
        h_sub = encode(model.encoder, model.table, records[0].node_ids, local_edges(records[0]))
        li = gd_loss(
            model.discriminator(h_sub, s_obs),
            model.discriminator(shuffle_negatives(h_sub, rng), s_obs),
        )
        logits = model.head(s_obs)
        ce = cross_entropy(logits, records[0].label)
        assert out.objective.item() == pytest.approx(ce.item() + li.item(), abs=1e-12)


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
        pooled, ids = topk_softmax_pool(scores, h, [0, 1, 2, 3], 0.5, self.identity_mlp())
        assert ids == (0, 1)
        assert pooled.values[0] == pytest.approx([0.73106, 0.26894], abs=1e-5)

    def test_uniform_scores_full_ratio_is_mean(self):
        # Nonnegative rows pass through the stacked-identity layers unchanged.
        rng = np.random.default_rng(1)
        h = Tensor(np.abs(rng.normal(size=(5, 2))))
        scores = Tensor(np.full((5, 1), 0.3))
        pooled, ids = topk_softmax_pool(scores, h, list(range(5)), 1.0, self.identity_mlp())
        assert ids == (0, 1, 2, 3, 4)
        assert np.allclose(pooled.values, h.values.mean(axis=0, keepdims=True), atol=1e-12)

    def test_single_selection_is_mlp_of_row(self):
        h = Tensor(np.array([[3.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
        scores = Tensor(np.array([[9.0], [1.0], [0.0]]))
        pooled, ids = topk_softmax_pool(scores, h, [0, 1, 2], 0.01, self.identity_mlp())
        assert ids == (0,)
        assert np.allclose(pooled.values, [[3.0, 1.0]], atol=1e-12)

    def test_ties_break_toward_lower_node_id(self):
        h = Tensor(np.zeros((4, 2)))
        scores = Tensor(np.zeros((4, 1)))
        for _ in range(3):
            _, ids = topk_softmax_pool(scores, h, [7, 3, 9, 5], 0.5, self.identity_mlp())
            assert ids == (3, 5)


class TestKhopForward:
    def test_result_fields_and_partition(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        res = khop_forward(model, records[0], partials[0], rng=np.random.default_rng(0), training=True)
        assert res.s_khop.shape == (1, model.config.hidden_dim)
        assert res.loss_khop is not None
        observed = set(partials[0].node_ids)
        assert set(res.partition.node_ids) == observed | set(res.partition.neighbors)
        assert set(res.selected_ids) <= set(res.partition.node_ids)

    def test_loss_splits_scored_rows_by_record_membership(self):
        from subgraph_infomax.infomax import khop_loss
        from subgraph_infomax.layers import encode

        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        record, partial = records[0], partials[0]
        res = khop_forward(model, record, partial, rng=np.random.default_rng(0), training=True)
        # dropout 0, p_d 0 and no cap: the training forward draws nothing.
        h = encode(model.encoder, model.table, res.partition.node_ids, res.partition.edges_khop)
        scores = model.discriminator(h, res.s_obs).values[:, 0]
        members = set(record.node_ids)
        pos = [s for gid, s in zip(res.partition.node_ids, scores) if gid in members]
        neg = [s for gid, s in zip(res.partition.node_ids, scores) if gid not in members]
        assert len(pos) > len(partial.node_ids) and neg
        assert res.loss_khop.item() == khop_loss(np.array(pos), np.array(neg)).item()

    def test_inference_has_no_loss(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        res = khop_forward(model, records[0], partials[0], training=False)
        assert res.loss_khop is None

    def test_eval_forward_is_deterministic(self):
        bundle, model = make_toy("khop")
        records, partials = step_inputs(bundle)
        a = model.step(records[0], partials[0], training=False).logits
        b = model.step(records[0], partials[0], training=False).logits
        assert np.array_equal(a, b)

    def test_saturating_scores_drive_khop_loss_to_zero(self):
        from subgraph_infomax.infomax import khop_loss

        # Monotone saturation schedule with all-positive membership.
        previous = None
        for scale in (0.0, 1.0, 4.0, 16.0, 64.0):
            loss = khop_loss(np.full(5, scale), None).item()
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
        ids=[f"{variant}-{option}" for variant, option, _ in OPTION_CHECKS],
    )
    def test_option_path_gradient_on_toy(self, variant, option, value):
        closure, params = model_gradient_closure(variant, seed=1, **{option: value})
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
                context = model.prepare_batch(records, rng)
                objectives = []
                for i, (rec, part) in enumerate(zip(records, partials)):
                    out = model.step(rec, part, batch=context.for_target(i), rng=rng, training=True)
                    objectives.append(out.objective)
                total = objectives[0]
                for other in objectives[1:]:
                    total = ad.add(total, other)
                total = ad.scale(total, 1.0 / len(objectives))
                value = total.item()
                if first is None:
                    first = value
                last = value
                backward(total)
                adam_step(model.store, config)
            wins += last < first
        assert wins >= 45, f"{variant}: loss decreased for only {wins}/50 seeds"
