import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, backward
from subgraph_infomax.graph import SubgraphView
from subgraph_infomax.infomax import (
    augment,
    cgd_random_trials,
    cross_subgraph_negatives,
    gd_loss,
    infonce_loss,
    khop_loss,
    ppr_diffusion,
    ppr_view,
    shuffle_negatives,
    verify_cgd_bound,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestGdLoss:
    def test_all_zero_scores(self):
        assert gd_loss(np.zeros(4), np.zeros(4)).item() == pytest.approx(
            2 * math.log(2), abs=1e-12
        )

    def test_saturation_limit(self):
        assert gd_loss([1e3], [-1e3]).item() == pytest.approx(0.0, abs=1e-12)

    def test_one_vs_minus_one(self):
        # -ln s(1) - ln(1 - s(-1)) = 2 softplus(-1), computed directly.
        want = 2 * math.log(1 + math.exp(-1))
        assert gd_loss([1.0], [-1.0]).item() == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gd_loss([], [0.0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.integers(0, 2**31))
    def test_invariant_under_reordering(self, pos, neg, seed):
        rng = np.random.default_rng(seed)
        ref = gd_loss(np.array(pos), np.array(neg)).item()
        got = gd_loss(rng.permutation(pos), rng.permutation(neg)).item()
        assert got == pytest.approx(ref, abs=1e-12)


class TestInfonceLoss:
    def test_uniform_scores_give_log_k_plus_one(self):
        for k in (1, 2, 5, 9):
            loss = infonce_loss(np.zeros((3, 1)), np.zeros((3, k))).item()
            assert loss == pytest.approx(math.log(k + 1), abs=1e-12)

    def test_dominant_positive_saturates_to_zero(self):
        loss = infonce_loss(np.full((2, 1), 60.0), np.zeros((2, 4))).item()
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_direct_log_sum_exp(self):
        assert infonce_loss([[0.0]], [[0.0, 0.0]]).item() == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            infonce_loss(np.zeros((2, 1)), np.zeros((2, 0)))

    def test_strictly_decreasing_in_positive_score(self):
        rng = np.random.default_rng(0)
        negs = rng.normal(size=(3, 4))
        base = np.zeros((3, 1))
        lo = infonce_loss(base, negs).item()
        bumped = base.copy()
        bumped[1, 0] += 0.3
        hi = infonce_loss(bumped, negs).item()
        assert hi < lo


class TestKhopLoss:
    def test_balanced_zeros(self):
        assert khop_loss(np.zeros(2), np.zeros(2)).item() == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_saturated_positives_with_no_negatives(self):
        loss = khop_loss(np.full(3, 1e3), None).item()
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_balanced_sides_are_half_the_two_sided_loss(self):
        # With |pos| = |neg|, the joint-mean normalization is exactly half of
        # the per-side-mean loss.
        rng = np.random.default_rng(1)
        pos, neg = rng.normal(size=6), rng.normal(size=6)
        assert khop_loss(pos, neg).item() == pytest.approx(
            gd_loss(pos, neg).item() / 2.0, abs=1e-12
        )

    def test_both_sides_empty_rejected(self):
        with pytest.raises(ValueError):
            khop_loss(None, None)

    def test_one_empty_side_warns(self, caplog):
        with caplog.at_level("WARNING"):
            khop_loss(np.zeros(2), None)
        assert any("empty" in r.message for r in caplog.records)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-15, 15), min_size=1, max_size=8),
           st.lists(st.floats(-15, 15), min_size=1, max_size=8))
    def test_matches_scalar_loop_oracle(self, pos, neg):
        # Term-by-term re-evaluation in 50-digit arithmetic: immune to the
        # cancellation in 1 - sigmoid(x) that plain floats would hit.
        import mpmath

        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for x in pos:
                total += mpmath.log(mpmath.mpf(1) / (1 + mpmath.e**(-mpmath.mpf(x))))
            for x in neg:
                total += mpmath.log(1 - mpmath.mpf(1) / (1 + mpmath.e**(-mpmath.mpf(x))))
            want = float(-total / (len(pos) + len(neg)))
        got = khop_loss(np.array(pos), np.array(neg)).item()
        assert got == pytest.approx(want, abs=1e-12)


class TestSamplers:
    def test_shuffle_single_row_is_identity(self):
        h = Tensor([[1.0, 2.0]])
        assert shuffle_negatives(h, np.random.default_rng(0)) is h

    def test_shuffle_preserves_row_multiset(self):
        rng = np.random.default_rng(0)
        h = Tensor(np.arange(12.0).reshape(4, 3))
        shuffled = shuffle_negatives(h, rng)
        assert sorted(map(tuple, shuffled.values)) == sorted(map(tuple, h.values))

    def test_shuffle_reproducible_under_seed(self):
        h = Tensor(np.arange(20.0).reshape(5, 4))
        a = shuffle_negatives(h, np.random.default_rng(42)).values
        b = shuffle_negatives(h, np.random.default_rng(42)).values
        assert np.array_equal(a, b)

    def test_shuffle_gradient_flows_to_source(self):
        h = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        backward(ad.sum(shuffle_negatives(h, np.random.default_rng(1))))
        assert np.array_equal(h.grad, np.ones((3, 2)))

    def test_cross_negatives_two_element_batch(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.full((4, 3), 2.0))
        out = cross_subgraph_negatives([a, b], target_index=0)
        assert np.array_equal(out.values, b.values)

    def test_cross_negatives_middle_target(self):
        parts = [Tensor(np.full((i + 1, 2), float(i))) for i in range(3)]
        out = cross_subgraph_negatives(parts, target_index=1)
        assert out.shape[0] == 1 + 3
        assert set(out.values[:, 0]) == {0.0, 2.0}

    def test_cross_negatives_counts(self):
        parts = [Tensor(np.zeros((n, 2))) for n in (2, 3, 4)]
        out = cross_subgraph_negatives(parts, target_index=2)
        assert out.shape[0] == 2 + 3

    def test_cross_negatives_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            cross_subgraph_negatives([Tensor(np.zeros((2, 2)))], 0)


def make_view():
    nodes = tuple(range(8))
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)]
    return SubgraphView(node_ids=nodes, edges=tuple(edges))


class TestAugmentations:
    @pytest.mark.parametrize("variant", ["node-drop", "edge-perturb", "attr-mask"])
    def test_p_zero_is_identity(self, variant):
        view = make_view()
        out = augment(variant, view, 0.0, np.random.default_rng(0))
        assert out.node_ids == view.node_ids
        assert set(out.edges) == set(view.edges)
        assert out.masked == view.masked

    def test_node_drop_forced_retention(self):
        view = make_view()
        out = augment("node-drop", view, 0.999999, np.random.default_rng(0))
        assert len(out.node_ids) >= 1
        assert out.edges == () or all(
            u in out.node_ids and v in out.node_ids for u, v in out.edges
        )

    def test_node_drop_prunes_edges(self):
        view = make_view()
        out = augment("node-drop", view, 0.5, np.random.default_rng(3))
        kept = set(out.node_ids)
        assert kept < set(view.node_ids)
        for u, v in out.edges:
            assert u in kept and v in kept

    def test_edge_perturb_preserves_expected_count(self):
        # Monte-Carlo: removals are balanced by additions in expectation.
        view = make_view()  # 10 edges
        rng = np.random.default_rng(7)
        counts = [
            len(augment("edge-perturb", view, 0.3, rng).edges)
            for _ in range(1000)
        ]
        assert abs(np.mean(counts) - len(view.edges)) < 2.0

    def test_edge_perturb_adds_only_within_node_set(self):
        view = make_view()
        rng = np.random.default_rng(11)
        out = augment("edge-perturb", view, 0.5, rng)
        for u, v in out.edges:
            assert u in view.node_ids and v in view.node_ids

    def test_attr_mask_marks_nodes(self):
        view = make_view()
        out = augment("attr-mask", view, 0.5, np.random.default_rng(2))
        assert out.masked <= set(view.node_ids)
        assert out.node_ids == view.node_ids
        assert len(out.masked) > 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown augmentation: 'edge-add'"):
            augment("edge-add", make_view(), 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [-0.1, 1.0, float("nan")])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="augmentation probability"):
            augment("node-drop", make_view(), p, np.random.default_rng(0))


class TestPprDiffusion:
    def test_single_node_with_self_loop(self):
        out = ppr_diffusion([(0, 0)], n=1, alpha=0.2, top_t=1)
        assert np.allclose(out.matrix, [[1.0]])

    def test_rows_sum_to_one_on_regular_graphs(self):
        # The symmetric normalization is row-stochastic exactly when degrees
        # are uniform; an 8-cycle (degree 2 + self-loop) is such a graph.
        edges = [(i, (i + 1) % 8) for i in range(8)]
        out = ppr_diffusion(edges, n=8, alpha=0.15, top_t=8)
        assert np.allclose(out.matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_rows_near_one_on_irregular_graphs(self):
        view = make_view()
        out = ppr_diffusion(view.edges, n=8, alpha=0.15, top_t=8)
        sums = out.matrix.sum(axis=1)
        assert np.all(out.matrix >= -1e-12)
        assert np.all(sums > 0.5) and np.all(sums < 1.5)

    def test_alpha_near_one_approaches_identity(self):
        view = make_view()
        out = ppr_diffusion(view.edges, n=8, alpha=0.999999, top_t=8)
        assert np.allclose(out.matrix, np.eye(8), atol=1e-4)

    def test_top_t_limits_edges_per_row(self):
        view = make_view()
        out = ppr_diffusion(view.edges, n=8, alpha=0.15, top_t=3)
        targets = [v for _, v in out.edges]
        assert all(targets.count(i) == 3 for i in range(8))

    def test_dense_cap_enforced(self):
        with pytest.raises(ValueError, match="subsample"):
            ppr_diffusion([], n=3000, alpha=0.15, top_t=4)

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            ppr_diffusion([(0, 1)], n=2, alpha=1.0, top_t=1)

    def test_view_wrapper_keeps_global_ids(self):
        view = SubgraphView(node_ids=(5, 9), edges=((5, 9), (9, 5)))
        out = ppr_view(view, alpha=0.2, top_t=2)
        assert out.node_ids == (5, 9)
        assert set(u for u, _ in out.edges) <= {5, 9}
        assert out.edge_weights is not None
        assert len(out.edge_weights) == len(out.edges)


class TestCgdBound:
    def test_constant_scores_give_equality(self):
        f = np.zeros((3, 3))
        joint = np.full((3, 3), 1 / 9)
        got = verify_cgd_bound(f, joint)
        assert got.holds
        assert got.i_cgd == pytest.approx(got.i_gd, abs=1e-12)

    def test_single_negative_column_gives_equality(self):
        f = np.array([[0.3], [-0.7]])
        joint = np.array([[0.6], [0.4]])
        got = verify_cgd_bound(f, joint)
        assert got.i_cgd == pytest.approx(got.i_gd, abs=1e-12)

    def test_hundred_random_4x4_tables_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = rng.normal(0, 2, size=(4, 4))
            joint = rng.random((4, 4)) + 1e-3
            assert verify_cgd_bound(f, joint).holds

    def test_conditioning_tightens_strictly_somewhere(self):
        f = np.array([[2.0, -2.0], [-1.0, 1.0]])
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        got = verify_cgd_bound(f, joint)
        assert got.holds
        assert got.i_cgd < got.i_gd

    def test_nonpositive_joint_rejected(self):
        with pytest.raises(ValueError):
            verify_cgd_bound(np.zeros((2, 2)), np.array([[0.5, 0.0], [0.25, 0.25]]))

    def test_large_tables_rejected(self):
        with pytest.raises(ValueError):
            verify_cgd_bound(np.zeros((9, 2)), np.full((9, 2), 1 / 18))

    def test_thousand_random_trials_never_violate(self):
        assert cgd_random_trials(1000, np.random.default_rng(123)) == 0
