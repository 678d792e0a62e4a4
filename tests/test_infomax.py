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
            loss = ad.mean(infonce_loss(np.zeros((3, 1)), np.zeros((3, k)))).item()
            assert loss == pytest.approx(math.log(k + 1), abs=1e-12)

    def test_dominant_positive_saturates_to_zero(self):
        loss = ad.mean(infonce_loss(np.full((2, 1), 60.0), np.zeros((2, 4)))).item()
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_direct_log_sum_exp(self):
        assert infonce_loss([[0.0]], [[0.0, 0.0]]).item() == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            infonce_loss(np.zeros((2, 1)), np.zeros((2, 0)))

    def test_row_of_positives_rejected(self):
        with pytest.raises(ValueError, match=r"^positive scores must be a column \(n, 1\), got \(1, 3\)$"):
            infonce_loss(np.zeros((1, 3)), np.zeros((3, 2)))

    def test_strictly_decreasing_in_positive_score(self):
        rng = np.random.default_rng(0)
        negs = rng.normal(size=(3, 4))
        base = np.zeros((3, 1))
        lo = ad.mean(infonce_loss(base, negs)).item()
        bumped = base.copy()
        bumped[1, 0] += 0.3
        hi = ad.mean(infonce_loss(bumped, negs)).item()
        assert hi < lo


def two_sided(pos, neg):
    """``khop_loss``'s arguments for one segment of positives then negatives."""
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    member = np.r_[np.ones(pos.size, bool), np.zeros(neg.size, bool)]
    return np.concatenate([pos, neg])[:, None], member


class TestKhopLoss:
    def test_balanced_zeros(self):
        assert khop_loss(*two_sided(np.zeros(2), np.zeros(2))).item() == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_saturated_positives_with_no_negatives(self):
        loss = khop_loss(*two_sided(np.full(3, 1e3), [])).item()
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_balanced_sides_are_half_the_two_sided_loss(self):
        # With |pos| = |neg|, the joint-mean normalization is exactly half of
        # the per-side-mean loss.
        rng = np.random.default_rng(1)
        pos, neg = rng.normal(size=6), rng.normal(size=6)
        assert khop_loss(*two_sided(pos, neg)).item() == pytest.approx(
            gd_loss(pos, neg).item() / 2.0, abs=1e-12
        )

    def test_all_zero_scores_give_ln2_per_segment(self):
        # Segments of 1, 3 and 2 rows, interleaved, with every mix of sides.
        segments = np.array([1, 0, 2, 1, 1, 2])
        member = np.array([True, False, True, False, True, True])
        loss = khop_loss(np.zeros((6, 1)), member, segments, 3)
        assert loss.shape == (3, 1)
        np.testing.assert_allclose(loss.values, math.log(2), rtol=0, atol=1e-15)

    def test_each_segment_is_its_own_joint_mean(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(7, 1))
        member = np.array([True, False, False, True, True, False, True])
        segments = np.array([0, 1, 0, 1, 1, 0, 1])
        got = khop_loss(scores, member, segments, 2).values[:, 0]
        for i in range(2):
            rows = segments == i
            want = khop_loss(scores[rows], member[rows]).item()
            assert got[i] == pytest.approx(want, rel=1e-15, abs=0)

    def test_both_sides_empty_rejected(self):
        # Segment 1 has no row, so neither side.
        with pytest.raises(ValueError, match="at least one score in every segment"):
            khop_loss(np.zeros((2, 1)), [True, False], [0, 0], 2)

    def test_scores_and_flags_must_agree(self):
        with pytest.raises(ValueError, match="3 membership flags"):
            khop_loss(np.zeros((2, 1)), [True, False, True])

    def test_one_empty_side_warns(self, caplog):
        with caplog.at_level("WARNING"):
            khop_loss(*two_sided(np.zeros(2), []))
        assert any("empty" in r.message for r in caplog.records)

    def test_a_one_sided_segment_warns_and_names_itself(self, caplog):
        # Segment 1 holds only negatives; segment 0 has both sides.
        with caplog.at_level("WARNING"):
            loss = khop_loss(np.zeros((4, 1)), [True, False, False, False], [0, 0, 1, 1], 2)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["khop_loss computed with an empty positive side (segment 1)"]
        np.testing.assert_allclose(loss.values, math.log(2), rtol=0, atol=1e-15)

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
        got = khop_loss(*two_sided(pos, neg)).item()
        assert got == pytest.approx(want, abs=1e-12)


class TestSamplers:
    def test_shuffle_keeps_one_row_segments(self):
        h = Tensor([[1.0, 2.0], [3.0, 4.0]])
        (out,) = shuffle_negatives([h], [1, 1], np.random.default_rng(0))
        assert np.array_equal(out.values, h.values)

    def test_shuffle_keeps_each_row_in_its_segment(self):
        rng = np.random.default_rng(0)
        sizes = [2, 3, 4]
        h = Tensor(np.arange(27.0).reshape(9, 3))
        (shuffled,) = shuffle_negatives([h], sizes, rng)
        bounds = np.cumsum([0] + sizes)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            got = sorted(map(tuple, shuffled.values[lo:hi]))
            assert got == sorted(map(tuple, h.values[lo:hi]))

    def test_shuffle_draws_per_segment_then_per_tensor(self):
        # The per-record order: each record's permutations in turn.
        sizes = [3, 1, 4]
        a, b = (Tensor(np.arange(8.0)[:, None] + k) for k in (0.0, 100.0))
        got_a, got_b = shuffle_negatives([a, b], sizes, np.random.default_rng(42))
        gen = np.random.default_rng(42)
        want_a, want_b = [], []
        for lo, n in zip([0, 3, 4], sizes):
            want_a.extend(lo + gen.permutation(n))
            want_b.extend(lo + gen.permutation(n))
        assert np.array_equal(got_a.values[:, 0], a.values[want_a, 0])
        assert np.array_equal(got_b.values[:, 0], b.values[want_b, 0])

    def test_shuffle_gradient_flows_to_source(self):
        h = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        (out,) = shuffle_negatives([h], [3], np.random.default_rng(1))
        backward(ad.sum(out))
        assert np.array_equal(h.grad, np.ones((3, 2)))

    def test_cross_negatives_mark_every_other_member(self):
        mask = cross_subgraph_negatives(np.array([0, 0, 1, 2, 2, 2]), 3)
        assert mask.shape == (6, 3) and mask.dtype == bool
        assert mask.tolist() == [
            [False, True, True], [False, True, True], [True, False, True],
            [True, True, False], [True, True, False], [True, True, False],
        ]
        assert mask.sum(axis=0).tolist() == [4, 5, 3]

    def test_cross_negatives_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            cross_subgraph_negatives(np.zeros(2, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="out of range"):
            cross_subgraph_negatives(np.array([0, 2]), 2)


class TestPerSegmentLosses:
    def test_gd_loss_column_is_the_loss_of_its_selected_scores(self):
        gen = np.random.default_rng(3)
        pos, neg = gen.normal(size=(7, 3)), gen.normal(size=(7, 3))
        pos_mask = gen.random((7, 3)) < 0.5
        pos_mask[0], pos_mask[1] = True, False
        neg_mask = ~pos_mask
        got = gd_loss(pos, neg, pos_mask, neg_mask)
        assert got.shape == (3, 1)
        for b in range(3):
            want = gd_loss(pos[pos_mask[:, b], b], neg[neg_mask[:, b], b]).item()
            assert got.values[b, 0] == pytest.approx(want, rel=1e-14)

    def test_gd_loss_column_broadcasts_against_the_masks(self):
        # One score per row, shared by every segment that selects the row.
        scores = np.array([[1.0], [-2.0], [0.5]])
        own = np.array([[True, False], [True, False], [False, True]])
        got = gd_loss(scores, -scores, own, own).values[:, 0]
        assert got[0] == pytest.approx(gd_loss(scores[:2], -scores[:2]).item(), rel=1e-14)
        assert got[1] == pytest.approx(gd_loss(scores[2:], -scores[2:]).item(), rel=1e-14)

    def test_gd_loss_needs_both_sides_in_every_segment(self):
        own = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError, match="per segment"):
            gd_loss(np.zeros((2, 2)), np.zeros((2, 2)), own, ~own)

    def test_infonce_per_row_is_each_rows_loss(self):
        gen = np.random.default_rng(4)
        pos, negs = gen.normal(size=(4, 1)), gen.normal(size=(4, 3))
        rows = infonce_loss(pos, negs)
        assert rows.shape == (4, 1)
        for i in range(4):
            want = infonce_loss(pos[i : i + 1], negs[i : i + 1]).item()
            assert rows.values[i, 0] == pytest.approx(want, rel=1e-14)
        assert ad.mean(infonce_loss(pos, negs)).item() == pytest.approx(rows.values.mean(), rel=1e-14)

    def test_infonce_negative_of_minus_inf_takes_no_part(self):
        negs = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
        masked = ad.concat([ad.gather_rows(ad.transpose(negs), [0]), Tensor([[-np.inf]]),
                            ad.gather_rows(ad.transpose(negs), [1])], 0)
        got = infonce_loss([[0.5]], ad.transpose(masked))
        want = infonce_loss([[0.5]], [[0.0, 1.0]]).item()
        assert got.item() == pytest.approx(want, rel=1e-15)
        backward(got)
        assert np.isfinite(negs.grad).all()


def make_view():
    nodes = tuple(range(8))
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)]
    return SubgraphView(node_ids=nodes, edges=np.array(edges, dtype=np.int64))


def edge_set(view):
    return set(map(tuple, view.edges.tolist()))


def global_edges(view):
    """A view's edges as global-id pairs, in row order."""
    return [(view.node_ids[u], view.node_ids[v]) for u, v in view.edges.tolist()]


def relabel(node_ids, edges):
    position = {n: i for i, n in enumerate(node_ids)}
    return np.array([(position[u], position[v]) for u, v in edges], dtype=np.int64).reshape(-1, 2)


# Reference augmentations and diffusion view: the global-id code they
# replaced, run on ``(node_ids, global edge tuple, masked)`` triples.


def reference_node_drop(ids, edges, masked, p, rng):
    ids = np.array(ids)
    keep = rng.random(ids.size) >= p
    if not keep.any():
        keep[rng.integers(ids.size)] = True
    kept = set(int(n) for n in ids[keep])
    edges = tuple((u, v) for u, v in edges if u in kept and v in kept)
    return tuple(sorted(kept)), edges, frozenset(n for n in masked if n in kept)


def reference_edge_perturb(ids, edges, masked, p, rng):
    keep = rng.random(len(edges)) >= p
    surviving = [e for e, k in zip(edges, keep) if k]
    n_add = int(rng.binomial(len(edges), p)) if edges else 0
    present = set(surviving)
    pool = list(ids)
    added = attempts = 0
    while added < n_add and attempts < 50 * max(n_add, 1) and len(pool) > 1:
        u, v = rng.choice(pool, size=2, replace=False)
        cand = (int(u), int(v))
        if cand not in present and cand not in edges:
            present.add(cand)
            surviving.append(cand)
            added += 1
        attempts += 1
    return ids, tuple(sorted(surviving)), masked


def reference_attr_mask(ids, edges, masked, p, rng):
    flips = rng.random(len(ids)) < p
    return ids, edges, frozenset(masked) | {n for n, f in zip(ids, flips) if f}


def reference_ppr_view(ids, edges, alpha, top_t):
    index = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n))
    for u, v in edges:
        a[index[u], index[v]] = a[index[v], index[u]] = 1.0
    np.fill_diagonal(a, 1.0)
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    s = d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]
    pi = alpha * np.linalg.inv(np.eye(n) - (1.0 - alpha) * s)
    kept, weights = [], []
    t = min(top_t, n)
    for i in range(n):
        for j in sorted(int(c) for c in np.argpartition(-pi[i], t - 1)[:t]):
            kept.append((ids[j], ids[i]))
            weights.append(float(pi[i, j]))
    return tuple(kept), tuple(weights)


REFERENCE_AUGMENTATIONS = {
    "node-drop": reference_node_drop,
    "edge-perturb": reference_edge_perturb,
    "attr-mask": reference_attr_mask,
}


def random_view(gen):
    """Sorted global ids with a random directed edge set and mask."""
    ids = tuple(sorted(gen.choice(100, size=int(gen.integers(1, 12)), replace=False).tolist()))
    pairs = [(u, v) for u in ids for v in ids if u != v and gen.random() < 0.3]
    masked = frozenset(n for n in ids if gen.random() < 0.2)
    return ids, tuple(pairs), masked


class TestAugmentations:
    @pytest.mark.parametrize("variant", ["node-drop", "edge-perturb", "attr-mask"])
    def test_p_zero_is_identity(self, variant):
        view = make_view()
        out = augment(variant, view, 0.0, np.random.default_rng(0))
        assert out.node_ids == view.node_ids
        assert edge_set(out) == edge_set(view)
        assert out.masked == view.masked

    def test_node_drop_forced_retention(self):
        view = make_view()
        out = augment("node-drop", view, 0.999999, np.random.default_rng(0))
        assert len(out.node_ids) == 1
        assert out.edges.shape == (0, 2)

    def test_node_drop_prunes_edges(self):
        view = make_view()
        out = augment("node-drop", view, 0.5, np.random.default_rng(3))
        kept = set(out.node_ids)
        assert kept < set(view.node_ids)
        assert set(global_edges(out)) == {(u, v) for u, v in global_edges(view) if {u, v} <= kept}
        assert out.edges.dtype == np.int64
        assert ((out.edges >= 0) & (out.edges < len(out.node_ids))).all()

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
        assert out.node_ids == view.node_ids
        assert out.edges.dtype == np.int64
        assert ((out.edges >= 0) & (out.edges < len(view.node_ids))).all()

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

    @pytest.mark.parametrize("variant", sorted(REFERENCE_AUGMENTATIONS))
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.99])
    def test_matches_the_global_id_reference(self, variant, p):
        # Each augmentation, on positions, gives the relabelled output of the
        # global-id code it replaced, element for element and in order, and
        # leaves the rng where that code left it.  p = 0.99 exercises
        # node-drop's forced retention.
        gen = np.random.default_rng(2024)
        for seed in range(60):
            ids, pairs, masked = random_view(gen)
            view = SubgraphView(ids, relabel(ids, pairs), masked)
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            out = augment(variant, view, p, rng)
            want_ids, want_edges, want_masked = REFERENCE_AUGMENTATIONS[variant](
                ids, pairs, masked, p, rng_ref
            )
            assert out.node_ids == want_ids
            assert out.edges.dtype == np.int64
            assert np.array_equal(out.edges, relabel(want_ids, want_edges))
            assert out.masked == want_masked
            assert rng.bit_generator.state == rng_ref.bit_generator.state


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
        targets = out.edges[:, 1].tolist()
        assert all(targets.count(i) == 3 for i in range(8))

    def test_dense_cap_enforced(self):
        with pytest.raises(ValueError, match="subsample"):
            ppr_diffusion([], n=3000, alpha=0.15, top_t=4)

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            ppr_diffusion([(0, 1)], n=2, alpha=1.0, top_t=1)

    def test_out_of_range_edge_named(self):
        with pytest.raises(ValueError, match=r"^edge \(2, 0\) out of range for 2 nodes$"):
            ppr_diffusion([(0, 1), (2, 0), (-1, 0)], n=2, alpha=0.2, top_t=1)

    def test_view_wrapper_keeps_global_ids(self):
        view = SubgraphView(node_ids=(5, 9), edges=np.array([[0, 1], [1, 0]]))
        out = ppr_view(view, alpha=0.2, top_t=2)
        assert out.node_ids == (5, 9)
        assert out.edges.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
        assert out.edge_weights is not None
        assert len(out.edge_weights) == len(out.edges)

    @pytest.mark.parametrize("top_t", [1, 3, 20])
    def test_view_matches_the_global_id_reference(self, top_t):
        gen = np.random.default_rng(top_t)
        for _ in range(40):
            ids, pairs, masked = random_view(gen)
            out = ppr_view(SubgraphView(ids, relabel(ids, pairs), masked), 0.15, top_t)
            want_edges, want_weights = reference_ppr_view(ids, pairs, 0.15, top_t)
            assert out.node_ids == ids and out.masked == masked
            assert np.array_equal(out.edges, relabel(ids, want_edges))
            assert out.edge_weights.tolist() == list(want_weights)


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
