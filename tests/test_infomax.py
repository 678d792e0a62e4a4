import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, backward
from subgraph_infomax.graph import SubgraphView, disjoint_union
from subgraph_infomax.infomax import (
    augment,
    cgd_random_trials,
    cross_subgraph_negatives,
    gd_loss,
    infonce_loss,
    khop_loss,
    ppr_view,
    shuffle_negatives,
    verify_cgd_bound,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestGdLoss:
    def test_all_zero_scores(self):
        assert gd_loss(Tensor(np.zeros(4)), Tensor(np.zeros(4))).item() == pytest.approx(
            2 * math.log(2), abs=1e-12
        )

    def test_saturation_limit(self):
        assert gd_loss(Tensor([1e3]), Tensor([-1e3])).item() == pytest.approx(0.0, abs=1e-12)

    def test_one_vs_minus_one(self):
        # -ln s(1) - ln(1 - s(-1)) = 2 softplus(-1), computed directly.
        want = 2 * math.log(1 + math.exp(-1))
        assert gd_loss(Tensor([1.0]), Tensor([-1.0])).item() == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gd_loss(Tensor([]), Tensor([0.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.integers(0, 2**31))
    def test_invariant_under_reordering(self, pos, neg, seed):
        rng = np.random.default_rng(seed)
        ref = gd_loss(Tensor(pos), Tensor(neg)).item()
        got = gd_loss(Tensor(rng.permutation(pos)), Tensor(rng.permutation(neg))).item()
        assert got == pytest.approx(ref, abs=1e-12)


class TestInfonceLoss:
    def test_uniform_scores_give_log_k_plus_one(self):
        for k in (1, 2, 5, 9):
            loss = ad.mean(infonce_loss(Tensor(np.zeros((3, 1))), Tensor(np.zeros((3, k))))).item()
            assert loss == pytest.approx(math.log(k + 1), abs=1e-12)

    def test_dominant_positive_saturates_to_zero(self):
        loss = ad.mean(infonce_loss(Tensor(np.full((2, 1), 60.0)), Tensor(np.zeros((2, 4))))).item()
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_direct_log_sum_exp(self):
        assert infonce_loss(Tensor([[0.0]]), Tensor([[0.0, 0.0]])).item() == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            infonce_loss(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 0))))

    def test_row_of_positives_rejected(self):
        with pytest.raises(ValueError, match=r"^positive scores must be a column \(n, 1\), got \(1, 3\)$"):
            infonce_loss(Tensor(np.zeros((1, 3))), Tensor(np.zeros((3, 2))))

    def test_strictly_decreasing_in_positive_score(self):
        rng = np.random.default_rng(0)
        negs = Tensor(rng.normal(size=(3, 4)))
        base = np.zeros((3, 1))
        lo = ad.mean(infonce_loss(Tensor(base), negs)).item()
        bumped = base.copy()
        bumped[1, 0] += 0.3
        hi = ad.mean(infonce_loss(Tensor(bumped), negs)).item()
        assert hi < lo


def two_sided(pos, neg):
    """``khop_loss``'s arguments for one segment of positives then negatives."""
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    member = np.r_[np.ones(pos.size, bool), np.zeros(neg.size, bool)]
    return Tensor(np.concatenate([pos, neg])[:, None]), member


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
            gd_loss(Tensor(pos), Tensor(neg)).item() / 2.0, abs=1e-12
        )

    def test_all_zero_scores_give_ln2_per_segment(self):
        # Segments of 1, 3 and 2 rows, interleaved, with every mix of sides.
        segments = np.array([1, 0, 2, 1, 1, 2])
        member = np.array([True, False, True, False, True, True])
        loss = khop_loss(Tensor(np.zeros((6, 1))), member, segments, 3)
        assert loss.shape == (3, 1)
        np.testing.assert_allclose(loss.values, math.log(2), rtol=0, atol=1e-15)

    def test_each_segment_is_its_own_joint_mean(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(7, 1))
        member = np.array([True, False, False, True, True, False, True])
        segments = np.array([0, 1, 0, 1, 1, 0, 1])
        got = khop_loss(Tensor(scores), member, segments, 2).values[:, 0]
        for i in range(2):
            rows = segments == i
            want = khop_loss(Tensor(scores[rows]), member[rows]).item()
            assert got[i] == pytest.approx(want, rel=1e-15, abs=0)

    def test_both_sides_empty_rejected(self):
        # Segment 1 has no row, so neither side.
        with pytest.raises(ValueError, match="at least one score in every segment"):
            khop_loss(Tensor(np.zeros((2, 1))), [True, False], [0, 0], 2)

    def test_scores_and_flags_must_agree(self):
        with pytest.raises(ValueError, match="3 membership flags"):
            khop_loss(Tensor(np.zeros((2, 1))), [True, False, True])

    def test_one_empty_side_warns(self, caplog):
        with caplog.at_level("WARNING"):
            khop_loss(*two_sided(np.zeros(2), []))
        assert any("empty" in r.message for r in caplog.records)

    def test_a_one_sided_segment_warns_and_names_itself(self, caplog):
        # Segment 1 holds only negatives; segment 0 has both sides.
        with caplog.at_level("WARNING"):
            loss = khop_loss(
                Tensor(np.zeros((4, 1))), [True, False, False, False], [0, 0, 1, 1], 2
            )
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
        got = gd_loss(Tensor(pos), Tensor(neg), pos_mask, neg_mask)
        assert got.shape == (3, 1)
        for b in range(3):
            want = gd_loss(Tensor(pos[pos_mask[:, b], b]), Tensor(neg[neg_mask[:, b], b])).item()
            assert got.values[b, 0] == pytest.approx(want, rel=1e-14)

    def test_gd_loss_column_broadcasts_against_the_masks(self):
        # One score per row, shared by every segment that selects the row.
        scores = np.array([[1.0], [-2.0], [0.5]])
        own = np.array([[True, False], [True, False], [False, True]])

        def loss(rows, *masks):
            return gd_loss(Tensor(scores[rows]), Tensor(-scores[rows]), *masks)

        got = loss(slice(None), own, own).values[:, 0]
        assert got[0] == pytest.approx(loss(slice(0, 2)).item(), rel=1e-14)
        assert got[1] == pytest.approx(loss(slice(2, 3)).item(), rel=1e-14)

    def test_gd_loss_needs_both_sides_in_every_segment(self):
        own = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError, match="per segment"):
            gd_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))), own, ~own)

    def test_infonce_per_row_is_each_rows_loss(self):
        gen = np.random.default_rng(4)
        pos, negs = gen.normal(size=(4, 1)), gen.normal(size=(4, 3))
        rows = infonce_loss(Tensor(pos), Tensor(negs))
        assert rows.shape == (4, 1)
        for i in range(4):
            want = infonce_loss(Tensor(pos[i : i + 1]), Tensor(negs[i : i + 1])).item()
            assert rows.values[i, 0] == pytest.approx(want, rel=1e-14)
        mean = ad.mean(infonce_loss(Tensor(pos), Tensor(negs))).item()
        assert mean == pytest.approx(rows.values.mean(), rel=1e-14)

    def test_infonce_negative_of_minus_inf_takes_no_part(self):
        negs = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
        masked = ad.concat([ad.gather_rows(ad.transpose(negs), [0]), Tensor([[-np.inf]]),
                            ad.gather_rows(ad.transpose(negs), [1])], 0)
        got = infonce_loss(Tensor([[0.5]]), ad.transpose(masked))
        want = infonce_loss(Tensor([[0.5]]), Tensor([[0.0, 1.0]])).item()
        assert got.item() == pytest.approx(want, rel=1e-15)
        backward(got)
        assert np.isfinite(negs.grad).all()


def make_view():
    nodes = tuple(range(8))
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)]
    return SubgraphView(node_ids=nodes, edges=np.array(edges, dtype=np.int64))


def relabel(node_ids, edges):
    position = {n: i for i, n in enumerate(node_ids)}
    return np.array([(position[u], position[v]) for u, v in edges], dtype=np.int64).reshape(-1, 2)


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


def random_view(gen):
    """Sorted global ids with a random directed edge set."""
    ids = tuple(sorted(gen.choice(100, size=int(gen.integers(1, 12)), replace=False).tolist()))
    pairs = [(u, v) for u in ids for v in ids if u != v and gen.random() < 0.3]
    return ids, tuple(pairs)


# -- augmentations of a union -----------------------------------------------


def random_union(gen):
    """A union of 1-9 views with sorted edges: 1-row views, edgeless views,
    complete views (every ordered pair ``u != v``) and random ones, an id
    repeating across views, and mask flags on some unions."""
    views = []
    for _ in range(int(gen.integers(1, 10))):
        m = int(gen.integers(1, 8))
        ids = tuple(sorted(gen.choice(20, size=m, replace=False).tolist()))
        density = gen.choice([0.0, 1.0, gen.random()])
        pairs = [(u, v) for u in range(m) for v in range(m) if u != v and gen.random() < density]
        views.append(SubgraphView(ids, np.array(pairs, dtype=np.int64).reshape(-1, 2)))
    union = disjoint_union(views)
    if gen.random() < 0.5:
        union = union._replace(masked=gen.random(len(union.node_ids)) < 0.3)
    return union


class RecordingRng:
    """A generator that records, in call order, each array its ``random``
    calls return and each ``(trials, draw)`` of its ``binomial`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.random_draws, self.binomial_draws = [], []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, *args, **kwargs):
        draw = self.rng.random(*args, **kwargs)
        self.random_draws.append(draw.copy())
        return draw

    def binomial(self, trials, p):
        draw = self.rng.binomial(trials, p)
        self.binomial_draws.append((np.copy(trials), draw.copy()))
        return draw


def flags(union):
    return np.zeros(len(union.node_ids), dtype=bool) if union.masked is None else union.masked


def edge_codes(union):
    return union.edges[:, 0] * len(union.node_ids) + union.edges[:, 1]


def assert_valid(union):
    """Every segment a valid view: rows in segment order with ``sizes``
    matching, and sorted unique edges inside their segment, no self-loop."""
    n = len(union.node_ids)
    assert union.node_ids.shape == union.segments.shape == (n,)
    assert np.all(np.diff(union.segments) >= 0)
    assert union.sizes == np.bincount(union.segments, minlength=union.count).tolist()
    assert min(union.sizes) >= 1
    assert union.edges.dtype == np.int64 and union.edges.shape[1] == 2
    assert ((union.edges >= 0) & (union.edges < n)).all()
    u, v = union.edges.T
    assert (u != v).all()
    assert (union.segments[u] == union.segments[v]).all()
    assert np.all(np.diff(edge_codes(union)) > 0)  # sorted, no duplicate
    assert flags(union).shape == (n,)


def assert_within_binomial(successes, trials, q):
    mean = trials * q
    assert abs(successes - mean) <= 5 * math.sqrt(trials * q * (1 - q)) + 1, (successes, mean)


def input_rows(union, out):
    """The row of ``union`` each row of ``out`` came from, matched by
    segment and id (ids do not repeat inside a view)."""
    index = {key: r for r, key in enumerate(zip(union.segments.tolist(), union.node_ids.tolist()))}
    return np.array([index[key] for key in zip(out.segments.tolist(), out.node_ids.tolist())],
                    dtype=np.int64)


def segment_edges(union):
    """Each edge as ``(segment, source id, target id)``."""
    u, v = union.edges.T
    return set(zip(union.segments[u].tolist(), union.node_ids[u].tolist(), union.node_ids[v].tolist()))


class TestAugmentations:
    @pytest.mark.parametrize("variant", ["node-drop", "edge-perturb", "attr-mask"])
    def test_p_zero_is_identity(self, variant):
        gen = np.random.default_rng(5)
        for seed in range(50):
            union = random_union(gen)
            out = augment(variant, union, 0.0, np.random.default_rng(seed))
            assert np.array_equal(out.node_ids, union.node_ids)
            assert np.array_equal(out.edges, union.edges)
            assert np.array_equal(out.segments, union.segments) and out.sizes == union.sizes
            assert np.array_equal(flags(out), flags(union))

    @pytest.mark.parametrize("variant", ["node-drop", "edge-perturb", "attr-mask"])
    def test_equal_seeds_give_equal_unions(self, variant):
        gen = np.random.default_rng(8)
        for seed in range(20):
            union = random_union(gen)
            first, second = (augment(variant, union, 0.5, np.random.default_rng(seed)) for _ in "ab")
            assert np.array_equal(first.node_ids, second.node_ids)
            assert np.array_equal(first.edges, second.edges)
            assert first.sizes == second.sizes
            assert np.array_equal(flags(first), flags(second))

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_node_drop_contract(self, p):
        # One row mask over the union drops each row with probability p;
        # a segment the mask empties keeps exactly one of its rows; the
        # result keeps the kept rows' order, edges and mask flags.  The kept
        # row count of a segment of m rows is X + [X = 0], X ~ Bin(m, 1 - p).
        gen = np.random.default_rng(11)
        kept = mean = variance = 0.0
        for seed in range(250):
            union = random_union(gen)
            rng = RecordingRng(seed)
            out = augment("node-drop", union, p, rng)
            assert_valid(out)
            (draw,) = rng.random_draws
            mask = draw >= p
            rows = input_rows(union, out)
            assert np.all(np.diff(rows) > 0)
            keep = np.zeros(len(union.node_ids), dtype=bool)
            keep[rows] = True
            for s in range(union.count):
                seg = union.segments == s
                if mask[seg].any():
                    assert np.array_equal(keep[seg], mask[seg])
                else:
                    assert keep[seg].sum() == 1
            kept_ids = set(zip(union.segments[keep].tolist(), union.node_ids[keep].tolist()))
            assert segment_edges(out) == {
                (s, u, v) for s, u, v in segment_edges(union) if {(s, u), (s, v)} <= kept_ids
            }
            assert (out.masked is None) == (union.masked is None)
            assert np.array_equal(flags(out), flags(union)[rows])
            kept += len(out.node_ids)
            for m in union.sizes:
                expect = m * (1 - p) + p**m
                mean += expect
                variance += m * (1 - p) * p + (m * (1 - p)) ** 2 + p**m - expect**2
        assert abs(kept - mean) <= 5 * math.sqrt(variance)

    def test_node_drop_forced_retention(self):
        union = random_union(np.random.default_rng(4))
        out = augment("node-drop", union, 0.999999, np.random.default_rng(0))
        assert out.sizes == [1] * union.count
        assert out.edges.shape == (0, 2)

    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_edge_perturb_contract(self, p):
        # One drop mask over the union's edges; each segment then adds its
        # Bin(its edges, p) draw of fresh pairs: none pre-existing, repeated,
        # self-looped or outside the segment.  It adds fewer only when it runs
        # out of absent pairs (a complete segment adds none) or when its cap
        # of 50 draws per pair may bind: then the last pair it needs is
        # found by a draw with probability below 0.3.
        gen = np.random.default_rng(12)
        kept = trials = exact = 0
        for seed in range(250):
            union = random_union(gen)
            rng = RecordingRng(seed)
            out = augment("edge-perturb", union, p, rng)
            assert_valid(out)
            assert np.array_equal(out.node_ids, union.node_ids)
            assert np.array_equal(out.segments, union.segments) and out.sizes == union.sizes
            assert np.array_equal(flags(out), flags(union))
            (drop,), ((trials_in, want),) = rng.random_draws[:1], rng.binomial_draws
            codes, got = edge_codes(union), set(edge_codes(out).tolist())
            assert got & set(codes.tolist()) == set(codes[drop >= p].tolist())
            added = np.array(sorted(got - set(codes.tolist())), dtype=np.int64)
            per_segment = np.bincount(union.segments[added // len(union.node_ids)],
                                      minlength=union.count)
            edges_in = np.bincount(union.segments[union.edges[:, 0]], minlength=union.count)
            sizes = np.array(union.sizes)
            assert np.array_equal(trials_in, edges_in)
            for s in range(union.count):
                pairs = sizes[s] * (sizes[s] - 1)
                free = pairs - edges_in[s]
                target = min(want[s], free)
                assert per_segment[s] <= target
                if (free - target + 1) / max(pairs, 1) >= 0.3:
                    assert per_segment[s] == target
                    exact += want[s] > 0
            kept += len(got) - added.size
            trials += codes.size
        assert_within_binomial(kept, trials, 1 - p)
        assert exact > 100

    def test_edge_perturb_draws_absent_pairs_uniformly_under_the_cap(self):
        # View 0 has 4 rows and 7 of their 12 ordered pairs; view 1 has 8
        # rows and every ordered pair but (7, 0).  A segment that draws k
        # pairs to add makes up to 50 k candidate draws, so view 1 finds its
        # one absent pair with probability 1 - (55/56)^(50 k); view 0 adds
        # one of its 5 absent pairs uniformly when it draws k = 1.
        small = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 2)]
        large = [(u, v) for u in range(8) for v in range(8) if u != v and (u, v) != (7, 0)]
        views = [SubgraphView(tuple(range(4)), np.array(small)),
                 SubgraphView(tuple(range(10, 18)), np.array(large))]
        union = disjoint_union(views)
        absent = sorted({(u, v) for u in range(4) for v in range(4) if u != v} - set(small))
        found = mean = variance = single = 0
        picks = dict.fromkeys(absent, 0)
        for seed in range(600):
            rng = RecordingRng(seed)
            out = augment("edge-perturb", union, 0.15, rng)
            ((_, want),) = rng.binomial_draws
            edges = set(map(tuple, out.edges.tolist()))
            if want[1]:
                q = 1 - (55 / 56) ** (50 * want[1])
                found += (11, 4) in edges  # union rows of ids 17 and 10
                mean += q
                variance += q * (1 - q)
            if want[0] == 1:
                (pick,) = [e for e in absent if e in edges]
                picks[pick] += 1
                single += 1
        assert abs(found - mean) <= 5 * math.sqrt(variance)
        assert single > 100
        for count in picks.values():
            assert_within_binomial(count, single, 1 / len(absent))

    def test_attr_mask_contract(self):
        # One flag per row, OR-ed into the union's flags: each unmasked row
        # is masked with probability p; rows, edges and old flags stay.
        gen = np.random.default_rng(13)
        p = 0.4
        masked = trials = 0
        for seed in range(200):
            union = random_union(gen)
            out = augment("attr-mask", union, p, np.random.default_rng(seed))
            assert np.array_equal(out.node_ids, union.node_ids)
            assert np.array_equal(out.edges, union.edges)
            assert out.masked.dtype == bool and out.masked.shape == (len(union.node_ids),)
            before = flags(union)
            assert out.masked[before].all()
            masked += out.masked[~before].sum()
            trials += (~before).sum()
        assert_within_binomial(masked, trials, p)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown augmentation: 'edge-add'"):
            augment("edge-add", random_union(np.random.default_rng(0)), 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [-0.1, 1.0, float("nan")])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="augmentation probability"):
            augment("node-drop", random_union(np.random.default_rng(0)), p, np.random.default_rng(0))


def ppr_matrix(edges, n, alpha):
    """The whole diffusion matrix: with ``top_t = n``, ``ppr_view`` keeps
    every entry, row by row with columns ascending."""
    view = SubgraphView(tuple(range(n)), np.array(edges, dtype=np.int64).reshape(-1, 2))
    return ppr_view(view, alpha, top_t=n).edge_weights.reshape(n, n)


class TestPprDiffusion:
    def test_single_node_with_self_loop(self):
        assert np.allclose(ppr_matrix([(0, 0)], n=1, alpha=0.2), [[1.0]])

    def test_rows_sum_to_one_on_regular_graphs(self):
        # The symmetric normalization is row-stochastic exactly when degrees
        # are uniform; an 8-cycle (degree 2 + self-loop) is such a graph.
        edges = [(i, (i + 1) % 8) for i in range(8)]
        matrix = ppr_matrix(edges, n=8, alpha=0.15)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_rows_near_one_on_irregular_graphs(self):
        matrix = ppr_matrix(make_view().edges, n=8, alpha=0.15)
        sums = matrix.sum(axis=1)
        assert np.all(matrix >= -1e-12)
        assert np.all(sums > 0.5) and np.all(sums < 1.5)

    def test_alpha_near_one_approaches_identity(self):
        matrix = ppr_matrix(make_view().edges, n=8, alpha=0.999999)
        assert np.allclose(matrix, np.eye(8), atol=1e-4)

    def test_top_t_limits_edges_per_row(self):
        out = ppr_view(make_view(), alpha=0.15, top_t=3)
        targets = out.edges[:, 1].tolist()
        assert all(targets.count(i) == 3 for i in range(8))

    def test_dense_cap_enforced(self):
        view = SubgraphView(tuple(range(3000)), np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="subsample"):
            ppr_view(view, alpha=0.15, top_t=4)

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            ppr_view(SubgraphView((0, 1), np.array([[0, 1]])), alpha=1.0, top_t=1)

    def test_out_of_range_edge_named(self):
        with pytest.raises(ValueError, match=r"^edge \(2, 0\) out of range for 2 nodes$"):
            ppr_view(SubgraphView((0, 1), np.array([[0, 1], [2, 0], [-1, 0]])), alpha=0.2, top_t=1)

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
            ids, pairs = random_view(gen)
            out = ppr_view(SubgraphView(ids, relabel(ids, pairs)), 0.15, top_t)
            want_edges, want_weights = reference_ppr_view(ids, pairs, 0.15, top_t)
            assert out.node_ids == ids
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
