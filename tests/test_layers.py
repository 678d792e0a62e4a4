import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor
from subgraph_infomax.layers import (
    BilinearDiscriminator,
    CosineDiscriminator,
    GatedAttentionReadout,
    MeanMlpReadout,
    PredictionHead,
    SageEncoder,
    SageLayer,
    cross_entropy,
    encode,
    sinusoidal_encoding,
)
from subgraph_infomax.optim import ParameterStore


def rng():
    return np.random.default_rng(0)


def make_identity_mlp(mlp, dim):
    mlp.w1.values[:] = np.eye(dim)
    mlp.b1.values[:] = 0.0
    mlp.w2.values[:] = np.eye(dim)
    mlp.b2.values[:] = 0.0


class TestSageLayer:
    def test_identity_weights_mean_aggregation(self):
        # Node 0 has feature [1], neighbors carry [3] and [5]; with identity
        # self/neighbor weights and a zeroed skip: relu(1 + mean(3, 5)) = 5.
        store = ParameterStore()
        layer = SageLayer(store, "l", 1, 1, rng(), project_skip=True)
        layer.w_self.values[:] = 1.0
        layer.w_neigh.values[:] = 1.0
        layer.w_skip.values[:] = 0.0
        h = Tensor([[1.0], [3.0], [5.0]])
        edges = np.array([[1, 0], [2, 0]])
        out = layer(h, edges)
        assert out.values[0, 0] == pytest.approx(5.0)

    def test_zero_weights_give_zero_output(self):
        store = ParameterStore()
        enc = SageEncoder(store, "e", 2, 2, rng(), dropout=0.0)
        for _, param in store.items():
            param.values[:] = 0.0
        out = enc(Tensor(np.ones((3, 2))), np.array([[0, 1], [1, 2]]))
        assert np.array_equal(out.values, np.zeros((3, 2)))

    def test_isolated_node_uses_zero_aggregate(self):
        store = ParameterStore()
        layer = SageLayer(store, "l", 1, 1, rng(), project_skip=True)
        layer.w_self.values[:] = 1.0
        layer.w_neigh.values[:] = 1.0
        layer.w_skip.values[:] = 0.0
        out = layer(Tensor([[2.0]]), np.empty((0, 2), dtype=np.int64))
        assert out.values[0, 0] == pytest.approx(2.0)

    def test_matches_dense_message_passing_oracle(self):
        # Independent oracle: dense mean-aggregation computed with plain loops.
        r = np.random.default_rng(5)
        store = ParameterStore()
        layer = SageLayer(store, "l", 3, 3, r, project_skip=True)
        x = r.normal(size=(4, 3))
        edges = np.array([[0, 1], [2, 1], [3, 2], [1, 0]])
        got = layer(Tensor(x), edges).values

        w_self = layer.w_self.values
        w_neigh = layer.w_neigh.values
        w_skip = layer.w_skip.values
        want = np.zeros((4, 3))
        for v in range(4):
            incoming = [u for u, t in edges if t == v]
            agg = np.mean([x[u] for u in incoming], axis=0) if incoming else np.zeros(3)
            want[v] = np.maximum(x[v] @ w_self + agg @ w_neigh, 0.0) + x[v] @ w_skip
        assert np.allclose(got, want, atol=1e-12)

    def test_bidirectional_splits_width(self):
        store = ParameterStore()
        layer = SageLayer(store, "l", 2, 4, rng(), bidirectional=True, project_skip=True)
        assert layer.w_fwd.values.shape == (2, 2)
        assert layer.w_rev.values.shape == (2, 2)
        out = layer(Tensor(np.ones((2, 2))), np.array([[0, 1]]))
        assert out.shape == (2, 4)


def tape_nodes(out: Tensor) -> int:
    """Nodes with a backward rule that ``out`` reaches, itself included."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestNodeBudget:
    """Tape nodes per layer call: each is Python bookkeeping on every step."""

    def test_training_encode_is_eight_nodes(self):
        # Table gather, then per layer the neighbour gather, its segment
        # mean and one sage_combine, with dropout in between.
        store = ParameterStore()
        enc = SageEncoder(store, "e", 3, 4, rng(), dropout=0.5)
        table = store.create("t", (6, 3), rng())
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        out = encode(enc, table, [5, 0, 3], edges, training=True, rng=rng())
        assert tape_nodes(out) == 8

    def test_mlp_is_three_nodes(self):
        store = ParameterStore()
        mlp = MeanMlpReadout(store, "r", 4, rng()).mlp
        assert tape_nodes(mlp(Tensor(np.ones((3, 4)), requires_grad=True))) == 3


class TestEncode:
    def test_rejects_foreign_edge(self):
        # Edges are positions into node_ids: a negative or too-large source
        # or target is refused, with or without edge weights.
        store = ParameterStore()
        enc = SageEncoder(store, "e", 2, 2, rng(), dropout=0.0)
        table = store.create("t", (5, 2), rng())
        for bad in ([[0, 2]], [[2, 0]], [[0, 1], [-1, 0]], [[1, -1]]):
            edges = np.array(bad, dtype=np.int64)
            with pytest.raises(ValueError, match="out of range"):
                encode(enc, table, [0, 1], edges)
            with pytest.raises(ValueError):
                encode(enc, table, [0, 1], edges, edge_weights=np.ones(len(edges)))

    @pytest.mark.parametrize("seed", range(5))
    def test_relabel_matches_the_position_lookup(self, seed):
        # Reference: global-id edges re-indexed through a dict of positions,
        # as encode did before views carried positions.
        gen = np.random.default_rng(seed)
        store = ParameterStore()
        enc = SageEncoder(store, "e", 2, 2, rng(), dropout=0.0)
        table = store.create("t", (30, 2), rng())
        ids = gen.choice(30, size=9, replace=False)
        if seed % 2:
            ids.sort()
        edges = [tuple(int(n) for n in gen.choice(ids, size=2)) for _ in range(15)]
        position = {int(n): i for i, n in enumerate(ids)}
        local = np.array([[position[u], position[v]] for u, v in edges])
        want = enc(ad.gather_rows(table, ids), local).values
        assert np.array_equal(encode(enc, table, ids, local).values, want)

    def test_row_order_follows_node_ids(self):
        store = ParameterStore()
        enc = SageEncoder(store, "e", 2, 2, rng(), dropout=0.0)
        table = store.create("t", (5, 2), rng())
        none = np.empty((0, 2), dtype=np.int64)
        h_a = encode(enc, table, [3, 1], none)
        h_b = encode(enc, table, [1, 3], none)
        assert np.allclose(h_a.values[0], h_b.values[1])

    def test_two_layer_locality(self):
        # Two layers mean a 2-hop receptive field: perturbing a node 3 hops
        # away leaves the representation unchanged.
        store = ParameterStore()
        enc = SageEncoder(store, "e", 2, 4, rng(), dropout=0.0)
        table = store.create("t", (6, 2), rng())
        path = np.array([(i, i + 1) for i in range(5)] + [(i + 1, i) for i in range(5)])
        ids = [0, 1, 2, 3, 4, 5]
        before = encode(enc, table, ids, path).values[0].copy()
        table.values[3] += 10.0  # 3 hops from node 0
        after = encode(enc, table, ids, path).values[0]
        assert np.allclose(before, after, atol=1e-12)
        table.values[2] += 10.0  # 2 hops: inside the field
        changed = encode(enc, table, ids, path).values[0]
        assert not np.allclose(before, changed)


class TestReadouts:
    def test_mean_mlp_identity_weights(self):
        store = ParameterStore()
        readout = MeanMlpReadout(store, "r", 2, rng())
        make_identity_mlp(readout.mlp, 2)
        s = readout(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(s.values, [[0.5, 0.5]])

    def test_single_row_is_mlp_of_row(self):
        store = ParameterStore()
        readout = MeanMlpReadout(store, "r", 3, rng())
        row = Tensor([[0.3, -0.2, 0.9]])
        assert np.allclose(readout(row).values, readout.mlp(row).values)

    def test_empty_input_rejected(self):
        store = ParameterStore()
        readout = MeanMlpReadout(store, "r", 2, rng())
        with pytest.raises(ValueError):
            readout(Tensor(np.zeros((0, 2))))

    def test_mean_mlp_permutation_invariant(self):
        store = ParameterStore()
        readout = MeanMlpReadout(store, "r", 4, rng())
        h = np.random.default_rng(2).normal(size=(6, 4))
        s1 = readout(Tensor(h)).values
        s2 = readout(Tensor(h[::-1].copy())).values
        assert np.allclose(s1, s2, atol=1e-12)

    def test_gated_attention_constant_gate(self):
        # gate == 0 makes every sigmoid weight 0.5; with an identity feature
        # network, rows [2,0] and [0,2] pool to [1,1].
        store = ParameterStore()
        readout = GatedAttentionReadout(store, "r", 2, rng(), premixer=None)
        for p in (readout.gate.w1, readout.gate.b1, readout.gate.w2, readout.gate.b2):
            p.values[:] = 0.0
        make_identity_mlp(readout.feat, 2)
        s = readout(Tensor([[2.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(s.values, [[1.0, 1.0]])

    @pytest.mark.parametrize("premixer", [None, "mlp", "attention"])
    def test_attention_permutation_invariant_without_positions(self, premixer):
        store = ParameterStore()
        readout = GatedAttentionReadout(store, "r", 4, rng(), premixer=premixer)
        h = np.random.default_rng(3).normal(size=(5, 4))
        s1 = readout(Tensor(h)).values
        s2 = readout(Tensor(h[::-1].copy())).values
        assert np.allclose(s1, s2, atol=1e-12)

    def test_positions_break_symmetry(self):
        store = ParameterStore()
        readout = GatedAttentionReadout(store, "r", 4, rng(), premixer="mlp")
        h = np.random.default_rng(4).normal(size=(3, 4))
        s1 = readout(Tensor(h), positions=[0, 1, 2]).values
        s2 = readout(Tensor(h), positions=[2, 1, 0]).values
        assert not np.allclose(s1, s2)

    def test_sinusoid_rows_depend_on_position(self):
        pe = sinusoidal_encoding([0, 1, 2], dim=8)
        assert pe.shape == (3, 8)
        assert not np.allclose(pe[0], pe[1])


class TestDiscriminators:
    def test_bilinear_identity(self):
        store = ParameterStore()
        d = BilinearDiscriminator(store, "d", 2, rng())
        d.w.values[:] = np.eye(2)
        score = d(Tensor([[1.0, 1.0]]), Tensor([[1.0, 1.0]]))
        assert score.values[0, 0] == pytest.approx(2.0)

    def test_bilinear_exactly_linear(self):
        store = ParameterStore()
        d = BilinearDiscriminator(store, "d", 3, rng())
        h = np.random.default_rng(1).normal(size=(4, 3))
        s = Tensor(np.random.default_rng(2).normal(size=(1, 3)))
        base = d(Tensor(h), s).values
        for alpha in (2.0, 0.5, -1.0):  # binary scalings commute exactly
            scaled = d(Tensor(alpha * h), s).values
            assert np.array_equal(scaled, alpha * base)

    def test_cosine_scores_a_batch_of_unit_rows_at_once(self):
        d = CosineDiscriminator(temperature=0.5)
        h = np.random.default_rng(1).normal(size=(5, 3))
        s = Tensor(np.random.default_rng(2).normal(size=(1, 3)))
        units = d.project(Tensor(h))
        assert np.allclose(np.linalg.norm(units.values, axis=1), 1.0, atol=1e-15)
        batch = d(Tensor(h), s).values
        rows = [d(Tensor(h[i : i + 1]), s).values[0, 0] for i in range(5)]
        assert np.allclose(batch[:, 0], rows, rtol=1e-14, atol=0)
        cosine = h @ s.values[0] / (np.linalg.norm(h, axis=1) * np.linalg.norm(s.values))
        assert np.allclose(batch[:, 0], cosine / 0.5, rtol=1e-13, atol=0)

    def test_cosine_aligned_with_temperature(self):
        d = CosineDiscriminator(temperature=0.5)
        score = d(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]))
        assert score.values[0, 0] == pytest.approx(2.0)

    def test_cosine_orthogonal_is_zero(self):
        d = CosineDiscriminator(temperature=1.0)
        score = d(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
        assert score.values[0, 0] == pytest.approx(0.0)

    def test_cosine_zero_vector_scores_zero(self):
        d = CosineDiscriminator(temperature=1.0)
        score = d(Tensor([[0.0, 0.0]]), Tensor([[1.0, 1.0]]))
        assert score.values[0, 0] == 0.0

    def test_cosine_bad_temperature(self):
        with pytest.raises(ValueError):
            CosineDiscriminator(temperature=0.0)


class TestPredictionHead:
    def test_zero_weights_zero_logits(self):
        store = ParameterStore()
        head = PredictionHead(store, "h", 3, 4, rng())
        head.w.values[:] = 0.0
        head.b.values[:] = 0.0
        assert np.array_equal(head(Tensor([[1.0, 2.0, 3.0]])).values, np.zeros((1, 4)))

    def test_argmax_follows_picked_coordinate(self):
        store = ParameterStore()
        head = PredictionHead(store, "h", 2, 2, rng())
        head.w.values[:] = 0.0
        head.b.values[:] = 0.0
        head.w.values[0, 0] = 1.0
        assert np.argmax(head(Tensor([[3.0, 0.0]])).values) == 0
        assert np.argmax(head(Tensor([[-3.0, 0.0]])).values) == 1


class TestCrossEntropy:
    def test_uniform_logits(self):
        ce = cross_entropy(Tensor([[0.0, 0.0]]), 0)
        assert ce.item() == pytest.approx(np.log(2))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([[0.0, 0.0]]), 2)
