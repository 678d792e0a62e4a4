"""The batched forward against the per-record path it replaced.

A step encodes each view set of a batch once, as a disjoint union, and runs
readouts, the head, the cross-entropy, the k-hop stage's scores and
membership loss and the MI terms as segment ops and single products; only
the k-hop top-k pool runs per record.  The per-record path, kept inline
here as the oracle, ran one forward per record: it encoded each view alone,
read each out alone, and scored each record's summary against its own
positives and negatives.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor
from subgraph_infomax.data import ObservationProtocol, SyntheticSpec, generate_synthetic, sample_observed
from subgraph_infomax import models
from subgraph_infomax.graph import SubgraphView, disjoint_union, induced_partial_subgraph, khop_neighbors
from subgraph_infomax.infomax import augment, gd_loss, infonce_loss, ppr_view
from subgraph_infomax.layers import (
    GatedAttentionReadout,
    MeanMlpReadout,
    Mlp,
    SageEncoder,
    encode,
    sinusoidal_encoding,
)
from subgraph_infomax.models import (
    BATCH_NEGATIVE_VARIANTS,
    GRAPHCL_AUGMENTATIONS,
    VARIANTS,
    build_model,
    khop_forward,
    topk_softmax_pool,
)
from subgraph_infomax.optim import ParameterStore
from subgraph_infomax.train import evaluate
from subgraph_infomax.verify import OPTION_CHECKS, _toy_model_config, _toy_spec


def rng(seed=0):
    return np.random.default_rng(seed)


def view(ids, edges=(), weights=None):
    return SubgraphView(
        tuple(ids),
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        None if weights is None else np.asarray(weights, dtype=np.float64),
    )


def segment_views(union):
    """The union's segments as views, each with its rows' mask flags (or
    ``None``): the per-record inputs a union stands for."""
    starts = np.cumsum(union.sizes) - union.sizes
    edge_segments = union.segments[union.edges[:, 0]]
    views = []
    for s, (lo, size) in enumerate(zip(starts.tolist(), union.sizes)):
        inside = edge_segments == s
        weights = None if union.edge_weights is None else union.edge_weights[inside]
        v = SubgraphView(tuple(union.node_ids[lo:lo + size].tolist()), union.edges[inside] - lo, weights)
        views.append((v, None if union.masked is None else union.masked[lo:lo + size]))
    return views


# -- the union --------------------------------------------------------------


class TestDisjointUnion:
    def test_offsets_segments_and_an_edgeless_one_node_view(self):
        views = [view([4, 7, 9], [(0, 1), (2, 0)]), view([3]), view([7, 1], [(1, 0)])]
        union = disjoint_union(views)
        assert union.node_ids.tolist() == [4, 7, 9, 3, 7, 1]
        # The third view starts after 3 + 1 rows.
        assert union.edges.tolist() == [[0, 1], [2, 0], [5, 4]]
        assert union.edges.dtype == np.int64
        assert union.segments.tolist() == [0, 0, 0, 1, 2, 2]
        assert union.sizes == [3, 1, 2] and union.count == 3
        assert union.masked is None and union.edge_weights is None

    def test_views_without_edges(self):
        union = disjoint_union([view([2]), view([5, 6])])
        assert union.edges.shape == (0, 2)
        assert union.segments.tolist() == [0, 1, 1]

    def test_edge_weights_are_carried_in_edge_order(self):
        views = [view([0, 1], [(0, 1), (1, 0)], weights=[0.5, 0.25]), view([2, 3], [(1, 0)], weights=[2.0])]
        union = disjoint_union(views)
        assert union.edges.tolist() == [[0, 1], [1, 0], [3, 2]]
        assert union.edge_weights.tolist() == [0.5, 0.25, 2.0]

    def test_weights_on_some_views_only_are_refused(self):
        with pytest.raises(ValueError, match="edge weights on every view or on none"):
            disjoint_union([view([0, 1], [(0, 1)], weights=[1.0]), view([2, 3], [(0, 1)])])

    def test_an_empty_batch_or_view_is_refused(self):
        with pytest.raises(ValueError, match="at least one view"):
            disjoint_union([])
        with pytest.raises(ValueError, match="view 1 of the union has no node"):
            disjoint_union([view([1]), view([])])

    def test_a_repeated_id_is_masked_only_in_the_view_that_masks_it(self):
        # Node 7 is in both views; only the first view's row is flagged.
        union = disjoint_union([view([7, 8]), view([5, 7])])
        union = union._replace(masked=np.array([True, False, False, False]))
        store = ParameterStore()
        enc = SageEncoder(store, "e", 3, 4, rng(), dropout=0.0)
        table = store.create("t", (10, 3), rng(1))
        got = encode(enc, table, union.node_ids, union.edges, masked=union.masked).values
        # Without edges each row depends on its own features only: the
        # masked row equals a zero-feature encode, the unmasked copy of 7
        # equals 7's plain encode.
        none = np.empty((0, 2), dtype=np.int64)
        plain = encode(enc, table, [7], none).values[0]
        zero = enc(Tensor(np.zeros((1, 3))), none).values[0]
        np.testing.assert_allclose(got[0], zero, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[3], plain, rtol=1e-12, atol=1e-12)
        assert not np.allclose(plain, zero)

    def test_mask_flags_must_match_the_rows(self):
        store = ParameterStore()
        enc = SageEncoder(store, "e", 2, 2, rng(), dropout=0.0)
        table = store.create("t", (5, 2), rng())
        with pytest.raises(ValueError, match="mask flags for 2 rows"):
            encode(enc, table, [0, 1], np.empty((0, 2), dtype=np.int64), masked=np.array([True]))


def per_view_encodes(enc, table, views, masked):
    """Each view encoded alone, its rows' mask flags cut from the union's."""
    rows = []
    for v, masked in zip(views, np.split(masked, np.cumsum([len(v.node_ids) for v in views])[:-1])):
        rows.append(encode(enc, table, v.node_ids, v.edges, masked=masked, edge_weights=v.edge_weights).values)
    return np.concatenate(rows)


def random_views(gen, count, weighted=False, num_nodes=12):
    views = []
    for _ in range(count):
        n = int(gen.integers(1, 7))
        ids = sorted(gen.choice(num_nodes, size=n, replace=False).tolist())
        e = int(gen.integers(0, 2 * n))
        edges = gen.integers(0, n, size=(e, 2))
        weights = gen.random(e) + 0.1 if weighted else None
        views.append(view(ids, edges, weights))
    return views


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_union_encode_equals_the_per_view_encodes(seed, weighted, bidirectional):
    gen = rng(seed)
    store = ParameterStore()
    enc = SageEncoder(store, "e", 3, 4, gen, bidirectional=bidirectional, dropout=0.0)
    table = store.create("t", (12, 3), gen)
    views = random_views(gen, int(gen.integers(1, 6)), weighted)
    union = disjoint_union(views)
    union = union._replace(masked=gen.random(len(union.node_ids)) < 0.3)
    got = encode(enc, table, union.node_ids, union.edges, masked=union.masked,
                 edge_weights=union.edge_weights).values
    want = per_view_encodes(enc, table, views, union.masked)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def per_view_readout(readout, h, positions=None):
    """The readout of one view, as the per-record path computed it."""
    if isinstance(readout, MeanMlpReadout):
        return ad.mean(readout.mlp(h), 0)
    if positions is not None:
        h = ad.add(h, Tensor(sinusoidal_encoding(positions, readout.dim)))
    mixer = readout.premixer
    if isinstance(mixer, Mlp):
        h = mixer(h)
    elif mixer is not None:
        q, k, v = (ad.matmul(h, w) for w in (mixer.w_q, mixer.w_k, mixer.w_v))
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(mixer.dim))
        h = ad.matmul(ad.softmax_rows(scores), v)
    return ad.sum(ad.mul(ad.sigmoid(readout.gate(h)), readout.feat(h)), 0)


@pytest.mark.parametrize("kind", ["mean", "mlp", "none", "attention"])
def test_union_readout_equals_the_per_view_readouts(kind):
    gen = rng(3)
    store = ParameterStore()
    if kind == "mean":
        readout = MeanMlpReadout(store, "r", 4, gen)
    else:
        readout = GatedAttentionReadout(store, "r", 4, gen, premixer=kind)
    union = disjoint_union([view([1, 2, 3]), view([4]), view([2, 5])])
    h = Tensor(gen.normal(size=(6, 4)), requires_grad=True)
    got = readout(h, union)
    assert got.shape == (3, 4)
    weights = gen.normal(size=(3, 4))
    ad.backward(ad.sum(ad.mul(got, Tensor(weights))))
    got_grad, h.grad = h.grad, None
    want = [per_view_readout(readout, ad.gather_rows(h, rows)) for rows in ([0, 1, 2], [3], [4, 5])]
    np.testing.assert_allclose(got.values, np.concatenate([w.values for w in want]), rtol=1e-12, atol=1e-12)
    ad.backward(ad.sum(ad.mul(ad.concat(want, 0), Tensor(weights))))
    np.testing.assert_allclose(got_grad, h.grad, rtol=1e-12, atol=1e-12)


# -- the per-record oracle --------------------------------------------------


def oracle_encode(model, v, rng, encoder=None, masked=None):
    return encode(encoder or model.encoder, model.table, v.node_ids, v.edges, training=True,
                  rng=rng, masked=masked, edge_weights=v.edge_weights)


def oracle_shuffle(h, rng):
    n = h.shape[0]
    return h if n == 1 else ad.gather_rows(h, rng.permutation(n))


def oracle_cross_entropy(logits, label):
    picked = ad.gather_rows(ad.transpose(logits), [label])
    return ad.add(ad.logsumexp_rows(logits), ad.scale(picked, -1.0))


def per_pair_cosine(h, s, temperature):
    dots = ad.sum(ad.mul(h, s), 1)
    h_norm = ad.sqrt(ad.clip_min(ad.sum(ad.mul(h, h), 1), 1e-30))
    s_norm = ad.sqrt(ad.clip_min(ad.sum(ad.mul(s, s), 1), 1e-30))
    return ad.scale(ad.div(dots, ad.mul(h_norm, s_norm)), 1.0 / temperature)


def per_target_bilinear(w, h, s):
    return ad.matmul(ad.matmul(h, w), ad.transpose(s))


def oracle_mi_loss(model, summary, target, records, partial, batch, rng):
    """One record's MI term; in-batch negatives are scored pair by pair
    (ps-graphcl) or target by target (ps-infograph)."""
    cfg = model.config
    d = model.mi_discriminator
    record = records[target]
    if cfg.term == "ps-dgi":
        h_sub = oracle_encode(model, record.view, rng)
        return gd_loss(d(h_sub, summary), d(oracle_shuffle(h_sub, rng), summary))
    if cfg.term == "ps-infograph":
        negs = ad.concat([h for i, h in enumerate(batch) if i != target], 0)
        return gd_loss(
            per_target_bilinear(d.w, batch[target], summary),
            per_target_bilinear(d.w, negs, summary),
        )
    if cfg.term == "ps-mvgrl":
        obs_diffused = ppr_view(partial, cfg.ppr_alpha, cfg.ppr_top_t)
        s_obs_b = per_view_readout(model.readout, oracle_encode(model, obs_diffused, rng, model.encoder_b))
        h_a = oracle_encode(model, record.view, rng)
        diffused = model.bundle.diffusion(record, cfg.ppr_alpha, cfg.ppr_top_t)
        h_b = oracle_encode(model, diffused, rng, model.encoder_b)
        loss_a = gd_loss(d(h_a, s_obs_b), d(oracle_shuffle(h_a, rng), s_obs_b))
        loss_b = gd_loss(d(h_b, summary), d(oracle_shuffle(h_b, rng), summary))
        return ad.scale(ad.add(loss_a, loss_b), 0.5)
    tau = cfg.temperature
    pos = per_pair_cosine(batch[target], summary, tau)
    negs = ad.concat([
        per_pair_cosine(s, summary, tau) for i, s in enumerate(batch) if i != target
    ], 1)
    return ad.mean(infonce_loss(pos, negs))


def oracle_khop_loss(pos, neg):
    """The membership loss of one record: the joint mean over both sides."""
    terms = [ad.sum(ad.log_sigmoid(pos))] if pos is not None else []
    if neg is not None:
        terms.append(ad.sum(ad.log_sigmoid(ad.scale(neg, -1.0))))
    total = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    n = sum(t.shape[0] for t in (pos, neg) if t is not None)
    return ad.scale(total, -1.0 / n)


def oracle_khop_stage(model, record, partial, rng):
    """One record's k-hop stage: its partition, its two encodes, its scores,
    its pool and its membership loss; ``(s_khop, s_obs, loss, selected_ids)``."""
    cfg = model.config
    partition = khop_neighbors(
        model.bundle.graph, partial.node_ids, cfg.k, cap=cfg.neighbor_cap, p_d=cfg.p_d, rng=rng
    )
    positions = None
    if cfg.use_positional_encoding and record.observation_order is not None:
        rank = {n: i for i, n in enumerate(record.observation_order)}
        positions = [rank[n] for n in partial.node_ids]
    s_obs = per_view_readout(model.readout, oracle_encode(model, partial, rng), positions)
    node_ids = partition.node_ids
    h_khop = oracle_encode(model, partition, rng)
    scores = model.khop_discriminator(h_khop, s_obs)
    pool = (scores, h_khop, node_ids)
    if not cfg.include_observed_in_pool and partition.neighbors:
        rows = np.flatnonzero(np.isin(node_ids, partition.neighbors))
        pool = (ad.gather_rows(scores, rows), ad.gather_rows(h_khop, rows), partition.neighbors)
    s_khop, selected_ids = topk_softmax_pool(*pool, cfg.pool_ratio, model.pool_mlp, np.arange(len(pool[2])))
    member = np.isin(node_ids, record.node_ids)
    pos_rows, neg_rows = np.flatnonzero(member), np.flatnonzero(~member)
    loss = oracle_khop_loss(
        ad.gather_rows(scores, pos_rows) if pos_rows.size else None,
        ad.gather_rows(scores, neg_rows) if neg_rows.size else None,
    )
    return s_khop, s_obs, loss, selected_ids


def oracle_step(model, records, partials, rng, selected):
    """The per-record path: batch material first, then one forward per
    record; the mean of the per-record objectives.  Each record's pooled ids
    are appended to ``selected``."""
    cfg = model.config
    batch = None
    if cfg.term == "ps-infograph":
        batch = [oracle_encode(model, r.view, rng) for r in records]
    elif cfg.term == "ps-graphcl":
        # The augmented views are the union's, split per segment.
        union = disjoint_union([r.view for r in records])
        for name in GRAPHCL_AUGMENTATIONS:
            union = augment(name, union, cfg.aug_p, rng)
        batch = [
            per_view_readout(model.readout, oracle_encode(model, v, rng, masked=masked))
            for v, masked in segment_views(union)
        ]
    objectives = []
    for target, (record, partial) in enumerate(zip(records, partials)):
        if cfg.khop:
            s_khop, s_obs, loss_khop, selected_ids = oracle_khop_stage(model, record, partial, rng)
            selected.append(selected_ids)
            s_mi = summary = s_khop
            if cfg.concat_observed_summary:
                summary = ad.concat([summary, s_obs], 1)
        else:
            s_mi = summary = per_view_readout(model.readout, oracle_encode(model, partial, rng))
        objective = oracle_cross_entropy(model.head(summary), record.label)
        if cfg.khop:
            objective = ad.add(objective, ad.scale(loss_khop, cfg.lambda_khop))
        if cfg.term is not None:
            weight = cfg.lambda_second if cfg.khop else cfg.lambda_single
            loss = oracle_mi_loss(model, s_mi, target, records, partial, batch, rng)
            objective = ad.add(objective, ad.scale(loss, weight))
        objectives.append(objective)
    total = objectives[0]
    for extra in objectives[1:]:
        total = ad.add(total, extra)
    return ad.scale(total, 1.0 / len(objectives))


# Past ``OPTION_CHECKS``: two hops, a neighbour cap of 2 that binds on the
# toy records' k-hop sets, so each partition draws from the rng, and an
# augmentation probability at which node drop empties most augmented views.
CASES = [(variant, {}) for variant in VARIANTS] + [
    (variant, {option: value}) for variant, option, value in OPTION_CHECKS
] + [
    ("khop", {"k": 2}),
    ("khop", {"neighbor_cap": 2}),
    ("khop+ps-infograph", {"neighbor_cap": 2}),
    ("ps-graphcl", {"aug_p": 0.9}),
]


def case_id(case):
    variant, overrides = case
    return "/".join([variant, *(f"{k}={v}" for k, v in overrides.items())])


def run(model, records, partials, batched, monkeypatch):
    """Objective, every parameter gradient, the rng state after one step and
    each record's pooled ids."""
    for _, p in model.store.items():
        p.grad = None
    gen = rng(31)
    selected = []
    if batched:
        def recording_khop_forward(*args, **kwargs):
            result = khop_forward(*args, **kwargs)
            selected.append(result.selected_ids)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(models, "khop_forward", recording_khop_forward)
            objective = model.step(records, partials, rng=gen, training=True).objective
    else:
        objective = oracle_step(model, records, partials, gen, selected)
    ad.backward(objective)
    grads = {name: p.grad for name, p in model.store.items()}
    return objective.item(), grads, gen.bit_generator.state, selected


@pytest.mark.parametrize("size", [3, 1])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_batched_step_matches_the_per_record_path(case, size, monkeypatch):
    variant, overrides = case
    config = dataclasses.replace(_toy_model_config(variant), **overrides)
    assert config.dropout == 0.0 and config.p_d == 0.0
    if size < 2 and config.term in BATCH_NEGATIVE_VARIANTS:
        pytest.skip("in-batch negatives need at least 2 records")
    bundle = generate_synthetic(_toy_spec(0))
    model = build_model(config, bundle, rng(17))
    protocol = ObservationProtocol(n_obs=2, train_jitter=False)
    sampler = rng(23)
    records = bundle.records[:size]
    partials = [
        induced_partial_subgraph(r, sample_observed(r, protocol, "train", sampler)) for r in records
    ]
    objective, grads, state, selected = run(model, records, partials, True, monkeypatch)
    want, want_grads, want_state, want_selected = run(model, records, partials, False, monkeypatch)
    if "neighbor_cap" in overrides:
        assert state != rng(31).bit_generator.state, "the cap must bind"
    assert objective == pytest.approx(want, rel=1e-10, abs=0)
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        oracle = want_grads[name]
        assert (grad is None) == (oracle is None), name
        if grad is not None:
            assert np.max(np.abs(grad - oracle)) <= 1e-10 * np.max(np.abs(oracle)), name
    assert state == want_state
    assert selected == want_selected and len(selected) == (size if config.khop else 0)


# -- k-hop unions over the edge budget --------------------------------------


@pytest.fixture(scope="module")
def dense_stage():
    """A khop model and one test stage whose k-hop views hold thousands of
    edges each: ``(model, bundle, protocol, edges in the stage)``."""
    spec = SyntheticSpec(num_nodes=240, p_intra=0.25, p_inter=0.05, num_subgraphs=80,
                         feature_dim=4, seed=3)
    bundle = generate_synthetic(spec)
    config = dataclasses.replace(_toy_model_config("khop"), hidden_dim=32, neighbor_cap=None)
    model = build_model(config, bundle, rng(0))
    protocol = ObservationProtocol(n_obs=4)
    evaluate(model, bundle, protocol, "test")  # freezes the views and partitions
    edges = sum(
        len(bundle.frozen_partition(protocol, "test", idx, config.k, None).edges)
        for idx in bundle.indices("test")
    )
    return model, bundle, protocol, edges


def stage_logits(model, bundle, protocol):
    indices = bundle.indices("test")
    views = bundle.frozen_views(protocol, "test")
    cfg = model.config
    partitions = [bundle.frozen_partition(protocol, "test", i, cfg.k, cfg.neighbor_cap) for i in indices]
    with ad.no_grad():
        return model.step([bundle.records[i] for i in indices], [views[i] for i in indices],
                          partitions=partitions).logits


def test_a_stage_over_the_edge_budget_gives_the_logits_of_one_union(dense_stage, monkeypatch):
    model, bundle, protocol, edges = dense_stage
    assert edges > 4 * 4096
    one_union = stage_logits(model, bundle, protocol)
    monkeypatch.setattr(models, "KHOP_UNION_EDGES", 4096)
    chunked = stage_logits(model, bundle, protocol)
    np.testing.assert_allclose(chunked, one_union, rtol=1e-12, atol=1e-12)


def test_evaluate_holds_one_budget_of_messages_at_a_time(dense_stage, monkeypatch):
    # One union over the stage holds its (E, 2) edges and its aggregation
    # plan's two (E,) index arrays at once, 32 bytes an edge; unions of at
    # most E / 8 edges cut the peak by more than half of that.
    model, bundle, protocol, edges = dense_stage
    one_union_indices = edges * 4 * 8

    def peak():
        tracemalloc.start()
        try:
            evaluate(model, bundle, protocol, "test")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_union = peak()
    assert one_union > one_union_indices
    monkeypatch.setattr(models, "KHOP_UNION_EDGES", edges // 8)
    assert peak() < one_union - one_union_indices / 2


def test_scores_of_many_small_views_grow_with_rows_not_rows_times_views():
    # Each k-hop row is scored against its own record's summary only, so a
    # union of B small views holds O(N * d) scores, not an (N, B) product.
    bundle = generate_synthetic(_toy_spec(0))
    model = build_model(_toy_model_config("khop"), bundle, rng(0))
    record = bundle.records[0]
    partial = induced_partial_subgraph(record, record.node_ids[:2])
    partition = khop_neighbors(bundle.graph, partial.node_ids, 1, cap=None)
    count = 400
    rows = count * len(partition.node_ids)
    assert count * len(partition.edges) <= models.KHOP_UNION_EDGES
    tracemalloc.start()
    try:
        with ad.no_grad():
            model.khop_stage([record] * count, [partial] * count, partitions=[partition] * count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * count * 8 / 4
