"""Node ids are read-only int64 arrays from record to union.

Records, views, k-hop partitions, observed sets and pooled ids once held
tuples of Python ints.  The tuple-era ``sample_observed``,
``induced_partial_subgraph`` and ``khop_neighbors`` are kept here as
oracles: the array path gives the same ids, the same edge bytes and the
same rng state after every call.  The contract tests check that every id
array is int64 and refuses writes, and so do the edges and edge weights of
every view, so no caller can corrupt a record or a view that the bundle's
frozen cache shares across models and seeds.
"""

from itertools import accumulate, compress

import numpy as np
import pytest
from id_arrays import assert_ids

from subgraph_infomax.data import (
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    sample_observed,
)
from subgraph_infomax.graph import (
    SubgraphRecord,
    SubgraphView,
    _csr_rows,
    _sorted_unique,
    induced_partial_subgraph,
    khop_neighbors,
)
from subgraph_infomax.infomax import ppr_view
from subgraph_infomax.models import ModelConfig, build_model

# -- the tuple-era oracles --------------------------------------------------


def old_sample_observed(node_ids, order, protocol, stage, rng=None):
    """``sample_observed`` over a record's tuple ids and tuple order."""
    if protocol.ordered and order is None:
        raise ValueError("ordered protocol requires records with an observation order")
    if stage == "train" and rng is None and (protocol.train_jitter or not protocol.ordered):
        raise ValueError("training-stage sampling requires an rng")
    if stage == "train" and protocol.train_jitter:
        size = int(rng.integers(protocol.n_obs - 2, protocol.n_obs + 3))
    else:
        size = protocol.n_obs
    size = max(1, min(size, len(node_ids)))
    if protocol.ordered:
        return tuple(order[:size])
    if stage == "train":
        picked = rng.choice(len(node_ids), size=size, replace=False)
    else:
        entropy = [protocol.eval_fixed_seed, {"val": 1, "test": 2}[stage], len(node_ids)]
        entropy.extend(node_ids)
        picked = np.random.default_rng(entropy).choice(len(node_ids), size=size, replace=False)
    return tuple(sorted(node_ids[i] for i in picked))


def old_induced_partial_subgraph(node_ids, edges, observed):
    """``induced_partial_subgraph`` plus ``restrict`` over tuple ids:
    ``(ids, edges)`` of the observed view."""
    observed_set = set(map(int, observed))
    if not observed_set:
        raise ValueError("observed set must be nonempty")
    keep = list(map(observed_set.__contains__, node_ids))
    if sum(keep) != len(observed_set):
        raise ValueError("observed ids not in subgraph")
    rank = list(accumulate(keep, initial=0))
    ends = iter(edges.ravel().tolist())
    flat = [w for u, v in zip(ends, ends) if keep[u] and keep[v] for w in (rank[u], rank[v])]
    return tuple(compress(node_ids, keep)), np.array(flat, dtype=np.int64).reshape(-1, 2)


def old_khop_neighbors(graph, observed, k, cap, p_d, rng):
    """``khop_neighbors`` with tuple results: ``(ids, edges, neighbors)``."""
    observed_ids = np.fromiter(observed, dtype=np.int64)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[observed_ids] = True
    frontier = observed_ids
    for _ in range(k):
        _, reached = _csr_rows(graph._nbr_indptr, graph._nbr_indices, frontier)
        frontier = _sorted_unique(reached[~visited[reached]])
        if not frontier.size:
            break
        visited[frontier] = True
    visited[observed_ids] = False
    neighbor_ids = np.flatnonzero(visited)
    if cap is not None and neighbor_ids.size > cap:
        neighbor_ids = np.sort(rng.choice(neighbor_ids, size=cap, replace=False))
        visited[:] = False
        visited[neighbor_ids] = True
    visited[observed_ids] = True
    node_ids = np.flatnonzero(visited)
    edges = graph._induced_positions(node_ids, visited)
    if p_d > 0.0:
        edges = edges[rng.random(len(edges)) >= p_d]
    return tuple(node_ids.tolist()), edges, tuple(neighbor_ids.tolist())


# -- differential checks -----------------------------------------------------


def assert_same_edges(got, want):
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def bundle():
    """Records of 3 to 14 nodes on a graph dense enough that a neighbour
    cap of 3 binds on most 1- and 2-hop sets."""
    spec = SyntheticSpec(
        num_nodes=120, p_intra=0.12, p_inter=0.02, num_subgraphs=40,
        subgraph_size_min=3, subgraph_size_max=14, seed=4,
    )
    return generate_synthetic(spec)


PROTOCOLS = [
    ObservationProtocol(n_obs=n_obs, ordered=ordered, train_jitter=jitter, eval_fixed_seed=7)
    for n_obs in (1, 3, 20)
    for ordered in (False, True)
    for jitter in (False, True)
]


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=repr)
def test_observed_views_match_the_tuple_path(bundle, protocol):
    new_rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    for record in bundle.records:
        ids = tuple(record.node_ids.tolist())
        order = tuple(record.observation_order.tolist())
        for stage in ("train", "val", "test"):
            observed = sample_observed(record, protocol, stage, new_rng)
            want = old_sample_observed(ids, order, protocol, stage, old_rng)
            assert_ids(observed, want)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            view = induced_partial_subgraph(record, observed)
            want_ids, want_edges = old_induced_partial_subgraph(ids, record.edges, want)
            assert_ids(view.node_ids, want_ids)
            assert_same_edges(view.edges, want_edges)


def test_repeated_observed_ids_match_the_tuple_path(bundle):
    gen = np.random.default_rng(3)
    repeats = 0
    for record in bundle.records:
        ids = tuple(record.node_ids.tolist())
        picked = gen.choice(record.node_ids, size=int(gen.integers(1, len(ids) + 1)))
        view = induced_partial_subgraph(record, picked)
        want_ids, want_edges = old_induced_partial_subgraph(ids, record.edges, picked.tolist())
        assert_ids(view.node_ids, want_ids)
        assert_same_edges(view.edges, want_edges)
        repeats += len(want_ids) < len(picked)
    assert repeats > len(bundle.records) // 2


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("p_d", [0.0, 0.4])
def test_khop_partitions_match_the_tuple_path(bundle, k, cap, p_d):
    gen = np.random.default_rng(5)
    new_rng, old_rng = np.random.default_rng(13), np.random.default_rng(13)
    bound = repeats = 0
    for record in bundle.records:
        observed = gen.choice(record.node_ids, size=int(gen.integers(1, 5)))
        repeats += np.unique(observed).size < observed.size
        got = khop_neighbors(bundle.graph, observed, k, cap=cap, p_d=p_d, rng=new_rng)
        want_ids, want_edges, want_neighbors = old_khop_neighbors(
            bundle.graph, observed, k, cap, p_d, old_rng
        )
        assert_ids(got.node_ids, want_ids)
        assert_ids(got.neighbors, want_neighbors)
        assert_same_edges(got.edges, want_edges)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        bound += cap is not None and len(want_neighbors) == cap
    assert repeats > 0
    if cap is not None:
        assert bound > len(bundle.records) // 2, "the cap must bind"


# -- the read-only contract --------------------------------------------------


def assert_frozen(ids):
    before = ids.copy()
    with pytest.raises(ValueError, match="read-only"):
        ids[0] = -1
    assert_ids(ids, before)


def assert_view_frozen(view):
    """The view's ids, edges and edge weights all refuse a write."""
    assert_frozen(view.node_ids)
    for arr in (view.edges, view.edge_weights):
        if arr is not None:
            before = arr.copy()
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            assert np.array_equal(arr, before)


def test_every_id_array_is_read_only(bundle):
    record = bundle.records[0]
    assert_frozen(record.node_ids)
    assert_frozen(record.observation_order)
    assert_view_frozen(record.view)
    gen = np.random.default_rng(0)
    for ordered in (False, True):
        protocol = ObservationProtocol(n_obs=3, ordered=ordered)
        for stage in ("train", "val"):
            observed = sample_observed(record, protocol, stage, gen)
            assert_frozen(observed)
            assert_view_frozen(induced_partial_subgraph(record, observed))
    protocol = ObservationProtocol(n_obs=3)
    for idx, view in bundle.frozen_views(protocol, "test").items():
        assert_view_frozen(view)
        partition = bundle.frozen_partition(protocol, "test", idx, 1, 3)
        assert_view_frozen(partition)
        assert_frozen(partition.neighbors)
        assert_view_frozen(bundle.diffusion(bundle.records[idx], 0.15, 4))
    partition = khop_neighbors(bundle.graph, record.node_ids[:2], 2, cap=3, p_d=0.3, rng=gen)
    assert_view_frozen(partition)
    assert_frozen(partition.neighbors)


def test_a_view_holds_its_arrays_read_only():
    """Ids given in another form become an int64 array; the arrays given
    are made read-only in place."""
    edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
    view = SubgraphView((5, 9), edges)
    assert_ids(view.node_ids, (5, 9))
    assert view.edges is edges and not edges.flags.writeable
    diffused = ppr_view(view, alpha=0.2, top_t=2)
    assert diffused.node_ids is view.node_ids
    assert_view_frozen(diffused)


def test_pooled_ids_are_read_only(bundle):
    config = ModelConfig(variant="khop", hidden_dim=8, pool_ratio=0.3)
    model = build_model(config, bundle, np.random.default_rng(0))
    records = bundle.records[:3]
    views = [induced_partial_subgraph(r, r.node_ids[:2]) for r in records]
    stage = model.khop_stage(records, views, rng=np.random.default_rng(1), training=True)
    assert len(stage.selected_ids) == len(records)
    for selected, partition in zip(stage.selected_ids, stage.partitions):
        assert_frozen(selected)
        assert np.isin(selected, partition.node_ids).all()


def test_a_record_copies_the_ids_it_is_given():
    ids = np.array([5, 3, 9], dtype=np.int64)
    order = np.array([9, 5, 3], dtype=np.int64)
    record = SubgraphRecord(ids, [(3, 5)], 0, order)
    ids[:] = order[:] = 0
    assert ids.flags.writeable and order.flags.writeable
    assert_ids(record.node_ids, (3, 5, 9))
    assert_ids(record.observation_order, (9, 5, 3))

