import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax.data import SyntheticSpec, generate_synthetic, load_dataset, save_bundle
from subgraph_infomax.graph import (
    GlobalGraph,
    KhopPartition,
    SubgraphRecord,
    SubgraphView,
    bernoulli_edges,
    bfs_khop_oracle,
    disjoint_union,
    induced_partial_subgraph,
    khop_neighbors,
)


def path_graph(n):
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return GlobalGraph(n, edges)


def star_graph(num_leaves):
    edges = []
    for leaf in range(1, num_leaves + 1):
        edges.append((0, leaf))
        edges.append((leaf, 0))
    return GlobalGraph(num_leaves + 1, edges)


@st.composite
def er_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    density = draw(st.floats(min_value=0.02, max_value=0.4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < density
    edges = []
    for u, v in zip(iu[mask], ju[mask]):
        edges.append((int(u), int(v)))
        edges.append((int(v), int(u)))
    return GlobalGraph(n, edges)


@st.composite
def directed_graphs(draw):
    """An ``er_graphs`` edge list with some directed edges dropped, a few
    repeated, and isolated nodes appended after the last id."""
    base = draw(er_graphs())
    extra = draw(st.integers(min_value=0, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    keep = rng.random(base.num_edges) < 0.7
    edges = [e for e, kept in zip(base.pairs().tolist(), keep) if kept]
    return GlobalGraph(base.num_nodes + extra, edges + edges[:3])


any_graphs = st.one_of(er_graphs(), directed_graphs())


# Reference implementations: the dict-of-sets adjacency and set-based BFS
# that the CSR graph core replaced.  The CSR queries must equal them exactly.


def reference_adjacency(graph):
    lists = {}
    for u, v in graph.pairs().tolist():
        lists.setdefault(u, set()).add(v)
        lists.setdefault(v, set()).add(u)
    return {node: np.fromiter(sorted(nbrs), dtype=np.int64) for node, nbrs in lists.items()}


def reference_neighbors(graph, node):
    return reference_adjacency(graph).get(node, np.empty(0, dtype=np.int64))


def reference_induced_edges(graph, nodes):
    adjacency = reference_adjacency(graph)
    edge_set = frozenset(map(tuple, graph.pairs().tolist()))
    node_set = set(int(n) for n in nodes)
    found = []
    for u in node_set:
        for v in adjacency.get(u, ()):
            v = int(v)
            if v in node_set and (u, v) in edge_set:
                found.append((u, v))
    return tuple(sorted(found))


def relabel(node_ids, edges):
    """Global-id edge pairs as positions into ``node_ids``, through a dict:
    the relabel ``encode`` ran on every call before views held positions."""
    position = {n: i for i, n in enumerate(node_ids)}
    return np.array([(position[u], position[v]) for u, v in edges], dtype=np.int64).reshape(-1, 2)


def assert_positions(view_edges, node_ids, global_edges):
    """Element for element and in order, as int64 ``(E, 2)`` rows."""
    assert view_edges.dtype == np.int64 and view_edges.shape == (len(global_edges), 2)
    assert np.array_equal(view_edges, relabel(node_ids, global_edges))


def reference_record_edges(pairs):
    """The global-id tuples a record stored before it kept positions: its
    input pairs, sorted, duplicates kept."""
    return tuple(sorted(map(tuple, np.asarray(pairs, dtype=np.int64).reshape(-1, 2).tolist())))


def reference_partial(record_edges, observed):
    """The global-tuple filter ``induced_partial_subgraph`` ran before, over
    a record's ``reference_record_edges``."""
    observed_set = {int(n) for n in observed}
    edges = tuple(
        (u, v) for u, v in record_edges if u in observed_set and v in observed_set
    )
    return tuple(sorted(observed_set)), edges


def assert_record_matches_reference(record, pairs, rng, trials=3):
    """``record.view`` and ``induced_partial_subgraph`` against the global
    filter and dict relabel, for the record built from global ``pairs``."""
    record_edges = reference_record_edges(pairs)
    full = record.view
    assert full.node_ids == record.node_ids and full.edges is record.edges
    assert_positions(full.edges, record.node_ids, record_edges)
    for _ in range(trials):
        size = int(rng.integers(1, len(record.node_ids) + 1))
        observed = rng.choice(record.node_ids, size=size, replace=False).tolist()
        partial = induced_partial_subgraph(record, observed)
        node_ids, edges = reference_partial(record_edges, observed)
        assert partial.node_ids == node_ids
        assert_positions(partial.edges, node_ids, edges)


def reference_khop_neighbors(graph, observed, k, cap, p_d, rng):
    adjacency = reference_adjacency(graph)
    observed_set = {int(n) for n in observed}
    visited = set(observed_set)
    frontier = observed_set
    collected = set()
    for _ in range(k):
        nxt = set()
        for node in frontier:
            for nbr in adjacency.get(node, ()):
                nbr = int(nbr)
                if nbr not in visited:
                    nxt.add(nbr)
        if not nxt:
            break
        visited |= nxt
        collected |= nxt
        frontier = nxt
    neighbor_ids = np.fromiter(sorted(collected), dtype=np.int64)
    if cap is not None and neighbor_ids.size > cap:
        neighbor_ids = np.sort(rng.choice(neighbor_ids, size=cap, replace=False))
    neighbors = tuple(int(n) for n in neighbor_ids)
    node_ids = tuple(sorted(observed_set | set(neighbors)))
    edges = list(reference_induced_edges(graph, node_ids))
    if p_d > 0.0:
        keep = rng.random(len(edges)) >= p_d
        edges = [e for e, k_ in zip(edges, keep) if k_]
    return KhopPartition(node_ids, tuple(edges), neighbors=neighbors)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.data())
    def test_edges_are_sorted_unique_input(self, n, data):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        raw = data.draw(st.lists(pair, max_size=80))
        graph = GlobalGraph(n, raw)
        assert graph.pairs().dtype == np.int64
        assert list(map(tuple, graph.pairs().tolist())) == sorted(set(raw))
        assert graph.num_edges == len(set(raw))

    @settings(max_examples=80, deadline=None)
    @given(any_graphs, st.data())
    def test_queries_match_reference(self, graph, data):
        n = graph.num_nodes
        nodes = data.draw(st.lists(st.integers(min_value=-3, max_value=n + 3), max_size=n + 6))
        got = graph.induced_edges(nodes)
        want = reference_induced_edges(graph, nodes)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert list(map(tuple, got.tolist())) == list(want)
        for node in range(-2, n + 2):
            nbrs = graph.neighbors(node)
            assert nbrs.dtype == np.int64
            assert np.array_equal(nbrs, reference_neighbors(graph, node))
        edge_set = frozenset(map(tuple, graph.pairs().tolist()))
        pairs = [(u, v) for u in range(-1, n + 1) for v in range(-1, n + 1)]
        assert graph.has_edges(pairs).tolist() == [p in edge_set for p in pairs]

    @settings(max_examples=80, deadline=None)
    @given(
        any_graphs,
        st.integers(min_value=1, max_value=4),
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        st.sampled_from([0.0, 0.3]),
        st.integers(min_value=0, max_value=2**31),
        st.data(),
    )
    def test_khop_matches_reference(self, graph, k, cap, p_d, seed, data):
        ids = st.integers(min_value=0, max_value=graph.num_nodes - 1)
        observed = data.draw(st.sets(ids, min_size=1, max_size=5))
        rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = khop_neighbors(graph, observed, k, cap=cap, p_d=p_d, rng=rng_fast)
        ref = reference_khop_neighbors(graph, observed, k, cap, p_d, rng_ref)
        assert (fast.node_ids, fast.neighbors) == (ref.node_ids, ref.neighbors)
        assert_positions(fast.edges, ref.node_ids, ref.edges)
        assert all(type(n) is int for n in fast.node_ids + fast.neighbors)
        # Both consumed the same draws.
        assert rng_fast.random() == rng_ref.random()


class TestGlobalGraph:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            GlobalGraph(3, [(0, 3)])

    def test_out_of_range_error_names_the_first_sorted_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for 3 nodes$"):
            GlobalGraph(3, [(5, 0), (1, 2), (0, 3)])
        with pytest.raises(ValueError, match=r"^edge \(-1, 7\) out of range for 3 nodes$"):
            GlobalGraph(3, [(0, 4), (-1, 7)])

    def test_out_of_range_message_is_the_same_for_an_array(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for 3 nodes$"):
            GlobalGraph(3, np.array([(5, 0), (1, 2), (0, 3)]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(0, 120), st.integers(0, 2**31))
    def test_arrays_match_the_unique_construction(self, n, count, seed):
        # Random pairs, so duplicates and self-loops; count 0 is a graph
        # without edges.  The construction deduped with np.unique.
        pairs = np.random.default_rng(seed).integers(0, n, size=(count, 2))
        graph = GlobalGraph(n, pairs)
        src, dst = pairs[:, 0], pairs[:, 1]
        codes = np.unique(src * n + dst)
        both = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        want = []
        for kept in (codes, both):
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(kept // n, minlength=n), out=indptr[1:])
            want += [indptr, kept % n]
        got = [graph._out_indptr, graph._out_indices, graph._nbr_indptr, graph._nbr_indices]
        for a, b in zip([graph._codes, *got], [codes, *want]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        assert graph.pairs().tolist() == [[int(c // n), int(c % n)] for c in codes]

    def test_deduplicates_directed_edges(self):
        g = GlobalGraph(3, [(0, 1), (0, 1), (1, 0)])
        assert g.pairs().tolist() == [[0, 1], [1, 0]]

    def test_induced_edges(self):
        g = path_graph(4)
        assert g.induced_edges({0, 1}).tolist() == [[0, 1], [1, 0]]
        assert g.induced_edges({0, 2}).shape == (0, 2)


class TestBernoulliEdges:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    def test_matches_the_pairwise_loop(self, n, seed):
        # Reference: the per-pair Python loop the generators ran before.
        communities = np.random.default_rng(seed).integers(0, 3, n)
        prob = np.where(np.equal.outer(communities, communities), 0.3, 0.05)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng_ref.random(iu.size) < prob[iu, ju]
        want = []
        for u, v in zip(iu[mask], ju[mask]):
            want += [(int(u), int(v)), (int(v), int(u))]
        got = bernoulli_edges(prob, rng)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert list(map(tuple, got.tolist())) == want
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestSubgraphRecord:
    def test_sorts_node_ids(self):
        r = SubgraphRecord(node_ids=(3, 1, 2), edge_pairs=(), label=0)
        assert r.node_ids == (1, 2, 3)

    def test_rejects_edge_outside_nodes(self):
        with pytest.raises(ValueError, match=r"^subgraph edge \(1, 3\) leaves its node set$"):
            SubgraphRecord(node_ids=(1, 2), edge_pairs=((1, 3),), label=0)
        # The first offending edge in sorted order is named.
        with pytest.raises(ValueError, match=r"^subgraph edge \(0, 2\) leaves its node set$"):
            SubgraphRecord(node_ids=(1, 2), edge_pairs=((2, 1), (5, 1), (0, 2)), label=0)

    def test_edges_are_sorted_positions_of_the_input_pairs(self):
        record = SubgraphRecord(
            node_ids=(30, 10, 20), edge_pairs=((30, 10), (10, 20), (30, 10)), label=0
        )
        assert record.edges.dtype == np.int64
        assert record.edges.tolist() == [[0, 1], [2, 0], [2, 0]]
        assert not record.edges.flags.writeable
        assert record.view.node_ids == (10, 20, 30) and record.view.edges is record.edges

    def test_rejects_bad_observation_order(self):
        with pytest.raises(ValueError):
            SubgraphRecord(node_ids=(1, 2), edge_pairs=(), label=0, observation_order=(1, 1))


class TestInducedPartialSubgraph:
    def test_induced_edge_definition(self):
        record = SubgraphRecord(node_ids=(1, 2, 3), edge_pairs=((1, 2), (2, 3)), label=0)
        partial = induced_partial_subgraph(record, {1, 2})
        assert partial.node_ids == (1, 2)
        assert partial.edges.tolist() == [[0, 1]]

    def test_full_observation_is_identity(self):
        record = SubgraphRecord(node_ids=(1, 2, 3), edge_pairs=((1, 2), (2, 3)), label=0)
        partial = induced_partial_subgraph(record, record.node_ids)
        full = record.view
        assert partial.node_ids == full.node_ids == (1, 2, 3)
        assert np.array_equal(partial.edges, full.edges)
        assert full.edges.tolist() == [[0, 1], [1, 2]]

    def test_path_endpoints_have_no_edges(self):
        # Oracle: enumerate the parent edges (0,1),(1,2),(2,3) plus reverses;
        # none has both endpoints in {0, 3}.
        record = SubgraphRecord(
            node_ids=(0, 1, 2, 3),
            edge_pairs=((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)),
            label=0,
        )
        partial = induced_partial_subgraph(record, {0, 3})
        assert partial.edges.shape == (0, 2) and partial.edges.dtype == np.int64

    def test_empty_observed_rejected(self):
        record = SubgraphRecord(node_ids=(1, 2), edge_pairs=(), label=0)
        with pytest.raises(ValueError):
            induced_partial_subgraph(record, set())

    def test_foreign_id_rejected(self):
        record = SubgraphRecord(node_ids=(1, 2), edge_pairs=(), label=0)
        with pytest.raises(ValueError):
            induced_partial_subgraph(record, {1, 9})

    def test_idempotent(self):
        record = SubgraphRecord(node_ids=(1, 2, 3), edge_pairs=((1, 2), (2, 3)), label=0)
        once = induced_partial_subgraph(record, {1, 2})
        again = induced_partial_subgraph(record, once.node_ids)
        assert once.node_ids == again.node_ids
        assert np.array_equal(once.edges, again.edges)

    @settings(max_examples=80, deadline=None)
    @given(any_graphs, st.integers(min_value=0, max_value=2**31))
    def test_views_are_the_relabelled_global_filter(self, graph, seed):
        # Differential check against the global-tuple filter plus dict
        # relabel that views used before they held positions.
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, graph.num_nodes + 1))
        nodes = rng.choice(graph.num_nodes, size=size, replace=False)
        induced = graph.induced_edges(nodes)
        record = SubgraphRecord(tuple(nodes.tolist()), induced, 0)
        assert_record_matches_reference(record, induced, rng, trials=1)


class TestRecordEdgesAgainstGlobalTuples:
    """Records relabel their edges once, when they are made.  Before, they
    held sorted global-id tuples, and every full and observed view filtered
    and relabelled those; both views must equal that path element for
    element and in order."""

    def test_synthetic_records(self):
        bundle = generate_synthetic(SyntheticSpec())
        rng = np.random.default_rng(0)
        for record in bundle.records:
            pairs = bundle.graph.induced_edges(record.observation_order)
            assert_record_matches_reference(record, pairs, rng)

    def test_file_loaded_records(self, tmp_path):
        paths = save_bundle(generate_synthetic(SyntheticSpec(num_subgraphs=40, seed=3)), tmp_path)
        bundle = load_dataset(paths["edges"], paths["subgraphs"], embeddings=paths["embeddings"])
        rng = np.random.default_rng(1)
        for record in bundle.records:
            pairs = bundle.graph.induced_edges(record.observation_order)
            assert_record_matches_reference(record, pairs, rng)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=2**31))
    def test_hand_built_records_with_unsorted_pairs(self, data, seed):
        ids = st.integers(min_value=0, max_value=10**6)
        nodes = data.draw(st.lists(ids, min_size=1, max_size=12, unique=True))
        member = st.sampled_from(nodes)
        pairs = data.draw(st.lists(st.tuples(member, member), max_size=40))
        record = SubgraphRecord(nodes, pairs, 0)
        assert record.node_ids == tuple(sorted(nodes))
        assert_record_matches_reference(record, pairs, np.random.default_rng(seed))


class TestKhopNeighbors:
    def test_star_one_hop(self):
        g = star_graph(4)
        part = khop_neighbors(g, {0}, k=1, cap=None, p_d=0.0)
        assert set(part.neighbors) == {1, 2, 3, 4}

    def test_path_one_hop(self):
        g = path_graph(5)
        part = khop_neighbors(g, {2}, k=1, cap=None, p_d=0.0)
        assert set(part.neighbors) == {1, 3}

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            khop_neighbors(path_graph(3), {0}, k=0)

    def test_cap_zero_rejected(self):
        with pytest.raises(ValueError):
            khop_neighbors(path_graph(3), {0}, k=1, cap=0)

    def test_partition_is_the_view_the_stage_encodes(self):
        # The k-hop stage encodes partitions as they are; their union equals
        # the union of plain views of the same ids and edges.
        g = star_graph(6)
        parts = [khop_neighbors(g, observed, k=1, cap=None) for observed in ({0}, {1, 2}, {3})]
        assert all(isinstance(p, SubgraphView) for p in parts)
        got = disjoint_union(parts)
        want = disjoint_union([SubgraphView(p.node_ids, p.edges) for p in parts])
        for name, value in want._asdict().items():
            assert np.array_equal(getattr(got, name), value), name

    def test_no_dropout_keeps_exact_induced_edges(self):
        g = star_graph(4)
        part = khop_neighbors(g, {0}, k=1, cap=None, p_d=0.0)
        assert part.node_ids == (0, 1, 2, 3, 4)
        assert np.array_equal(part.edges, g.induced_edges({0, 1, 2, 3, 4}))

    def test_cap_subsamples_with_rng(self):
        g = star_graph(10)
        rng = np.random.default_rng(0)
        part = khop_neighbors(g, {0}, k=1, cap=3, p_d=0.0, rng=rng)
        assert len(part.neighbors) == 3
        assert set(part.neighbors) <= set(range(1, 11))
        assert part.node_ids == (0, *part.neighbors)

    def test_node_ids_are_the_sorted_observed_and_neighbors(self):
        part = khop_neighbors(path_graph(8), [5, 1], k=1, cap=None, p_d=0.0)
        assert part.neighbors == (0, 2, 4, 6)
        assert part.node_ids == (0, 1, 2, 4, 5, 6)

    @settings(max_examples=60, deadline=None)
    @given(er_graphs(), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
    def test_matches_bfs_oracle(self, graph, k, seed):
        rng = np.random.default_rng(seed)
        observed = rng.choice(graph.num_nodes, size=rng.integers(1, 4), replace=False)
        fast = khop_neighbors(graph, observed, k, cap=None, p_d=0.0)
        assert set(fast.neighbors) == set(bfs_khop_oracle(graph, observed, k))

    @settings(max_examples=40, deadline=None)
    @given(er_graphs(), st.integers(min_value=0, max_value=2**31))
    def test_monotone_in_k(self, graph, seed):
        rng = np.random.default_rng(seed)
        observed = rng.choice(graph.num_nodes, size=2, replace=False)
        n1 = set(khop_neighbors(graph, observed, 1, cap=None, p_d=0.0).neighbors)
        n2 = set(khop_neighbors(graph, observed, 2, cap=None, p_d=0.0).neighbors)
        assert n1 <= n2


class TestBfsOracle:
    def test_saturation_beyond_diameter(self):
        g = path_graph(5)
        reached = bfs_khop_oracle(g, {0}, k=10)
        assert reached == frozenset({1, 2, 3, 4})

    def test_never_leaves_component(self):
        g = GlobalGraph(6, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)])
        assert bfs_khop_oracle(g, {0}, k=5) == frozenset({1})
