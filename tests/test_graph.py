import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subgraph_infomax.graph import (
    GlobalGraph,
    KhopPartition,
    SubgraphRecord,
    SubgraphView,
    bfs_khop_oracle,
    induced_partial_subgraph,
    khop_neighbors,
    partition_khop,
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
    edges = [e for e, kept in zip(base.edges, keep) if kept]
    return GlobalGraph(base.num_nodes + extra, edges + edges[:3])


any_graphs = st.one_of(er_graphs(), directed_graphs())


# Reference implementations: the dict-of-sets adjacency and set-based BFS
# that the CSR graph core replaced.  The CSR queries must equal them exactly.


def reference_adjacency(graph):
    lists = {}
    for u, v in graph.edges:
        lists.setdefault(u, set()).add(v)
        lists.setdefault(v, set()).add(u)
    return {node: np.fromiter(sorted(nbrs), dtype=np.int64) for node, nbrs in lists.items()}


def reference_neighbors(graph, node):
    return reference_adjacency(graph).get(node, np.empty(0, dtype=np.int64))


def reference_induced_edges(graph, nodes):
    adjacency = reference_adjacency(graph)
    edge_set = frozenset(graph.edges)
    node_set = set(int(n) for n in nodes)
    found = []
    for u in node_set:
        for v in adjacency.get(u, ()):
            v = int(v)
            if v in node_set and (u, v) in edge_set:
                found.append((u, v))
    return tuple(sorted(found))


def reference_khop_neighbors(graph, observed, k, cap, p_d, rng, subgraph=None):
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
    edges = list(reference_induced_edges(graph, observed_set | set(neighbors)))
    if p_d > 0.0:
        keep = rng.random(len(edges)) >= p_d
        edges = [e for e, k_ in zip(edges, keep) if k_]
    if subgraph is not None:
        in_sub, outside = partition_khop(neighbors, subgraph)
    else:
        in_sub, outside = (), ()
    return KhopPartition(neighbors, in_sub, outside, tuple(edges))


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.data())
    def test_edges_are_sorted_unique_input(self, n, data):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        raw = data.draw(st.lists(pair, max_size=80))
        graph = GlobalGraph(n, raw)
        assert graph.edges == tuple(sorted(set(raw)))
        assert graph.num_edges == len(set(raw))
        assert all(type(u) is int and type(v) is int for u, v in graph.edges)

    @settings(max_examples=80, deadline=None)
    @given(any_graphs, st.data())
    def test_queries_match_reference(self, graph, data):
        n = graph.num_nodes
        nodes = data.draw(st.lists(st.integers(min_value=-3, max_value=n + 3), max_size=n + 6))
        got = graph.induced_edges(nodes)
        assert got == reference_induced_edges(graph, nodes)
        assert all(type(u) is int and type(v) is int for u, v in got)
        for node in range(-2, n + 2):
            nbrs = graph.neighbors(node)
            assert nbrs.dtype == np.int64
            assert np.array_equal(nbrs, reference_neighbors(graph, node))
        edge_set = frozenset(graph.edges)
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                assert graph.has_edge(u, v) is ((u, v) in edge_set)

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
        members = data.draw(st.sets(ids, max_size=10)) | observed
        record = SubgraphRecord(node_ids=tuple(members), edge_pairs=(), label=0)
        rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = khop_neighbors(graph, observed, k, cap=cap, p_d=p_d, rng=rng_fast, subgraph=record)
        ref = reference_khop_neighbors(graph, observed, k, cap, p_d, rng_ref, subgraph=record)
        assert fast == ref
        assert all(type(n) is int for n in fast.neighbors)
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

    def test_deduplicates_directed_edges(self):
        g = GlobalGraph(3, [(0, 1), (0, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 0))

    def test_induced_edges(self):
        g = path_graph(4)
        assert g.induced_edges({0, 1}) == ((0, 1), (1, 0))
        assert g.induced_edges({0, 2}) == ()


class TestSubgraphRecord:
    def test_sorts_node_ids(self):
        r = SubgraphRecord(node_ids=(3, 1, 2), edge_pairs=(), label=0)
        assert r.node_ids == (1, 2, 3)

    def test_rejects_edge_outside_nodes(self):
        with pytest.raises(ValueError):
            SubgraphRecord(node_ids=(1, 2), edge_pairs=((1, 3),), label=0)

    def test_rejects_bad_observation_order(self):
        with pytest.raises(ValueError):
            SubgraphRecord(node_ids=(1, 2), edge_pairs=(), label=0, observation_order=(1, 1))


class TestInducedPartialSubgraph:
    def test_induced_edge_definition(self):
        record = SubgraphRecord(node_ids=(1, 2, 3), edge_pairs=((1, 2), (2, 3)), label=0)
        partial = induced_partial_subgraph(record, {1, 2})
        assert partial.edges == ((1, 2),)

    def test_full_observation_is_identity(self):
        record = SubgraphRecord(node_ids=(1, 2, 3), edge_pairs=((1, 2), (2, 3)), label=0)
        partial = induced_partial_subgraph(record, record.node_ids)
        assert partial == SubgraphView.from_record(record)

    def test_path_endpoints_have_no_edges(self):
        # Oracle: enumerate the parent edges (0,1),(1,2),(2,3) plus reverses;
        # none has both endpoints in {0, 3}.
        record = SubgraphRecord(
            node_ids=(0, 1, 2, 3),
            edge_pairs=((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)),
            label=0,
        )
        partial = induced_partial_subgraph(record, {0, 3})
        assert partial.edges == ()

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
        assert once == again


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

    def test_no_dropout_keeps_exact_induced_edges(self):
        g = star_graph(4)
        part = khop_neighbors(g, {0}, k=1, cap=None, p_d=0.0)
        assert set(part.edges_khop) == set(g.induced_edges({0, 1, 2, 3, 4}))

    def test_cap_subsamples_with_rng(self):
        g = star_graph(10)
        rng = np.random.default_rng(0)
        part = khop_neighbors(g, {0}, k=1, cap=3, p_d=0.0, rng=rng)
        assert len(part.neighbors) == 3
        assert set(part.neighbors) <= set(range(1, 11))

    def test_partition_attached_when_record_given(self):
        g = star_graph(4)
        record = SubgraphRecord(node_ids=(0, 1), edge_pairs=((0, 1), (1, 0)), label=0)
        part = khop_neighbors(g, {0}, k=1, cap=None, p_d=0.0, subgraph=record)
        assert part.in_subgraph == (1,)
        assert part.outside == (2, 3, 4)

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


class TestPartitionKhop:
    def test_disjoint_cover(self):
        record = SubgraphRecord(node_ids=(0, 1), edge_pairs=(), label=0)
        in_sub, outside = partition_khop({1, 2, 3, 4}, record)
        assert in_sub == (1,)
        assert outside == (2, 3, 4)
        assert set(in_sub) | set(outside) == {1, 2, 3, 4}
        assert set(in_sub) & set(outside) == set()

    def test_empty_neighbors(self):
        record = SubgraphRecord(node_ids=(0, 1), edge_pairs=(), label=0)
        assert partition_khop(set(), record) == ((), ())

    def test_all_members(self):
        record = SubgraphRecord(node_ids=(0, 1, 2), edge_pairs=(), label=0)
        in_sub, outside = partition_khop({1, 2}, record)
        assert outside == ()

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=50)), st.sets(st.integers(min_value=0, max_value=50), min_size=1))
    def test_property_disjoint_cover(self, neighbors, members):
        record = SubgraphRecord(node_ids=tuple(members), edge_pairs=(), label=0)
        in_sub, outside = partition_khop(neighbors, record)
        assert set(in_sub) | set(outside) == set(neighbors)
        assert set(in_sub) & set(outside) == set()
        assert set(in_sub) <= set(record.node_ids)
        assert not set(outside) & set(record.node_ids)


class TestBfsOracle:
    def test_saturation_beyond_diameter(self):
        g = path_graph(5)
        reached = bfs_khop_oracle(g, {0}, k=10)
        assert reached == frozenset({1, 2, 3, 4})

    def test_never_leaves_component(self):
        g = GlobalGraph(6, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)])
        assert bfs_khop_oracle(g, {0}, k=5) == frozenset({1})
