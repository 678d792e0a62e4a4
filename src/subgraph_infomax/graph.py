"""Immutable storage and query of the global graph, subgraphs, and k-hop partitions.

All structures are frozen after construction and safe to share across
concurrent readers.  Edge storage is directed; undirected inputs are
symmetrized by the loaders before construction.  Neighborhood queries treat
edges as traversable in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

DEFAULT_NEIGHBOR_CAP = 5000

EdgePair = tuple[int, int]


class GlobalGraph:
    """The shared graph hosting every subgraph.

    Invariants: all edge endpoints are < ``num_nodes`` and the directed edge
    set contains no duplicates.
    """

    def __init__(self, num_nodes: int, edges: Iterable[EdgePair]):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        deduped = sorted({(int(u), int(v)) for u, v in edges})
        for u, v in deduped:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        self.edges: tuple[EdgePair, ...] = tuple(deduped)
        self._edge_set = frozenset(self.edges)
        self._adj: dict[int, np.ndarray] | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_set

    def _adjacency(self) -> dict[int, np.ndarray]:
        # Undirected adjacency view, built lazily and cached.
        if self._adj is None:
            lists: dict[int, set[int]] = {}
            for u, v in self.edges:
                lists.setdefault(u, set()).add(v)
                lists.setdefault(v, set()).add(u)
            self._adj = {
                node: np.fromiter(sorted(nbrs), dtype=np.int64)
                for node, nbrs in lists.items()
            }
        return self._adj

    def neighbors(self, node: int) -> np.ndarray:
        return self._adjacency().get(node, np.empty(0, dtype=np.int64))

    def induced_edges(self, nodes: Iterable[int]) -> tuple[EdgePair, ...]:
        """Directed global edges with both endpoints in ``nodes``."""
        node_set = set(int(n) for n in nodes)
        found = []
        for u in node_set:
            for v in self._adjacency().get(u, ()):
                v = int(v)
                if v in node_set and (u, v) in self._edge_set:
                    found.append((u, v))
        return tuple(sorted(found))


@dataclass(frozen=True)
class SubgraphRecord:
    """One labeled full subgraph of the global graph."""

    node_ids: tuple[int, ...]
    edge_pairs: tuple[EdgePair, ...]
    label: int
    subgraph_feature: np.ndarray | None = None
    observation_order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", tuple(sorted(int(n) for n in self.node_ids)))
        object.__setattr__(
            self, "edge_pairs", tuple(sorted((int(u), int(v)) for u, v in self.edge_pairs))
        )
        if not self.node_ids:
            raise ValueError("a subgraph needs at least one node")
        node_set = set(self.node_ids)
        if len(node_set) != len(self.node_ids):
            raise ValueError("duplicate node ids in subgraph")
        for u, v in self.edge_pairs:
            if u not in node_set or v not in node_set:
                raise ValueError(f"subgraph edge ({u}, {v}) leaves its node set")
        if self.observation_order is not None:
            order = tuple(int(n) for n in self.observation_order)
            if sorted(order) != list(self.node_ids):
                raise ValueError("observation_order must be a permutation of node_ids")
            object.__setattr__(self, "observation_order", order)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class KhopPartition:
    """k-hop neighbors of an observed set, split by full-subgraph membership.

    ``in_subgraph`` and ``outside`` are filled only when the parent record is
    known; they always form a disjoint cover of ``neighbors`` in that case.
    ``edges_khop`` are the global edges induced on observed + neighbors,
    after edge dropout.
    """

    neighbors: tuple[int, ...]
    in_subgraph: tuple[int, ...]
    outside: tuple[int, ...]
    edges_khop: tuple[EdgePair, ...]


@dataclass(frozen=True)
class SubgraphView:
    """One view of a subgraph for encoding: the full subgraph, its observed
    part, an augmentation, or a diffusion.

    ``masked`` holds node ids whose feature rows are zeroed; ``edge_weights``,
    when present, aligns with ``edges`` and drives weighted aggregation.
    """

    node_ids: tuple[int, ...]
    edges: tuple[EdgePair, ...]
    masked: frozenset[int] = frozenset()
    edge_weights: tuple[float, ...] | None = None

    @staticmethod
    def from_record(record: SubgraphRecord) -> "SubgraphView":
        return SubgraphView(record.node_ids, record.edge_pairs)


def induced_partial_subgraph(subgraph: SubgraphRecord, observed: Iterable[int]) -> SubgraphView:
    """The observed view: sorted observed ids and the parent's edges with both
    endpoints observed."""
    observed_set = {int(n) for n in observed}
    if not observed_set:
        raise ValueError("observed set must be nonempty")
    missing = observed_set - set(subgraph.node_ids)
    if missing:
        raise ValueError(f"observed ids not in subgraph: {sorted(missing)}")
    edges = tuple(
        (u, v) for u, v in subgraph.edge_pairs if u in observed_set and v in observed_set
    )
    return SubgraphView(tuple(sorted(observed_set)), edges)


def khop_neighbors(
    graph: GlobalGraph,
    observed: Iterable[int],
    k: int,
    cap: int | None = DEFAULT_NEIGHBOR_CAP,
    p_d: float = 0.0,
    rng: np.random.Generator | None = None,
    subgraph: SubgraphRecord | None = None,
) -> KhopPartition:
    """Sample the k-hop neighborhood of an observed node set.

    Neighbors are the BFS frontier union at distances 1..k, excluding the
    observed nodes.  If ``cap`` is exceeded, neighbors are uniformly
    subsampled to ``cap``; ``cap=None`` means unlimited.  Each induced edge is
    dropped independently with probability ``p_d``.  When ``subgraph`` is
    given, neighbors are additionally partitioned by membership in it.
    """
    observed_set = {int(n) for n in observed}
    if not observed_set:
        raise ValueError("observed set must be nonempty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= p_d < 1.0:
        raise ValueError(f"p_d must be in [0, 1), got {p_d}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1 or None, got {cap}")
    for n in observed_set:
        if not 0 <= n < graph.num_nodes:
            raise ValueError(f"observed id {n} out of range")

    visited = set(observed_set)
    frontier = observed_set
    collected: set[int] = set()
    for _ in range(k):
        nxt: set[int] = set()
        for node in frontier:
            for nbr in graph.neighbors(node):
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
        if rng is None:
            raise ValueError("cap subsampling requires an rng")
        neighbor_ids = np.sort(rng.choice(neighbor_ids, size=cap, replace=False))

    neighbors = tuple(int(n) for n in neighbor_ids)
    all_nodes = observed_set | set(neighbors)
    edges = list(graph.induced_edges(all_nodes))
    if p_d > 0.0:
        if rng is None:
            raise ValueError("edge dropout requires an rng")
        keep = rng.random(len(edges)) >= p_d
        edges = [e for e, k_ in zip(edges, keep) if k_]

    if subgraph is not None:
        in_sub, outside = partition_khop(neighbors, subgraph)
    else:
        in_sub, outside = (), ()
    return KhopPartition(
        neighbors=neighbors,
        in_subgraph=in_sub,
        outside=outside,
        edges_khop=tuple(edges),
    )


def partition_khop(
    neighbors: Iterable[int], subgraph: SubgraphRecord
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split neighbor ids into (members of the full subgraph, everything else)."""
    neighbor_set = {int(n) for n in neighbors}
    members = set(subgraph.node_ids)
    in_sub = tuple(sorted(neighbor_set & members))
    outside = tuple(sorted(neighbor_set - members))
    return in_sub, outside


def bfs_khop_oracle(graph: GlobalGraph, observed: Iterable[int], k: int) -> frozenset[int]:
    """Brute-force k-hop neighbor oracle: level-by-level scan of the full edge list.

    Intentionally independent of the adjacency-based traversal in
    ``khop_neighbors``; used to validate it.
    """
    observed_set = frozenset(int(n) for n in observed)
    dist = {n: 0 for n in observed_set}
    frontier = set(observed_set)
    for _ in range(k):
        nxt: set[int] = set()
        for u, v in graph.edges:
            if u in frontier and v not in dist:
                nxt.add(v)
            if v in frontier and u not in dist:
                nxt.add(u)
        if not nxt:
            break
        for node in nxt:
            dist[node] = 1
        frontier = nxt
    return frozenset(dist) - observed_set
