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
    set contains no duplicates.  Edges are held as sorted unique ``u*n+v``
    codes, a directed out-CSR, and an undirected neighbor CSR (read-only
    int64 arrays).
    """

    def __init__(self, num_nodes: int, edges: Iterable[EdgePair]):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        n = self.num_nodes = int(num_nodes)
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            u, v = min(map(tuple, pairs[bad].tolist()))
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        codes = src * n + dst
        self._codes = _frozen(np.unique(codes))
        self._out_indptr, self._out_indices = _csr(self._codes, n)
        both = np.concatenate([codes, dst * n + src])
        self._nbr_indptr, self._nbr_indices = _csr(np.unique(both), n)
        self._edges: tuple[EdgePair, ...] | None = None

    @property
    def edges(self) -> tuple[EdgePair, ...]:
        """Sorted directed edge pairs, built on first use."""
        if self._edges is None:
            n = self.num_nodes
            self._edges = tuple(zip((self._codes // n).tolist(), (self._codes % n).tolist()))
        return self._edges

    @property
    def num_edges(self) -> int:
        return int(self._codes.size)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges([(u, v)])[0])

    def has_edges(self, pairs) -> np.ndarray:
        """Boolean mask over the rows ``(u, v)`` of ``pairs``: is it a directed edge."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.num_nodes
        u, v = pairs[:, 0], pairs[:, 1]
        codes = np.where((u >= 0) & (u < n) & (v >= 0) & (v < n), u * n + v, -1)
        pos = np.searchsorted(self._codes, codes)
        found = pos < self._codes.size
        found[found] = self._codes[pos[found]] == codes[found]
        return found

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted ids adjacent to ``node`` in either direction."""
        if not 0 <= node < self.num_nodes:
            return self._nbr_indices[:0]
        return self._nbr_indices[self._nbr_indptr[node]:self._nbr_indptr[node + 1]]

    def induced_edges(self, nodes: Iterable[int]) -> tuple[EdgePair, ...]:
        """Sorted directed global edges with both endpoints in ``nodes``."""
        ids = np.unique(np.fromiter(nodes, dtype=np.int64))
        ids = ids[(ids >= 0) & (ids < self.num_nodes)]
        member = np.zeros(self.num_nodes, dtype=bool)
        member[ids] = True
        src, dst = _csr_rows(self._out_indptr, self._out_indices, ids)
        keep = member[dst]
        return tuple(zip(src[keep].tolist(), dst[keep].tolist()))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _csr(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of sorted unique ``u*n+v`` codes, rows indexed by u."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
    return _frozen(indptr), _frozen(codes % n)


def _csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows: (row id per entry, entry), in row order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    flat = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    return np.repeat(rows, lengths), indices[flat]


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
    observed_ids = np.unique(np.fromiter(observed, dtype=np.int64))
    if not observed_ids.size:
        raise ValueError("observed set must be nonempty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= p_d < 1.0:
        raise ValueError(f"p_d must be in [0, 1), got {p_d}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1 or None, got {cap}")
    stray = observed_ids[(observed_ids < 0) | (observed_ids >= graph.num_nodes)]
    if stray.size:
        raise ValueError(f"observed id {stray[0]} out of range")

    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[observed_ids] = True
    frontier = observed_ids
    for _ in range(k):
        _, reached = _csr_rows(graph._nbr_indptr, graph._nbr_indices, frontier)
        frontier = np.unique(reached)
        frontier = frontier[~visited[frontier]]
        if not frontier.size:
            break
        visited[frontier] = True
    visited[observed_ids] = False
    neighbor_ids = np.flatnonzero(visited)
    if cap is not None and neighbor_ids.size > cap:
        if rng is None:
            raise ValueError("cap subsampling requires an rng")
        neighbor_ids = np.sort(rng.choice(neighbor_ids, size=cap, replace=False))

    neighbors = tuple(neighbor_ids.tolist())
    edges = graph.induced_edges(np.union1d(observed_ids, neighbor_ids))
    if p_d > 0.0:
        if rng is None:
            raise ValueError("edge dropout requires an rng")
        keep = rng.random(len(edges)) >= p_d
        edges = tuple(e for e, k_ in zip(edges, keep) if k_)

    if subgraph is not None:
        in_sub, outside = partition_khop(neighbors, subgraph)
    else:
        in_sub, outside = (), ()
    return KhopPartition(
        neighbors=neighbors,
        in_subgraph=in_sub,
        outside=outside,
        edges_khop=edges,
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

    Intentionally independent of the CSR traversal in
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
