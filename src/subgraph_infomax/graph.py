"""Immutable storage and query of the global graph, subgraphs, and k-hop neighborhoods.

All structures are frozen after construction and safe to share across
concurrent readers.  Edge storage is directed; undirected inputs are
symmetrized by the loaders before construction.  Neighborhood queries treat
edges as traversable in both directions.  Graphs and records hold global
node ids, one format from record to union: read-only int64 arrays.  Records
and views hold edges as positions into their own ids.  Only this module
turns global ids into positions, once per record and once per k-hop
partition, and offsets positions when views join one union.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

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

    def __init__(self, num_nodes: int, edges: np.ndarray | Sequence[EdgePair]):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        n = self.num_nodes = int(num_nodes)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            u, v = min(map(tuple, pairs[bad].tolist()))
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        codes = src * n + dst
        both = np.concatenate([codes, dst * n + src])
        self._codes = _frozen(_sorted_unique(codes))
        self._out_indptr, self._out_indices = _csr(self._codes, n)
        self._nbr_indptr, self._nbr_indices = _csr(_sorted_unique(both), n)

    def pairs(self) -> np.ndarray:
        """Sorted directed edges as ``(E, 2)`` int64 rows ``(u, v)``."""
        return np.column_stack(np.divmod(self._codes, self.num_nodes))

    @property
    def num_edges(self) -> int:
        return int(self._codes.size)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted ids adjacent to ``node`` in either direction."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range for {self.num_nodes} nodes")
        return self._nbr_indices[self._nbr_indptr[node]:self._nbr_indptr[node + 1]]

    def induced_edges(self, nodes: Iterable[int]) -> np.ndarray:
        """Sorted directed global edges with both endpoints in ``nodes``, as
        ``(E, 2)`` int64 rows ``(u, v)``.  An id outside ``0..n-1`` fails."""
        ids = np.fromiter(nodes, dtype=np.int64)
        bad = (ids < 0) | (ids >= self.num_nodes)
        if bad.any():
            raise ValueError(f"node {ids[np.argmax(bad)]} out of range for {self.num_nodes} nodes")
        member = np.zeros(self.num_nodes, dtype=bool)
        member[ids] = True
        ids = np.flatnonzero(member)
        return ids[self._induced_positions(ids, member)]

    def _induced_positions(self, ids: np.ndarray, member: np.ndarray) -> np.ndarray:
        """The directed edges among the sorted unique ``ids``, whose mask over
        the nodes is ``member``, as sorted ``(E, 2)`` int64 positions into
        ``ids``: a position map, not a search, relabels them."""
        lengths, dst = _csr_rows(self._out_indptr, self._out_indices, ids)
        keep = member[dst]
        pos = np.empty(self.num_nodes, dtype=np.int64)
        pos[ids] = np.arange(ids.size)
        src = np.repeat(np.arange(ids.size), lengths)
        return np.column_stack([src[keep], pos[dst[keep]]])


def bernoulli_edges(prob: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random undirected graph as ``(E, 2)`` rows: each pair ``u < v``, in
    ``np.triu_indices`` order with one ``rng.random`` draw each, joins with
    probability ``prob[u, v]`` and gives the rows ``(u, v), (v, u)``."""
    iu, ju = np.triu_indices(len(prob), k=1)
    mask = rng.random(iu.size) < prob[iu, ju]
    u, v = iu[mask], ju[mask]
    return np.column_stack([u, v, v, u]).reshape(-1, 2)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # 0.2 us; arr.flags.writeable = False takes 0.5 (Xeon, numpy 2.4)
    return arr


def id_array(ids) -> np.ndarray:
    """``ids`` as the one node-id format, a read-only int64 array (in place)."""
    return _frozen(np.asarray(ids, dtype=np.int64))


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """What ``np.unique(codes)`` returns, by one in-place sort of ``codes``
    (a fresh array) and a mask over neighbouring entries.  numpy 2.4's
    ``np.unique`` takes a hash path, about 75x slower on 200k int64 codes
    (152 against 2 ms, Intel Xeon)."""
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _csr(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of sorted unique ``u*n+v`` codes, rows indexed by u."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
    return _frozen(indptr), _frozen(codes % n)


def _csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows: (length of each row, entries in row order)."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    flat = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    return lengths, indices[flat]


@dataclass(frozen=True, eq=False)
class SubgraphRecord:
    """One labeled full subgraph of the global graph.

    The constructor takes the subgraph's edges as global ``edge_pairs`` and
    relabels them once: ``edges`` is a sorted ``(E, 2)`` int64 array of
    positions into the sorted ``node_ids``, the format of every view, and
    ``view`` is the full subgraph as one.  Its ids are read-only copies.
    """

    node_ids: np.ndarray
    edge_pairs: InitVar[np.ndarray | Sequence[EdgePair]]
    label: int
    observation_order: np.ndarray | None = None
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, edge_pairs) -> None:
        ids = np.sort(np.asarray(self.node_ids, dtype=np.int64).ravel())
        if not ids.size:
            raise ValueError("a subgraph needs at least one node")
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate node ids in subgraph")
        object.__setattr__(self, "node_ids", _frozen(ids))
        pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
        pos = np.minimum(np.searchsorted(ids, pairs), ids.size - 1)
        outside = (ids[pos] != pairs).any(axis=1)
        if outside.any():
            u, v = min(map(tuple, pairs[outside].tolist()))
            raise ValueError(f"subgraph edge ({u}, {v}) leaves its node set")
        object.__setattr__(self, "edges", _frozen(pos[np.lexsort(pos.T[::-1])]))
        if self.observation_order is not None:
            order = np.array(self.observation_order, dtype=np.int64).ravel()
            if not np.array_equal(np.sort(order), ids):
                raise ValueError("observation_order must be a permutation of node_ids")
            object.__setattr__(self, "observation_order", _frozen(order))

    @cached_property
    def view(self) -> SubgraphView:
        """The full subgraph as a view; it shares ``edges``."""
        return SubgraphView(self.node_ids, self.edges)


@dataclass(frozen=True, eq=False, slots=True)
class SubgraphView:
    """One view of a subgraph for encoding: the full subgraph, its observed
    part, a diffusion, or a k-hop neighbourhood (``KhopPartition``).

    ``node_ids`` is an int64 array and ``edges`` an ``(E, 2)`` int64 array
    of (src, dst) positions into it.  ``edge_weights``, when present, aligns
    with ``edges`` and drives weighted aggregation.  The bundle's frozen
    cache shares views, so the constructor makes all three read-only.
    """

    node_ids: np.ndarray
    edges: np.ndarray
    edge_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", id_array(self.node_ids))
        _frozen(self.edges)
        if self.edge_weights is not None:
            _frozen(self.edge_weights)

    def restrict(self, keep: Sequence[bool]) -> SubgraphView:
        """The view on the rows where ``keep`` holds: those nodes in order
        and the edges between them in order.  Edge weights are not carried
        over.  One Python pass over a list of bools cuts the edges: on the
        few-node views made per record this beats numpy masks."""
        rank = list(accumulate(keep, initial=0))  # kept rows before each row
        ends = iter(self.edges.ravel().tolist())
        flat = [w for u, v in zip(ends, ends) if keep[u] and keep[v] for w in (rank[u], rank[v])]
        edges = np.array(flat, dtype=np.int64).reshape(-1, 2)
        return SubgraphView(self.node_ids[np.array(keep, dtype=bool)], edges)


@dataclass(frozen=True, eq=False, slots=True)
class KhopPartition(SubgraphView):
    """The k-hop neighbourhood of an observed set, as the view the k-hop
    stage encodes.

    ``node_ids`` is the sorted union of the observed ids and ``neighbors``,
    both read-only int64 arrays; ``edges`` holds the global edges induced
    on it, after edge dropout, as ``(E, 2)`` positions into ``node_ids``.
    """

    neighbors: np.ndarray = field(kw_only=True)


class ViewUnion(NamedTuple):
    """Several views as one graph, so one encode covers them all (as PyG
    batches graphs).

    ``node_ids`` concatenates the views' ids; an id may repeat across views.
    ``edges`` holds each view's edges plus the number of rows before the
    view.  ``segments`` gives each row the index of its view, and ``sizes``
    each view's row count.  ``masked`` is one flag per row whose feature
    row is zeroed (``None`` when no row is), set by attribute masking
    (``infomax.augment``), and ``edge_weights`` the views' weights,
    concatenated.
    """

    node_ids: np.ndarray
    edges: np.ndarray
    segments: np.ndarray
    sizes: list[int]
    masked: np.ndarray | None = None
    edge_weights: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.sizes)


def disjoint_union(views: Sequence[SubgraphView]) -> ViewUnion:
    """The views as one ``ViewUnion``, rows in view order.  Every view needs
    a node, and edge weights on every view or on none."""
    if not views:
        raise ValueError("a union needs at least one view")
    sizes = [len(v.node_ids) for v in views]
    if not min(sizes):
        raise ValueError(f"view {sizes.index(0)} of the union has no node")
    node_ids = np.concatenate([v.node_ids for v in views])
    starts = np.cumsum(sizes) - sizes
    offsets = np.repeat(starts, [len(v.edges) for v in views])
    edges = np.concatenate([v.edges for v in views]).reshape(-1, 2) + offsets[:, None]
    segments = np.repeat(np.arange(len(views)), sizes)
    weighted = [v.edge_weights is not None for v in views]
    weights = None
    if all(weighted):
        weights = np.concatenate([v.edge_weights for v in views])
    elif any(weighted):
        raise ValueError("a union needs edge weights on every view or on none")
    return ViewUnion(node_ids, edges, segments, sizes, edge_weights=weights)


def induced_partial_subgraph(subgraph: SubgraphRecord, observed: np.ndarray) -> SubgraphView:
    """The observed view of the int64 id array ``observed``: sorted observed
    ids and the parent's edges with both endpoints observed."""
    observed_set = set(observed.tolist())
    if not observed_set:
        raise ValueError("observed set must be nonempty")
    keep = list(map(observed_set.__contains__, subgraph.node_ids.tolist()))
    if sum(keep) != len(observed_set):
        missing = observed_set.difference(subgraph.node_ids.tolist())
        raise ValueError(f"observed ids not in subgraph: {sorted(missing)}")
    return subgraph.view.restrict(keep)


def khop_neighbors(
    graph: GlobalGraph,
    observed: np.ndarray,
    k: int,
    cap: int | None = DEFAULT_NEIGHBOR_CAP,
    p_d: float = 0.0,
    rng: np.random.Generator | None = None,
) -> KhopPartition:
    """Sample the k-hop neighborhood of an observed id array.

    Neighbors are the BFS frontier union at distances 1..k, excluding the
    observed nodes.  If ``cap`` is exceeded, neighbors are uniformly
    subsampled to ``cap``; ``cap=None`` means unlimited.  Each induced edge is
    dropped independently with probability ``p_d``.
    """
    observed_ids = np.asarray(observed, dtype=np.int64)
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
        raise ValueError(f"observed id {stray.min()} out of range")

    # The BFS lives in one mask over the nodes: each hop gathers the
    # frontier's neighbour rows and keeps the unvisited entries, deduplicated
    # by a sort (np.unique would hash).
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
        if rng is None:
            raise ValueError("cap subsampling requires an rng")
        neighbor_ids = np.sort(rng.choice(neighbor_ids, size=cap, replace=False))
        visited[:] = False
        visited[neighbor_ids] = True
    visited[observed_ids] = True
    node_ids = np.flatnonzero(visited)
    edges = graph._induced_positions(node_ids, visited)
    if p_d > 0.0:
        if rng is None:
            raise ValueError("edge dropout requires an rng")
        edges = edges[rng.random(len(edges)) >= p_d]
    return KhopPartition(node_ids, edges, neighbors=_frozen(neighbor_ids))


def bfs_khop_oracle(graph: GlobalGraph, observed: Iterable[int], k: int) -> frozenset[int]:
    """Brute-force k-hop neighbor oracle: level-by-level scan of the full edge list.

    Intentionally independent of the CSR traversal in
    ``khop_neighbors``; used to validate it.
    """
    observed_set = frozenset(int(n) for n in observed)
    seen, frontier = set(observed_set), set(observed_set)
    for _ in range(k):
        nxt: set[int] = set()
        for u, v in graph.pairs().tolist():
            if u in frontier and v not in seen:
                nxt.add(v)
            if v in frontier and u not in seen:
                nxt.add(u)
        if not nxt:
            break
        seen |= nxt
        frontier = nxt
    return frozenset(seen) - observed_set
