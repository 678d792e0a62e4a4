"""Observation protocols, dataset bundles, file loaders, and the synthetic benchmark.

File formats (line-oriented UTF-8; a line ends at LF, CR or CRLF, as text
mode splits lines; in every format blank lines and lines starting with '#'
are skipped and surrounding whitespace is ignored):
  - edge list: one whitespace-separated "src dst" pair per line, consecutive
    integer node ids from 0;
  - subgraphs: one record per line, "label<TAB>id,id,id,..." with ids in
    observation order when the dataset is ordered;
  - embeddings: one row of whitespace-separated reals per node, row index =
    node id;
  - splits: "record_index<TAB>train|val|test" lines.
The node count is the embedding row count when embeddings are given, and
otherwise one more than the largest id in the edge list.

Edge and embedding files are parsed by ``np.loadtxt``, so its grammar holds
there: a '#' anywhere starts a comment to the end of the line; any Unicode
whitespace separates fields (as for ``str.split``); numbers are ASCII
decimals with an optional sign, ids within int64 ("+1" reads 1; "1_0",
"0x1" and non-ASCII digits do not parse, though Python's ``int`` and
``float`` take the first and last).  Subgraph and split files are read a
line at a time, and their labels, node ids and record indices follow the
same integer grammar (``_parse_int``).
"""

from __future__ import annotations

import logging
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import (
    GlobalGraph,
    KhopPartition,
    SubgraphRecord,
    SubgraphView,
    bernoulli_edges,
    induced_partial_subgraph,
    khop_neighbors,
)
from .infomax import ppr_view

log = logging.getLogger(__name__)

STAGES = ("train", "val", "test")
_STAGE_CODE = {"val": 1, "test": 2}
DEFAULT_SPLIT_RATIOS = (0.7, 0.15, 0.15)
# Bytes of eval k-hop partitions a bundle keeps (``frozen_partition``).  At
# the paper's degrees (hundreds) one partition can hold a megabyte of edges.
PARTITION_CACHE_BYTES = 256 << 20


@dataclass(frozen=True)
class ObservationProtocol:
    """How observed node sets are drawn.

    Validation/test sets are frozen per record at a constant size; training
    sets are resampled every iteration, with the size jittered over
    ``{n_obs-2, ..., n_obs+2}`` when ``train_jitter`` is on.  Ordered
    records always yield a prefix of their observation order.
    """

    n_obs: int = 4
    ordered: bool = False
    train_jitter: bool = True
    eval_fixed_seed: int = 12345

    def __post_init__(self) -> None:
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be >= 1, got {self.n_obs}")
        if self.eval_fixed_seed < 0:
            raise ValueError(f"eval_fixed_seed must be >= 0, got {self.eval_fixed_seed}")


def _frozen_rng(protocol: ObservationProtocol, stage: str, record: SubgraphRecord):
    # Content-derived seeding keeps the eval sets identical across epochs,
    # processes, and model variants.
    entropy = [protocol.eval_fixed_seed, _STAGE_CODE[stage], len(record.node_ids)]
    entropy.extend(record.node_ids)
    return np.random.default_rng(entropy)


def sample_observed(
    record: SubgraphRecord,
    protocol: ObservationProtocol,
    stage: str,
    rng: np.random.Generator | None = None,
) -> tuple[int, ...]:
    """Draw the observed node ids for one record at the given stage."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage: {stage!r}")
    if protocol.ordered and record.observation_order is None:
        raise ValueError("ordered protocol requires records with an observation order")

    if stage == "train":
        if protocol.train_jitter:
            if rng is None:
                raise ValueError("training-stage sampling requires an rng")
            size = int(rng.integers(protocol.n_obs - 2, protocol.n_obs + 3))
        else:
            size = protocol.n_obs
    else:
        size = protocol.n_obs
    size = max(1, min(size, len(record.node_ids)))

    if protocol.ordered:
        return tuple(record.observation_order[:size])
    if stage == "train":
        if rng is None:
            raise ValueError("training-stage sampling requires an rng")
        picked = rng.choice(len(record.node_ids), size=size, replace=False)
    else:
        picked = _frozen_rng(protocol, stage, record).choice(
            len(record.node_ids), size=size, replace=False
        )
    return tuple(sorted(record.node_ids[i] for i in picked))


def _frozen_key(protocol: ObservationProtocol, stage: str) -> tuple:
    """What a frozen observed set depends on besides its record."""
    if stage == "train":
        raise ValueError("training observations are resampled, not frozen")
    return (protocol.n_obs, protocol.ordered, protocol.eval_fixed_seed, stage)


@dataclass
class DatasetBundle:
    """A global graph plus its labeled subgraphs, splits, and features.  Its
    frozen cache keeps each value that the data and a config fix, for every
    model and seed that shares the bundle."""

    graph: GlobalGraph
    records: tuple[SubgraphRecord, ...]
    num_classes: int
    splits: tuple[str, ...]
    embedding_values: np.ndarray | None = None
    name: str = "dataset"
    _frozen_cache: dict = field(default_factory=dict, init=False, repr=False)
    _partition_bytes: int = field(default=0, init=False, repr=False)

    def indices(self, stage: str) -> list[int]:
        if stage not in STAGES:
            raise ValueError(f"unknown stage: {stage!r}")
        return [i for i, s in enumerate(self.splits) if s == stage]

    def frozen_eval(self, protocol: ObservationProtocol, stage: str) -> dict[int, tuple[int, ...]]:
        """Frozen observed sets for every record of an eval stage."""
        key = _frozen_key(protocol, stage)
        if key not in self._frozen_cache:
            self._frozen_cache[key] = {
                i: sample_observed(self.records[i], protocol, stage)
                for i in self.indices(stage)
            }
        return self._frozen_cache[key]

    def frozen_views(self, protocol: ObservationProtocol, stage: str) -> dict[int, SubgraphView]:
        """The observed view of every record of an eval stage: the induced
        partial subgraph of its ``frozen_eval`` set, built once per bundle."""
        key = (*_frozen_key(protocol, stage), "views")
        if key not in self._frozen_cache:
            self._frozen_cache[key] = {
                i: induced_partial_subgraph(self.records[i], observed)
                for i, observed in self.frozen_eval(protocol, stage).items()
            }
        return self._frozen_cache[key]

    def frozen_partition(
        self, protocol: ObservationProtocol, stage: str, idx: int, k: int, cap: int | None
    ) -> KhopPartition:
        """The k-hop partition, without edge dropout, of record ``idx``'s
        ``frozen_eval`` set; a binding cap draws from the record's own seed.
        It is kept while ``PARTITION_CACHE_BYTES`` last, else drawn again."""
        kept = self._frozen_cache.setdefault((*_frozen_key(protocol, stage), k, cap), {})
        partition = kept.get(idx)
        if partition is None:
            rng = np.random.default_rng([protocol.eval_fixed_seed, 104729, idx])
            observed = self.frozen_eval(protocol, stage)[idx]
            partition = khop_neighbors(self.graph, observed, k, cap=cap, rng=rng)
            # Its edge array plus about 36 bytes (pointer and int) per tuple id.
            ids = len(partition.node_ids) + len(partition.neighbors)
            size = partition.edges.nbytes + 36 * ids
            if self._partition_bytes + size <= PARTITION_CACHE_BYTES:
                kept[idx] = partition
                self._partition_bytes += size
        return partition

    def diffusion(self, record: SubgraphRecord, alpha: float, top_t: int) -> SubgraphView:
        """``ppr_view`` of the record's full view, built once per ``(alpha, top_t)``."""
        views = self._frozen_cache.setdefault(("diffusion", alpha, top_t), {})
        if record not in views:
            views[record] = ppr_view(record.view, alpha, top_t)
        return views[record]

    @property
    def feature_dim(self) -> int | None:
        return None if self.embedding_values is None else self.embedding_values.shape[1]

    def majority_class_rate(self, stage: str) -> float:
        labels = [self.records[i].label for i in self.indices(stage)]
        if not labels:
            raise ValueError(f"no records in stage {stage!r}")
        counts = np.bincount(labels, minlength=self.num_classes)
        return counts.max() / len(labels)


def validate_bundle(bundle: DatasetBundle) -> None:
    """Check every structural invariant; raises ValueError on the first failure."""
    graph = bundle.graph
    if len(bundle.splits) != len(bundle.records):
        raise ValueError("split assignment length differs from the record count")
    for stage in bundle.splits:
        if stage not in STAGES:
            raise ValueError(f"invalid split label: {stage!r}")
    if bundle.embedding_values is not None:
        if bundle.embedding_values.shape[0] != graph.num_nodes:
            raise ValueError("embedding row count differs from the global node count")
    # One lookup for every record edge, in global ids; each record's first missing edge.
    per_record = [np.array(r.node_ids, dtype=np.int64)[r.edges] for r in bundle.records]
    flat = np.concatenate([np.empty((0, 2), np.int64), *per_record])
    owner = np.repeat(np.arange(len(bundle.records)), [len(r.edges) for r in bundle.records])
    missing: dict[int, list[int]] = {}
    for pos in np.flatnonzero(~graph.has_edges(flat)):
        missing.setdefault(int(owner[pos]), flat[pos].tolist())
    for idx, record in enumerate(bundle.records):
        if len(record.node_ids) < 2:
            raise ValueError(f"record {idx} is a single-node subgraph")
        if record.node_ids[-1] >= graph.num_nodes or record.node_ids[0] < 0:
            raise ValueError(f"record {idx} references nodes outside the global graph")
        if idx in missing:
            u, v = missing[idx]
            raise ValueError(f"record {idx} edge ({u}, {v}) is not a global edge")
        if not 0 <= record.label < bundle.num_classes:
            raise ValueError(f"record {idx} label {record.label} out of range")


def check_split_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    """``ratios`` as three floats in [0, 1] summing to 1 (NaN fails), or a
    ValueError naming ``split_ratios``."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError(f"split_ratios: need 3 ratios (train, val, test), got {len(ratios)}")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"split_ratios: each ratio must be in [0, 1]: {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"split_ratios: ratios must sum to 1: {ratios}")
    return ratios


def make_splits(n: int, ratios: Sequence[float], seed: int) -> tuple[str, ...]:
    """Seeded uniform shuffle of ``n`` record indices followed by a contiguous
    train/val/test cut."""
    ratios = check_split_ratios(ratios)
    perm = np.random.default_rng(seed).permutation(n)
    cut1 = int(round(ratios[0] * n))
    cut2 = int(round((ratios[0] + ratios[1]) * n))
    assignment = np.empty(n, dtype="<U5")
    assignment[perm] = np.repeat(STAGES, [cut1, cut2 - cut1, n - cut2])
    return tuple(assignment.tolist())


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-community benchmark: block-structured graph, random-walk subgraphs.

    Labels are the majority hidden community of each subgraph's nodes (the
    walk's home community breaks ties); node features are a tiled community
    indicator plus Gaussian noise.  Subgraph sizes are forced to at least
    ``n_obs + 2``.
    """

    num_nodes: int = 300
    communities: int = 2
    p_intra: float = 0.08
    p_inter: float = 0.01
    num_subgraphs: int = 100
    subgraph_size_min: int = 6
    subgraph_size_max: int = 10
    n_obs: int = 4
    feature_dim: int = 8
    feature_noise: float = 0.8
    community_leak: float = 0.1
    split_ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS
    seed: int = 19

    def __post_init__(self) -> None:
        # Each message starts with its field's name, which the config
        # loader swaps for the config key.
        if self.communities < 2:
            raise ValueError(f"communities must be >= 2, got {self.communities}")
        if self.num_nodes < 2 * self.communities:
            raise ValueError(
                f"num_nodes must be >= 2 per community ({2 * self.communities}), "
                f"got {self.num_nodes}"
            )
        if self.subgraph_size_max > self.num_nodes:
            raise ValueError(
                f"subgraph_size_max must be <= the node count ({self.num_nodes}), "
                f"got {self.subgraph_size_max}"
            )
        if self.subgraph_size_min < 2:
            raise ValueError(f"subgraph_size_min must be >= 2, got {self.subgraph_size_min}")
        if self.feature_dim < self.communities:
            raise ValueError(
                f"feature_dim must be >= the community count ({self.communities}), "
                f"got {self.feature_dim}"
            )
        if not 0.0 <= self.community_leak < 1.0:
            raise ValueError(f"community_leak must be in [0, 1), got {self.community_leak}")
        # Written so that NaN fails each check.
        for name in ("p_intra", "p_inter"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not (math.isfinite(self.feature_noise) and self.feature_noise >= 0.0):
            raise ValueError(f"feature_noise must be finite and >= 0, got {self.feature_noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_split_ratios(self.split_ratios)

    @property
    def effective_size_min(self) -> int:
        return max(self.subgraph_size_min, self.n_obs + 2)


def _block_edges(spec: SyntheticSpec, communities: np.ndarray, rng) -> np.ndarray:
    same = np.equal.outer(communities, communities)
    return bernoulli_edges(np.where(same, spec.p_intra, spec.p_inter), rng)


def _community_walk(
    graph: GlobalGraph,
    communities: np.ndarray,
    home: int,
    target_size: int,
    leak: float,
    rng,
) -> list[int]:
    home_nodes = np.flatnonzero(communities == home)
    current = int(rng.choice(home_nodes))
    visited = {current: None}  # an insertion-ordered set: the visit order
    for _ in range(60 * target_size):
        if len(visited) >= target_size:
            break
        nbrs = graph.neighbors(current)
        if leak == 0.0 or rng.random() >= leak:
            nbrs = nbrs[communities[nbrs] == home]
        # Teleport within the home community when stuck.
        current = int(rng.choice(nbrs if nbrs.size else home_nodes))
        visited[current] = None
    while len(visited) < target_size:  # fill from the home community
        visited[int(rng.choice(home_nodes))] = None
    return list(visited)


def _record(graph: GlobalGraph, order: list[int], label: int) -> SubgraphRecord:
    """The record of the nodes visited in ``order``, with their induced edges."""
    return SubgraphRecord(order, graph.induced_edges(order), label, tuple(order))


def generate_synthetic(spec: SyntheticSpec) -> DatasetBundle:
    """Deterministically generate a bundle from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    sizes = [spec.num_nodes // spec.communities] * spec.communities
    for i in range(spec.num_nodes % spec.communities):
        sizes[i] += 1
    communities = np.repeat(np.arange(spec.communities), sizes)
    graph = GlobalGraph(spec.num_nodes, _block_edges(spec, communities, rng))

    size_lo = spec.effective_size_min
    size_hi = max(spec.subgraph_size_max, size_lo)
    records = []
    for m in range(spec.num_subgraphs):
        home = m % spec.communities
        target = int(rng.integers(size_lo, size_hi + 1))
        visited = _community_walk(graph, communities, home, target, spec.community_leak, rng)
        counts = np.bincount(communities[visited], minlength=spec.communities)
        top = counts.max()
        label = home if counts[home] == top else int(np.argmax(counts))
        records.append(_record(graph, visited, label))

    features = np.zeros((spec.num_nodes, spec.feature_dim))
    cols = np.arange(spec.feature_dim)
    for node in range(spec.num_nodes):
        features[node, cols % spec.communities == communities[node]] = 1.0
    if spec.feature_noise > 0:
        features += spec.feature_noise * rng.standard_normal(features.shape)

    splits = make_splits(len(records), spec.split_ratios, seed=spec.seed)
    bundle = DatasetBundle(
        graph=graph,
        records=tuple(records),
        num_classes=spec.communities,
        splits=splits,
        embedding_values=features,
        name=f"synthetic-{spec.seed}",
    )
    validate_bundle(bundle)
    return bundle


@dataclass(frozen=True)
class ExpectedStats:
    """Loader validation targets; ``None`` entries are skipped."""

    num_subgraphs: int | None = None
    num_classes: int | None = None
    num_global_nodes: int | None = None


def _parse_error(path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: {message}")


def _parse_int(token: str) -> int:
    """``token``, surrounding whitespace ignored, as ``np.loadtxt`` reads an
    int64 (the edge reader's grammar): ASCII digits with an optional sign.
    A ValueError otherwise, also for the underscores and non-ASCII digits
    that Python's ``int`` takes."""
    text = token.strip()
    value = int(text)
    if not text.isascii() or "_" in text or not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"not an int64 integer: {token!r}")
    return value


def _read_lines(path):
    """Yield ``(lineno, line)`` for each content line of a UTF-8 text file:
    stripped, and neither blank nor a ``#`` comment.  A line that is not
    UTF-8 raises a ValueError naming the path and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise _parse_error(path, lineno, "not UTF-8 text") from None
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


# Lines that one ``np.loadtxt`` call takes at a time when a file is read by
# blocks of lines.
_BLOCK_LINES = 4096
# numpy 2.4's ``loadtxt`` crashes the process, in about half of the runs, on
# some code points far above the BMP (U+D0000, U+100000) in a file's first
# row.  No code point above the BMP is whitespace, '#' or part of a number,
# so each is parsed as U+FFFD, with the same outcome.
_ASTRAL = re.compile("[\U00010000-\U0010ffff]")


def _loadtxt(source, dtype) -> np.ndarray:
    """``source``, an ASCII file's path or a list of lines, as an ``(R, C)``
    array: one row per line of whitespace-separated ``dtype`` values, ``#``
    starting a comment, lines left empty skipped.  No rows give shape
    ``(0, 1)``."""
    if isinstance(source, list):
        source = [_ASTRAL.sub("\ufffd", line) for line in source]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=dtype, comments="#", ndmin=2, encoding="utf-8")


def _is_ascii(path) -> bool:
    with open(path, "rb") as fh:
        return all(chunk.isascii() for chunk in iter(lambda: fh.read(1 << 20), b""))


def _read_table(path, dtype, problem) -> np.ndarray:
    """A numeric table file as one array.  ``problem(rows, line, width)``
    names the first check that ``rows`` fail (``None`` when they did not
    parse), given the first row's ``width``; ``line``, the text when ``rows``
    are one line's, only words the message.  An ASCII file is parsed by one
    ``np.loadtxt`` pass and checked on the whole array; a file that is not
    ASCII or fails is read again by ``_read_table_by_blocks``."""
    if _is_ascii(path):
        try:
            rows = _loadtxt(path, dtype)
        except ValueError:
            rows = None
        if rows is not None and problem(rows, None, rows.shape[1]) is None:
            return rows
    return _read_table_by_blocks(path, dtype, problem)


def _read_table_by_blocks(path, dtype, problem) -> np.ndarray:
    """``_read_table``'s array, parsed and checked a block of lines at a
    time, and a block that fails line by line, so that the error names the
    first line that fails.  Lines break where text mode breaks them, at LF,
    CR and CRLF."""
    lines = Path(path).read_bytes().splitlines()
    width = None
    kept = []
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        try:
            rows = _loadtxt([raw.decode("utf-8") for raw in block], dtype)
        except ValueError:  # a UnicodeDecodeError too
            rows = None
        else:
            width = width or (rows.shape[1] if len(rows) else None)
            if problem(rows, None, width) is None:
                kept.append(rows)
                continue
        for lineno, raw in enumerate(block, start=start + 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise _parse_error(path, lineno, "not UTF-8 text") from None
            try:
                rows = _loadtxt([line], dtype)
            except ValueError:
                rows = None
            else:
                if not len(rows):
                    continue
                width = width or rows.shape[1]
            message = problem(rows, line.strip(), width)
            if message is not None:
                raise _parse_error(path, lineno, message)
            kept.append(rows)
    kept = [rows for rows in kept if len(rows)]
    return np.concatenate(kept) if kept else np.empty((0, 1), dtype=dtype)


def _edge_problem(rows, line, width) -> str | None:
    if rows is None:
        return f"non-integer node id in {line!r}"
    if len(rows) and rows.shape[1] != 2:
        return f"expected 'src dst', got {line!r}"
    if (rows < 0).any():
        return "node ids must be nonnegative"
    return None


def load_edge_file(path, directed: bool = False) -> tuple[int, np.ndarray]:
    """``(num_nodes, pairs)``: one more than the largest id, and the
    ``(E, 2)`` int64 ``src dst`` rows in file order, each followed by its
    reverse unless ``directed``."""
    pairs = _read_table(path, np.int64, _edge_problem).reshape(-1, 2)
    if not directed:
        pairs = np.hstack([pairs, pairs[:, ::-1]]).reshape(-1, 2)
    return (int(pairs.max()) + 1 if pairs.size else 0), pairs


def load_subgraph_file(path, num_nodes: int) -> list[tuple[int, list[int]]]:
    """``(label, ids)`` rows whose ids are nodes of a ``num_nodes``-node graph."""
    rows = []
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise _parse_error(path, lineno, "expected 'label<TAB>id,id,...'")
        try:
            label = _parse_int(parts[0])
            ids = [_parse_int(tok) for tok in parts[1].split(",") if tok]
        except ValueError:
            raise _parse_error(path, lineno, f"bad record line {line!r}") from None
        if not ids:
            raise _parse_error(path, lineno, "empty node list")
        if min(ids) < 0:
            raise _parse_error(path, lineno, "node ids must be nonnegative")
        if len(set(ids)) != len(ids):
            raise _parse_error(path, lineno, "duplicate node ids in record")
        if max(ids) >= num_nodes:
            raise _parse_error(
                path, lineno, f"node id {max(ids)} is not a node of the graph ({num_nodes} nodes)"
            )
        rows.append((label, ids))
    return rows


def _embedding_problem(rows, line, width) -> str | None:
    if rows is None:
        return "non-numeric embedding entry"
    if not np.isfinite(rows).all():
        return "non-finite embedding entry"
    if len(rows) and rows.shape[1] != width:
        return f"{rows.shape[1]} embedding values, expected {width}"
    return None


def load_embedding_file(path, num_nodes: int) -> np.ndarray:
    """Node feature rows: at least ``num_nodes``, the nodes the edge file
    names; later rows are nodes without edges."""
    values = _read_table(path, np.float64, _embedding_problem)
    if values.shape[0] < num_nodes:
        raise ValueError(
            f"{path}: {values.shape[0]} embedding rows for {num_nodes} nodes"
        )
    return values


def load_split_file(path, num_records: int) -> tuple[str, ...]:
    assignment = [""] * num_records
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in STAGES:
            raise _parse_error(path, lineno, "expected 'index<TAB>train|val|test'")
        try:
            idx = _parse_int(parts[0])
        except ValueError:
            raise _parse_error(path, lineno, f"non-integer record index {parts[0]!r}") from None
        if not 0 <= idx < num_records:
            raise _parse_error(path, lineno, f"record index {idx} out of range")
        if assignment[idx]:
            raise _parse_error(path, lineno, f"record index {idx} assigned twice")
        assignment[idx] = parts[1]
    if any(not s for s in assignment):
        raise ValueError(f"{path}: split file does not cover every record")
    return tuple(assignment)


def load_dataset(
    edge_file,
    subgraph_file,
    embeddings=None,
    split=None,
    directed: bool = False,
    expected: ExpectedStats | None = None,
) -> DatasetBundle:
    """Build a bundle from the published file formats.

    The graph has one node per embedding row when ``embeddings`` is given,
    and otherwise the nodes up to the largest id in the edge file; a record
    id outside them is an error.  ``split`` is either a split-file path or a
    ``(ratios, seed)`` pair.  Single-node subgraphs are excluded with a
    warning; the classes are the distinct labels of the kept records, in
    sorted order.  When ``expected`` is given, the loader statistics must
    match it.
    """
    num_nodes, edges = load_edge_file(edge_file, directed=directed)
    embedding_values = load_embedding_file(embeddings, num_nodes) if embeddings else None
    num_nodes = num_nodes if embedding_values is None else len(embedding_values)
    rows = load_subgraph_file(subgraph_file, num_nodes)
    if not rows:
        log.warning("%s: empty subgraph file, 0 records loaded", subgraph_file)
    if num_nodes < 1:
        raise ValueError(f"{edge_file}: no nodes: no edges and no embedding rows")
    graph = GlobalGraph(num_nodes, edges)

    kept = [(label, ids) for label, ids in rows if len(ids) >= 2]
    if len(kept) < len(rows):
        log.warning("%s: excluded %d single-node subgraphs", subgraph_file, len(rows) - len(kept))
    labels = sorted({label for label, _ in kept})
    label_index = {lab: i for i, lab in enumerate(labels)}
    records = [_record(graph, ids, label_index[label]) for label, ids in kept]

    if split is None:
        assignment = make_splits(len(records), DEFAULT_SPLIT_RATIOS, seed=0)
    elif isinstance(split, (str, Path)):
        assignment = load_split_file(split, len(records))
    else:
        ratios, seed = split
        assignment = make_splits(len(records), ratios, seed=seed)

    bundle = DatasetBundle(
        graph=graph,
        records=tuple(records),
        num_classes=len(labels),
        splits=assignment,
        embedding_values=embedding_values,
        name=Path(str(subgraph_file)).stem,
    )
    if expected is not None:
        _check_stats(bundle, expected)
    if records:
        validate_bundle(bundle)
    return bundle


def _check_stats(bundle: DatasetBundle, expected: ExpectedStats) -> None:
    checks = [
        ("subgraph count", len(bundle.records), expected.num_subgraphs),
        ("class count", bundle.num_classes, expected.num_classes),
        ("global node count", bundle.graph.num_nodes, expected.num_global_nodes),
    ]
    for label, got, want in checks:
        if want is not None and got != want:
            raise ValueError(f"{bundle.name}: {label} is {got}, expected {want}")


def save_bundle(bundle: DatasetBundle, out_dir) -> dict[str, str]:
    """Write a bundle to disk in the published file formats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": out / "edges.txt",
        "subgraphs": out / "subgraphs.tsv",
        "splits": out / "splits.tsv",
    }
    np.savetxt(paths["edges"], bundle.graph.pairs(), fmt="%d")
    with open(paths["subgraphs"], "w", encoding="utf-8") as fh:
        for record in bundle.records:
            order = record.observation_order or record.node_ids
            fh.write(f"{record.label}\t{','.join(str(n) for n in order)}\n")
    with open(paths["splits"], "w", encoding="utf-8") as fh:
        for idx, stage in enumerate(bundle.splits):
            fh.write(f"{idx}\t{stage}\n")
    if bundle.embedding_values is not None:
        paths["embeddings"] = out / "embeddings.txt"
        with open(paths["embeddings"], "w", encoding="utf-8") as fh:
            for row in bundle.embedding_values:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    return {key: str(path) for key, path in paths.items()}
