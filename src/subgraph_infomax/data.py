"""Observation protocols, dataset bundles, file loaders, and the synthetic benchmark.

File formats (line-oriented, UTF-8, LF; in every format blank lines and
lines starting with '#' are skipped and surrounding whitespace is ignored):
  - edge list: one whitespace-separated "src dst" pair per line, consecutive
    integer node ids from 0;
  - subgraphs: one record per line, "label<TAB>id,id,id,..." with ids in
    observation order when the dataset is ordered;
  - embeddings: one row of whitespace-separated reals per node, row index =
    node id;
  - splits: "record_index<TAB>train|val|test" lines.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import GlobalGraph, SubgraphRecord, bernoulli_edges

log = logging.getLogger(__name__)

STAGES = ("train", "val", "test")
_STAGE_CODE = {"val": 1, "test": 2}
DEFAULT_SPLIT_RATIOS = (0.7, 0.15, 0.15)


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


@dataclass
class DatasetBundle:
    """A global graph plus its labeled subgraphs, splits, and features."""

    graph: GlobalGraph
    records: tuple[SubgraphRecord, ...]
    num_classes: int
    splits: tuple[str, ...]
    embedding_values: np.ndarray | None = None
    name: str = "dataset"
    _frozen_cache: dict = field(default_factory=dict, repr=False)

    def indices(self, stage: str) -> list[int]:
        if stage not in STAGES:
            raise ValueError(f"unknown stage: {stage!r}")
        return [i for i, s in enumerate(self.splits) if s == stage]

    def frozen_eval(self, protocol: ObservationProtocol, stage: str) -> dict[int, tuple[int, ...]]:
        """Frozen observed sets for every record of an eval stage."""
        if stage == "train":
            raise ValueError("training observations are resampled, not frozen")
        key = (protocol.n_obs, protocol.ordered, protocol.eval_fixed_seed, stage)
        if key not in self._frozen_cache:
            self._frozen_cache[key] = {
                i: sample_observed(self.records[i], protocol, stage)
                for i in self.indices(stage)
            }
        return self._frozen_cache[key]

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
    # One lookup for every record edge; each record's first missing edge.
    flat = [e for record in bundle.records for e in record.edge_pairs]
    owner = np.repeat(np.arange(len(bundle.records)), [len(r.edge_pairs) for r in bundle.records])
    missing: dict[int, tuple[int, int]] = {}
    for pos in np.flatnonzero(~graph.has_edges(flat)):
        missing.setdefault(int(owner[pos]), flat[pos])
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
    assignment = [""] * n
    for pos, idx in enumerate(perm):
        if pos < cut1:
            assignment[idx] = "train"
        elif pos < cut2:
            assignment[idx] = "val"
        else:
            assignment[idx] = "test"
    return tuple(assignment)


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
        if self.communities < 2:
            raise ValueError("need at least 2 communities")
        if self.num_nodes < 2 * self.communities:
            raise ValueError("too few nodes for the community count")
        if self.subgraph_size_max > self.num_nodes:
            raise ValueError("subgraph size exceeds the global node count")
        if self.subgraph_size_min < 2:
            raise ValueError("subgraphs must have at least 2 nodes")
        if self.feature_dim < self.communities:
            raise ValueError("feature_dim must be >= the community count")
        if not 0.0 <= self.community_leak < 1.0:
            raise ValueError("community_leak must be in [0, 1)")
        # Written so that NaN fails each check.
        for name in ("p_intra", "p_inter"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not self.feature_noise >= 0.0:
            raise ValueError(f"feature_noise must be >= 0, got {self.feature_noise}")
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
    start = int(rng.choice(home_nodes))
    visited = [start]
    visited_set = {start}
    current = start
    for _ in range(60 * target_size):
        if len(visited) >= target_size:
            break
        nbrs = graph.neighbors(current)
        if leak == 0.0 or rng.random() >= leak:
            nbrs = nbrs[communities[nbrs] == home]
        if nbrs.size == 0:
            current = int(rng.choice(home_nodes))  # teleport when stuck
            if current not in visited_set:
                visited.append(current)
                visited_set.add(current)
            continue
        current = int(rng.choice(nbrs))
        if current not in visited_set:
            visited.append(current)
            visited_set.add(current)
    while len(visited) < target_size:  # fill from the home community
        extra = int(rng.choice(home_nodes))
        if extra not in visited_set:
            visited.append(extra)
            visited_set.add(extra)
    return visited


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
        records.append(
            SubgraphRecord(
                node_ids=tuple(sorted(visited)),
                edge_pairs=graph.induced_edges(visited),
                label=label,
                observation_order=tuple(visited),
            )
        )

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


def load_edge_file(path, directed: bool = False) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    max_id = -1
    for lineno, line in _read_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise _parse_error(path, lineno, f"expected 'src dst', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _parse_error(path, lineno, f"non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise _parse_error(path, lineno, "node ids must be nonnegative")
        edges.append((u, v))
        if not directed:
            edges.append((v, u))
        max_id = max(max_id, u, v)
    return max_id + 1, edges


def load_subgraph_file(path) -> list[tuple[int, list[int]]]:
    rows = []
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise _parse_error(path, lineno, "expected 'label<TAB>id,id,...'")
        try:
            label = int(parts[0])
            ids = [int(tok) for tok in parts[1].split(",") if tok]
        except ValueError:
            raise _parse_error(path, lineno, f"bad record line {line!r}") from None
        if not ids:
            raise _parse_error(path, lineno, "empty node list")
        if min(ids) < 0:
            raise _parse_error(path, lineno, "node ids must be nonnegative")
        if len(set(ids)) != len(ids):
            raise _parse_error(path, lineno, "duplicate node ids in record")
        rows.append((label, ids))
    return rows


def load_embedding_file(path, num_nodes: int) -> np.ndarray:
    rows = []
    for lineno, line in _read_lines(path):
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            raise _parse_error(path, lineno, "non-numeric embedding entry") from None
        if not all(map(math.isfinite, row)):
            raise _parse_error(path, lineno, "non-finite embedding entry")
        if rows and len(row) != len(rows[0]):
            raise _parse_error(
                path, lineno, f"{len(row)} embedding values, expected {len(rows[0])}"
            )
        rows.append(row)
    values = np.array(rows, dtype=np.float64)
    if values.shape[0] != num_nodes:
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
            idx = int(parts[0])
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

    ``split`` is either a split-file path or a ``(ratios, seed)`` pair.
    Single-node subgraphs are excluded with a warning.  When ``expected`` is
    given, the loader statistics must match it.
    """
    num_nodes, edges = load_edge_file(edge_file, directed=directed)
    rows = load_subgraph_file(subgraph_file)
    if not rows:
        log.warning("%s: empty subgraph file, 0 records loaded", subgraph_file)
    max_record_id = max((max(ids) for _, ids in rows), default=-1)
    num_nodes = max(num_nodes, max_record_id + 1)
    graph = GlobalGraph(num_nodes, edges)

    labels = sorted({label for label, _ in rows})
    label_index = {lab: i for i, lab in enumerate(labels)}
    records = []
    skipped = 0
    for label, ids in rows:
        if len(ids) < 2:
            skipped += 1
            continue
        records.append(
            SubgraphRecord(
                node_ids=tuple(sorted(ids)),
                edge_pairs=graph.induced_edges(ids),
                label=label_index[label],
                observation_order=tuple(ids),
            )
        )
    if skipped:
        log.warning("%s: excluded %d single-node subgraphs", subgraph_file, skipped)

    if split is None:
        assignment = make_splits(len(records), DEFAULT_SPLIT_RATIOS, seed=0)
    elif isinstance(split, (str, Path)):
        assignment = load_split_file(split, len(records))
    else:
        ratios, seed = split
        assignment = make_splits(len(records), ratios, seed=seed)

    embedding_values = (
        load_embedding_file(embeddings, graph.num_nodes) if embeddings else None
    )
    bundle = DatasetBundle(
        graph=graph,
        records=tuple(records),
        num_classes=len(labels) if labels else 0,
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
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        for u, v in bundle.graph.edges:
            fh.write(f"{u} {v}\n")
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
