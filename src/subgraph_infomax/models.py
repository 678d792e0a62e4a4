"""Model variants: assembly of encoder, readout, discriminator, samplers, losses.

A variant is an optional k-hop reconstruction stage (``ModelConfig.khop``)
plus an optional MI term (``ModelConfig.term``: ps-dgi, ps-infograph,
ps-mvgrl or ps-graphcl) scored against the summary.  A step is one forward
over a batch: it produces class logits from the observed portion of each
subgraph; in training it adds each stage's loss to each record's
cross-entropy as ``graph + sum_i lambda_i * term_i`` and averages over the
batch.  Each view set of a batch (observed, full, diffused, augmented,
k-hop) is encoded once, as a disjoint union; the k-hop stage scores each
row against its own record's summary and takes its membership loss per
segment, and only its top-k pool (``khop_forward``) runs per record.

A training step draws from its rng in a fixed order, which
``_ModelBase.step`` states in full: ``prepare_batch`` (augmentations, then
the batch encodes), the k-hop partitions, the observed union, the k-hop
union, ps-mvgrl's observed diffusions, then the shuffled negatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DatasetBundle
from .graph import (
    DEFAULT_NEIGHBOR_CAP,
    KhopPartition,
    SubgraphRecord,
    SubgraphView,
    ViewUnion,
    disjoint_union,
    khop_neighbors,
)
from .infomax import (
    augment,
    cross_subgraph_negatives,
    gd_loss,
    infonce_loss,
    khop_loss,
    ppr_view,
    shuffle_negatives,
)
from .layers import (
    BilinearDiscriminator,
    CosineDiscriminator,
    GatedAttentionReadout,
    MeanMlpReadout,
    Mlp,
    PredictionHead,
    SageEncoder,
    cross_entropy,
    encode,
)
from .optim import ParameterStore

VARIANTS = (
    "baseline", "ps-dgi", "ps-infograph", "ps-mvgrl", "ps-graphcl", "khop",
    "khop+ps-dgi", "khop+ps-infograph",
)
GRAPHCL_AUGMENTATIONS = ("node-drop", "edge-perturb", "attr-mask")
BATCH_NEGATIVE_VARIANTS = ("ps-infograph", "ps-graphcl")
# Edges one k-hop union encodes at most (``_ModelBase.khop_stage``).  A
# union's aggregation plan holds index arrays of one entry per edge, 16
# bytes an edge for each direction it sums by rounds, beside the union's
# own 16-byte edges; a union that sums by ``_scatter_sum`` instead (a small
# one, or a star) gathers an ``(E, width)`` message array, 32 MB at this
# budget and width 64.  ``evaluate`` passes a whole stage; at the paper's
# degrees (hundreds) one stage's k-hop views can hold millions of edges.
KHOP_UNION_EDGES = 1 << 16


@dataclass
class ModelConfig:
    """Plain-data model configuration; see the README for the config-file keys."""

    variant: str = "ps-infograph"
    k: int = 1
    pool_ratio: float = 1e-2
    lambda_single: float = 1.0
    lambda_khop: float = 1.0
    lambda_second: float = 1.0
    p_d: float = 0.0
    aug_p: float = 0.2
    ppr_alpha: float = 0.15
    ppr_top_t: int = 32
    temperature: float = 0.5
    hidden_dim: int = 64
    use_positional_encoding: bool = False
    dropout: float = 0.2
    neighbor_cap: int | None = DEFAULT_NEIGHBOR_CAP
    premixer: str = "mlp"
    include_observed_in_pool: bool = True
    concat_observed_summary: bool = False
    bidirectional: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown model variant {self.variant!r}; expected one of {', '.join(VARIANTS)}"
            )
        if self.premixer not in ("mlp", "attention", "none"):
            raise ValueError(f"premixer must be mlp, attention or none, got {self.premixer!r}")
        # Every check is written so that NaN fails it; unbounded floats must be finite.
        for name in ("k", "hidden_dim", "ppr_top_t"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.bidirectional and self.hidden_dim % 2:
            raise ValueError(f"hidden_dim must be even when bidirectional, got {self.hidden_dim}")
        if self.neighbor_cap is not None and not self.neighbor_cap >= 1:
            raise ValueError(f"neighbor_cap must be >= 1 or none, got {self.neighbor_cap}")
        for name in ("lambda_single", "lambda_khop", "lambda_second"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("p_d", "dropout", "aug_p"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.pool_ratio <= 1.0:
            raise ValueError(f"pool_ratio must be in (0, 1], got {self.pool_ratio}")
        if not 0.0 < self.ppr_alpha < 1.0:
            raise ValueError(f"ppr_alpha must be in (0, 1), got {self.ppr_alpha}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")

    @property
    def khop(self) -> bool:
        """Whether the first stage is the k-hop reconstruction."""
        return self.variant.startswith("khop")

    @property
    def term(self) -> str | None:
        """The MI term scored against the summary: a single-stage variant's
        own, or a two-stage variant's second; ``None`` for baseline and khop."""
        term = self.variant.rpartition("+")[2]
        return None if term in ("baseline", "khop") else term

    @property
    def is_two_stage(self) -> bool:
        return self.khop and self.term is not None


@dataclass
class StepOutput:
    """Result of one model step over a batch of B records.

    ``logits`` is ``(B, C)``.  In inference mode only ``logits`` is set.  In
    training, ``objective`` is the differentiable batch objective, the mean
    of the per-record objectives, and ``losses`` holds each term's
    per-record values, ``(B,)`` arrays: ``graph`` (the cross-entropy), then
    ``khop``, then ``infomax`` or ``second``.  A record's objective is
    ``graph`` plus each later term times its lambda, composed left to right
    in that order.
    """

    logits: np.ndarray
    objective: Tensor | None = None
    losses: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class BatchContext:
    """What a training batch scores its summaries against, each view set
    encoded once as a union.

    ``full`` is the union of the records' full views and ``h_full`` its
    encoding (ps-dgi, ps-infograph, ps-mvgrl); ``h_diffused`` encodes the
    union of their diffusions with the second encoder (ps-mvgrl; it has
    ``full``'s segments); ``aug_summaries`` holds one summary row per
    record's augmented view (ps-graphcl).
    """

    full: ViewUnion | None = None
    h_full: Tensor | None = None
    h_diffused: Tensor | None = None
    aug_summaries: Tensor | None = None


class KhopResult(NamedTuple):
    """One record's pool: its pooled summary row and the ids it pooled."""

    s_khop: Tensor
    selected_ids: tuple[int, ...]


class KhopStage(NamedTuple):
    """The k-hop stage of a batch of B records.

    ``s_khop`` and ``s_obs`` are ``(B, d)``: each record's pooled summary
    and its observed summary.  ``loss`` is the membership loss per record,
    ``(B, 1)``, in training and ``None`` in inference.  ``partitions[i]``
    is record ``i``'s k-hop neighbourhood and ``selected_ids[i]`` the ids
    its pool kept.
    """

    s_khop: Tensor
    s_obs: Tensor
    loss: Tensor | None
    partitions: list[KhopPartition]
    selected_ids: list[tuple[int, ...]]


def observation_positions(
    records: Sequence[SubgraphRecord], views: Sequence[SubgraphView], enabled: bool
) -> list[int] | None:
    """Positional-encoding ranks of a batch's observed rows, view after view
    (each in sorted-id order); ``None`` when disabled or when no record has
    an observation order."""
    ordered = [r.observation_order is not None for r in records]
    if not enabled or not any(ordered):
        return None
    if not all(ordered):
        raise ValueError("positional encoding needs an observation order on every record or on none")
    positions = []
    for record, view in zip(records, views):
        rank = {n: i for i, n in enumerate(record.observation_order)}
        positions.extend(rank[n] for n in view.node_ids)
    return positions


def _union_chunks(edge_counts: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` runs of consecutive views whose edges total at most
    ``budget``; a view over it forms a run of its own."""
    bounds, total = [0], 0
    for i, count in enumerate(edge_counts):
        if total + count > budget and i > bounds[-1]:
            bounds.append(i)
            total = 0
        total += count
    bounds.append(len(edge_counts))
    return list(zip(bounds[:-1], bounds[1:]))


class _ModelBase:
    """The one implementation of every variant.

    A step encodes each record's observed view into a summary row
    ``s_obs``, and with a k-hop stage reconstructs the full-subgraph summary
    from it; it predicts from that summary.  In training it adds each loss
    to each record's cross-entropy as ``ce + lambda * loss``: the k-hop
    membership loss, then the config's ``term`` once, scored against the
    reconstructed summary as ``second`` (with its own bilinear matrix) after
    a k-hop stage, else against ``s_obs`` as ``infomax``.

    A model holds only its config, its bundle and its parameters: values
    that the data and the config fix (eval partitions, full-view
    diffusions) live in the bundle's frozen cache.
    """

    def __init__(
        self,
        config: ModelConfig,
        bundle: DatasetBundle,
        rng: np.random.Generator,
        embedding_trainable: bool = True,
    ):
        feature_dim = bundle.feature_dim
        if feature_dim is None:
            raise ValueError("the bundle carries no node features or embedding table")
        self.config = config
        self.bundle = bundle
        self.store = ParameterStore()
        self.table = self.store.create(
            "embedding", (bundle.graph.num_nodes, feature_dim), rng,
            values=bundle.embedding_values, trainable=embedding_trainable,
        )
        self.encoder = SageEncoder(
            self.store, "encoder", feature_dim, config.hidden_dim, rng,
            bidirectional=config.bidirectional, dropout=config.dropout,
        )
        # Each parameter draws its initial values from ``rng`` as it is
        # created, so this creation order fixes every initial value.
        dim = config.hidden_dim
        if config.is_two_stage:
            self.readout = GatedAttentionReadout(self.store, "readout", dim, rng, config.premixer)
        else:
            self.readout = MeanMlpReadout(self.store, "readout", dim, rng)
        # The k-hop scorer owns the parameter ``discriminator``; the MI term's
        # discriminator takes it when there is no k-hop stage, and is
        # ``discriminator_second`` after one.
        self.khop_discriminator = self.mi_discriminator = None
        if config.khop:
            self.khop_discriminator = BilinearDiscriminator(self.store, "discriminator", dim, rng)
        if config.term == "ps-graphcl":
            self.mi_discriminator = CosineDiscriminator(config.temperature)
        elif config.term is not None:
            name = "discriminator_second" if config.khop else "discriminator"
            self.mi_discriminator = BilinearDiscriminator(self.store, name, dim, rng)
        if config.term == "ps-mvgrl":
            self.encoder_b = SageEncoder(
                self.store, "encoder_b", feature_dim, dim, rng,
                bidirectional=config.bidirectional, dropout=config.dropout,
            )
        if config.khop:
            self.pool_mlp = Mlp(self.store, "pool_mlp", dim, dim, dim, rng)
        head_in = 2 * dim if config.khop and config.concat_observed_summary else dim
        self.head = PredictionHead(self.store, "head", head_in, bundle.num_classes, rng)

    def encode_views(
        self,
        views: Sequence[SubgraphView],
        training: bool,
        rng: np.random.Generator | None,
        encoder: SageEncoder | None = None,
    ) -> tuple[ViewUnion, Tensor]:
        """The views' disjoint union and its encoding, one row per union row."""
        union = disjoint_union(views)
        return union, self.encode_union(union, training, rng, encoder)

    def encode_union(
        self,
        union: ViewUnion,
        training: bool,
        rng: np.random.Generator | None,
        encoder: SageEncoder | None = None,
    ) -> Tensor:
        """The union's encoding, one row per union row."""
        return encode(
            encoder or self.encoder,
            self.table,
            union.node_ids,
            union.edges,
            training=training,
            rng=rng,
            masked=union.masked,
            edge_weights=union.edge_weights,
        )

    def prepare_batch(
        self, records: Sequence[SubgraphRecord], rng: np.random.Generator | None
    ) -> BatchContext:
        """Encode, in training mode, what the batch's MI term scores its
        summaries against: each view set once, as a disjoint union."""
        cfg = self.config
        context = BatchContext()
        if cfg.term in ("ps-dgi", "ps-infograph", "ps-mvgrl"):
            context.full, context.h_full = self.encode_views([r.view for r in records], True, rng)
        if cfg.term == "ps-mvgrl":
            diffused = [self.bundle.diffusion(r, cfg.ppr_alpha, cfg.ppr_top_t) for r in records]
            _, context.h_diffused = self.encode_views(diffused, True, rng, encoder=self.encoder_b)
        elif cfg.term == "ps-graphcl":
            union = disjoint_union([r.view for r in records])
            for name in GRAPHCL_AUGMENTATIONS:
                union = augment(name, union, cfg.aug_p, rng)
            context.aug_summaries = self.readout(self.encode_union(union, True, rng), union)
        return context

    def step(
        self,
        records: Sequence[SubgraphRecord],
        views: Sequence[SubgraphView],
        rng: np.random.Generator | None = None,
        training: bool = False,
        partitions: Sequence[KhopPartition] | None = None,
    ) -> StepOutput:
        """One forward over a batch: ``views[i]`` is the observed view of
        ``records[i]``.

        The observed views are encoded as one union and read out per view;
        with a k-hop stage, ``khop_stage`` reconstructs each record's
        summary from its k-hop neighbourhood (``partitions[i]`` when given,
        else drawn).  The head, the cross-entropy and the MI term then run
        once over the batch.

        In training the rng is drawn in this order:

        1. ``prepare_batch``: ps-graphcl's augmentations, the batch's
           node-drop, edge-perturbation and attribute-mask draws over the
           union of its full views; then the dropout
           of its encodes: the full views' union (ps-dgi, ps-infograph,
           ps-mvgrl), then the diffusions' union (ps-mvgrl) or the
           augmented views' (ps-graphcl);
        2. with a k-hop stage, each record's partition in turn (its cap
           subsample, then its edge dropout);
        3. the observed union's dropout;
        4. with a k-hop stage, the dropout of the k-hop unions, in order;
        5. ps-mvgrl's observed-diffusion union's dropout;
        6. the shuffled negatives (ps-dgi, ps-mvgrl), record by record: one
           permutation of the record's rows, and for ps-mvgrl a second one,
           of its diffusion's rows.
        """
        cfg = self.config
        if len(records) != len(views) or not records:
            raise ValueError(f"a step needs one view per record, got {len(records)} and {len(views)}")
        if training and cfg.term in BATCH_NEGATIVE_VARIANTS and len(records) < 2:
            raise ValueError(f"{cfg.term} training needs a batch of at least 2 records")
        context = self.prepare_batch(records, rng) if training else None
        terms: dict[str, tuple[Tensor, float]] = {}
        if cfg.khop:
            stage = self.khop_stage(records, views, rng, training, partitions)
            s_mi = summary = stage.s_khop
            if cfg.concat_observed_summary:
                summary = ad.concat([summary, stage.s_obs], 1)
            if training:
                terms["khop"] = (stage.loss, cfg.lambda_khop)
        else:
            observed, h_obs = self.encode_views(views, training, rng)
            s_mi = summary = self.readout(h_obs, observed)
        logits = self.head(summary)
        if not training:
            return StepOutput(logits=logits.values)

        ce = cross_entropy(logits, [r.label for r in records])
        if cfg.term is not None:
            name, weight = ("second", cfg.lambda_second) if cfg.khop else ("infomax", cfg.lambda_single)
            terms[name] = (self._mi_loss(s_mi, views, context, rng), weight)
        objective = ce
        for loss, weight in terms.values():
            objective = ad.add(objective, ad.scale(loss, weight))
        return StepOutput(
            logits=logits.values,
            objective=ad.mean(objective),
            losses={
                "graph": ce.values[:, 0].copy(),
                **{name: loss.values[:, 0].copy() for name, (loss, _) in terms.items()},
            },
        )

    def khop_stage(
        self,
        records: Sequence[SubgraphRecord],
        views: Sequence[SubgraphView],
        rng: np.random.Generator | None = None,
        training: bool = False,
        partitions: Sequence[KhopPartition] | None = None,
    ) -> KhopStage:
        """Reconstruct each record's full-subgraph summary from the k-hop
        neighbourhood of its observed view ``views[i]``.

        The neighbourhood is ``partitions[i]`` (``evaluate`` passes the
        bundle's frozen ones), or else is drawn from ``rng``.  The observed
        views are encoded as one union and read out per view, positions
        concatenated; the k-hop views are encoded in unions of at most
        ``KHOP_UNION_EDGES`` edges (one union unless the batch is
        larger).  Each k-hop row is scored against its own record's
        summary, and ``khop_forward`` pools each record's rows.  In
        training the membership loss is also returned: scored rows whose id
        belongs to the record's full subgraph are positives, all others
        negatives, one joint mean per record.
        """
        cfg = self.config
        if partitions is None:
            p_d = cfg.p_d if training else 0.0
            partitions = [
                khop_neighbors(self.bundle.graph, view.node_ids, cfg.k,
                               cap=cfg.neighbor_cap, p_d=p_d, rng=rng)
                for view in views
            ]
        observed, h_obs = self.encode_views(views, training, rng)
        positions = observation_positions(records, views, cfg.use_positional_encoding)
        s_obs = self.readout(h_obs, observed, positions)

        chunks = _union_chunks([len(p.edges) for p in partitions], KHOP_UNION_EDGES)
        h_parts, score_parts, khop_ids = [], [], []
        for lo, hi in chunks:
            union, h = self.encode_views(partitions[lo:hi], training, rng)
            # Each row against its own record's summary only: h_j W s_i.
            s = ad.gather_rows(s_obs, union.segments + lo)
            score_parts.append(ad.sum(ad.mul(self.khop_discriminator.project(h), s), 1))
            h_parts.append(h)
            khop_ids.append(union.node_ids)
        h_khop, scores = h_parts[0], score_parts[0]
        if len(chunks) > 1:
            h_khop, scores = ad.concat(h_parts, 0), ad.concat(score_parts, 0)

        sizes = np.array([len(p.node_ids) for p in partitions])
        starts = np.cumsum(sizes) - sizes
        pools = [
            khop_forward(self, record, partition, scores, h_khop, start)
            for record, partition, start in zip(records, partitions, starts)
        ]
        loss = None
        if training:
            # A k-hop row is a member when its id is in its own record: one
            # flag row per record over the nodes, read once for every row.
            flags = np.zeros((len(records), self.bundle.graph.num_nodes), dtype=bool)
            for row, record in zip(flags, records):
                row[list(record.node_ids)] = True
            segments = np.repeat(np.arange(len(records)), sizes)
            member = flags[segments, np.concatenate(khop_ids)]
            loss = khop_loss(scores, member, segments, len(records))
        return KhopStage(
            s_khop=ad.concat([pool.s_khop for pool in pools], 0),
            s_obs=s_obs,
            loss=loss,
            partitions=list(partitions),
            selected_ids=[pool.selected_ids for pool in pools],
        )

    def _mi_loss(self, summary, views, context, rng) -> Tensor:
        """The MI term, one loss per record, ``(B, 1)``: row ``i`` of
        ``summary`` against record ``i``'s positives and negatives."""
        cfg = self.config
        discriminator = self.mi_discriminator
        if cfg.term == "ps-graphcl":
            # Row i scores summary i against every augmented summary: its
            # own is the positive, the others (the diagonal masked out) are
            # the negatives.
            scores = discriminator(summary, context.aug_summaries)
            own = np.eye(scores.shape[0])
            pos = ad.sum(ad.mul(scores, Tensor(own)), 1)
            negs = ad.add(scores, Tensor(np.where(own > 0, -np.inf, 0.0)))
            return infonce_loss(pos, negs)

        # Every full-view row against every summary, one column per record;
        # a record's positives are its own rows.
        full = context.full
        own = full.segments[:, None] == np.arange(full.count)
        if cfg.term == "ps-mvgrl":
            # Two views, each summary against the other view's nodes.  The
            # observed sets are resampled every step, so their diffusions are too.
            diffused = [ppr_view(view, cfg.ppr_alpha, cfg.ppr_top_t) for view in views]
            obs_diffused, h = self.encode_views(diffused, True, rng, encoder=self.encoder_b)
            scores_a = discriminator(context.h_full, self.readout(h, obs_diffused))
            scores_b = discriminator(context.h_diffused, summary)
            shuffled_a, shuffled_b = shuffle_negatives([scores_a, scores_b], full.sizes, rng)
            loss_a = gd_loss(scores_a, shuffled_a, own, own)
            return ad.scale(ad.add(loss_a, gd_loss(scores_b, shuffled_b, own, own)), 0.5)

        scores = discriminator(context.h_full, summary)
        if cfg.term == "ps-infograph":
            # The negatives are every other record's rows.
            return gd_loss(scores, scores, own, cross_subgraph_negatives(full.segments, full.count))
        # ps-dgi: the negatives are the record's own rows, shuffled.
        (shuffled,) = shuffle_negatives([scores], full.sizes, rng)
        return gd_loss(scores, shuffled, own, own)


def topk_softmax_pool(
    scores: Tensor,
    h: Tensor,
    node_ids,
    pool_ratio: float,
    mlp,
    rows,
) -> tuple[Tensor, tuple[int, ...]]:
    """Softmax-weighted pooling over the top-scoring rows.

    ``rows`` are the rows of ``scores`` (``(N, 1)``) and ``h`` that
    ``node_ids`` label, in order.  Keeps
    ``ceil(pool_ratio * n)`` of those ``n`` rows (at least one), ranked by
    score with ties broken by lower node id, and returns
    ``softmax(scores[idx]) @ mlp(h[idx])`` plus the selected ids.
    """
    if not 0.0 < pool_ratio <= 1.0:
        raise ValueError(f"pool_ratio must be in (0, 1], got {pool_ratio}")
    ids = np.asarray(node_ids, dtype=np.int64)
    n = ids.size
    rows = np.asarray(rows, dtype=np.int64)
    if scores.shape[1] != 1 or h.shape[0] != scores.shape[0] or rows.shape != (n,):
        raise ValueError(
            f"pooling shapes disagree: scores {scores.shape}, h {h.shape}, {n} ids, {rows.size} rows"
        )
    count = min(n, max(1, math.ceil(pool_ratio * n)))
    order = np.lexsort((ids, -scores.values[rows, 0]))
    selected = np.sort(order[:count])
    picked = rows[selected]
    weights = ad.softmax_rows(ad.transpose(ad.gather_rows(scores, picked)))
    pooled = ad.matmul(weights, mlp(ad.gather_rows(h, picked)))
    return pooled, tuple(int(ids[i]) for i in selected)


def khop_forward(
    model: "_ModelBase",
    record: SubgraphRecord,
    partition: KhopPartition,
    scores: Tensor,
    h_khop: Tensor,
    start: int,
) -> KhopResult:
    """Pool one record's k-hop rows of its batch's scores and encodings.

    ``scores`` (``(N, 1)``) and ``h_khop`` hold the whole batch's k-hop
    rows; ``record``'s are the ``len(partition.node_ids)`` rows from
    ``start``, one per id of ``partition``.  The pooled summary is a
    softmax-weighted average of the top-scoring rows (ties broken by lower
    node id), passed through a two-layer MLP.  Without
    ``include_observed_in_pool`` only the neighbours' rows compete, unless
    there are none.  ``record`` is the record the pool summarises;
    ``perfbench``'s tracer reads it to count the pooled ids that lie in it.
    """
    cfg = model.config
    node_ids = partition.node_ids
    rows = np.arange(start, start + len(node_ids))
    if not cfg.include_observed_in_pool and partition.neighbors:
        rows = rows[np.isin(node_ids, partition.neighbors)]
        node_ids = partition.neighbors
    pooled, selected_ids = topk_softmax_pool(
        scores, h_khop, node_ids, cfg.pool_ratio, model.pool_mlp, rows=rows
    )
    return KhopResult(s_khop=pooled, selected_ids=selected_ids)


# Two names for the one implementation, which builds and runs every variant;
# ``build_model`` picks by ``is_two_stage``.  They stay siblings so that
# wrapping ``step`` on each class (as perfbench/tracer.py does) wraps the
# shared function once.


class PsiModel(_ModelBase):
    """A single-stage variant; ``baseline`` trains with cross-entropy only."""


class TwoStageModel(_ModelBase):
    """k-hop reconstruction composed with a second discrimination stage."""


def build_model(
    config: ModelConfig,
    bundle: DatasetBundle,
    rng: np.random.Generator,
    embedding_trainable: bool = True,
):
    """The model for ``config`` over ``bundle``'s graph, features and classes."""
    cls = TwoStageModel if config.is_two_stage else PsiModel
    return cls(config, bundle, rng, embedding_trainable=embedding_trainable)
