"""Model variants: assembly of encoder, readout, discriminator, samplers, losses.

Five single-stage variants plus the two-stage composition.  Every step
produces class logits from the observed portion of a subgraph; in training
it additionally produces the variant's MI loss(es) and the cross-entropy,
combined as ``graph + sum_i lambda_i * term_i``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DatasetBundle
from .graph import (
    KhopPartition,
    SubgraphRecord,
    SubgraphView,
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
    neighbor_cap: int | None = 5000
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
        # Every check is written so that NaN fails it.
        for name in ("k", "hidden_dim", "ppr_top_t"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.bidirectional and self.hidden_dim % 2:
            raise ValueError(f"hidden_dim must be even when bidirectional, got {self.hidden_dim}")
        if self.neighbor_cap is not None and not self.neighbor_cap >= 1:
            raise ValueError(f"neighbor_cap must be >= 1 or none, got {self.neighbor_cap}")
        for name in ("lambda_single", "lambda_khop", "lambda_second"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("p_d", "dropout", "aug_p"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.pool_ratio <= 1.0:
            raise ValueError(f"pool_ratio must be in (0, 1], got {self.pool_ratio}")
        if not 0.0 < self.ppr_alpha < 1.0:
            raise ValueError(f"ppr_alpha must be in (0, 1), got {self.ppr_alpha}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def is_two_stage(self) -> bool:
        return "+" in self.variant

    @property
    def first_variant(self) -> str:
        return self.variant.split("+", 1)[0] if self.is_two_stage else self.variant

    @property
    def second_variant(self) -> str | None:
        return self.variant.split("+", 1)[1] if self.is_two_stage else None

    @property
    def uses_batch_negatives(self) -> bool:
        """Whether an MI term draws its negatives from the other batch members."""
        return not {self.first_variant, self.second_variant}.isdisjoint(BATCH_NEGATIVE_VARIANTS)


@dataclass
class StepOutput:
    """Result of one model step.

    In inference mode only ``logits`` is set.  In training, ``objective`` is
    the differentiable total and ``losses`` holds the float value of each
    term: ``graph`` (the cross-entropy), then ``khop``, then ``infomax`` or
    ``second``.  ``objective`` is ``graph`` plus each later term times its
    lambda, composed left to right in that order.
    """

    logits: np.ndarray
    objective: Tensor | None = None
    losses: dict[str, float] = field(default_factory=dict)


@dataclass
class BatchContext:
    """In-batch material for cross-subgraph negative sampling."""

    records: tuple[SubgraphRecord, ...]
    target_index: int = 0
    encoded_full: tuple[Tensor, ...] | None = None
    aug_summaries: tuple[Tensor, ...] | None = None

    def for_target(self, index: int) -> "BatchContext":
        return dataclasses.replace(self, target_index=index)


class KhopResult(NamedTuple):
    s_khop: Tensor
    loss_khop: Tensor | None
    s_obs: Tensor
    partition: KhopPartition
    scored_ids: tuple[int, ...]
    selected_ids: tuple[int, ...]


def observation_positions(
    record: SubgraphRecord, partial: SubgraphView, enabled: bool
) -> list[int] | None:
    """Positional-encoding ranks for the observed rows (sorted-id order)."""
    if not enabled or record.observation_order is None:
        return None
    rank = {n: i for i, n in enumerate(record.observation_order)}
    return [rank[n] for n in partial.node_ids]


class _ModelBase:
    """The one implementation of every variant.

    A step encodes the observed portion into ``s_obs`` (through the k-hop
    reconstruction when the first stage is ``khop``), predicts from it, and
    in training adds each MI term of the variant to the cross-entropy as
    ``ce + lambda * term``, in order: khop, then infomax or second.  The
    two-stage ``second`` term is the ps-dgi or ps-infograph term scored
    against the reconstructed summary with its own bilinear matrix.
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
        self.graph = bundle.graph
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
        first = config.first_variant
        if config.is_two_stage:
            premixer = None if config.premixer == "none" else config.premixer
            self.readout = GatedAttentionReadout(self.store, "readout", dim, rng, premixer=premixer)
        else:
            self.readout = MeanMlpReadout(self.store, "readout", dim, rng)
        if first == "baseline":
            self.discriminator = None
        elif first == "ps-graphcl":
            self.discriminator = CosineDiscriminator(config.temperature)
        else:
            self.discriminator = BilinearDiscriminator(self.store, "discriminator", dim, rng)
        if config.is_two_stage:
            self.discriminator_second = BilinearDiscriminator(
                self.store, "discriminator_second", dim, rng
            )
        if first == "ps-mvgrl":
            self.encoder_b = SageEncoder(
                self.store, "encoder_b", feature_dim, dim, rng,
                bidirectional=config.bidirectional, dropout=config.dropout,
            )
        if first == "khop":
            self.pool_mlp = Mlp(self.store, "pool_mlp", dim, dim, dim, rng)
        head_in = 2 * dim if first == "khop" and config.concat_observed_summary else dim
        self.head = PredictionHead(self.store, "head", head_in, bundle.num_classes, rng)

    def encode_view(
        self,
        view: SubgraphView,
        training: bool,
        rng: np.random.Generator | None,
        encoder: SageEncoder | None = None,
    ) -> Tensor:
        return encode(
            encoder or self.encoder,
            self.table,
            view.node_ids,
            view.edges,
            training=training,
            rng=rng,
            masked=view.masked or None,
            edge_weights=view.edge_weights,
        )

    def prepare_batch(
        self,
        records: Sequence[SubgraphRecord],
        rng: np.random.Generator | None,
        training: bool,
    ) -> BatchContext:
        """Encode per-batch material once; reuse it for every target in the batch."""
        cfg = self.config
        records = tuple(records)
        encoded_full = None
        aug_summaries = None
        if training and "ps-infograph" in (cfg.first_variant, cfg.second_variant):
            encoded_full = tuple(
                self.encode_view(SubgraphView.from_record(r), training, rng) for r in records
            )
        if training and cfg.first_variant == "ps-graphcl":
            summaries = []
            for r in records:
                view = SubgraphView.from_record(r)
                for name in GRAPHCL_AUGMENTATIONS:
                    view = augment(name, view, cfg.aug_p, rng)
                h = self.encode_view(view, training, rng)
                summaries.append(self.readout(h))
            aug_summaries = tuple(summaries)
        return BatchContext(
            records=records, encoded_full=encoded_full, aug_summaries=aug_summaries
        )

    def step(
        self,
        record: SubgraphRecord,
        partial: SubgraphView,
        batch: BatchContext | None = None,
        rng: np.random.Generator | None = None,
        training: bool = False,
    ) -> StepOutput:
        cfg = self.config
        khop = None
        if cfg.first_variant == "khop":
            khop = khop_forward(self, record, partial, rng=rng, training=training)
            s_obs = khop.s_obs
            summary = khop.s_khop
            if cfg.concat_observed_summary:
                summary = ad.concat_cols(summary, s_obs)
        else:
            s_obs = summary = self.readout(self.encode_view(partial, training, rng))
        logits = self.head(summary)
        if not training:
            return StepOutput(logits=logits.values[0].copy())

        ce = cross_entropy(logits, record.label)
        terms: dict[str, tuple[Tensor, float]] = {}
        if khop is not None:
            terms["khop"] = (khop.loss_khop, cfg.lambda_khop)
        if cfg.is_two_stage:
            loss = self._mi_loss(
                cfg.second_variant, khop.s_khop, self.discriminator_second,
                record, partial, batch, rng, training,
            )
            terms["second"] = (loss, cfg.lambda_second)
        elif cfg.variant not in ("baseline", "khop"):
            loss = self._mi_loss(
                cfg.variant, s_obs, self.discriminator,
                record, partial, batch, rng, training,
            )
            terms["infomax"] = (loss, cfg.lambda_single)
        objective = ce
        for loss, weight in terms.values():
            objective = ad.add(objective, ad.scale(loss, weight))
        return StepOutput(
            logits=logits.values[0].copy(),
            objective=objective,
            losses={"graph": ce.item(), **{name: loss.item() for name, (loss, _) in terms.items()}},
        )

    def _mi_loss(
        self, variant, summary, discriminator, record, partial, batch, rng, training
    ) -> Tensor:
        """One MI term: ``summary`` against the variant's positives and negatives."""
        if variant == "ps-dgi":
            h_sub = self.encode_view(SubgraphView.from_record(record), training, rng)
            return gd_loss(
                discriminator(h_sub, summary),
                discriminator(shuffle_negatives(h_sub, rng), summary),
            )

        if variant == "ps-infograph":
            if batch is None or batch.encoded_full is None or len(batch.records) < 2:
                raise ValueError(
                    "ps-infograph training needs a batch context with at least "
                    "2 encoded subgraphs"
                )
            h_sub = batch.encoded_full[batch.target_index]
            h_neg = cross_subgraph_negatives(batch.encoded_full, batch.target_index)
            return gd_loss(discriminator(h_sub, summary), discriminator(h_neg, summary))

        if variant == "ps-mvgrl":
            # Two views, each summary against the other view's nodes.
            cfg = self.config
            obs_diffused = ppr_view(partial, cfg.ppr_alpha, cfg.ppr_top_t)
            s_obs_b = self.readout(
                self.encode_view(obs_diffused, training, rng, encoder=self.encoder_b)
            )
            full = SubgraphView.from_record(record)
            h_a = self.encode_view(full, training, rng)
            h_b = self.encode_view(
                ppr_view(full, cfg.ppr_alpha, cfg.ppr_top_t), training, rng,
                encoder=self.encoder_b,
            )
            loss_a = gd_loss(
                discriminator(h_a, s_obs_b),
                discriminator(shuffle_negatives(h_a, rng), s_obs_b),
            )
            loss_b = gd_loss(
                discriminator(h_b, summary),
                discriminator(shuffle_negatives(h_b, rng), summary),
            )
            return ad.scale(ad.add(loss_a, loss_b), 0.5)

        # ps-graphcl: the summary against the augmented full-subgraph summary,
        # negatives are the other in-batch augmented summaries.
        if batch is None or batch.aug_summaries is None or len(batch.records) < 2:
            raise ValueError(
                "ps-graphcl training needs a batch context with at least "
                "2 augmented summaries"
            )
        pos = discriminator(batch.aug_summaries[batch.target_index], summary)
        negs = ad.concat_cols(
            *[
                ad.transpose(discriminator(s, summary))
                for i, s in enumerate(batch.aug_summaries)
                if i != batch.target_index
            ]
        )
        return infonce_loss(pos, negs)


def topk_softmax_pool(
    scores: Tensor,
    h: Tensor,
    node_ids,
    pool_ratio: float,
    mlp,
) -> tuple[Tensor, tuple[int, ...]]:
    """Softmax-weighted pooling over the top-scoring rows.

    Keeps ``ceil(pool_ratio * n)`` rows (at least one), ranked by score with
    ties broken by lower node id, and returns
    ``softmax(scores[idx]) @ mlp(h[idx])`` plus the selected ids.
    """
    if not 0.0 < pool_ratio <= 1.0:
        raise ValueError(f"pool_ratio must be in (0, 1], got {pool_ratio}")
    ids = np.asarray(node_ids, dtype=np.int64)
    n = ids.size
    if scores.shape != (n, 1) or h.shape[0] != n:
        raise ValueError(
            f"pooling shapes disagree: scores {scores.shape}, h {h.shape}, {n} ids"
        )
    count = min(n, max(1, math.ceil(pool_ratio * n)))
    order = np.lexsort((ids, -scores.values[:, 0]))
    selected = np.sort(order[:count])
    weights = ad.softmax_rows(ad.transpose(ad.gather_rows(scores, selected)))
    pooled = ad.matmul(weights, mlp(ad.gather_rows(h, selected)))
    return pooled, tuple(int(ids[i]) for i in selected)


def khop_forward(
    model: "_ModelBase",
    record: SubgraphRecord,
    partial: SubgraphView,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> KhopResult:
    """Score the k-hop neighborhood against the observed summary and pool it.

    The pooled summary is a softmax-weighted average of the top-scoring
    rows (ties broken by lower node id), passed through a two-layer MLP.
    In training the membership loss is also returned: scored rows whose id
    belongs to the full subgraph are positives, all others negatives.
    """
    cfg = model.config
    partition = khop_neighbors(
        model.graph,
        partial.node_ids,
        cfg.k,
        cap=cfg.neighbor_cap,
        p_d=cfg.p_d if training else 0.0,
        rng=rng,
    )
    h_obs = model.encode_view(partial, training, rng)
    positions = observation_positions(record, partial, cfg.use_positional_encoding)
    s_obs = model.readout(h_obs, positions)

    node_ids = partition.node_ids
    h_khop = encode(
        model.encoder, model.table, node_ids, partition.edges_khop,
        training=training, rng=rng,
    )
    scores = model.discriminator(h_khop, s_obs)

    pool = (scores, h_khop, node_ids)
    if not cfg.include_observed_in_pool and partition.neighbors:
        # Without neighbours the pool keeps every row.
        rows = np.flatnonzero(np.isin(node_ids, partition.neighbors))
        pool = (ad.gather_rows(scores, rows), ad.gather_rows(h_khop, rows), partition.neighbors)
    pooled, selected_ids = topk_softmax_pool(*pool, cfg.pool_ratio, model.pool_mlp)

    loss = None
    if training:
        member = np.isin(node_ids, record.node_ids)
        pos_rows, neg_rows = np.flatnonzero(member), np.flatnonzero(~member)
        pos = ad.gather_rows(scores, pos_rows) if pos_rows.size else None
        neg = ad.gather_rows(scores, neg_rows) if neg_rows.size else None
        loss = khop_loss(pos, neg)
    return KhopResult(
        s_khop=pooled,
        loss_khop=loss,
        s_obs=s_obs,
        partition=partition,
        scored_ids=node_ids,
        selected_ids=selected_ids,
    )


# Two sibling classes over the one implementation; each only checks which
# variant family it accepts.  They stay siblings so that wrapping ``step`` on
# each class (as perfbench/tracer.py does) wraps the shared function once.


class PsiModel(_ModelBase):
    """A single-stage variant; ``baseline`` trains with cross-entropy only."""

    def __init__(self, config: ModelConfig, *args, **kwargs):
        if config.is_two_stage:
            raise ValueError("use TwoStageModel for composed variants")
        super().__init__(config, *args, **kwargs)


class TwoStageModel(_ModelBase):
    """k-hop reconstruction composed with a second discrimination stage.

    The reconstructed summary both feeds the prediction head and acts as the
    summary the second stage discriminates against.  The encoder is shared
    across stages; each stage has its own bilinear matrix.
    """

    def __init__(self, config: ModelConfig, *args, **kwargs):
        if not config.is_two_stage:
            raise ValueError("TwoStageModel requires a composed variant like 'khop+ps-dgi'")
        super().__init__(config, *args, **kwargs)


def build_model(
    config: ModelConfig,
    bundle: DatasetBundle,
    rng: np.random.Generator,
    embedding_trainable: bool = True,
):
    """The model for ``config`` over ``bundle``'s graph, features and classes."""
    cls = TwoStageModel if config.is_two_stage else PsiModel
    return cls(config, bundle, rng, embedding_trainable=embedding_trainable)
