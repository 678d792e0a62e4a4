"""Encoder, readouts, discriminators, and the prediction head.

The encoder is a two-layer mean-aggregating message passer with skip
connections: the first layer projects the input width to the hidden width
(skip via a linear projection of the input), the second uses an identity
skip.  Message passing is expressed with gather + segment-mean over a local
edge index, so isolated nodes receive a zero neighbor aggregate.

The dense part of each layer is one fused tape op, so a call costs one
node's bookkeeping rather than one per matmul, add and relu:
``autodiff.sage_combine`` is a SAGE layer after its aggregation (the self
and neighbour projections, their sum, the ReLU and the skip), and
``autodiff.affine`` is ``x @ w + b`` for each layer of an ``Mlp`` and the
``PredictionHead``.  A training ``encode`` is then 8 nodes (the table
gather; per layer the neighbour gather, its segment mean and
``sage_combine``; dropout between the layers), and an ``Mlp`` is 3.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore

log = logging.getLogger(__name__)


class Mlp:
    """Two fully connected layers with a ReLU in between.

    Each row is mapped on its own, so ``segments`` is ignored: it lets an
    ``Mlp`` stand as a readout's premixer, which is called with them.
    """

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ):
        self.w1 = store.create(f"{name}.w1", (in_dim, hidden_dim), rng)
        self.b1 = store.create(f"{name}.b1", (1, hidden_dim), rng, fan_in=in_dim)
        self.w2 = store.create(f"{name}.w2", (hidden_dim, out_dim), rng)
        self.b2 = store.create(f"{name}.b2", (1, out_dim), rng, fan_in=hidden_dim)

    def __call__(self, x: Tensor, segments: np.ndarray | None = None) -> Tensor:
        return ad.affine(ad.relu(ad.affine(x, self.w1, self.b1)), self.w2, self.b2)


def _aggregate(
    h: Tensor,
    edges: np.ndarray,
    num_nodes: int,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Mean (or weighted mean) of in-neighbor rows per node; zeros when none."""
    if edges.size == 0:
        return Tensor(np.zeros((num_nodes, h.shape[1])))
    src, dst = edges[:, 0], edges[:, 1]
    messages = ad.gather_rows(h, src)
    if weights is None:
        return ad.segment_mean(messages, dst, num_nodes)
    totals = np.bincount(dst, weights=weights, minlength=num_nodes)
    coeff = (weights / np.maximum(totals[dst], 1e-12))[:, None]
    return ad.segment_sum(ad.mul(messages, Tensor(coeff)), dst, num_nodes)


class SageLayer:
    """One mean-aggregation layer: relu(W_self h + W_neigh mean_nbrs) + skip.

    Bidirectional, the neighbour term is ``[fwd W_fwd | rev W_rev]``: the
    mean over in-neighbours and over out-neighbours, half the width each.
    """

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        bidirectional: bool = False,
        project_skip: bool = False,
    ):
        self.bidirectional = bidirectional
        self.w_self = store.create(f"{name}.w_self", (in_dim, out_dim), rng)
        if bidirectional:
            if out_dim % 2:
                raise ValueError("bidirectional layers need an even output width")
            half = out_dim // 2
            self.w_fwd = store.create(f"{name}.w_fwd", (in_dim, half), rng)
            self.w_rev = store.create(f"{name}.w_rev", (in_dim, half), rng)
        else:
            self.w_neigh = store.create(f"{name}.w_neigh", (in_dim, out_dim), rng)
        if project_skip:
            self.w_skip = store.create(f"{name}.w_skip", (in_dim, out_dim), rng)
        else:
            if in_dim != out_dim:
                raise ValueError("identity skip requires in_dim == out_dim")
            self.w_skip = None

    def __call__(
        self,
        h: Tensor,
        edges: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> Tensor:
        n = h.shape[0]
        if self.bidirectional:
            parts = (
                (_aggregate(h, edges, n, weights), self.w_fwd),
                (_aggregate(h, edges[:, ::-1], n, weights), self.w_rev),
            )
        else:
            parts = ((_aggregate(h, edges, n, weights), self.w_neigh),)
        return ad.sage_combine(h, self.w_self, parts, self.w_skip)


class SageEncoder:
    """Two mean-aggregation layers with skips; dropout between layers in training."""

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        in_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        bidirectional: bool = False,
        dropout: float = 0.2,
    ):
        self.dropout = dropout
        self.layer1 = SageLayer(
            store, f"{name}.layer1", in_dim, hidden_dim, rng,
            bidirectional=bidirectional, project_skip=True,
        )
        self.layer2 = SageLayer(
            store, f"{name}.layer2", hidden_dim, hidden_dim, rng,
            bidirectional=bidirectional, project_skip=False,
        )

    def __call__(
        self,
        x: Tensor,
        edges: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        weights: np.ndarray | None = None,
    ) -> Tensor:
        h = self.layer1(x, edges, weights)
        if training and self.dropout > 0.0:
            if rng is None:
                raise ValueError("training with dropout requires an rng")
            h = ad.dropout(h, self.dropout, rng)
        return self.layer2(h, edges, weights)


def encode(
    encoder: SageEncoder,
    table: Tensor,
    node_ids: Sequence[int],
    edges: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    masked: np.ndarray | None = None,
    edge_weights: np.ndarray | None = None,
) -> Tensor:
    """Encode a node set with its edges; rows follow the order of ``node_ids``.

    ``table`` is the ``(num_nodes, feature_dim)`` input-feature parameter.
    ``edges`` is an ``(E, 2)`` int64 array of positions into ``node_ids``, as
    a ``SubgraphView`` or a ``ViewUnion`` holds them; ``gather_rows`` and
    ``segment_mean`` reject a position outside ``node_ids``.  ``masked`` is
    one flag per row: a flagged row's features are zeroed before encoding.
    It is per row, not per id, because an id can repeat in a union.
    """
    x = ad.gather_rows(table, node_ids)
    if masked is not None:
        if masked.shape != (len(node_ids),):
            raise ValueError(f"{masked.shape} mask flags for {len(node_ids)} rows")
        if masked.any():
            x = ad.mul(x, Tensor((~masked).astype(np.float64)[:, None]))
    weights = None
    if edge_weights is not None:
        weights = np.asarray(edge_weights, dtype=np.float64)
        if weights.shape != (len(edges),):
            raise ValueError(
                f"edge_weights length {weights.shape} != number of edges {len(edges)}"
            )
    return encoder(x, edges, training=training, rng=rng, weights=weights)


def sinusoidal_encoding(positions: Sequence[int], dim: int) -> np.ndarray:
    """Sinusoidal position rows for the given integer positions."""
    rows = np.zeros((len(positions), dim))
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2).astype(np.float64)
    angles = pos / np.power(10000.0, idx / dim)[None, :]
    rows[:, 0::2] = np.sin(angles)
    rows[:, 1::2] = np.cos(angles[:, : rows[:, 1::2].shape[1]])
    return rows


def _segments(h: Tensor, union) -> tuple[np.ndarray, int]:
    """Segment ids and count of ``h``'s rows: ``union``'s, or one segment."""
    if h.shape[0] < 1:
        raise ValueError("readout requires at least one node row")
    if union is None:
        return np.zeros(h.shape[0], dtype=np.int64), 1
    return union.segments, union.count


class MeanMlpReadout:
    """Permutation-invariant summary: mean pooling after a two-layer MLP.

    Given a ``ViewUnion``, one summary row per view (a segment mean); else
    one row for all of ``h``.  ``positions`` is ignored, so the k-hop stage
    (``_ModelBase.khop_stage``) calls either readout alike.
    """

    def __init__(self, store: ParameterStore, name: str, dim: int, rng: np.random.Generator):
        self.mlp = Mlp(store, name, dim, dim, dim, rng)

    def __call__(self, h: Tensor, union=None, positions=None) -> Tensor:
        segments, count = _segments(h, union)
        return ad.segment_mean(self.mlp(h), segments, count)


class _SdpMixer:
    """Single-head scaled-dot-product pre-mixer (no layer normalization)."""

    def __init__(self, store: ParameterStore, name: str, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.w_q = store.create(f"{name}.w_q", (dim, dim), rng)
        self.w_k = store.create(f"{name}.w_k", (dim, dim), rng)
        self.w_v = store.create(f"{name}.w_v", (dim, dim), rng)

    def __call__(self, h: Tensor, segments: np.ndarray) -> Tensor:
        """Rows attend only to rows of their own segment."""
        q = ad.matmul(h, self.w_q)
        k = ad.matmul(h, self.w_k)
        v = ad.matmul(h, self.w_v)
        logits = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(self.dim))
        if segments.any():
            apart = segments[:, None] != segments[None, :]
            logits = ad.add(logits, Tensor(np.where(apart, -np.inf, 0.0)))
        return ad.matmul(ad.softmax_rows(logits), v)


class GatedAttentionReadout:
    """Gated soft-attention pooling over a pluggable pre-mixer.

    ``s = sum_i sigmoid(gate(h_i)) * feat(h_i)`` after an optional sinusoidal
    positional encoding (order-aware) and a pre-mixer ("mlp", "attention", or
    None).  Without positions the result is permutation invariant.  Given a
    ``ViewUnion``, one summary row per view (a segment sum, with attention
    kept inside each view); else one row for all of ``h``.
    """

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        dim: int,
        rng: np.random.Generator,
        premixer: str | None = "mlp",
    ):
        self.dim = dim
        if premixer == "mlp":
            self.premixer = Mlp(store, f"{name}.premixer", dim, dim, dim, rng)
        elif premixer == "attention":
            self.premixer = _SdpMixer(store, f"{name}.premixer", dim, rng)
        elif premixer is None:
            self.premixer = None
        else:
            raise ValueError(f"unknown premixer: {premixer!r}")
        self.gate = Mlp(store, f"{name}.gate", dim, dim, dim, rng)
        self.feat = Mlp(store, f"{name}.feat", dim, dim, dim, rng)

    def __call__(self, h: Tensor, union=None, positions: Sequence[int] | None = None) -> Tensor:
        segments, count = _segments(h, union)
        if positions is not None:
            if len(positions) != h.shape[0]:
                raise ValueError(
                    f"{len(positions)} positions for {h.shape[0]} rows"
                )
            pe = sinusoidal_encoding(positions, self.dim)
            h = ad.add(h, Tensor(pe))
        if self.premixer is not None:
            h = self.premixer(h, segments)
        return ad.segment_sum(ad.mul(ad.sigmoid(self.gate(h)), self.feat(h)), segments, count)


class BilinearDiscriminator:
    """Pairing score h^T W s, linear in each argument: ``(h, s)`` gives one
    row per row of ``h`` and one column per summary row of ``s``.

    ``project(h)`` is ``h W``; scoring each row against one summary of its
    own is ``sum(project(h) * s, 1)``.
    """

    def __init__(self, store: ParameterStore, name: str, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.w = store.create(name, (dim, dim), rng)

    def project(self, h: Tensor) -> Tensor:
        if h.shape[1] != self.dim:
            raise ValueError(f"discriminator width mismatch: h {h.shape}, dim {self.dim}")
        return ad.matmul(h, self.w)

    def __call__(self, h: Tensor, s: Tensor) -> Tensor:
        if s.shape[1] != self.dim:
            raise ValueError(f"discriminator width mismatch: s {s.shape}, dim {self.dim}")
        return ad.matmul(self.project(h), ad.transpose(s))


class CosineDiscriminator:
    """Temperature-scaled cosine similarity ``unit(h) @ unit(s)^T / tau``,
    one column per summary row of ``s``; zero vectors score exactly 0."""

    def __init__(self, temperature: float):
        if temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        self.temperature = temperature

    @staticmethod
    def project(h: Tensor) -> Tensor:
        """Rows scaled to unit length; the squared norm is floored at 1e-30."""
        if not h.values.any(axis=1).all():
            log.debug("cosine discriminator saw a zero vector; its score is 0 by convention")
        return ad.div(h, ad.sqrt(ad.clip_min(ad.sum(ad.mul(h, h), 1), 1e-30)))

    def __call__(self, h: Tensor, s: Tensor) -> Tensor:
        if h.shape[1] != s.shape[1]:
            raise ValueError(f"cosine width mismatch: h {h.shape}, s {s.shape}")
        product = ad.matmul(self.project(h), ad.transpose(self.project(s)))
        return ad.scale(product, 1.0 / self.temperature)


class PredictionHead:
    """Single linear layer to class logits."""

    def __init__(
        self,
        store: ParameterStore,
        name: str,
        in_dim: int,
        num_classes: int,
        rng: np.random.Generator,
    ):
        self.w = store.create(f"{name}.w", (in_dim, num_classes), rng)
        self.b = store.create(f"{name}.b", (1, num_classes), rng, fan_in=in_dim)

    def __call__(self, s: Tensor) -> Tensor:
        return ad.affine(s, self.w, self.b)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Softmax cross-entropy of each row of ``(B, C)`` logits against its
    integer label (one label per row); one loss per row, ``(B, 1)``."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    rows, classes = logits.shape
    if labels.size != rows:
        raise ValueError(f"{labels.size} labels for {rows} logit rows")
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {classes} classes")
    picks = np.zeros(logits.shape)
    picks[np.arange(rows), labels] = 1.0
    picked = ad.sum(ad.mul(logits, Tensor(picks)), 1)
    return ad.add(ad.logsumexp_rows(logits), ad.scale(picked, -1.0))
