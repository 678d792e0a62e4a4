"""Encoder, readouts, discriminators, and the prediction head.

The encoder is a two-layer mean-aggregating message passer with skip
connections: the first layer projects the input width to the hidden width
(skip via a linear projection of the input), the second uses an identity
skip.  Message passing is expressed with gather + segment-mean over a local
edge index, so isolated nodes receive a zero neighbor aggregate.
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
    """Two fully connected layers with a ReLU in between."""

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

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.relu(ad.add(ad.matmul(x, self.w1), self.b1))
        return ad.add(ad.matmul(h, self.w2), self.b2)


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
    """One mean-aggregation layer: relu(W_self h + W_neigh mean_nbrs) + skip."""

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
            agg_f = _aggregate(h, edges, n, weights)
            agg_r = _aggregate(h, edges[:, ::-1], n, weights)
            neigh = ad.concat(
                [ad.matmul(agg_f, self.w_fwd), ad.matmul(agg_r, self.w_rev)], 1
            )
        else:
            neigh = ad.matmul(_aggregate(h, edges, n, weights), self.w_neigh)
        out = ad.relu(ad.add(ad.matmul(h, self.w_self), neigh))
        skip = h if self.w_skip is None else ad.matmul(h, self.w_skip)
        return ad.add(out, skip)


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
    masked: frozenset[int] | set[int] | None = None,
    edge_weights: np.ndarray | None = None,
) -> Tensor:
    """Encode a node set with its edges; rows follow the order of ``node_ids``.

    ``table`` is the ``(num_nodes, feature_dim)`` input-feature parameter.
    ``edges`` is an ``(E, 2)`` int64 array of positions into ``node_ids``, as
    a ``SubgraphView`` holds them; ``gather_rows`` and ``segment_mean``
    reject a position outside ``node_ids``.  ``masked`` node ids get zeroed
    feature rows before encoding.
    """
    x = ad.gather_rows(table, node_ids)
    if masked:
        keep = np.array([[0.0] if n in masked else [1.0] for n in node_ids])
        x = ad.mul(x, Tensor(keep))
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


class MeanMlpReadout:
    """Permutation-invariant summary: mean pooling after a two-layer MLP.
    ``positions`` is ignored, so ``khop_forward`` calls either readout alike."""

    def __init__(self, store: ParameterStore, name: str, dim: int, rng: np.random.Generator):
        self.mlp = Mlp(store, name, dim, dim, dim, rng)

    def __call__(self, h: Tensor, positions=None) -> Tensor:
        if h.shape[0] < 1:
            raise ValueError("readout requires at least one node row")
        return ad.mean(self.mlp(h), 0)


class _SdpMixer:
    """Single-head scaled-dot-product pre-mixer (no layer normalization)."""

    def __init__(self, store: ParameterStore, name: str, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.w_q = store.create(f"{name}.w_q", (dim, dim), rng)
        self.w_k = store.create(f"{name}.w_k", (dim, dim), rng)
        self.w_v = store.create(f"{name}.w_v", (dim, dim), rng)

    def __call__(self, h: Tensor) -> Tensor:
        q = ad.matmul(h, self.w_q)
        k = ad.matmul(h, self.w_k)
        v = ad.matmul(h, self.w_v)
        attn = ad.softmax_rows(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(self.dim)))
        return ad.matmul(attn, v)


class GatedAttentionReadout:
    """Gated soft-attention pooling over a pluggable pre-mixer.

    ``s = sum_i sigmoid(gate(h_i)) * feat(h_i)`` after an optional sinusoidal
    positional encoding (order-aware) and a pre-mixer ("mlp", "attention", or
    None).  Without positions the result is permutation invariant.
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

    def __call__(self, h: Tensor, positions: Sequence[int] | None = None) -> Tensor:
        if h.shape[0] < 1:
            raise ValueError("readout requires at least one node row")
        if positions is not None:
            if len(positions) != h.shape[0]:
                raise ValueError(
                    f"{len(positions)} positions for {h.shape[0]} rows"
                )
            pe = sinusoidal_encoding(positions, self.dim)
            h = ad.add(h, Tensor(pe))
        if self.premixer is not None:
            h = self.premixer(h)
        return ad.sum(ad.mul(ad.sigmoid(self.gate(h)), self.feat(h)), 0)


class BilinearDiscriminator:
    """Pairing score h^T W s, linear in each argument.

    ``project(h)`` is ``h W``; ``score(p, s)`` scores projected rows against
    one summary.  Projecting once and scoring many summaries against it gives
    the same products as calling the discriminator on each pair.
    """

    def __init__(self, store: ParameterStore, name: str, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.w = store.create(name, (dim, dim), rng)

    def project(self, h: Tensor) -> Tensor:
        if h.shape[1] != self.dim:
            raise ValueError(f"discriminator width mismatch: h {h.shape}, dim {self.dim}")
        return ad.matmul(h, self.w)

    def score(self, p: Tensor, s: Tensor) -> Tensor:
        if s.shape != (1, self.dim):
            raise ValueError(f"discriminator width mismatch: s {s.shape}, dim {self.dim}")
        return ad.matmul(p, ad.transpose(s))

    def __call__(self, h: Tensor, s: Tensor) -> Tensor:
        return self.score(self.project(h), s)


class CosineDiscriminator:
    """Temperature-scaled cosine similarity ``unit(h) @ unit(s)^T / tau``;
    zero vectors score exactly 0.

    ``project(h)`` gives the unit rows, so a batch of candidates is
    normalised once and ``score`` scores all of it against a summary with
    one product.
    """

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

    def score(self, u: Tensor, s: Tensor) -> Tensor:
        if u.shape[1] != s.shape[1] or s.shape[0] != 1:
            raise ValueError(f"cosine width mismatch: h {u.shape}, s {s.shape}")
        product = ad.matmul(u, ad.transpose(self.project(s)))
        return ad.scale(product, 1.0 / self.temperature)

    def __call__(self, h: Tensor, s: Tensor) -> Tensor:
        return self.score(self.project(h), s)


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
        return ad.add(ad.matmul(s, self.w), self.b)


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Softmax cross-entropy of a (1, C) logit row against an integer label."""
    if not 0 <= label < logits.shape[1]:
        raise ValueError(f"label {label} out of range for {logits.shape[1]} classes")
    lse = ad.logsumexp_rows(logits)
    picked = ad.gather_rows(ad.transpose(logits), [label])
    return ad.add(lse, ad.scale(picked, -1.0))
