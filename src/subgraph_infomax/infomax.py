"""Mutual-information losses, negative samplers, graph augmentations,
and exact verification of the conditional divergence bound.

Sign conventions: both estimators are implemented as losses whose
minimization tightens the corresponding MI bound.  The contrastive
(InfoNCE-style) loss is the standard negated form: with one positive and K
equal-scoring negatives it equals ln(K+1) and it decreases strictly as any
positive score grows.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import SubgraphView

log = logging.getLogger(__name__)

PPR_DENSE_CAP = 2000


def gd_loss(pos_scores, neg_scores) -> Tensor:
    """Binary joint-vs-marginal discrimination loss.

    ``-mean(log sigmoid(pos)) - mean(log(1 - sigmoid(neg)))`` with the stable
    identity ``log(1 - sigmoid(x)) = log sigmoid(-x)``.  All scores equal to 0
    give exactly 2 ln 2.
    """
    pos, neg = ad.as_tensor(pos_scores), ad.as_tensor(neg_scores)
    if pos.values.size == 0 or neg.values.size == 0:
        raise ValueError("gd_loss needs at least one positive and one negative score")
    pos_term = ad.mean(ad.log_sigmoid(pos))
    neg_term = ad.mean(ad.log_sigmoid(ad.scale(neg, -1.0)))
    return ad.scale(ad.add(pos_term, neg_term), -1.0)


def infonce_loss(pos_scores, neg_scores_per_pos) -> Tensor:
    """Contrastive loss of one positive against its row of negatives.

    ``-mean_i [pos_i - log(exp(pos_i) + sum_j exp(neg_ij))]``, log-sum-exp
    stabilized.  Scores are expected to be already temperature-scaled.
    """
    pos = ad.as_tensor(pos_scores)
    negs = ad.as_tensor(neg_scores_per_pos)
    if pos.shape[1] != 1:
        if pos.shape[0] == 1:
            pos = ad.transpose(pos)
        else:
            raise ValueError(f"positive scores must be a vector, got {pos.shape}")
    if negs.values.size == 0:
        raise ValueError("infonce_loss needs at least one negative per positive")
    if negs.shape[0] != pos.shape[0]:
        raise ValueError(
            f"negative rows {negs.shape} do not match positives {pos.shape}"
        )
    lse = ad.logsumexp_rows(ad.concat([pos, negs], 1))
    return ad.mean(ad.add(lse, ad.scale(pos, -1.0)))


def khop_loss(pos_scores, neg_scores) -> Tensor:
    """Neighborhood-membership loss: one joint mean over all score terms.

    Unlike ``gd_loss`` (two per-side means), this normalizes positives and
    negatives together by the total term count.  With balanced all-zero sides
    it equals ln 2.  One empty side is tolerated with a warning; both empty is
    an error.
    """
    pos = ad.as_tensor(pos_scores) if pos_scores is not None else None
    neg = ad.as_tensor(neg_scores) if neg_scores is not None else None
    n_pos = 0 if pos is None else pos.values.size
    n_neg = 0 if neg is None else neg.values.size
    if n_pos == 0 and n_neg == 0:
        raise ValueError("khop_loss needs at least one score on one side")
    if n_pos == 0 or n_neg == 0:
        log.warning("khop_loss computed with an empty %s side", "positive" if n_pos == 0 else "negative")
    terms = []
    if n_pos:
        terms.append(ad.sum(ad.log_sigmoid(pos)))
    if n_neg:
        terms.append(ad.sum(ad.log_sigmoid(ad.scale(neg, -1.0))))
    total = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    return ad.scale(total, -1.0 / (n_pos + n_neg))


def shuffle_negatives(h: Tensor, rng: np.random.Generator) -> Tensor:
    """Row-wise shuffle corruption; a single row is returned unchanged."""
    h = ad.as_tensor(h)
    n = h.shape[0]
    if n == 1:
        return h
    return ad.gather_rows(h, rng.permutation(n))


def cross_subgraph_negatives(encoded: Sequence[Tensor], target_index: int) -> Tensor:
    """Stack the node rows of every non-target batch member."""
    if len(encoded) < 2:
        raise ValueError(
            "cross-subgraph negatives need a batch of at least 2 subgraphs"
        )
    if not 0 <= target_index < len(encoded):
        raise ValueError(f"target index {target_index} out of range")
    others = [h for i, h in enumerate(encoded) if i != target_index]
    return others[0] if len(others) == 1 else ad.concat(others, 0)


def _node_drop(view: SubgraphView, p: float, rng: np.random.Generator) -> SubgraphView:
    keep = rng.random(len(view.node_ids)) >= p
    if not keep.any():
        keep[rng.integers(keep.size)] = True  # forced retention of one node
    return view.restrict(keep)


def _edge_perturb(view: SubgraphView, p: float, rng: np.random.Generator) -> SubgraphView:
    edges = list(map(tuple, view.edges.tolist()))
    keep = rng.random(len(edges)) >= p
    surviving = [e for e, k in zip(edges, keep) if k]
    n_add = int(rng.binomial(len(edges), p)) if edges else 0
    present = set(edges)
    n = len(view.node_ids)
    added = attempts = 0
    while added < n_add and attempts < 50 * max(n_add, 1) and n > 1:
        u, v = rng.choice(n, size=2, replace=False)
        cand = (int(u), int(v))
        if cand not in present:
            present.add(cand)
            surviving.append(cand)
            added += 1
        attempts += 1
    return SubgraphView(
        node_ids=view.node_ids,
        edges=np.array(sorted(surviving), dtype=np.int64).reshape(-1, 2),
        masked=view.masked,
    )


def _attr_mask(view: SubgraphView, p: float, rng: np.random.Generator) -> SubgraphView:
    flips = rng.random(len(view.node_ids)) < p
    masked = set(view.masked)
    masked.update(n for n, f in zip(view.node_ids, flips) if f)
    return SubgraphView(view.node_ids, view.edges, frozenset(masked))


_AUGMENTATIONS = {"node-drop": _node_drop, "edge-perturb": _edge_perturb, "attr-mask": _attr_mask}


def augment(variant: str, view: SubgraphView, p: float, rng: np.random.Generator) -> SubgraphView:
    """Apply the named augmentation with probability ``p``; the result is a valid view."""
    if variant not in _AUGMENTATIONS:
        raise ValueError(f"unknown augmentation: {variant!r}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"augmentation probability must be in [0, 1), got {p}")
    return _AUGMENTATIONS[variant](view, p, rng)


class PprDiffusion(NamedTuple):
    matrix: np.ndarray
    edges: np.ndarray
    weights: np.ndarray


def ppr_diffusion(
    edges: np.ndarray | Sequence[tuple[int, int]],
    n: int,
    alpha: float,
    top_t: int,
) -> PprDiffusion:
    """Dense personalized-PageRank propagation over local node ids 0..n-1.

    Solves ``alpha * (I - (1 - alpha) * D^{-1/2} (A + I) D^{-1/2})^{-1}``
    after symmetrizing the input and forcing self-loops, then keeps the
    ``top_t`` largest entries per row as weighted ``(E, 2)`` edges (source =
    column, target = row), row by row with columns ascending.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if top_t < 1:
        raise ValueError(f"top_t must be >= 1, got {top_t}")
    if n > PPR_DENSE_CAP:
        raise ValueError(
            f"{n} nodes exceed the dense solve cap of {PPR_DENSE_CAP}; subsample the input first"
        )
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        u, v = pairs[np.argmax(bad)].tolist()
        raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
    a = np.zeros((n, n))
    a[pairs[:, 0], pairs[:, 1]] = a[pairs[:, 1], pairs[:, 0]] = 1.0
    np.fill_diagonal(a, 1.0)
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    s = d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]
    pi = alpha * np.linalg.inv(np.eye(n) - (1.0 - alpha) * s)

    t = min(top_t, n)
    cols = np.sort(np.argpartition(-pi, t - 1, axis=1)[:, :t], axis=1)
    kept = np.column_stack([cols.ravel(), np.repeat(np.arange(n), t)])
    return PprDiffusion(pi, kept, np.take_along_axis(pi, cols, axis=1).ravel())


def ppr_view(view: SubgraphView, alpha: float, top_t: int) -> SubgraphView:
    """The diffusion-graph view of a subgraph: weighted edges from dense PPR."""
    diffusion = ppr_diffusion(view.edges, len(view.node_ids), alpha, top_t)
    return SubgraphView(
        node_ids=view.node_ids,
        edges=diffusion.edges,
        masked=view.masked,
        edge_weights=diffusion.weights,
    )


class CgdBound(NamedTuple):
    i_gd: float
    i_cgd: float
    holds: bool


def verify_cgd_bound(score_table, joint, tolerance: float = 1e-12) -> CgdBound:
    """Exact check that conditioning negatives on high-similarity candidates
    lower-bounds the divergence objective.

    Both objectives share the positive term ``E_{p(x,y)} log sigmoid(f)``.
    The unconditional one draws negatives from the marginal ``p(y)``; the
    conditional one restricts and renormalizes ``p(y)`` to
    ``{y : e^{f(x,y)} >= E_{p(y)} e^{f(x,y)}}`` (the maximizer always
    qualifies, so the set is never empty).  Returns both values and whether
    ``i_cgd <= i_gd + tolerance``.
    """
    f = np.asarray(score_table, dtype=np.float64)
    p = np.asarray(joint, dtype=np.float64)
    if f.ndim != 2 or p.shape != f.shape:
        raise ValueError(f"score table {f.shape} and joint {p.shape} must match")
    if f.shape[0] > 8 or f.shape[1] > 8:
        raise ValueError("exact enumeration is limited to 8x8 tables")
    if (p <= 0).any():
        raise ValueError("the joint distribution must be strictly positive")
    p = p / p.sum()
    px = p.sum(axis=1)
    py = p.sum(axis=0)

    log_sig = -np.logaddexp(0.0, -f)          # log sigmoid(f)
    log_one_minus = -np.logaddexp(0.0, f)     # log (1 - sigmoid(f))
    pos_term = float((p * log_sig).sum())

    ef = np.exp(f)
    thresholds = ef @ py                       # E_{p(y)} e^{f(x, .)} per x
    gd_neg = float(px @ (log_one_minus @ py))

    cgd_neg = 0.0
    for x in range(f.shape[0]):
        mask = ef[x] >= thresholds[x]
        if not mask.any():
            # Exact arithmetic guarantees the maximizer qualifies; rounding in
            # the threshold must not be allowed to empty the candidate set.
            mask = ef[x] == ef[x].max()
        q = py * mask
        q = q / q.sum()
        cgd_neg += px[x] * float(q @ log_one_minus[x])

    i_gd = pos_term + gd_neg
    i_cgd = pos_term + cgd_neg
    return CgdBound(i_gd=i_gd, i_cgd=i_cgd, holds=i_cgd <= i_gd + tolerance)


def cgd_random_trials(
    trials: int,
    rng: np.random.Generator,
    max_size: int = 8,
    tolerance: float = 1e-12,
) -> int:
    """Run random bound checks; returns the number of violations (expect 0)."""
    violations = 0
    for _ in range(trials):
        nx = int(rng.integers(1, max_size + 1))
        ny = int(rng.integers(1, max_size + 1))
        scores = rng.normal(0.0, 2.0, size=(nx, ny))
        joint = rng.random((nx, ny)) + 1e-3
        if not verify_cgd_bound(scores, joint, tolerance).holds:
            violations += 1
    return violations
