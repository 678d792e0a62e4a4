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
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import SubgraphView, ViewUnion, _sorted_unique

log = logging.getLogger(__name__)

PPR_DENSE_CAP = 2000


def gd_loss(pos: Tensor, neg: Tensor, pos_mask=None, neg_mask=None) -> Tensor:
    """Binary joint-vs-marginal discrimination loss.

    ``-mean(log sigmoid(pos)) - mean(log(1 - sigmoid(neg)))`` with the stable
    identity ``log(1 - sigmoid(x)) = log sigmoid(-x)``.  All scores equal to 0
    give exactly 2 ln 2.

    Without masks the means run over every score, giving one ``(1, 1)``
    loss.  With boolean ``(N, B)`` masks the scores broadcast to that shape
    and each column is one segment: its means run over the entries its mask
    column selects, giving one loss per segment, ``(B, 1)``.
    """
    pos_term = _segment_means(ad.log_sigmoid(pos), pos_mask)
    neg_term = _segment_means(ad.log_sigmoid(ad.scale(neg, -1.0)), neg_mask)
    return ad.transpose(ad.scale(ad.add(pos_term, neg_term), -1.0))


def _segment_means(values: Tensor, mask: np.ndarray | None) -> Tensor:
    """``(1, B)``: per column of ``mask``, the mean of the entries it selects;
    ``(1, 1)``, the mean of every entry, with no mask."""
    if mask is None:
        if values.values.size == 0:
            raise ValueError("gd_loss needs at least one positive and one negative score")
        return ad.mean(values)
    counts = mask.sum(axis=0, keepdims=True)
    if not counts.all():
        raise ValueError("gd_loss needs at least one positive and one negative score per segment")
    return ad.div(ad.sum(ad.mul(values, Tensor(mask.astype(np.float64))), 0), Tensor(counts))


def infonce_loss(pos: Tensor, negs: Tensor) -> Tensor:
    """Contrastive loss of each positive against its row of negatives.

    ``pos_i - log(exp(pos_i) + sum_j exp(neg_ij))``, negated and
    log-sum-exp stabilized, one row per positive: ``(n, 1)``; ``ad.mean``
    of it is the usual batch loss.  Scores are expected to be already
    temperature-scaled.  A negative of ``-inf`` takes no part.
    """
    if pos.shape[1] != 1:
        raise ValueError(f"positive scores must be a column (n, 1), got {pos.shape}")
    if negs.values.size == 0:
        raise ValueError("infonce_loss needs at least one negative per positive")
    if negs.shape[0] != pos.shape[0]:
        raise ValueError(
            f"negative rows {negs.shape} do not match positives {pos.shape}"
        )
    lse = ad.logsumexp_rows(ad.concat([pos, negs], 1))
    return ad.add(lse, ad.scale(pos, -1.0))


def khop_loss(scores: Tensor, member, segments=None, count: int = 1) -> Tensor:
    """Neighborhood-membership loss, one per segment: ``(count, 1)``.

    ``scores`` is ``(N, 1)``; row ``r`` is a positive when ``member[r]``
    and a negative otherwise, and belongs to segment ``segments[r]`` (all to
    segment 0 by default).  A segment's loss is one joint mean over its
    rows of ``-log sigmoid(score)`` for positives and ``-log sigmoid(-score)``
    for negatives: unlike ``gd_loss`` (two per-side means), it normalizes
    both sides together by the segment's row count.  All-zero scores give
    ln 2 per segment.  A segment with one empty side is tolerated with a
    warning; a segment without rows is an error.
    """
    member = np.asarray(member, dtype=bool).reshape(-1)
    if scores.shape != (member.size, 1):
        raise ValueError(f"khop_loss: scores {scores.shape} for {member.size} membership flags")
    seg = np.zeros(member.size, dtype=np.int64) if segments is None else segments
    sign = np.where(member, 1.0, -1.0)[:, None]
    loss = ad.scale(ad.segment_mean(ad.log_sigmoid(ad.mul(scores, Tensor(sign))), seg, count), -1.0)
    rows = np.bincount(seg, minlength=count)
    positives = np.bincount(seg, weights=member, minlength=count)
    if not rows.all():
        raise ValueError("khop_loss needs at least one score in every segment")
    for i in np.flatnonzero((positives == 0) | (positives == rows)):
        side = "positive" if positives[i] == 0 else "negative"
        log.warning("khop_loss computed with an empty %s side (segment %d)", side, i)
    return loss


def shuffle_negatives(
    tensors: Sequence[Tensor], sizes: Sequence[int], rng: np.random.Generator
) -> list[Tensor]:
    """Row-wise shuffle corruption within segments: each tensor's rows
    permuted inside every run of ``sizes`` rows, so a row stays in its
    record.  Segment by segment, one ``rng.permutation`` per tensor, as
    each record drew them in turn; a one-row segment draws nothing."""
    bounds = np.cumsum(sizes)
    rows = [[] for _ in tensors]
    for lo, hi in zip(bounds - sizes, bounds):
        for index in rows:
            index.append(lo + rng.permutation(hi - lo))
    return [ad.gather_rows(t, np.concatenate(index)) for t, index in zip(tensors, rows)]


def cross_subgraph_negatives(segments: np.ndarray, count: int) -> np.ndarray:
    """The ``(N, count)`` negative mask of a union's rows: row ``r`` is a
    negative for every batch member but its own, ``segments[r]``."""
    if count < 2:
        raise ValueError(
            "cross-subgraph negatives need a batch of at least 2 subgraphs"
        )
    segments = np.asarray(segments, dtype=np.int64)
    if segments.size and (segments.min() < 0 or segments.max() >= count):
        raise ValueError(f"segment id out of range [0, {count})")
    return segments[:, None] != np.arange(count)


def _node_drop(union: ViewUnion, p: float, rng: np.random.Generator) -> ViewUnion:
    keep = rng.random(len(union.node_ids)) >= p
    sizes = np.asarray(union.sizes)
    empty = np.flatnonzero(np.bincount(union.segments[keep], minlength=union.count) == 0)
    if empty.size:  # forced retention of one row in each emptied segment
        keep[(np.cumsum(sizes) - sizes)[empty] + rng.integers(0, sizes[empty])] = True
    rank = np.cumsum(keep) - keep  # kept rows before each row
    segments = union.segments[keep]
    return ViewUnion(
        node_ids=union.node_ids[keep],
        edges=rank[union.edges[keep[union.edges].all(axis=1)]],
        segments=segments,
        sizes=np.bincount(segments, minlength=union.count).tolist(),
        masked=None if union.masked is None else union.masked[keep],
    )


def _edge_perturb(union: ViewUnion, p: float, rng: np.random.Generator) -> ViewUnion:
    """Drop each edge with probability ``p``, then add to each segment a
    ``Binomial(its edges, p)`` count of directed pairs ``u != v`` absent from
    its edges before the drop: its first fresh candidates in draw order,
    under a cap of ``50 * max(count, 1)`` candidate draws."""
    n = len(union.node_ids)
    sizes = np.asarray(union.sizes)
    starts = np.cumsum(sizes) - sizes
    codes = union.edges[:, 0] * n + union.edges[:, 1]
    kept = codes[rng.random(codes.size) >= p]
    want = rng.binomial(np.bincount(union.segments[union.edges[:, 0]], minlength=union.count), p)
    want[sizes < 2] = 0
    taken = _sorted_unique(codes)
    src, dst = np.divmod(taken, n)
    off_diagonal = np.bincount(union.segments[src[src != dst]], minlength=union.count)
    free = sizes * (sizes - 1) - off_diagonal  # absent pairs left in each segment
    draws = 50 * np.maximum(want, 1)  # candidate draws left
    added = [kept]
    while True:
        seg = np.flatnonzero((want > 0) & (draws > 0) & (free > 0))
        if not seg.size:
            break
        # About twice the draws the acceptance rate needs, so most segments
        # finish in one round.
        pairs = sizes[seg] * (sizes[seg] - 1)
        count = np.minimum(draws[seg], -(-2 * want[seg] * pairs // free[seg]))
        block = np.repeat(np.arange(seg.size), count)
        m = sizes[seg][block]
        u, v = np.divmod(rng.integers(0, m * (m - 1)), m - 1)
        v += v >= u
        base = starts[seg][block]
        cand = (base + u) * n + base + v
        # Fresh: not taken, and the first of its repeats in this round.
        order = np.argsort(cand, kind="stable")
        fresh = np.ones(cand.size, dtype=bool)
        fresh[order[1:][cand[order[1:]] == cand[order[:-1]]]] = False
        fresh &= taken[np.minimum(np.searchsorted(taken, cand), taken.size - 1)] != cand
        # Each segment keeps its first ``want`` fresh candidates.  One that
        # keeps fewer has spent every draw of the round; one that keeps
        # ``want`` is done, so its unused draws need no count.
        rank = np.cumsum(fresh)
        rank -= np.concatenate([[0], rank])[np.cumsum(count) - count][block]
        accept = fresh & (rank <= want[seg][block])
        gained = np.bincount(block[accept], minlength=seg.size)
        want[seg] -= gained
        free[seg] -= gained
        draws[seg] -= count
        added.append(cand[accept])
        taken = np.sort(np.concatenate([taken, cand[accept]]))
    all_codes = np.sort(np.concatenate(added))
    return union._replace(edges=np.column_stack(np.divmod(all_codes, n)), edge_weights=None)


def _attr_mask(union: ViewUnion, p: float, rng: np.random.Generator) -> ViewUnion:
    flags = rng.random(len(union.node_ids)) < p
    return union._replace(masked=flags if union.masked is None else union.masked | flags)


_AUGMENTATIONS = {"node-drop": _node_drop, "edge-perturb": _edge_perturb, "attr-mask": _attr_mask}


def augment(variant: str, union: ViewUnion, p: float, rng: np.random.Generator) -> ViewUnion:
    """Apply the named augmentation with probability ``p`` to every view of
    the union at once; each segment of the result is a valid view."""
    if variant not in _AUGMENTATIONS:
        raise ValueError(f"unknown augmentation: {variant!r}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"augmentation probability must be in [0, 1), got {p}")
    return _AUGMENTATIONS[variant](union, p, rng)


def ppr_view(view: SubgraphView, alpha: float, top_t: int) -> SubgraphView:
    """The diffusion-graph view of a subgraph: weighted edges from dense
    personalized-PageRank propagation over its ``n`` nodes.

    Solves ``alpha * (I - (1 - alpha) * D^{-1/2} (A + I) D^{-1/2})^{-1}``
    after symmetrizing the view's edges and forcing self-loops, then keeps
    the ``top_t`` largest entries per row as weighted ``(E, 2)`` edges
    (source = column, target = row), row by row with columns ascending.
    """
    n = len(view.node_ids)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if top_t < 1:
        raise ValueError(f"top_t must be >= 1, got {top_t}")
    if n > PPR_DENSE_CAP:
        raise ValueError(
            f"{n} nodes exceed the dense solve cap of {PPR_DENSE_CAP}; subsample the input first"
        )
    pairs = np.asarray(view.edges, dtype=np.int64).reshape(-1, 2)
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
    return SubgraphView(
        node_ids=view.node_ids,
        edges=np.column_stack([cols.ravel(), np.repeat(np.arange(n), t)]),
        edge_weights=np.take_along_axis(pi, cols, axis=1).ravel(),
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
