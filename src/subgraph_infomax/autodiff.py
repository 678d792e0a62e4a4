"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value on the tape is a 2-D matrix; scalars are 1x1 and vectors are
single-row or single-column matrices.  Operations record a backward closure
on the output node, and ``backward`` walks the tape in reverse topological
order, accumulating gradients additively into every node that requires them.

Ops take ``Tensor``s, and ``Tensor(values, requires_grad)`` is the one way
onto the tape for a numpy array or a float.  ``sum`` and ``mean`` keep the
reduced axis: over axis 0 an (n, m) input gives (1, m), over axis 1 it
gives (n, 1), and over ``None`` (every entry) it gives (1, 1).

Inside a ``with no_grad():`` scope every op returns a constant: its output
records no parents and keeps no backward closure, whatever its inputs
require, so no tape is built.  Evaluation runs under it.  The scope
touches no tensor: parameters keep their ``requires_grad`` and ``grad``.

A tape is single-threaded.  Independent tapes (one per training run) may be
used concurrently because nodes share no mutable state across tapes; the
no-grad flag is held per thread, so a scope in one thread leaves another
thread's tape recording.
"""

from __future__ import annotations

import builtins
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray
_EPS = float(np.finfo(np.float64).eps)
# ``finite_diff_check`` measures a coordinate that reads above this again
# with smaller steps.
_KINK_RETRY = 1e-6

__all__ = [
    "Tensor",
    "backward",
    "matmul",
    "affine",
    "sage_combine",
    "add",
    "mul",
    "div",
    "scale",
    "relu",
    "sigmoid",
    "sqrt",
    "log_sigmoid",
    "softmax_rows",
    "segment_softmax",
    "logsumexp_rows",
    "sum",
    "mean",
    "concat",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "neighbor_mean",
    "transpose",
    "dropout",
    "clip_min",
    "finite_diff_check",
]


def _as_matrix(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"expected a scalar, vector, or matrix, got shape {arr.shape}")
    return arr


class Tensor:
    """A tape node: a float64 matrix, an optional gradient slot, parent links."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()
_new_tensor = object.__new__


class no_grad:
    """Scope in which ops record no tape (see the module docstring); scopes
    nest, and leaving one, also by an exception, restores the thread's
    previous mode."""

    def __enter__(self) -> None:
        self._previous = _grad_mode.enabled
        _grad_mode.enabled = False

    def __exit__(self, *exc) -> None:
        _grad_mode.enabled = self._previous


def _make(values: Array, parents: tuple[Tensor, ...], backward_rule) -> Tensor:
    """An op's output node.  Every op computes a float64 matrix, so the node
    is built without ``Tensor.__init__``'s conversion and shape checks."""
    node = _new_tensor(Tensor)
    node.values = values
    node.grad = None
    if _grad_mode.enabled:
        for p in parents:
            if p.requires_grad:
                node.requires_grad = True
                node._parents = parents
                node._backward = backward_rule
                return node
    node.requires_grad = False
    node._parents = ()
    node._backward = None
    return node


def _accum(t: Tensor, g) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # g + 0.0 equals 0.0 + g bit for bit (-0.0 becomes 0.0), without
        # zero-filling a buffer first.
        t.grad = np.add(g, 0.0, out=np.empty_like(t.values))
    else:
        t.grad += g


def _scatter_sum(values: Array, seg: Array, n: int) -> Array:
    """``n`` rows: row ``i`` sums the rows of ``values`` whose ``seg`` is ``i``.

    ``np.bincount`` adds the weights in input order, starting from 0.0: the
    same float additions, in the same order, as an unbuffered in-place
    scatter-add into zeros, so it matches one bit for bit.  (With no input
    it returns integer zeros, hence the cast.)
    """
    d = values.shape[1]
    codes = (seg[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(codes, weights=values.ravel(), minlength=n * d)
    return sums.astype(np.float64, copy=False).reshape(n, d)


def _unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    if g.shape == shape:
        return g
    for axis in (0, 1):
        if shape[axis] == 1 and g.shape[axis] > 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = a.values @ b.values

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, g @ b.values.T)
        if b.requires_grad:
            _accum(b, a.values.T @ g)

    return _make(out, (a, b), bwd)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a ``(1, out)`` bias row: one node, the same bytes
    as ``add(matmul(x, w), b)``."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"affine: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    out = x.values @ w.values
    out += b.values

    def bwd(g: Array) -> None:
        if x.requires_grad:
            _accum(x, g @ w.values.T)
        if w.requires_grad:
            _accum(w, x.values.T @ g)
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out, (x, w, b), bwd)


def sage_combine(
    h: Tensor,
    w_self: Tensor,
    parts: Sequence[tuple[Tensor, Tensor]],
    w_skip: Tensor | None,
) -> Tensor:
    """One SAGE layer after its aggregation:
    ``relu(h W_self + [agg_1 W_1 | agg_2 W_2 | ...]) + skip``.

    ``parts`` pairs each neighbour aggregate with its weight; their outputs
    fill the columns left to right.  The skip is ``h W_skip``, or ``h``
    itself when ``w_skip`` is None.  The forward bytes equal those of the
    composed ``matmul``, ``concat``, ``add`` and ``relu``.  The backward
    adds into ``h`` as the composed ops did with an identity skip (skip,
    then self term, then the aggregation, whose backward runs later).  A
    projected skip's term comes right after the self term; the composed ops
    added it after the aggregation's, an order no single node can keep, so
    the sum of the three can differ in its last bits.
    """
    width = builtins.sum(w.shape[1] for _, w in parts)
    if width != w_self.shape[1]:
        raise ValueError(f"sage_combine: parts fill {width} of {w_self.shape[1]} columns")
    out = h.values @ w_self.values
    lo = 0
    for agg, w in parts:
        hi = lo + w.shape[1]
        out[:, lo:hi] += agg.values @ w.values
        lo = hi
    mask = out > 0
    _relu_values(out, out=out)
    out += h.values if w_skip is None else h.values @ w_skip.values

    def bwd(g: Array) -> None:
        if w_skip is None:
            _accum(h, g)
        g_pre = g * mask
        if h.requires_grad:
            _accum(h, g_pre @ w_self.values.T)
        if w_self.requires_grad:
            _accum(w_self, h.values.T @ g_pre)
        lo = 0
        for agg, w in parts:
            hi = lo + w.shape[1]
            g_part = g_pre[:, lo:hi]
            if agg.requires_grad:
                _accum(agg, g_part @ w.values.T)
            if w.requires_grad:
                _accum(w, agg.values.T @ g_part)
            lo = hi
        if w_skip is not None:
            if h.requires_grad:
                _accum(h, g @ w_skip.values.T)
            if w_skip.requires_grad:
                _accum(w_skip, h.values.T @ g)

    parents = (h, w_self, *(t for part in parts for t in part))
    return _make(out, parents if w_skip is None else (*parents, w_skip), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = a.values + b.values

    def bwd(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out = a.values * b.values

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.values, b.shape))

    return _make(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    out = a.values / b.values

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.values, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.values / (b.values * b.values), b.shape))

    return _make(out, (a, b), bwd)


def scale(a: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)
    out = a.values * alpha

    def bwd(g: Array) -> None:
        _accum(a, g * alpha)

    return _make(out, (a,), bwd)


def _relu_values(x: Array, out: Array | None = None) -> Array:
    """``np.where(x > 0, x, 0.0)``, bit for bit, without the data-dependent
    select (about 4x faster at 2,586 x 64).  ``fmax`` maps NaN of either sign
    to 0.0, unlike ``maximum``; adding 0.0 turns the -0.0 it may return for
    -0.0 into +0.0."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    out = _relu_values(a.values)

    def bwd(g: Array) -> None:
        _accum(a, g * mask)

    return _make(out, (a,), bwd)


def _sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)

    def bwd(g: Array) -> None:
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)

    def bwd(g: Array) -> None:
        _accum(a, g * 0.5 / out)

    return _make(out, (a,), bwd)


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigma(x)) = -softplus(-x), stable for large |x|."""
    out = -np.logaddexp(0.0, -a.values)

    def bwd(g: Array) -> None:
        _accum(a, g * _sigmoid(-a.values))

    return _make(out, (a,), bwd)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g: Array) -> None:
        inner = (g * out).sum(axis=1, keepdims=True)
        _accum(a, out * (g - inner))

    return _make(out, (a,), bwd)


def segment_softmax(a: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax of each column over the rows of each segment: entry ``(r, c)``
    is ``exp(a[r, c])`` over the sum of ``exp`` down column ``c`` of row
    ``r``'s segment, each segment shifted by its own maximum.  The rows of
    one segment need not be adjacent; an empty segment has no row."""
    seg = _segment_ids("segment_softmax", a, segments, num_segments)
    top = np.full((num_segments, a.shape[1]), -np.inf)
    np.maximum.at(top, seg, a.values)
    e = np.exp(a.values - top[seg])
    out = e / _scatter_sum(e, seg, num_segments)[seg]

    def bwd(g: Array) -> None:
        inner = _scatter_sum(g * out, seg, num_segments)[seg]
        _accum(a, out * (g - inner))

    return _make(out, (a,), bwd)


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp, shape (n, 1)."""
    m = a.values.max(axis=1, keepdims=True)
    e = np.exp(a.values - m)
    out = m + np.log(e.sum(axis=1, keepdims=True))

    def bwd(g: Array) -> None:
        _accum(a, g * (e / e.sum(axis=1, keepdims=True)))

    return _make(out, (a,), bwd)


def sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Add over ``axis`` (every entry for ``None``), keeping it as size 1."""
    out = a.values.sum(axis=axis, keepdims=True)

    def bwd(g: Array) -> None:
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(out, (a,), bwd)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    """Average over ``axis`` (every entry for ``None``), keeping it as size 1."""
    count = a.values.size if axis is None else a.shape[axis]
    out = a.values.sum(axis=axis, keepdims=True) / count

    def bwd(g: Array) -> None:
        _accum(a, np.broadcast_to(g / count, a.shape))

    return _make(out, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join ``parts`` along ``axis``: 0 stacks rows, 1 stacks columns."""
    parts = tuple(parts)
    if len({p.shape[1 - axis] for p in parts}) > 1:
        raise ValueError(
            f"concat: shapes differ off axis {axis}: {[p.shape for p in parts]}"
        )
    out = np.concatenate([p.values for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bwd(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _make(out, parts, bwd)


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(
            f"gather_rows: index out of range for {a.shape[0]} rows: "
            f"[{idx.min()}, {idx.max()}]"
        )
    out = a.values[idx]
    # Row compaction sums ``g`` per distinct row and adds into those rows
    # only.  Timed per call (numpy 2.4, 8- and 64-dim sources, 16 rows read):
    # compaction costs a flat 30-35 us and the dense scatter about 10 us plus
    # 1 ns per source value, so dense wins up to 32,768 source values.  With
    # more rows read, compaction stops paying between 8 and 4 source rows per
    # row read (1,024 rows) or between 4 and 2 (5,000 rows).  Small views
    # stay dense; a large embedding table read at few rows compacts.
    compact = a.values.size > 1 << 15 and a.shape[0] > 4 * idx.size

    def bwd(g: Array) -> None:
        if not compact:
            _accum(a, _scatter_sum(g, idx, a.shape[0]))
            return
        rows, inverse = np.unique(idx, return_inverse=True)
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        # The grad never holds -0.0 (``_accum`` adds 0.0 on first touch), so
        # leaving untouched rows alone equals adding the dense zeros to them.
        a.grad[rows] += _scatter_sum(g, inverse, rows.size)

    return _make(out, (a,), bwd)


def _segment_ids(op: str, a: Tensor, segments, num_segments: int) -> Array:
    seg = np.asarray(segments, dtype=np.int64).reshape(-1)
    if seg.size != a.shape[0]:
        raise ValueError(f"{op}: {seg.size} segment ids for {a.shape[0]} rows")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ValueError(f"{op}: segment id out of range [0, {num_segments})")
    return seg


def segment_sum(a: Tensor, segments, num_segments: int) -> Tensor:
    seg = _segment_ids("segment_sum", a, segments, num_segments)
    out = _scatter_sum(a.values, seg, num_segments)

    def bwd(g: Array) -> None:
        _accum(a, g[seg])

    return _make(out, (a,), bwd)


def segment_mean(a: Tensor, segments, num_segments: int) -> Tensor:
    """Per-segment row averages; empty segments yield zero rows."""
    seg = _segment_ids("segment_mean", a, segments, num_segments)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    denom = np.maximum(counts, 1.0)[:, None]
    out = _scatter_sum(a.values, seg, num_segments)
    out /= denom

    def bwd(g: Array) -> None:
        _accum(a, (g / denom)[seg])

    return _make(out, (a,), bwd)


# A plan side sums by rounds from this many edges, and only with at least
# this many rows per round on average; below either it calls
# ``_scatter_sum``.  Timed on a 2-vCPU Intel Xeon (numpy 2.4, 1 thread,
# medians of 40 calls): a round costs a flat 1.5-2 us, so a 20,000-edge star
# (one row, one entry per round) takes 36 ms by rounds against 4 ms by
# bincount at width 32.  At 8,192 edges the two break even near 24 rows per
# round at width 32 and below 16 at width 64.  On random unions of mean
# degree 5, a training step's four aggregations (widths 32 and 64) with the
# plan take 0.21 ms by rounds against 0.19 ms by bincount at 256 edges,
# 0.29 against 0.60 at 512 and 3.8 against 11.4 at 11,000.
_ROUND_MIN_EDGES = 1 << 9
_ROUND_MIN_ROWS = 1 << 5


class _Side:
    """One direction of an edge set: row ``keys[e]`` sums row ``other[e]``
    of a value matrix over the edges ``e``, in edge order.

    Large enough (``_ROUND_MIN_EDGES`` and ``_ROUND_MIN_ROWS``), it sums
    by rounds over a jagged-diagonal layout (Saad 1989), built on first
    use: the rows in order of descending entry count, and round ``k``
    holding the ``k``-th entry, in edge order, of every row with more than
    ``k``.  Those rows come first in that order, so a round adds into a
    prefix of the rows.  Each row adds its entries in edge order starting
    from 0.0, the float additions ``_scatter_sum`` makes, so the bytes are
    the same; and no round holds more than one value row per output row.
    """

    def __init__(self, keys: Array, other: Array, n: int):
        self.keys, self.other, self.n = keys, other, n
        self.counts = np.bincount(keys, minlength=n)
        e = len(keys)
        self.by_rounds = e > 0 and e >= _ROUND_MIN_EDGES and e >= _ROUND_MIN_ROWS * self.counts.max()
        self._layout = None

    def _build(self) -> tuple[Array, list[int], Array, Array]:
        keys, counts, n, e = self.keys, self.counts, self.n, len(self.keys)
        # Sorting the unique codes key * E + edge orders the edges by key,
        # then by edge; the code mod E reads each edge id back.
        by_key = np.sort(keys * e + np.arange(e)) % e
        sorted_keys = keys[by_key]
        rank = np.arange(e) - (np.cumsum(counts) - counts)[sorted_keys]
        rows = np.sort(-counts * n + np.arange(n)) % n
        position = np.empty(n, dtype=np.int64)
        position[rows] = np.arange(n)
        # Round k holds every row with more than k entries.
        widths = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
        bounds = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, out=bounds[1:])
        perm = np.empty(e, dtype=np.int64)
        perm[bounds[rank] + position[sorted_keys]] = by_key
        return rows[: widths[0]], bounds.tolist(), self.other[perm], perm

    def sum(self, values: Array, coeff: Array | None = None) -> Array:
        """``n`` rows: row ``i`` sums ``values[other[e]]`` (times
        ``coeff[e]``) over the edges ``e`` with ``keys[e] == i``."""
        if self.by_rounds:
            if self._layout is None:
                self._layout = self._build()
            rows, bounds, gather, perm = self._layout
            scale = None if coeff is None else coeff[perm][:, None]
            acc = values[gather[: bounds[1]]]
            if scale is not None:
                acc *= scale[: bounds[1]]
            acc += 0.0  # the sum starts from +0.0, as in ``_scatter_sum``
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                part = values[gather[lo:hi]]
                if scale is not None:
                    part *= scale[lo:hi]
                acc[: hi - lo] += part
            # Where two NaNs meet, numpy's vector loop keeps the first and
            # its remainder loop the second, and ``np.bincount`` the first:
            # a NaN sum is made again by ``_scatter_sum`` for its sign.
            if not np.isnan(acc.max()):
                out = np.zeros((self.n, values.shape[1]))
                out[rows] = acc
                return out
        messages = values[self.other]
        if coeff is not None:
            messages *= coeff[:, None]
        return _scatter_sum(messages, self.keys, self.n)


class _AggregationPlan:
    """The edges ``(u, v)`` over ``num_rows`` rows for ``neighbor_mean``,
    checked once, with the per-row divisor or (with ``weights``) each
    edge's weight over its target's total, a total below 1e-12 counting as
    1e-12.

    One plan serves every aggregation over its edges, forward and backward.
    The forward sums by target, the backward by source; each direction's
    layout is built the first time it is used, so an evaluation under
    ``no_grad`` never builds the backward's.  The reverse aggregation is a
    plan of its own, over ``edges[:, ::-1]``.  Not a tape op: it holds no
    tensor.
    """

    def __init__(self, edges, num_rows: int, weights=None):
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"neighbor_mean: edges must be (E, 2), got shape {edges.shape}")
        src, dst = edges[:, 0], edges[:, 1]
        for ids, role in ((src, "source"), (dst, "target")):
            if ids.size and (ids.min() < 0 or ids.max() >= num_rows):
                raise ValueError(
                    f"neighbor_mean: {role} position out of range for {num_rows} rows: "
                    f"[{ids.min()}, {ids.max()}]"
                )
        self.num_edges, self.num_rows = len(edges), num_rows
        self.forward, self.backward = _Side(dst, src, num_rows), _Side(src, dst, num_rows)
        self.denom = self.coeff = None
        if weights is None:
            self.denom = np.maximum(self.forward.counts, 1).astype(np.float64)[:, None]
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(edges),):
                raise ValueError(f"neighbor_mean: {weights.shape} weights for {len(edges)} edges")
            totals = np.bincount(dst, weights=weights, minlength=num_rows)
            self.coeff = weights / np.maximum(totals[dst], 1e-12)


def neighbor_mean(h: Tensor, plan: _AggregationPlan) -> Tensor:
    """Row ``v`` averages the rows ``h[u]`` over the plan's edges ``(u, v)``:
    ``segment_mean(gather_rows(h, src), dst, num_rows)``, or with weights
    each edge's row times its coefficient, summed per ``v``.

    One node with the composition's bytes.  It keeps the plan, never an
    ``E``-row message array or its gradient.  The composition only differs
    by turning a -0.0 in the message gradient into +0.0, which sums from
    +0.0 cannot tell apart.  An empty edge set gives a zero aggregate that
    sends no gradient.
    """
    if h.shape[0] != plan.num_rows:
        raise ValueError(f"neighbor_mean: {h.shape[0]} rows for a plan over {plan.num_rows}")
    if not plan.num_edges:
        return Tensor(np.zeros(h.shape))
    out = plan.forward.sum(h.values, plan.coeff)
    if plan.coeff is None:
        out /= plan.denom

    def bwd(g: Array) -> None:
        if plan.coeff is None:
            g = g / plan.denom
        _accum(h, plan.backward.sum(g, plan.coeff))

    return _make(out, (h,), bwd)


def transpose(a: Tensor) -> Tensor:
    out = a.values.T.copy()

    def bwd(g: Array) -> None:
        _accum(a, g.T)

    return _make(out, (a,), bwd)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep mass by rescaling with 1/(1-p); p=0 is the identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    out = a.values * mask

    def bwd(g: Array) -> None:
        _accum(a, g * mask)

    return _make(out, (a,), bwd)


def clip_min(a: Tensor, floor: float) -> Tensor:
    out = np.maximum(a.values, floor)
    mask = a.values > floor

    def bwd(g: Array) -> None:
        _accum(a, g * mask)

    return _make(out, (a,), bwd)


def backward(loss: Tensor) -> None:
    """Add the gradient of a scalar loss into every leaf it reaches.

    A node with a backward rule releases its ``grad`` once the rule has
    passed it on, so a pass holds at most the gradients still in flight,
    and a second pass over the same tape adds exactly its own gradient
    into the leaves again.  Leaves (parameters and other inputs) keep and
    accumulate theirs.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def finite_diff_check(
    scalar_fn: Callable[[], Tensor],
    params: Iterable[Tensor] | Sequence[Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Central-difference gradient check.

    ``scalar_fn`` must be deterministic (dropout disabled, any rng re-seeded
    inside the closure).  Returns the worst relative error over all
    coordinates of ``params``:
    ``max(0, |analytic - numeric| - u |f| / epsilon) / max(1e-8, |analytic| + |numeric|)``.
    The subtracted term is the rounding of the two loss values ``f`` as the
    difference quotient magnifies it (``u`` is the float64 machine epsilon,
    2**-52: twice the unit roundoff, as ``f`` is itself many roundings), so
    a coordinate whose gradient is near 0 does not read agreement to the
    last bits of ``f`` as a large relative error.

    A ReLU (or clip) input within ``epsilon`` of its kink makes the central
    difference straddle the kink, where the function has no derivative.  So
    a coordinate that reads more than 1e-6 is measured again with steps
    ``epsilon / 10`` and ``epsilon / 100``.  The ``epsilon / 10`` reading
    counts only if it looks like a kink: the ``epsilon`` difference
    disagrees with the ``epsilon / 10`` one beyond the latter's rounding,
    while the ``epsilon / 10`` and ``epsilon / 100`` differences agree
    within the ``epsilon / 100`` rounding.  Otherwise the ``epsilon``
    reading stands, so a smaller step's larger rounding allowance never
    hides a wrong backward on a coordinate with a small gradient.
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss = scalar_fn()
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
        for p in params
    ]
    for p in params:
        p.grad = None

    def central(flat, i, step):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = scalar_fn().item()
        flat[i] = orig - step
        f_minus = scalar_fn().item()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        return numeric, _EPS * max(abs(f_plus), abs(f_minus)) / step

    def error(a, numeric, rounding):
        return max(0.0, abs(a - numeric) - rounding) / max(1e-8, abs(a) + abs(numeric))

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.values.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            numeric, rounding = central(flat, i, epsilon)
            err = error(gflat[i], numeric, rounding)
            if err > _KINK_RETRY:
                tenth, tenth_rounding = central(flat, i, epsilon / 10)
                hundredth, hundredth_rounding = central(flat, i, epsilon / 100)
                if (
                    abs(numeric - tenth) > tenth_rounding
                    and abs(tenth - hundredth) <= hundredth_rounding
                ):
                    err = error(gflat[i], tenth, tenth_rounding)
            worst = max(worst, err)
    return worst
