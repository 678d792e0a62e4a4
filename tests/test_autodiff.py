import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subgraph_infomax import autodiff as ad
from subgraph_infomax.autodiff import Tensor, backward, finite_diff_check


def param(values):
    return Tensor(values, requires_grad=True)


class TestForwardOps:
    def test_relu_values_and_mask(self):
        x = param([[-1.0, 2.0]])
        y = ad.relu(x)
        assert np.array_equal(y.values, [[0.0, 2.0]])
        backward(ad.sum(y))
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    # NaN of both signs, +-inf, +-0.0 and +-5e-324, then random values.
    SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]

    def test_relu_is_the_where_select_bit_for_bit(self):
        rng = np.random.default_rng(7)
        x = param(np.concatenate([self.SPECIAL, rng.normal(size=24)]).reshape(4, 8))
        y = ad.relu(x)
        assert y.values.tobytes() == np.where(x.values > 0, x.values, 0.0).tobytes()
        backward(ad.sum(y))
        assert np.array_equal(x.grad, (x.values > 0) * 1.0)
        assert x.grad[0, [0, 1, 5]].tolist() == [0.0, 0.0, 0.0]  # NaN, -NaN, -0.0
        # fmax keeps a -0.0 input's sign in some SIMD lanes or tail loops and
        # not in others, so -0.0 fills inputs of every length up to 17.  A
        # -0.0 skip on top would keep that sign through the add.
        for size in range(1, 18):
            z = np.full((1, size), -0.0)
            out = ad.add(ad.relu(Tensor(z)), Tensor(z))
            assert out.values.tobytes() == (np.where(z > 0, z, 0.0) + z).tobytes()

    def test_sage_combine_relu_is_the_where_select_bit_for_bit(self):
        """One part and an identity skip: the output is the select on the
        pre-activation plus ``h``, byte for byte, with a -0.0 skip row."""
        rng = np.random.default_rng(8)
        h = rng.normal(size=(6, 8))
        h[0] = self.SPECIAL
        h[1] = -0.0
        h[2, :4] = [0.0, -0.0, 5e-324, -5e-324]
        w_self, w_agg = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        agg = param(rng.normal(size=(6, 8)))
        out = ad.sage_combine(Tensor(h), Tensor(w_self), [(agg, Tensor(w_agg))], None)
        pre = h @ w_self
        pre[:, 0:8] += agg.values @ w_agg
        assert np.isnan(pre[0]).all()
        assert out.values.tobytes() == (np.where(pre > 0, pre, 0.0) + h).tobytes()
        with np.errstate(invalid="ignore"):  # row 0 of the output is NaN
            backward(ad.sum(out))
        assert np.array_equal(agg.grad, (pre > 0) @ w_agg.T)
        assert not agg.grad[0].any()  # a NaN pre-activation passes no gradient

    def test_softmax_symmetry(self):
        y = ad.softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(y.values, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y = ad.softmax_rows(Tensor(rng.normal(size=(7, 5)) * 30))
        assert np.all(y.values >= 0)
        assert np.allclose(y.values.sum(axis=1), 1.0, atol=1e-12)

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 1))
        got = ad.matmul(Tensor(a), Tensor(b)).values
        want = np.zeros((2, 1))
        for i in range(2):
            for j in range(1):
                for k in range(3):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.allclose(got, want, atol=1e-12)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("op", ["add", "mul", "div"])
    def test_incompatible_broadcast_reports_both_shapes(self, op):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError) as info:
            getattr(ad, op)(a, b)
        assert str(info.value) == f"{op}: incompatible shapes (2, 3) and (3, 2)"

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 3), (1, 3)), ((2, 1), (1, 3))])
    def test_compatible_shapes_broadcast(self, shapes):
        a, b = (Tensor(np.full(shape, 2.0)) for shape in shapes)
        out = ad.mul(a, b)
        assert out.shape == np.broadcast_shapes(*shapes)
        assert (out.values == 4.0).all()

    def test_dropout_p0_is_identity(self):
        x = param(np.array([[1.5, -2.5, 0.0]]))
        y = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert y is x

    def test_dropout_rescales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 50)))
        y = ad.dropout(x, 0.5, rng)
        kept = y.values[y.values != 0]
        assert np.allclose(kept, 2.0)
        assert abs(y.values.mean() - 1.0) < 0.05

    def test_dropout_bad_p(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor([[1.0]]), 1.0, np.random.default_rng(0))

    def test_gather_rows_out_of_range(self):
        with pytest.raises(ValueError):
            ad.gather_rows(Tensor(np.zeros((2, 2))), [2])

    def test_segment_mean_empty_segment_is_zero(self):
        x = Tensor([[1.0], [3.0]])
        out = ad.segment_mean(x, [0, 0], 2)
        assert np.array_equal(out.values, [[2.0], [0.0]])


def add_at_reference(values, seg, n):
    out = np.zeros((n, values.shape[1]))
    np.add.at(out, seg, values)
    return out


class TestScatterSum:
    """``_scatter_sum`` must equal ``np.add.at`` into zeros byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_add_at_bytewise(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        seg = rng.integers(0, n, size=m)  # repeated ids whenever m > n
        scale = 10.0 ** rng.uniform(-5, 4, size=(m, d))
        values = rng.normal(size=(m, d)) * scale
        values[rng.random((m, d)) < 0.1] = -0.0
        got = ad._scatter_sum(values, seg, n)
        want = add_at_reference(values, seg, n)
        assert got.dtype == np.float64 and got.shape == (n, d)
        assert got.tobytes() == want.tobytes()

    def test_negative_zero_sums_like_add_at(self):
        values = np.array([[-0.0, 1.0], [-0.0, -1.0]])
        got = ad._scatter_sum(values, np.array([1, 1]), 3)
        assert got.tobytes() == add_at_reference(values, np.array([1, 1]), 3).tobytes()

    def test_empty_input_gives_float_zeros(self):
        got = ad._scatter_sum(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
        assert got.dtype == np.float64
        assert got.tobytes() == np.zeros((4, 3)).tobytes()
        out = ad.segment_mean(Tensor(np.zeros((0, 3))), [], 4)
        assert out.values.dtype == np.float64 and not out.values.any()

    def test_gather_rows_backward_accumulates_into_existing_grad(self):
        rng = np.random.default_rng(7)
        table = param(rng.normal(size=(5, 3)))
        existing = rng.normal(size=(5, 3)) * 1e3
        table.grad = existing.copy()
        idx = np.array([4, 0, 4, 4, 2])
        g = rng.normal(size=(5, 3)) * 1e-4
        ad.gather_rows(table, idx)._backward(g)
        want = existing.copy()
        want += add_at_reference(g, idx, 5)
        assert table.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("existing", [False, True])
    def test_row_compacted_backward_equals_the_dense_scatter(self, existing):
        # A 5,000 x 8 table read at 40 rows takes the row-compacted path; the
        # bytes must equal those of the dense scatter added into the grad.
        rng = np.random.default_rng(11)
        table = param(rng.normal(size=(5000, 8)))
        want = np.zeros((5000, 8))
        if existing:
            table.grad = rng.normal(size=(5000, 8))
            want = table.grad.copy()
        idx = rng.integers(0, 60, size=40)  # repeated rows
        g = rng.normal(size=(40, 8)) * 10.0 ** rng.uniform(-5, 4, size=(40, 8))
        g[rng.random((40, 8)) < 0.2] = -0.0
        ad.gather_rows(table, idx)._backward(g)
        want += add_at_reference(g, idx, 5000)
        assert table.grad.tobytes() == want.tobytes()


class TestBackward:
    def test_first_gradient_lands_on_positive_zero(self):
        # A fresh gradient is 0.0 + g, as accumulating into zeros gives, so a
        # -0.0 contribution is stored as 0.0.
        x = param([[1.0, 2.0]])
        backward(ad.sum(ad.scale(x, -0.0)))
        assert np.array_equal(x.grad, [[0.0, 0.0]])
        assert not np.signbit(x.grad).any()

    def test_sum_of_squares(self):
        x = param([[1.0, 2.0]])
        backward(ad.sum(ad.mul(x, x)))
        assert np.array_equal(x.grad, [[2.0, 4.0]])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(param([[1.0, 2.0]]))

    def test_parameter_used_twice_accumulates(self):
        # loss = sum(x * x) + sum(3 x); finite differences confirm both paths add.
        x = param([[0.7, -1.3]])

        def loss():
            return ad.add(ad.sum(ad.mul(x, x)), ad.sum(ad.scale(x, 3.0)))

        assert finite_diff_check(loss, [x]) < 1e-7

    def test_grads_accumulate_across_backward_calls(self):
        x = param([[1.0]])
        backward(ad.sum(ad.scale(x, 2.0)))
        backward(ad.sum(ad.scale(x, 2.0)))
        assert np.array_equal(x.grad, [[4.0]])

    def test_a_second_backward_over_one_tape_adds_its_gradient_once(self):
        # d sum(2x) / dx = 2 per pass; kept intermediate gradients made the
        # second pass add 4.
        x = param([[1.0, 3.0]])
        loss = ad.sum(ad.scale(x, 2.0))
        backward(loss)
        backward(loss)
        assert np.array_equal(x.grad, [[4.0, 4.0]])

    def test_mul_and_div_skip_the_gradient_of_a_constant(self):
        # The constant's product (g * a, or -g * a / c^2) would overflow; the
        # operand that needs a gradient gets the right one all the same.
        g = np.array([[1e200, -1e200]])
        a_values, c_values = [[1e200, 2.0]], np.array([[3.0, 0.5]])
        for build, want in (
            (lambda a, c: ad.mul(a, c), g * c_values),
            (lambda a, c: ad.mul(c, a), c_values * g),
            (lambda a, c: ad.div(a, c), g / c_values),
        ):
            a = param(a_values)
            out = build(a, Tensor(c_values))
            with np.errstate(over="raise"):
                out._backward(g)
            assert a.grad.tobytes() == (want + 0.0).tobytes()

    def test_intermediate_gradients_are_released(self):
        x = param([[1.0, 3.0]])
        y = ad.mul(x, x)
        loss = ad.sum(y)
        backward(loss)
        assert y.grad is None and loss.grad is None
        assert np.array_equal(x.grad, [[2.0, 6.0]])

    def test_tape_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(4, 4)))
            y = ad.dropout(ad.softmax_rows(ad.mul(x, x)), 0.3, rng)
            return ad.sum(y).item()

        assert run() == run()


class TestNoGrad:
    def test_ops_record_no_tape(self):
        x = param([[1.0, -2.0]])
        with ad.no_grad():
            y = ad.sum(ad.relu(ad.mul(x, x)))
        assert y.values[0, 0] == 5.0
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert x.requires_grad and x.grad is None

    def test_scopes_nest_and_restore_on_exception(self):
        x = param([[1.0]])
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert not ad.scale(x, 2.0).requires_grad
                raise RuntimeError("inside the scope")
        y = ad.scale(x, 2.0)
        assert y.requires_grad and y._parents == (x,)
        backward(ad.sum(y))
        assert np.array_equal(x.grad, [[2.0]])

    def test_scope_in_one_thread_leaves_another_recording(self):
        entered, done = threading.Event(), threading.Event()

        def hold_scope():
            with ad.no_grad():
                entered.set()
                done.wait(10)

        worker = threading.Thread(target=hold_scope)
        worker.start()
        try:
            assert entered.wait(10)
            x = param([[3.0]])
            y = ad.scale(x, 2.0)
            assert y.requires_grad and y._parents == (x,)
        finally:
            done.set()
            worker.join()

    def test_scope_is_not_a_tape_op(self):
        # ``__all__`` lists the tape ops; a span tracer wraps each of them.
        assert isinstance(ad.no_grad, type)
        assert "no_grad" not in ad.__all__


class TestMergedOpsMatchTheOpsTheyReplace:
    """``sum``, ``mean`` and ``concat`` against the forward formulas and
    backward rules of ``sum_rows``, ``row_sums``, ``sum_all``, ``mean_rows``,
    ``mean_all``, ``concat_cols`` and ``concat_rows``, byte for byte; the
    fused ``affine`` and ``sage_combine`` against the ops they fuse."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=16),
        cols=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sum_and_mean(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-5, 4, size=(rows, cols))
        old = [
            ((ad.sum, 0), x.sum(axis=0, keepdims=True), lambda g: g),
            ((ad.sum, 1), x.sum(axis=1, keepdims=True), lambda g: g),
            ((ad.sum, None), np.array([[x.sum()]]), lambda g: g),
            ((ad.mean, 0), x.mean(axis=0, keepdims=True), lambda g: g / rows),
            ((ad.mean, None), np.array([[x.sum() / x.size]]), lambda g: g / x.size),
        ]
        for (op, axis), want, old_rule in old:
            t = param(x)
            out = op(t, axis)
            assert out.shape == want.shape
            assert out.values.tobytes() == want.tobytes()
            g = rng.normal(size=want.shape)
            out._backward(g)
            assert t.grad.tobytes() == (np.broadcast_to(old_rule(g), x.shape) + 0.0).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        other=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_concat(self, sizes, other, seed):
        rng = np.random.default_rng(seed)
        for axis, stack in ((1, np.hstack), (0, np.vstack)):
            arrays = [rng.normal(size=(other, k) if axis == 1 else (k, other)) for k in sizes]
            parts = [param(a) for a in arrays]
            out = ad.concat(parts, axis)
            assert out.values.tobytes() == stack(arrays).tobytes()
            g = rng.normal(size=out.shape)
            out._backward(g)
            lo = 0
            for p, k in zip(parts, sizes):
                want = g[:, lo:lo + k] if axis == 1 else g[lo:lo + k, :]
                assert p.grad.tobytes() == (want + 0.0).tobytes()
                lo += k

    def test_concat_names_the_axis_whose_shapes_differ(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"concat: shapes differ off axis 1"):
            ad.concat([a, b], 1)
        with pytest.raises(ValueError, match=r"concat: shapes differ off axis 0"):
            ad.concat([a, b], 0)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        in_dim=st.integers(min_value=1, max_value=6),
        out_dim=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_affine(self, rows, in_dim, out_dim, seed):
        rng = np.random.default_rng(seed)
        x, w, b = (
            param(rng.normal(size=shape)) for shape in ((rows, in_dim), (in_dim, out_dim), (1, out_dim))
        )
        g = Tensor(rng.normal(size=(rows, out_dim)))

        def grads(out):
            for t in (x, w, b):
                t.grad = None
            backward(ad.sum(ad.mul(out, g)))
            return [t.grad.copy() for t in (x, w, b)]

        composed = ad.add(ad.matmul(x, w), b)
        want = grads(composed)
        fused = ad.affine(x, w, b)
        assert fused.values.tobytes() == composed.values.tobytes()
        for got, ref in zip(grads(fused), want):
            assert got.tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        in_dim=st.integers(min_value=2, max_value=6),
        out_dim=st.integers(min_value=2, max_value=6),
        directions=st.sampled_from([1, 2]),
        project_skip=st.booleans(),
        num_edges=st.integers(min_value=0, max_value=12),
        dead=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(rows=1, in_dim=2, out_dim=4, directions=2, project_skip=True, num_edges=3, dead=False, seed=0)
    @example(rows=4, in_dim=3, out_dim=3, directions=1, project_skip=False, num_edges=0, dead=True, seed=1)
    def test_sage_combine(self, rows, in_dim, out_dim, directions, project_skip, num_edges, dead, seed):
        """Against a SAGE layer's composed ops, on one or two directions,
        either skip, views with no edge or one row, and an all-dead ReLU."""
        rng = np.random.default_rng(seed)
        if not project_skip:
            out_dim = in_dim
        widths = [out_dim] if directions == 1 else [out_dim // 2, out_dim - out_dim // 2]
        h_values = rng.normal(size=(rows, in_dim))
        weight_shapes = [(in_dim, out_dim)] + [(in_dim, k) for k in widths]
        weight_values = [rng.normal(size=shape) for shape in weight_shapes]
        if dead:
            # Rows >= 0.1 against weights <= -0.1: every pre-activation < 0.
            h_values = np.abs(h_values) + 0.1
            weight_values = [-np.abs(v) - 0.1 for v in weight_values]
        h = param(h_values)
        w_self, *w_parts = (param(v) for v in weight_values)
        w_skip = param(rng.normal(size=(in_dim, out_dim))) if project_skip else None
        edges = rng.integers(0, rows, size=(num_edges, 2))
        g = Tensor(rng.normal(size=(rows, out_dim)))
        leaves = [h, w_self, *w_parts] + ([w_skip] if project_skip else [])

        def aggregates():
            if num_edges == 0:
                return [Tensor(np.zeros((rows, in_dim)))] * directions
            return [
                ad.segment_mean(ad.gather_rows(h, e[:, 0]), e[:, 1], rows)
                for e in (edges, edges[:, ::-1])[:directions]
            ]

        def grads(out):
            for t in leaves:
                t.grad = None
            backward(ad.sum(ad.mul(out, g)))
            return [t.grad.copy() for t in leaves]

        neigh = [ad.matmul(agg, w) for agg, w in zip(aggregates(), w_parts)]
        neigh = neigh[0] if directions == 1 else ad.concat(neigh, 1)
        composed = ad.add(
            ad.relu(ad.add(ad.matmul(h, w_self), neigh)),
            ad.matmul(h, w_skip) if project_skip else h,
        )
        want = grads(composed)
        fused = ad.sage_combine(h, w_self, list(zip(aggregates(), w_parts)), w_skip)
        assert fused.values.tobytes() == composed.values.tobytes()
        if dead:
            assert not (composed.values - (h.values @ w_skip.values if project_skip else h.values)).any()
        for got, ref in zip(grads(fused), want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fused_ops_name_bad_shapes(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError, match=r"^affine: incompatible shapes"):
            ad.affine(x, w, Tensor(np.zeros((2, 4))))
        parts = [(x, Tensor(np.zeros((3, 3))))]
        with pytest.raises(ValueError, match=r"^sage_combine: parts fill 6 of 4 columns$"):
            ad.sage_combine(x, w, parts * 2, None)

    @pytest.mark.parametrize("kernel", ["scatter", "rounds"])
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=5),
        num_edges=st.integers(min_value=1, max_value=24),
        shape=st.sampled_from(["random", "star", "chain"]),
        isolated=st.integers(min_value=0, max_value=3),
        weighted=st.booleans(),
        direction=st.sampled_from(["forward", "strided", "reversed"]),
        seeded=st.booleans(),
        special=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(rows=1, cols=2, num_edges=3, shape="random", isolated=0, weighted=False,
             direction="forward", seeded=False, special=False, seed=0)
    @example(rows=4, cols=3, num_edges=9, shape="random", isolated=2, weighted=True,
             direction="strided", seeded=True, special=False, seed=1)
    @example(rows=3, cols=2, num_edges=0, shape="random", isolated=1, weighted=True,
             direction="forward", seeded=True, special=False, seed=2)
    @example(rows=1, cols=3, num_edges=7, shape="star", isolated=0, weighted=False,
             direction="reversed", seeded=False, special=True, seed=3)
    @example(rows=6, cols=2, num_edges=24, shape="star", isolated=1, weighted=True,
             direction="forward", seeded=False, special=False, seed=4)
    @example(rows=6, cols=2, num_edges=24, shape="star", isolated=0, weighted=False,
             direction="reversed", seeded=True, special=False, seed=5)
    @example(rows=8, cols=3, num_edges=1, shape="chain", isolated=2, weighted=True,
             direction="reversed", seeded=False, special=False, seed=6)
    @example(rows=8, cols=4, num_edges=1, shape="chain", isolated=0, weighted=False,
             direction="strided", seeded=True, special=False, seed=7)
    @example(rows=5, cols=4, num_edges=20, shape="random", isolated=1, weighted=False,
             direction="forward", seeded=False, special=True, seed=8)
    @example(rows=5, cols=4, num_edges=20, shape="random", isolated=1, weighted=True,
             direction="reversed", seeded=True, special=True, seed=9)
    # +NaN and -NaN meet in a row, where numpy's vector add and its
    # remainder loop keep different operands.
    @example(rows=3, cols=4, num_edges=18, shape="random", isolated=3, weighted=True,
             direction="strided", seeded=False, special=True, seed=0)
    def test_neighbor_mean(self, kernel, rows, cols, num_edges, shape, isolated, weighted,
                           direction, seeded, special, seed):
        """Against ``gather_rows`` + ``segment_mean`` (weighted: + ``mul`` +
        ``segment_sum``), byte for byte, under each kernel (the size rule
        forced either way): on duplicate edges and self-loops, a star (one
        row takes every edge) and a chain (every row one edge), rows no edge
        reaches, the strided edge view and the plan over the reversed edges
        (as a bidirectional encode builds it), -0.0 weights, weights that
        are all zero or cancel to 0.0 at a target, inputs and upstream
        gradients holding -0.0, NaN or +-inf, and no edge at all."""
        rng = np.random.default_rng(seed)
        n = rows + isolated  # the last ``isolated`` rows are in no edge
        if shape == "star":
            edges = np.stack([rng.integers(0, rows, size=num_edges), np.zeros(num_edges, np.int64)], 1)
        elif shape == "chain":
            edges = np.stack([np.arange(rows - 1), np.arange(1, rows)], 1)
        else:
            edges = rng.integers(0, rows, size=(num_edges, 2))
        if direction == "strided":
            edges = edges[:, ::-1]
        # The composition runs over the edges the plan aggregates.
        flipped = edges[:, ::-1] if direction == "reversed" else edges
        src, dst = flipped[:, 0], flipped[:, 1]
        weights = None
        if weighted:
            weights = rng.normal(size=len(edges))
            weights[rng.random(len(edges)) < 0.2] = -0.0
            if len(edges):
                weights[dst == dst[0]] = 0.0
                # Non-zero weights that cancel: w, -w, w, -w, ... (0.0 last if odd).
                cancel = np.flatnonzero(dst == dst[-1]) if dst[-1] != dst[0] else []
                for i, e in enumerate(cancel):
                    weights[e] = 0.0 if i == len(cancel) - 1 and i % 2 == 0 else (-1.0) ** i * 0.7
        h_values = rng.normal(size=(n, cols))
        h_values[rng.random((n, cols)) < 0.2] = -0.0
        g = rng.normal(size=(n, cols))
        g[rng.random((n, cols)) < 0.3] = -0.0
        if len(edges):
            g[dst[0]] = -0.0
        if special:
            for values in (h_values, g):
                picks = rng.random(values.shape) < 0.3
                values[picks] = rng.choice([np.nan, -np.nan, np.inf, -np.inf, -0.0], size=picks.sum())
        start = rng.normal(size=(n, cols)) if seeded else None
        floor = {"scatter": 1 << 62, "rounds": 0}[kernel]
        with mock.patch.multiple(ad, _ROUND_MIN_EDGES=floor, _ROUND_MIN_ROWS=0):
            plan = ad._AggregationPlan(flipped, n, weights)
        assert plan.forward.by_rounds == plan.backward.by_rounds == (kernel == "rounds" and len(edges) > 0)

        def run(aggregate):
            h = param(h_values)
            h.grad = None if start is None else start.copy()
            node = out = aggregate(h)
            grad = g
            while node is not h and node._backward is not None:
                node._backward(grad)  # the composition is a chain of nodes down to h
                node = node._parents[0]
                grad = node.grad
            return out.values, h.grad

        def composed(h):
            messages = ad.gather_rows(h, src)
            if weights is None:
                return ad.segment_mean(messages, dst, n)
            totals = np.bincount(dst, weights=weights, minlength=n)
            coeff = (weights / np.maximum(totals[dst], 1e-12))[:, None]
            return ad.segment_sum(ad.mul(messages, Tensor(coeff)), dst, n)

        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0.0 make NaN
            want_out, want_grad = run(composed)
            got_out, got_grad = run(lambda h: ad.neighbor_mean(h, plan))
        assert got_out.tobytes() == want_out.tobytes()
        if not len(edges):  # no gradient at all, where the composition adds zeros
            assert (got_grad is None) if start is None else got_grad.tobytes() == start.tobytes()
            assert not np.any(want_grad - (0.0 if start is None else start))
            return
        assert got_grad.tobytes() == want_grad.tobytes()

    def test_neighbor_mean_on_no_edge_is_a_zero_constant(self):
        h = param(np.ones((3, 2)))
        for weights in (None, np.empty(0)):
            out = ad.neighbor_mean(h, ad._AggregationPlan(np.empty((0, 2), dtype=np.int64), 3, weights))
            assert out.values.tobytes() == np.zeros((3, 2)).tobytes()
            assert not out.requires_grad and out._backward is None

    def test_neighbor_mean_names_a_bad_position_or_weight_count(self):
        for bad, role in (([[0, 3]], "target"), ([[3, 0]], "source"), ([[0, 1], [-1, 0]], "source"),
                          ([[1, -1]], "target")):
            with pytest.raises(ValueError, match=rf"^neighbor_mean: {role} position out of range for 3 rows"):
                ad._AggregationPlan(np.array(bad), 3)
            with pytest.raises(ValueError, match=r"^neighbor_mean: .* out of range"):
                ad._AggregationPlan(np.array(bad), 3, np.ones(len(bad)))
        with pytest.raises(ValueError, match=r"^neighbor_mean: \(1,\) weights for 2 edges$"):
            ad._AggregationPlan(np.array([[0, 1], [1, 2]]), 3, [1.0])
        with pytest.raises(ValueError, match=r"^neighbor_mean: edges must be \(E, 2\)"):
            ad._AggregationPlan(np.array([0, 1]), 3)
        with pytest.raises(ValueError, match=r"^neighbor_mean: 2 rows for a plan over 3$"):
            ad.neighbor_mean(Tensor(np.zeros((2, 2))), ad._AggregationPlan(np.array([[0, 1]]), 3))

    def test_the_size_rule_sends_stars_and_small_unions_to_scatter_sum(self):
        # A 20,000-edge star: one round per edge into the hub, so its sums
        # by target take the scatter; by source it is one round of 20,000
        # rows.  A 40-edge union is below the edge cutoff both ways.
        star = np.stack([np.arange(1, 20_001), np.zeros(20_000, np.int64)], 1)
        plan = ad._AggregationPlan(star, 20_001)
        assert not plan.forward.by_rounds and plan.backward.by_rounds
        assert not ad._AggregationPlan(star[:, ::-1], 20_001).backward.by_rounds
        rng = np.random.default_rng(0)
        small = ad._AggregationPlan(rng.integers(0, 60, size=(40, 2)), 60)
        assert not small.forward.by_rounds and not small.backward.by_rounds
        # A k-hop union shaped like khop-5k's: about 11,000 edges over 2,400
        # rows, symmetric, mean degree near 5 with some rows of degree 60.
        pairs = rng.integers(0, 2_400, size=(5_200, 2))
        hubs = np.stack([np.repeat(np.arange(5), 60), rng.integers(0, 2_400, size=300)], 1)
        half = np.concatenate([pairs, hubs])
        union = np.concatenate([half, half[:, ::-1]])
        assert 10_000 < len(union) < 12_000
        plan = ad._AggregationPlan(union, 2_400)
        assert plan.forward.by_rounds and plan.backward.by_rounds

    @pytest.mark.parametrize("op", [ad.segment_sum, ad.segment_mean])
    def test_segment_ids_are_checked_under_the_op_name(self, op):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=rf"^{op.__name__}: 1 segment ids for 2 rows$"):
            op(x, [0], 2)
        with pytest.raises(ValueError, match=rf"^{op.__name__}: segment id out of range \[0, 2\)$"):
            op(x, [0, 2], 2)


# "mean_rows" is ``mean`` over axis 0 and "concat" is ``concat`` over axis 1.
OP_CASES = {
    "matmul": lambda a, b: ad.sum(ad.matmul(a, ad.transpose(b))),
    "add_broadcast": lambda a, b: ad.sum(ad.mul(ad.add(a, ad.mean(b, 0)), a)),
    "mul": lambda a, b: ad.sum(ad.mul(a, b)),
    "sigmoid": lambda a, b: ad.sum(ad.mul(ad.sigmoid(a), b)),
    "log_sigmoid": lambda a, b: ad.sum(ad.mul(ad.log_sigmoid(a), b)),
    "softmax": lambda a, b: ad.sum(ad.mul(ad.softmax_rows(a), b)),
    "logsumexp": lambda a, b: ad.sum(ad.mul(ad.logsumexp_rows(a), ad.sum(b, 1))),
    "mean_rows": lambda a, b: ad.sum(ad.mul(ad.mean(a, 0), ad.mean(b, 0))),
    "concat": lambda a, b: ad.sum(ad.mul(ad.concat([a, b], 1), ad.concat([b, a], 1))),
    "concat/0": lambda a, b: ad.sum(ad.mul(ad.concat([a, b], 0), ad.concat([b, a], 0))),
    "sum": lambda a, b: ad.mul(ad.sum(a), ad.sum(ad.mul(a, b))),
    "sum/0": lambda a, b: ad.sum(ad.mul(ad.sum(a, 0), ad.sum(b, 0))),
    "sum/1": lambda a, b: ad.sum(ad.mul(ad.sum(a, 1), ad.sum(b, 1))),
    "mean": lambda a, b: ad.mean(ad.mul(a, b)),
    "mean/1": lambda a, b: ad.sum(ad.mul(ad.mean(a, 1), ad.mean(b, 1))),
    "transpose": lambda a, b: ad.sum(ad.matmul(ad.transpose(a), b)),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
@settings(max_examples=8, deadline=None)
# Gradients near 1e-8 that agree to the last bits of the loss: read as a
# relative error of 3.4e-4 before ``finite_diff_check`` discounted rounding.
@example(rows=13, cols=15, seed=723)
@given(
    rows=st.integers(min_value=1, max_value=16),
    cols=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_every_op_passes_finite_differences(name, rows, cols, seed):
    rng = np.random.default_rng(seed)
    # Nudge away from relu/score kinks: keep magnitudes off machine-zero.
    a = param(rng.normal(size=(rows, cols)) + 0.1)
    b = param(rng.normal(size=(rows, cols)) + 0.1)
    err = finite_diff_check(lambda: OP_CASES[name](a, b), [a, b])
    assert err < 1e-4


def test_every_tape_op_has_a_finite_difference_row():
    from subgraph_infomax.verify import _op_checks

    rows = {name for name, _, _ in _op_checks(np.random.default_rng(0))}
    ops = set(ad.__all__) - {"Tensor", "backward", "finite_diff_check"}
    assert ops - rows == set()


class TestFiniteDiff:
    def test_quadratic_is_nearly_exact(self):
        x = param([[0.3, -0.8, 1.1]])
        err = finite_diff_check(lambda: ad.sum(ad.mul(x, x)), [x])
        assert err < 1e-7

    def test_relu_off_kink(self):
        x = param([[0.5, -0.5]])  # inputs nudged off zero
        err = finite_diff_check(lambda: ad.sum(ad.relu(x)), [x])
        assert err < 1e-7

    def test_relu_within_a_step_of_its_kink(self):
        # 3e-6 from the kink: the central difference at 1e-5 straddles it
        # and reads (1.3e-5 - 0) / 2e-5 against a gradient of 1; the
        # smaller steps do not straddle it.
        x = param([[3e-6, -0.5]])
        assert finite_diff_check(lambda: ad.sum(ad.relu(x)), [x]) < 1e-7

    def test_a_wrong_backward_reads_at_every_step(self):
        # A backward off by 1e-3 relative is not taken for a kink.
        x = param([[0.3, -0.8, 1.1]])

        def scaled_square(a):
            def bwd(g):
                ad._accum(a, 1.001 * 2.0 * a.values * g)

            return ad._make(a.values * a.values, (a,), bwd)

        err = finite_diff_check(lambda: ad.sum(scaled_square(x)), [x])
        assert err == pytest.approx(0.0005, rel=1e-3)

    def test_a_wrong_backward_on_a_small_gradient_is_not_taken_for_a_kink(self):
        # Gradient 1e-6 on a loss near 1, backward off by 1e-3 relative: the
        # error (1e-9) lies below the rounding allowance at epsilon / 100
        # (2.2e-9), but the differences at every step agree, so the epsilon
        # reading stands.
        x = param([[0.3]])

        def tiny_slope(a):
            def bwd(g):
                ad._accum(a, 1.001 * 1e-6 * g)

            return ad._make(1e-6 * a.values, (a,), bwd)

        one = Tensor(np.ones((1, 1)))
        err = finite_diff_check(lambda: ad.add(one, ad.sum(tiny_slope(x))), [x])
        assert err == pytest.approx(0.0005, rel=0.1)
