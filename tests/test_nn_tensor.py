"""Autograd engine tests: every op gradient-checked against finite differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, as_tensor, is_grad_enabled, no_grad


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = grad.ravel()
    x_flat = x.ravel()
    for i in range(x.size):
        orig = x_flat[i]
        x_flat[i] = orig + eps
        plus = fn(x)
        x_flat[i] = orig - eps
        minus = fn(x)
        x_flat[i] = orig
        flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, x_data, tol=1e-6):
    """Compare autograd gradient of sum(op(x)) with finite differences."""
    x = Tensor(x_data.copy(), requires_grad=True)
    op(x).sum().backward()
    expected = numeric_grad(lambda arr: op(Tensor(arr)).sum().item(), x_data.copy())
    assert np.allclose(x.grad, expected, atol=tol), (
        f"max err {np.abs(x.grad - expected).max()}"
    )


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.x = self.rng.normal(size=(3, 4))

    def test_add_scalar(self):
        check_gradient(lambda t: t + 2.5, self.x)

    def test_mul(self):
        check_gradient(lambda t: t * t, self.x)

    def test_sub(self):
        check_gradient(lambda t: 3.0 - t, self.x)

    def test_div(self):
        check_gradient(lambda t: 1.0 / (t + 10.0), self.x)

    def test_pow(self):
        check_gradient(lambda t: (t * t + 1.0) ** 1.5, self.x)

    def test_exp(self):
        check_gradient(lambda t: t.exp(), self.x)

    def test_log(self):
        check_gradient(lambda t: (t * t + 1.0).log(), self.x)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), self.x)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), self.x)

    def test_relu(self):
        # shift away from the kink for clean finite differences
        check_gradient(lambda t: (t + 0.1).relu(), self.x)

    def test_sqrt(self):
        check_gradient(lambda t: (t * t + 1.0).sqrt(), self.x)

    def test_abs(self):
        check_gradient(lambda t: (t + 5.0).abs(), self.x)

    def test_clip(self):
        check_gradient(lambda t: (t * 3.0).clip(-1.0, 1.0), self.x + 0.31)

    def test_neg(self):
        check_gradient(lambda t: -t, self.x)


class TestMatmulGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_matrix_matrix(self):
        b = self.rng.normal(size=(4, 5))
        check_gradient(lambda t: t @ Tensor(b), self.rng.normal(size=(3, 4)))

    def test_matrix_matrix_right(self):
        a = self.rng.normal(size=(3, 4))
        check_gradient(lambda t: Tensor(a) @ t, self.rng.normal(size=(4, 5)))

    def test_batched(self):
        b = self.rng.normal(size=(2, 4, 5))
        check_gradient(lambda t: t @ Tensor(b), self.rng.normal(size=(2, 3, 4)))

    def test_batched_broadcast(self):
        b = self.rng.normal(size=(4, 5))
        check_gradient(lambda t: t @ Tensor(b), self.rng.normal(size=(2, 3, 4)))

    def test_vector_vector(self):
        b = self.rng.normal(size=5)
        check_gradient(lambda t: (t @ Tensor(b)).reshape(1), self.rng.normal(size=5))

    def test_matrix_vector(self):
        b = self.rng.normal(size=4)
        check_gradient(lambda t: t @ Tensor(b), self.rng.normal(size=(3, 4)))

    def test_vector_matrix(self):
        b = self.rng.normal(size=(4, 3))
        check_gradient(lambda t: t @ Tensor(b), self.rng.normal(size=4))


class TestReductionsAndShapes:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.x = self.rng.normal(size=(3, 4, 5))

    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), self.x)

    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=1), self.x)

    def test_sum_keepdims(self):
        check_gradient(lambda t: t.sum(axis=2, keepdims=True), self.x)

    def test_mean(self):
        check_gradient(lambda t: t.mean(axis=(0, 2)), self.x)

    def test_max(self):
        check_gradient(lambda t: t.max(axis=1), self.x)

    def test_reshape(self):
        check_gradient(lambda t: t.reshape(12, 5) @ Tensor(np.ones((5, 2))), self.x)

    def test_transpose(self):
        check_gradient(lambda t: t.transpose(2, 0, 1) * 2.0, self.x)

    def test_swapaxes(self):
        check_gradient(lambda t: t.swapaxes(0, 2), self.x)

    def test_getitem_slice(self):
        check_gradient(lambda t: t[:, 1:3, :], self.x)

    def test_getitem_reverse(self):
        check_gradient(lambda t: t[:, ::-1, :] * 2.0, self.x)

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])  # duplicate index accumulates
        check_gradient(lambda t: t[idx], self.x)

    def test_concatenate(self):
        other = Tensor(self.rng.normal(size=(3, 2, 5)))
        check_gradient(lambda t: Tensor.concatenate([t, other], axis=1), self.x)

    def test_stack(self):
        check_gradient(lambda t: Tensor.stack([t, t * 2.0], axis=0), self.x)

    def test_where(self):
        cond = self.x > 0
        check_gradient(lambda t: Tensor.where(cond, t * 2.0, t * -1.0), self.x)

    def test_softmax(self):
        check_gradient(lambda t: t.softmax(axis=-1), self.x)

    def test_log_softmax(self):
        check_gradient(lambda t: t.log_softmax(axis=-1), self.x)


class TestBroadcastGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_mul_broadcast_keepdim(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (3, 1)
        assert np.allclose(b.grad[:, 0], a.data.sum(axis=1))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        assert np.allclose(t.grad, 4.0)

    def test_reused_node_accumulates(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t + t  # t used three times
        y.sum().backward()
        assert np.allclose(t.grad, 2 * 2.0 + 1.0)

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_second_backward_through_one_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = (x * 2.0).sum()
        z.backward()
        with pytest.raises(RuntimeError, match="released"):
            z.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_backward_releases_the_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = (x * 2.0).tanh()
        z = hidden.sum()
        z.backward()
        assert z._parents == () and hidden._parents == ()
        assert z.grad is None and hidden.grad is None
        assert x.grad is not None  # leaf gradients stay

    def test_reusing_a_released_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x * 2.0
        hidden.sum().backward()
        with pytest.raises(RuntimeError, match="released"):
            (hidden * 3.0).sum().backward()

    def test_no_grad_context(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2.0
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_requires_grad_means_no_graph(self):
        t = Tensor(np.ones(3))
        out = (t * 2.0).sum()
        assert not out.requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(3))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_item_and_len(self):
        assert Tensor(np.array([3.5])).item() == 3.5
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.ones(1), requires_grad=True))


class TestTensorProperties:
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, max_side=5),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_sum_to_one(self, data):
        out = Tensor(data).softmax(axis=-1).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_tanh_identity(self, data):
        # tanh(x) = 2*sigmoid(2x) - 1
        t = Tensor(data)
        lhs = t.tanh().numpy()
        rhs = 2.0 * (t * 2.0).sigmoid().numpy() - 1.0
        assert np.allclose(lhs, rhs, atol=1e-10)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, data):
        t = Tensor(data)
        assert np.array_equal(t.T.T.numpy(), data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matmul_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        assert np.allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)
