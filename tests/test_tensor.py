"""Tape and backward behavior, and the test-side taped ops."""

import zlib

import numpy as np
import pytest

from natsel.errors import ShapeError, TapeError
from natsel.tensor import GradTape, backward

from conftest import (
    add,
    add_row,
    exp,
    finite_difference,
    matmul,
    max_relative_error,
    mul,
    relu,
    reshape,
    scale,
    taped_gradients,
    tsum,
)


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(eye, m), m)

    def test_selector_row(self):
        assert matmul(np.array([[1.0, 0.0]]),
                      np.array([[2.0], [5.0]])).tolist() == [[2.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = matmul(a, b)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            matmul(np.array([1.0]), np.array([[1.0]]))

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, size=(3, 4))
        b = rng.uniform(-1.0, 1.0, size=(4, 2))

        def taped(params, tape):
            return tsum(matmul(params[0], params[1], tape=tape), tape=tape)

        def plain(params):
            return float(np.sum(params[0] @ params[1]))

        analytic = taped_gradients(taped, [a, b])
        numeric = finite_difference(plain, [a, b])
        assert max_relative_error(analytic, numeric) <= 1e-5


class TestElementwise:
    def test_relu_values(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

class TestBackward:
    def test_sum_gives_ones(self):
        p = np.array([1.0, 2.0, 3.0])
        tape = GradTape()
        tape.register(p)
        g = backward(tape, tsum(p, tape=tape))
        assert g[0].tolist() == [1.0, 1.0, 1.0]

    def test_quadratic(self):
        p = np.array([1.0, 2.0])
        tape = GradTape()
        tape.register(p)
        g = backward(tape, tsum(mul(p, p, tape=tape), tape=tape))
        assert g[0].tolist() == [2.0, 4.0]

    def test_additive_accumulation_two_uses(self):
        p = np.array([3.0])
        tape = GradTape()
        tape.register(p)
        # p appears twice: gradient of sum(p + p) is 2
        g = backward(tape, tsum(add(p, p, tape=tape), tape=tape))
        assert g[0].tolist() == [2.0]

    def test_unreachable_parameter_gets_zeros(self):
        used = np.array([1.0, 2.0])
        unused = np.array([[5.0, 6.0], [7.0, 8.0]])
        tape = GradTape()
        tape.register(used, unused)
        g = backward(tape, tsum(used, tape=tape))
        assert g[1].shape == (2, 2)
        assert np.all(g[1] == 0.0)

    def test_same_shape_gradient_shares_its_adjoint(self):
        # backward returns a parameter's accumulated adjoint without a copy
        p = np.ones((2, 3))
        adjoint = np.arange(6.0).reshape(2, 3)
        tape = GradTape()
        tape.register(p)
        root = np.array(0.0)
        tape.record(root, lambda g: ((p, adjoint),))
        grad = backward(tape, root)[0]
        assert np.shares_memory(grad, adjoint)
        assert np.array_equal(grad, adjoint)

    def test_root_must_be_scalar(self):
        p = np.array([1.0, 2.0])
        tape = GradTape()
        tape.register(p)
        out = add(p, p, tape=tape)
        with pytest.raises(ShapeError):
            backward(tape, out)

    def test_root_must_be_on_tape(self):
        p = np.array([1.0])
        tape = GradTape()
        tape.register(p)
        off_tape = tsum(p)  # no tape passed
        with pytest.raises(TapeError):
            backward(tape, off_tape)

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-1.0, 1.0, size=(4,))

        def loss_pair(tape):
            l1 = tsum(mul(p, p, tape=tape), tape=tape)
            l2 = tsum(exp(p, tape=tape), tape=tape)
            return l1, l2

        tape = GradTape()
        tape.register(p)
        l1, l2 = loss_pair(tape)
        combined = add(scale(l1, 2.0, tape=tape), scale(l2, -3.0, tape=tape),
                       tape=tape)
        g_combined = backward(tape, combined)[0]

        tape1 = GradTape()
        tape1.register(p)
        g1 = backward(tape1, loss_pair(tape1)[0])[0]
        tape2 = GradTape()
        tape2.register(p)
        g2 = backward(tape2, loss_pair(tape2)[1])[0]
        assert np.max(np.abs(g_combined - (2.0 * g1 - 3.0 * g2))) <= 1e-10

    def test_diamond_graph_reverse_order(self):
        # y = (p*p) + exp(p); both branches merge, replay must hit the add
        # first, then both branches, accumulating into p.
        p = np.array([0.7])
        tape = GradTape()
        tape.register(p)
        left = mul(p, p, tape=tape)
        right = exp(p, tape=tape)
        root = tsum(add(left, right, tape=tape), tape=tape)
        g = backward(tape, root)[0]
        expected = 2 * 0.7 + np.exp(0.7)
        assert abs(g[0] - expected) <= 1e-12

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(123)
        vals = rng.normal(size=(3, 3))

        def run():
            p = vals.copy()
            tape = GradTape()
            tape.register(p)
            z = matmul(p, p, tape=tape)
            root = tsum(mul(z, z, tape=tape), tape=tape)
            return backward(tape, root)[0]

        assert np.array_equal(run(), run())


class TestOpGradients:
    """Every differentiable primitive, and the test-side ops the backward
    tests build on, against the finite-difference oracle."""

    @pytest.mark.parametrize("name,builder,plain", [
        ("add", lambda p, t: tsum(add(p[0], p[1], tape=t), tape=t),
         lambda p: float(np.sum(p[0] + p[1]))),
        ("mul", lambda p, t: tsum(mul(p[0], p[1], tape=t), tape=t),
         lambda p: float(np.sum(p[0] * p[1]))),
    ])
    def test_binary_ops(self, name, builder, plain):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        params = [rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(-1.0, 1.0, size=(3, 2))]
        analytic = taped_gradients(builder, params)
        numeric = finite_difference(plain, params)
        assert max_relative_error(analytic, numeric) <= 1e-5

    @pytest.mark.parametrize("name,taped_fn,plain_fn,lo,hi", [
        ("exp", lambda x, t: exp(x, tape=t), lambda v: np.exp(v), -1.0, 1.0),
        ("relu", lambda x, t: relu(x, tape=t),
         lambda v: np.maximum(v, 0.0), -1.0, 1.0),
        ("scale", lambda x, t: scale(x, -2.5, tape=t),
         lambda v: v * -2.5, -1.0, 1.0),
    ])
    def test_unary_ops(self, name, taped_fn, plain_fn, lo, hi):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = rng.uniform(lo, hi, size=5)
        analytic = taped_gradients(
            lambda p, t: tsum(taped_fn(p[0], t), tape=t), [x])
        numeric = finite_difference(
            lambda p: float(np.sum(plain_fn(p[0]))), [x])
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_relu_gradient_at_zero_is_zero(self):
        x = np.array([0.0, -1.0, 1.0])
        analytic = taped_gradients(
            lambda p, t: tsum(relu(p[0], t), tape=t), [x])
        assert analytic[0].tolist() == [0.0, 0.0, 1.0]

    def test_gather_ops_gradients(self):
        # g and r each feed two ops, so their adjoints must sum.
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.0, 1.0, size=(3, 4))

        def taped(p, t):
            g = reshape(p[0], (6, 2), tape=t)
            r = reshape(g, (12,), tape=t)
            return add(tsum(mul(r, r, tape=t), tape=t), tsum(g, tape=t),
                       tape=t)

        def plain(p):
            v = p[0]
            return float(np.sum(v * v) + v.sum())

        analytic = taped_gradients(taped, [x])
        numeric = finite_difference(plain, [x])
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_add_row_gradient(self):
        rng = np.random.default_rng(37)
        a = rng.uniform(-1.0, 1.0, size=(4, 3))
        row = rng.uniform(-1.0, 1.0, size=(1, 3))
        weights = rng.normal(size=(4, 3))

        def taped(p, t):
            return tsum(mul(add_row(p[0], p[1], tape=t), weights,
                            tape=t), tape=t)

        def plain(p):
            return float(np.sum((p[0] + p[1]) * weights))

        analytic = taped_gradients(taped, [a, row])
        numeric = finite_difference(plain, [a, row])
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_composed_network_loss_gradcheck(self):
        rng = np.random.default_rng(97)
        w1 = rng.uniform(-1.0, 1.0, size=(4, 3))
        w2 = rng.uniform(-1.0, 1.0, size=(3, 2))
        x = rng.normal(size=(2, 4))

        def taped(p, t):
            h = relu(matmul(x, p[0], tape=t), tape=t)
            z = matmul(h, p[1], tape=t)
            return tsum(mul(z, z, tape=t), tape=t)

        def plain(p):
            h = np.maximum(x @ p[0], 0.0)
            z = h @ p[1]
            return float(np.sum(z * z))

        analytic = taped_gradients(taped, [w1, w2])
        numeric = finite_difference(plain, [w1, w2])
        assert max_relative_error(analytic, numeric) <= 1e-5


class TestValidation:
    def test_add_row_validates(self):
        a = np.ones((2, 3))
        assert add_row(a, np.array([[1.0, 2.0, 3.0]])).tolist() == \
            [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]]
        with pytest.raises(ShapeError):
            add_row(a, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            add_row(a, np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            add_row(np.array([1.0, 2.0, 3.0]), np.array([[1.0, 2.0, 3.0]]))
