import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import tensor as T
from promptlab.errors import (
    ContractError,
    IndexRangeError,
    NumericsError,
    PromptLabError,
    ShapeError,
)
from gradcheck import assert_gradients_match


def leaf(rng, *shape, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


# -- frozen forward values ---------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.standard_normal((4, 4)))
    out = T.matmul(a, T.Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_projector_selects_rows():
    p = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    out = T.matmul(p, T.Tensor([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_softmax_known_values():
    out = T.softmax(T.Tensor([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
    out = T.softmax(T.Tensor([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_large_inputs_stable():
    out = T.softmax(T.Tensor([1000.0, 1000.5]))
    ref = T.softmax(T.Tensor([0.0, 0.5]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, ref.data, atol=1e-15)


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((2, 4)))
    loss = T.cross_entropy(logits, [0, 3])
    assert abs(loss.item() - math.log(4.0)) < 1e-12


def test_cross_entropy_confident_prediction():
    logits = np.zeros((1, 5))
    logits[0, 2] = 50.0
    loss = T.cross_entropy(T.Tensor(logits), [2])
    assert loss.item() < 1e-9


def test_cross_entropy_label_out_of_range():
    logits = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        T.cross_entropy(logits, [0, 3])
    with pytest.raises(IndexError):
        T.cross_entropy(logits, [-1, 0])


def test_l2_normalize_zero_vector():
    out = T.l2_normalize(T.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(out.data, np.zeros(3))


def test_cosine_similarity_parallel_and_orthogonal():
    # the norm-floor epsilon perturbs the result at the 1e-12 scale
    a = T.Tensor([1.0, 0.0])
    assert abs(T.cosine_similarity(a, T.Tensor([2.0, 0.0])).item() - 1.0) < 1e-9
    assert abs(T.cosine_similarity(a, T.Tensor([0.0, 3.0])).item()) < 1e-9


# -- backward semantics --------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square():
    x = T.Tensor([3.0], requires_grad=True)
    T.tsum(x * x).backward()
    np.testing.assert_allclose(x.grad, [6.0], atol=1e-15)


def test_grad_accumulates_additively():
    rng = np.random.default_rng(1)
    data = rng.standard_normal(4)

    x = T.Tensor(data, requires_grad=True)
    (T.tsum(x * x) + T.tsum(x * 3.0)).backward()
    combined = x.grad.copy()

    y = T.Tensor(data, requires_grad=True)
    T.tsum(y * y).backward()
    T.tsum(y * 3.0).backward()
    np.testing.assert_allclose(y.grad, combined, atol=1e-15)


def test_zero_grad_resets():
    x = T.Tensor([2.0], requires_grad=True)
    T.tsum(x * x).backward()
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0])


def test_leaf_off_path_gets_zero_grad():
    x = T.Tensor([1.0], requires_grad=True)
    y = T.Tensor([1.0], requires_grad=True)
    T.tsum(x * 2.0).backward()
    np.testing.assert_array_equal(y.grad, [0.0])


def test_shared_subexpression_counted_once():
    # y appears twice in the graph; d/dx (y + y) with y = x*x is 4x, not 8x
    x = T.Tensor([3.0], requires_grad=True)
    y = x * x
    T.tsum(y + y).backward()
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-15)


def test_detach_blocks_gradient():
    x = T.Tensor([2.0], requires_grad=True)
    T.tsum(x.detach() * x).backward()
    np.testing.assert_allclose(x.grad, [2.0], atol=1e-15)


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_constant_graph_backward_is_noop():
    x = T.Tensor([1.0])
    out = T.tsum(x * x)
    out.backward()
    assert x.grad is None


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))

    def run():
        x = T.Tensor(data, requires_grad=True)
        m = T.Tensor(w, requires_grad=True)
        loss = T.cross_entropy(T.matmul(T.gelu(x), m), [0, 1, 2, 0, 1])
        loss.backward()
        return x.grad.copy(), m.grad.copy(), loss.item()

    first, second = run(), run()
    assert first[2] == second[2]
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


# -- error paths --------------------------------------------------------------


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


def test_stack_shape_mismatch():
    with pytest.raises(ShapeError):
        T.stack([T.Tensor(np.ones(2)), T.Tensor(np.ones(3))])


def test_narrow_out_of_bounds():
    with pytest.raises(ShapeError):
        T.narrow(T.Tensor(np.ones((2, 5))), 1, 3, 7)


def test_embedding_id_out_of_range():
    with pytest.raises(IndexError):
        T.embedding(T.Tensor(np.ones((3, 2))), [0, 3])


def test_range_errors_are_typed_package_errors():
    # the CLI reports PromptLabError as an error line; a bare IndexError escaped it
    with pytest.raises(PromptLabError):
        T.cross_entropy(T.Tensor(np.zeros((1, 3))), [3])
    with pytest.raises(PromptLabError):
        T.embedding(T.Tensor(np.ones((3, 2))), [5])
    assert issubclass(IndexRangeError, IndexError)


def test_finite_check_catches_overflow():
    big = T.Tensor([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError):
            big * T.Tensor([10.0])
        T.set_finite_checks(False)
        try:
            out = big * T.Tensor([10.0])
            assert np.isinf(out.data[0])
        finally:
            T.set_finite_checks(True)


# -- gradients vs finite differences ----------------------------------------------


def test_grad_add_broadcast():
    rng = np.random.default_rng(10)
    a, b = leaf(rng, 3, 4), leaf(rng, 4)
    assert_gradients_match(lambda: T.tsum(T.mul(a + b, a + b)), [a, b])


def test_grad_mul_broadcast():
    rng = np.random.default_rng(11)
    a, b = leaf(rng, 2, 3), leaf(rng, 1, 3)
    assert_gradients_match(lambda: T.tsum(T.mul(a, b)), [a, b])


def test_grad_gelu():
    rng = np.random.default_rng(12)
    x = leaf(rng, 7)
    assert_gradients_match(lambda: T.tsum(T.gelu(x)), [x])


def test_grad_tanh():
    rng = np.random.default_rng(13)
    x = leaf(rng, 5)
    assert_gradients_match(lambda: T.tsum(T.mul(T.tanh(x), x)), [x])


def test_grad_matmul_2d():
    # plain product gradients are exact; hold this one to a tighter bar
    rng = np.random.default_rng(14)
    a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
    assert_gradients_match(lambda: T.tsum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b], tol=1e-6)


def test_grad_matmul_3d_shared_rhs():
    rng = np.random.default_rng(15)
    a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 2)
    assert_gradients_match(lambda: T.tsum(T.gelu(T.matmul(a, b))), [a, b])


def test_grad_matmul_3d_batched():
    rng = np.random.default_rng(16)
    a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 3)
    assert_gradients_match(lambda: T.tsum(T.matmul(a, b)), [a, b])


def test_grad_softmax():
    rng = np.random.default_rng(17)
    x = leaf(rng, 3, 5)
    w = T.Tensor(rng.standard_normal((3, 5)))
    assert_gradients_match(lambda: T.tsum(T.mul(T.softmax(x), w)), [x])


def test_grad_layer_norm():
    rng = np.random.default_rng(18)
    x, g, b = leaf(rng, 4, 6), leaf(rng, 6), leaf(rng, 6)
    w = T.Tensor(rng.standard_normal((4, 6)))
    assert_gradients_match(lambda: T.tsum(T.mul(T.layer_norm(x, g, b), w)), [x, g, b])


# -- frozen parents: no gradient computed, the trainable side still exact ---------------


def frozen(rng, *shape):
    return T.Tensor(rng.standard_normal(shape))


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((2, 3, 4), (4, 2)), ((2, 3, 4), (2, 4, 3))])
@pytest.mark.parametrize("trainable", ["a", "b"])
def test_grad_matmul_one_side_frozen(shapes, trainable):
    rng = np.random.default_rng(30)
    make_a = leaf if trainable == "a" else frozen
    make_b = leaf if trainable == "b" else frozen
    a, b = make_a(rng, *shapes[0]), make_b(rng, *shapes[1])
    param = a if trainable == "a" else b
    assert_gradients_match(lambda: T.tsum(T.gelu(T.matmul(a, b))), [param])


def test_grad_layer_norm_frozen_affine():
    rng = np.random.default_rng(31)
    x = leaf(rng, 2, 4, 6)
    g, b = frozen(rng, 6), frozen(rng, 6)
    w = T.Tensor(rng.standard_normal((2, 4, 6)))
    assert_gradients_match(lambda: T.tsum(T.mul(T.layer_norm(x, g, b), w)), [x])


def test_grad_layer_norm_trainable_gain_only():
    rng = np.random.default_rng(32)
    x, g, b = frozen(rng, 4, 6), leaf(rng, 6), frozen(rng, 6)
    w = T.Tensor(rng.standard_normal((4, 6)))
    assert_gradients_match(lambda: T.tsum(T.mul(T.layer_norm(x, g, b), w)), [g])


def test_frozen_parent_vjp_slot_is_none():
    rng = np.random.default_rng(33)
    x, w = leaf(rng, 2, 3, 4), frozen(rng, 4, 5)
    out = T.matmul(x, w)
    gx, gw = out._vjp(np.ones(out.shape))
    assert gx.shape == x.shape and gw is None
    out = T.matmul(frozen(rng, 3, 4), leaf(rng, 4, 2))
    assert out._vjp(np.ones(out.shape))[0] is None
    gain, bias = leaf(rng, 4), frozen(rng, 4)
    out = T.layer_norm(frozen(rng, 3, 4), gain, bias)
    gx, ggain, gbias = out._vjp(np.ones(out.shape))
    assert gx is None and gbias is None and ggain.shape == (4,)


def test_grad_l2_normalize():
    rng = np.random.default_rng(19)
    x = leaf(rng, 3, 4)
    w = T.Tensor(rng.standard_normal((3, 4)))
    assert_gradients_match(lambda: T.tsum(T.mul(T.l2_normalize(x), w)), [x])


def test_grad_cosine_similarity():
    rng = np.random.default_rng(20)
    a, b = leaf(rng, 6), leaf(rng, 6)
    assert_gradients_match(lambda: T.cosine_similarity(a, b), [a, b])


def test_grad_cross_entropy():
    rng = np.random.default_rng(21)
    x = leaf(rng, 8, 5)
    labels = [0, 2, 1, 4, 3, 2, 0, 1]
    assert_gradients_match(lambda: T.cross_entropy(x, labels), [x], tol=1e-5)


def test_grad_embedding_scatter_adds_duplicates():
    table = T.Tensor(np.zeros((3, 2)), requires_grad=True)
    T.tsum(T.embedding(table, [1, 1, 2])).backward()
    np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])


def test_grad_embedding_fd():
    rng = np.random.default_rng(22)
    table = leaf(rng, 5, 3)
    w = T.Tensor(rng.standard_normal((4, 3)))
    ids = [0, 2, 2, 4]
    assert_gradients_match(lambda: T.tsum(T.mul(T.embedding(table, ids), w)), [table])


def test_grad_concat_and_narrow():
    rng = np.random.default_rng(23)
    a, b = leaf(rng, 2, 3), leaf(rng, 4, 3)

    def build():
        joined = T.concat([a, b], axis=0)
        return T.tsum(T.mul(T.narrow(joined, 0, 1, 5), T.narrow(joined, 0, 1, 5)))

    assert_gradients_match(build, [a, b])


def test_grad_stack():
    rng = np.random.default_rng(24)
    a, b = leaf(rng, 3), leaf(rng, 3)
    assert_gradients_match(lambda: T.tsum(T.gelu(T.stack([a, b]))), [a, b])


def test_grad_reshape_transpose_expand():
    rng = np.random.default_rng(25)
    x = leaf(rng, 2, 6)

    def build():
        y = T.reshape(x, (3, 4))
        z = T.transpose_last(y)
        return T.tsum(T.mul(T.expand0(z, 3), T.expand0(z, 3)))

    assert_gradients_match(build, [x])


def test_grad_mean_axis():
    rng = np.random.default_rng(26)
    x = leaf(rng, 3, 4)
    assert_gradients_match(lambda: T.tsum(T.mul(T.tmean(x, axis=1), T.tmean(x, axis=1))), [x])


# -- properties ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_rows_are_distributions(values):
    out = T.softmax(T.Tensor(values)).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
def test_cross_entropy_nonnegative(values):
    logits = T.Tensor(np.asarray(values)[None, :])
    assert T.cross_entropy(logits, [0]).item() >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=8).filter(
        lambda v: sum(x * x for x in v) > 1e-6
    )
)
def test_l2_normalize_gives_unit_norm(values):
    out = T.l2_normalize(T.Tensor(values)).data
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9
