import math
import tracemalloc
import warnings
import weakref

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


def test_gelu_is_clips_quickgelu():
    z = np.linspace(-8.0, 8.0, 1601)
    np.testing.assert_allclose(T.gelu(T.Tensor(z)).data, z / (1.0 + np.exp(-1.702 * z)),
                               rtol=1e-12, atol=1e-15)


def test_gelu_large_inputs_are_finite_without_warnings():
    z = T.Tensor(np.array([-1e3, 1e3]), requires_grad=True)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = T.gelu(z)
        T.tsum(out).backward()
    np.testing.assert_array_equal(out.data, [0.0, 1e3])
    np.testing.assert_array_equal(z.grad, [0.0, 1.0])


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
    (T.tsum(x * x) + T.tsum(T.scale(x, 3.0))).backward()
    combined = x.grad.copy()

    y = T.Tensor(data, requires_grad=True)
    T.tsum(y * y).backward()
    T.tsum(T.scale(y, 3.0)).backward()
    np.testing.assert_allclose(y.grad, combined, atol=1e-15)


def test_zero_grad_resets():
    x = T.Tensor([2.0], requires_grad=True)
    T.tsum(x * x).backward()
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0])


def test_leaf_off_path_gets_zero_grad():
    x = T.Tensor([1.0], requires_grad=True)
    y = T.Tensor([1.0], requires_grad=True)
    T.tsum(T.scale(x, 2.0)).backward()
    np.testing.assert_array_equal(y.grad, [0.0])


def test_shared_subexpression_counted_once():
    # y appears twice in the graph; d/dx (y + y) with y = x*x is 4x, not 8x
    x = T.Tensor([3.0], requires_grad=True)
    y = x * x
    T.tsum(y + y).backward()
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-15)


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_operators_take_only_tensors():
    # a plain number is no operand: Python's own TypeError names both types
    x = T.Tensor([1.0, 2.0])
    for apply in (lambda: x * 2.0, lambda: x + 2.0, lambda: 2.0 * x):
        with pytest.raises(TypeError, match="unsupported operand type.*'Tensor'"):
            apply()


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


# -- what the graph keeps -------------------------------------------------------


def test_second_backward_through_a_freed_graph_is_refused():
    # backward frees each node it uses: running it again must fail, not add wrong gradients
    x = T.Tensor([3.0], requires_grad=True)
    y = x * x
    loss = T.tsum(y)
    loss.backward()
    with pytest.raises(ContractError, match="freed"):
        loss.backward()
    with pytest.raises(ContractError, match="freed"):
        T.tsum(T.scale(y, 2.0)).backward()  # a new graph over a freed node
    np.testing.assert_array_equal(x.grad, [6.0])


def test_scalar_leaf_backward_accumulates_ones():
    x = T.Tensor(2.0, requires_grad=True)
    x.backward()
    x.backward()
    assert x.is_leaf() and x.grad == 2.0


def _shape_only_op(name, rng):
    """``name`` applied to a [6, 4] tensor; its VJP reads the tensor's shape, not its data."""
    if name == "attention_sublayer":
        params = sublayer_params(rng, 4, frozen)
        return lambda p: T.attention_sublayer(p, *params, 2, ((2, 3),), False)
    if name == "mlp_sublayer":
        params = sublayer_params(rng, 4, frozen, hidden=5)
        return lambda p: T.mlp_sublayer(p, *params)
    bias, other = frozen(rng, 4), frozen(rng, 6, 4)
    return {
        "add": lambda p: T.add(p, bias),
        "embedding": lambda p: T.embedding(p, [5, 0, 2, 2]),
        "concat": lambda p: T.concat([p, other, p], axis=1),
        "stack": lambda p: T.stack([other, p]),
        "narrow": lambda p: T.narrow(p, 0, 1, 4),
        "reshape": lambda p: T.reshape(p, (4, 6)),  # a view of the parent's data
        "tsum": lambda p: T.tsum(p, axis=0),
    }[name]


@pytest.mark.parametrize("name", ["add", "embedding", "concat", "stack", "narrow", "reshape",
                                  "tsum", "attention_sublayer", "mlp_sublayer"])
def test_graph_frees_a_parent_whose_data_no_vjp_reads(name):
    rng = np.random.default_rng(50)
    x = leaf(rng, 6, 4)
    op = _shape_only_op(name, rng)
    freed = []

    def build():
        parent = T.scale(x, 1.5)
        parent_data = weakref.ref(parent.data)
        out = op(parent)
        weights = T.Tensor(np.cos(np.arange(out.size)).reshape(out.shape))
        loss = T.tsum(T.mul(out, weights))
        del parent, out
        freed.append(parent_data() is None)
        return loss

    assert_gradients_match(build, [x])
    assert freed and all(freed)


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


# -- fused encoder sub-layers -------------------------------------------------------


def sublayer_params(rng, d, make, hidden=None):
    """Attention's wkv = [wqk | wv] and wo, or the MLP's w1 and w2."""
    if hidden is None:
        return [make(rng, d, 2 * d), make(rng, d, d)]
    return [make(rng, d, hidden), make(rng, hidden, d)]


# row stacks: one prompt of 3 rows, or 2 prompts of 3 rows then 1 of 5 and 2 of 2
STACK_GROUPS = {"L_d": ((1, 3),), "n_L_d": ((2, 3), (1, 5), (2, 2))}


@pytest.mark.parametrize("lead", sorted(STACK_GROUPS))
@pytest.mark.parametrize("q_len", ["full", 1])
@pytest.mark.parametrize("num_heads", [1, 2, 4])
def test_grad_attention_sublayer(num_heads, q_len, lead):
    rng = np.random.default_rng(40)
    groups, d = STACK_GROUPS[lead], 4
    rows = sum(count * length for count, length in groups)
    out_rows = sum(count for count, _ in groups) if q_len == 1 else rows
    h = leaf(rng, rows, d)
    params = sublayer_params(rng, d, frozen)
    w = T.Tensor(rng.standard_normal((out_rows, d)))
    out = T.attention_sublayer(h, *params, num_heads, groups, q_len == 1)
    assert out.shape == (out_rows, d)
    assert_gradients_match(lambda: T.tsum(T.mul(
        T.attention_sublayer(h, *params, num_heads, groups, q_len == 1), w)), [h])


def test_attention_sublayer_groups_attend_within_each_prompt():
    # a stack of groups gives each prompt the rows it gets alone
    rng = np.random.default_rng(43)
    h = rng.standard_normal((2 * 3 + 4, 4))
    params = sublayer_params(rng, 4, frozen)
    for readout in (False, True):
        stacked = T.attention_sublayer(T.Tensor(h), *params, 2, ((2, 3), (1, 4)), readout).data
        alone = [T.attention_sublayer(T.Tensor(h[start:start + length]), *params, 2,
                                      ((1, length),), readout).data
                 for start, length in ((0, 3), (3, 3), (6, 4))]
        np.testing.assert_allclose(stacked, np.concatenate(alone), rtol=0, atol=1e-12)


@pytest.mark.parametrize("lead", [(), (2,)], ids=["L_d", "n_L_d"])
def test_grad_mlp_sublayer(lead):
    rng = np.random.default_rng(41)
    h = leaf(rng, *lead, 3, 4)
    params = sublayer_params(rng, 4, frozen, hidden=5)
    w = T.Tensor(rng.standard_normal(h.shape))
    assert_gradients_match(lambda: T.tsum(T.mul(T.mlp_sublayer(h, *params), w)), [h])


def closure_arrays(fn):
    """Every array a function's closure reaches, through lists, tuples, functions and bases."""
    pending, seen = [cell.cell_contents for cell in fn.__closure__ or ()], set()
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
            pending.append(obj.base)
        elif isinstance(obj, (list, tuple)):
            pending.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            pending.extend(cell.cell_contents for cell in obj.__closure__)


@pytest.mark.parametrize("readout", [False, True], ids=["full", "readout"])
def test_attention_vjp_holds_no_keys_or_values(readout):
    # the VJP recomputes each group's keys and values from xhat: no array of
    # [k | v] rows, nor a copy of [wqk | wv], outlives the forward
    rng = np.random.default_rng(45)
    d = 4
    h = leaf(rng, 2 * 3 + 1 * 5, d)
    wkv, wo = sublayer_params(rng, d, frozen)
    out = T.attention_sublayer(h, wkv, wo, 2, ((2, 3), (1, 5)), readout)
    held = list(closure_arrays(out._node.vjp))
    assert any(a.shape == h.shape for a in held)  # xhat
    assert all(a is wkv.data for a in held if a.ndim > 1 and a.shape[-1] == 2 * d)


def test_mlp_forward_holds_the_pre_activation_and_gate_of_one_block_of_rows():
    # beside xhat, the slope and the output, the forward holds two buffers of
    # one block of rows (the pre-activation and its gate) and row vectors:
    # neither is ever a whole-stack array
    rng = np.random.default_rng(46)
    rows, d, hidden = 4 * T._MLP_BLOCK, 8, 32
    h = leaf(rng, rows, d)
    params = sublayer_params(rng, d, frozen, hidden)
    tracemalloc.start()
    try:
        out = T.mlp_sublayer(h, *params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    xhat_slope_out, block = 8 * rows * (d + hidden + d), 8 * T._MLP_BLOCK * hidden
    assert xhat_slope_out < peak < xhat_slope_out + 3 * block
    assert out.shape == h.shape


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 130, 224, 225, 260])
def test_row_products_match_one_product(rows):
    # one product up to 448 flattened rows, then whole 64-row blocks and the
    # remainder; a leading axis is flattened
    rng = np.random.default_rng(44)
    x, w = rng.standard_normal((rows, 2, 5)), rng.standard_normal((5, 3))
    np.testing.assert_allclose(T._row_products(x, w), x @ w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(T._row_products(x, w.T.copy().T), x @ w, rtol=0, atol=1e-12)
    out = np.empty((rows, 2, 3))
    T._row_products(x, w, out=out)
    np.testing.assert_array_equal(out, T._row_products(x, w))


def test_attention_sublayer_rejects_bad_heads_and_rows():
    rng = np.random.default_rng(42)
    h, params = frozen(rng, 6, 4), sublayer_params(rng, 4, frozen)
    # indivisible heads; groups short of the rows, past them, with no prompt or with empty prompts
    for heads, groups in ((3, ((2, 3),)), (2, ((2, 2),)), (2, ((2, 3), (1, 1))),
                          (2, ((0, 3), (2, 3))), (2, ((6, 0), (2, 3)))):
        with pytest.raises(ShapeError):
            T.attention_sublayer(h, *params, heads, groups, False)
    with pytest.raises(ShapeError):
        T.attention_sublayer(frozen(rng, 2, 3, 4), *params, 1, ((2, 3),), True)


def test_fused_sublayers_reject_weights_that_do_not_fit_the_rows():
    rng = np.random.default_rng(45)
    h = frozen(rng, 6, 4)
    # each attention weight in turn sized for rows 5 wide where they are 4, and a
    # [wqk | wv] as wide as the rows
    for wkv, wo in (((5, 10), (4, 4)), ((4, 8), (5, 5)), ((4, 4), (4, 4))):
        with pytest.raises(ShapeError, match="^attention_sublayer: weights must have shapes"):
            T.attention_sublayer(h, frozen(rng, *wkv), frozen(rng, *wo), 2, ((2, 3),), False)
    for w1, w2 in (((5, 3), (3, 4)), ((4, 3), (3, 5)), ((4, 3), (2, 4))):
        with pytest.raises(ShapeError, match="^mlp_sublayer: weights must have shapes"):
            T.mlp_sublayer(h, frozen(rng, *w1), frozen(rng, *w2))


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
    gx, gw = out._node.vjp(np.ones(out.shape))
    assert gx.shape == x.shape and gw is None
    out = T.matmul(frozen(rng, 3, 4), leaf(rng, 4, 2))
    assert out._node.vjp(np.ones(out.shape))[0] is None
    gain, bias = leaf(rng, 4), frozen(rng, 4)
    out = T.layer_norm(frozen(rng, 3, 4), gain, bias)
    gx, ggain, gbias = out._node.vjp(np.ones(out.shape))
    assert gx is None and gbias is None and ggain.shape == (4,)
    for op in (T.add, T.mul):
        x, b = leaf(rng, 2, 3, 4), frozen(rng, 4)
        out = op(x, b)
        gx, gb = out._node.vjp(np.ones(out.shape))
        assert gx.shape == x.shape and gb is None
        out = op(b, x)
        gb, gx = out._node.vjp(np.ones(out.shape))
        assert gb is None and gx.shape == x.shape
    # fused sub-layers: the input is the only parent, and a trainable weight is refused
    sublayers = (lambda h, ps: T.attention_sublayer(h, *ps, 2, ((2, 3),), True),
                 lambda h, ps: T.mlp_sublayer(h, *ps))
    for op, hidden in zip(sublayers, (None, 5)):
        x = leaf(rng, 6, 4)
        params = sublayer_params(rng, 4, frozen, hidden)
        out = op(x, params)
        (gx,) = out._node.vjp(np.ones(out.shape))
        assert out._node.parents == (x,) and gx.shape == x.shape
        for p in params:
            p.requires_grad = True
            with pytest.raises(ContractError):
                op(x, params)
            p.requires_grad = False


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


def test_embedding_values_scatter_and_range():
    src = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.embedding(src, [2, 0, 2, 2])
    np.testing.assert_array_equal(out.data, [[4, 5], [0, 1], [4, 5], [4, 5]])
    T.tsum(out).backward()
    np.testing.assert_array_equal(src.grad, [[1, 1], [0, 0], [3, 3]])
    with pytest.raises(IndexRangeError):
        T.embedding(src, [0, 3])
    with pytest.raises(ShapeError, match="embedding"):
        T.embedding(T.Tensor(np.ones(3)), [0])
    with pytest.raises(ShapeError, match="embedding"):
        T.embedding(src, [[0, 2], [1, 1]])


@pytest.mark.parametrize("index, width", [
    pytest.param([3, 0, 3, 3, 5, 0, 1], 4, id="embedding-index0"),
    # a search15 stack's row count and width, each id used about 250 times
    pytest.param(np.random.default_rng(29).integers(0, 7, 1728), 32,
                 id="embedding-32_columns_repeated_ids"),
])
def test_gather_vjp_bytes_match_add_at(index, width):
    # repeated ids sum in index order from zero, as np.add.at sums them
    rng = np.random.default_rng(28)
    table = T.Tensor(rng.standard_normal((7, width)), requires_grad=True)
    out = T.embedding(table, index)
    for _ in range(5):
        g = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-8, 8, out.shape)
        expected = np.zeros_like(table.data)
        np.add.at(expected, np.ravel(index), g.reshape(-1, width))
        (got,) = out._node.vjp(g)
        assert got.tobytes() == expected.tobytes()


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
