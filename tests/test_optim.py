import numpy as np
import pytest

from promptlab import tensor as T
from promptlab.errors import ContractError, ParameterError
from promptlab.optim import SGD, Adam, cosine_lr


def test_sgd_matches_hand_update():
    p = T.Tensor([1.0, 2.0], requires_grad=True)
    T.tsum(p * p).backward()  # grad = [2, 4]
    SGD([p], lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.8, 1.6], atol=1e-15)


def test_sgd_skips_params_without_grad():
    p = T.Tensor([1.0], requires_grad=True)
    SGD([p], lr=0.5).step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_adam_first_step_is_signed_lr():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = T.Tensor([1.0, -3.0], requires_grad=True)
    T.tsum(p * T.Tensor([2.0, -5.0])).backward()  # grad = [2, -5]
    Adam([p], lr=0.02).step()
    np.testing.assert_allclose(p.data, [1.0 - 0.02, -3.0 + 0.02], atol=1e-8)


def test_adam_converges_on_quadratic():
    p = T.Tensor([4.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        T.tsum(p * p).backward()
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_narrowed_adam_steps_its_entries_as_the_full_one_does():
    rng = np.random.default_rng(0)
    p = T.Tensor(rng.normal(size=5), requires_grad=True)
    full = Adam([p], lr=0.05)

    def step(opt, grad):
        opt.params[0]._grad = grad
        opt.step()

    for _ in range(3):
        step(full, rng.normal(size=5))
    rows = np.array([0, 2, 3])
    narrow = full.narrowed(rows)
    assert narrow.t == 3
    for _ in range(2):
        grad, before = rng.normal(size=5), p.data.copy()
        step(narrow, grad[rows])
        np.testing.assert_array_equal(p.data, before)  # the old parameter is left as it is
        step(full, grad)
    np.testing.assert_array_equal(narrow.params[0].data, p.data[rows])


def test_optimizer_rejects_constants():
    with pytest.raises(ParameterError):
        SGD([T.Tensor([1.0])], lr=0.1)


def test_optimizer_rejects_non_leaf():
    p = T.Tensor([1.0], requires_grad=True)
    with pytest.raises(ParameterError):
        Adam([p * p], lr=0.1)


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 0.002) == pytest.approx(0.002)
    assert cosine_lr(50, 100, 0.002) == pytest.approx(0.001)
    assert cosine_lr(100, 100, 0.002) == pytest.approx(0.0, abs=1e-18)


def test_cosine_lr_rejects_out_of_range_step():
    with pytest.raises(ContractError):
        cosine_lr(101, 100, 0.002)
    with pytest.raises(ContractError):
        cosine_lr(-1, 100, 0.002)
    with pytest.raises(ParameterError):
        cosine_lr(0, 0, 0.002)
