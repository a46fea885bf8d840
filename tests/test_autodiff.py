import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill.autodiff import (GradCheckError, GraphError, ShapeError,
                                   Tensor, backward, grad_check, tensor)


def fd_gradient(f, x, eps=1e-6):
    """Central differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (up - lo) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(tensor(np.eye(2)), tensor(x))
    np.testing.assert_array_equal(out.values, x)


def test_matmul_hand_product():
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).values, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 3))
    b0 = rng.normal(size=(3, 3))

    a = tensor(a0, requires_grad=True)
    grads = backward(ad.sum_(ad.matmul(a, tensor(b0))))
    numeric = fd_gradient(lambda v: (v @ b0).sum(), a0.copy())
    np.testing.assert_allclose(grads[a], numeric, rtol=1e-6)


def test_matmul_rejects_non_2d():
    with pytest.raises(ShapeError):
        ad.matmul(tensor(np.zeros(3)), tensor(np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# fused linear and batched heads
# ---------------------------------------------------------------------------

def test_linear_is_one_node_matching_matmul_plus_bias():
    rng = np.random.default_rng(30)
    x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    out = ad.linear(tensor(x), tensor(w, requires_grad=True), tensor(b))
    np.testing.assert_array_equal(out.values, x @ w + b)
    assert all(parent._op == "leaf" for parent in out._parents)


def test_linear_rejects_mismatched_bias():
    with pytest.raises(ShapeError):
        ad.linear(tensor(np.zeros((2, 3))), tensor(np.zeros((3, 4))),
                  tensor(np.zeros(3)))


def test_split_heads_takes_column_blocks_and_merge_inverts():
    x = np.arange(12.0).reshape(2, 6)
    split = ad.split_heads(tensor(x), 3)
    assert split.shape == (3, 2, 2)
    np.testing.assert_array_equal(split.values[1], x[:, 2:4])
    np.testing.assert_array_equal(ad.merge_heads(split).values, x)
    with pytest.raises(ShapeError):
        ad.split_heads(tensor(x), 4)


def test_batched_matmul_matches_per_slice_products():
    rng = np.random.default_rng(31)
    a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 5, 4))
    out = ad.batched_matmul(tensor(a), tensor(b), transpose_b=True, scale=0.5)
    for i in range(3):
        np.testing.assert_allclose(out.values[i], 0.5 * a[i] @ b[i].T, rtol=1e-14)
    with pytest.raises(ShapeError):
        ad.batched_matmul(tensor(a), tensor(b))
    with pytest.raises(ShapeError):
        ad.batched_matmul(tensor(a[0]), tensor(b[0]), transpose_b=True)


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def test_cumprod_gradient_through_an_exact_zero():
    x0 = np.array([[0.5, 0.0, 2.0, 3.0]])
    probe = np.array([[1.0, -2.0, 0.5, 0.25]])
    x = tensor(x0, requires_grad=True)
    np.testing.assert_array_equal(ad.cumprod(x).values, [[0.5, 0.0, 0.0, 0.0]])
    grads = backward(ad.sum_(ad.mul(ad.cumprod(x), probe)))
    numeric = fd_gradient(
        lambda v: float((np.cumprod(v, axis=-1) * probe).sum()), x0.copy())
    np.testing.assert_allclose(grads[x], numeric, atol=1e-8)


def test_squared_and_cosine_error_values():
    pred = tensor([[3.0, 4.0]])
    np.testing.assert_allclose(ad.squared_error(pred, [[0.0, 4.0]]).values, 4.5)
    np.testing.assert_allclose(ad.cosine_error(pred, [[4.0, -3.0]], 2.0).values, 1.0)
    np.testing.assert_allclose(ad.cosine_error(pred, [[6.0, 8.0]], 2.0).values, 0.0,
                               atol=1e-15)
    with pytest.raises(ShapeError):
        ad.squared_error(pred, [[1.0]])


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = ad.softmax(tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.values, [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_stable():
    out = ad.softmax(tensor([1000.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)


def test_softmax_hand_values():
    out = ad.softmax(tensor([1.0, 2.0, 3.0]), axis=0)
    np.testing.assert_allclose(
        out.values, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)


def test_softmax_rows_sum_to_one_and_bounded():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=5.0, size=(7, 11))
    out = ad.softmax(tensor(x), axis=1).values
    np.testing.assert_allclose(out.sum(axis=1), np.ones(7), atol=1e-12)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_softmax_invalid_axis():
    with pytest.raises(ShapeError):
        ad.softmax(tensor([[1.0, 2.0]]), axis=2)


def test_softmax_gradient():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(3, 4))
    probe = rng.normal(size=(3, 4))

    x = tensor(x0, requires_grad=True)
    grads = backward(ad.sum_(ad.mul(ad.softmax(x, axis=1), probe)))

    def scalar(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return float(((e / e.sum(axis=1, keepdims=True)) * probe).sum())

    np.testing.assert_allclose(grads[x], fd_gradient(scalar, x0.copy()),
                               atol=1e-8)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_activation_origin_values():
    assert ad.elu(tensor(0.0)).values == 0.0
    assert ad.sigmoid(tensor(0.0)).values == 0.5
    assert ad.tanh(tensor(0.0)).values == 0.0


def test_elu_negative_closed_form():
    np.testing.assert_allclose(ad.elu(tensor(-1.0)).values,
                               np.exp(-1.0) - 1.0, rtol=1e-12)


def test_relu_gradient_piecewise():
    x = tensor([2.0, -2.0], requires_grad=True)
    grads = backward(ad.sum_(ad.relu(x)))
    np.testing.assert_array_equal(grads[x], [1.0, 0.0])


def test_sigmoid_extreme_inputs_do_not_overflow():
    out = ad.sigmoid(tensor([-800.0, 800.0]))
    np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("op", [ad.elu, ad.sigmoid, ad.tanh, ad.relu])
def test_activation_gradients(op):
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=8) + 0.05   # nudge away from the relu kink
    probe = rng.normal(size=8)
    x = tensor(x0, requires_grad=True)
    grads = backward(ad.sum_(ad.mul(op(x), probe)))
    numeric = fd_gradient(
        lambda v: float((op(tensor(v)).values * probe).sum()), x0.copy())
    np.testing.assert_allclose(grads[x], numeric, atol=1e-7)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(tensor([[4.0, 4.0, 4.0]]),
                        tensor(np.ones(3)), tensor(np.zeros(3)))
    np.testing.assert_allclose(out.values, np.zeros((1, 3)), atol=1e-12)


def test_layer_norm_two_point_row():
    out = ad.layer_norm(tensor([[1.0, 3.0]]),
                        tensor(np.ones(2)), tensor(np.zeros(2)))
    np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.layer_norm(tensor(np.zeros((2, 3))),
                      tensor(np.ones(2)), tensor(np.zeros(3)))


def test_layer_norm_gradient():
    rng = np.random.default_rng(4)
    params = {
        "x": tensor(rng.normal(size=(3, 5)), requires_grad=True),
        "gain": tensor(rng.normal(size=5), requires_grad=True),
        "bias": tensor(rng.normal(size=5), requires_grad=True),
    }
    probe = rng.normal(size=(3, 5))
    err = grad_check(
        lambda p: ad.sum_(ad.mul(ad.layer_norm(p["x"], p["gain"], p["bias"]),
                                 probe)),
        params)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# stop_gradient
# ---------------------------------------------------------------------------

def test_stop_gradient_identity_on_values():
    x = tensor([[1.0, -2.0]], requires_grad=True)
    np.testing.assert_array_equal(ad.stop_gradient(x).values, x.values)


def test_stop_gradient_product_rule():
    # d/dx of x * frozen(x) at x=3 is 3, not 6
    x = tensor(3.0, requires_grad=True)
    grads = backward(ad.mul(x, ad.stop_gradient(x)))
    np.testing.assert_allclose(grads[x], 3.0)


def test_stop_gradient_contributes_bitwise_zero():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=4)

    x = tensor(x0, requires_grad=True)
    base = backward(ad.sum_(ad.mul(x, x)))[x].copy()

    # adding a term that reaches x only through stop_gradient changes nothing
    x = tensor(x0, requires_grad=True)
    loss = ad.add(ad.sum_(ad.mul(x, x)),
                  ad.sum_(ad.mul(ad.stop_gradient(x), 2.0)))
    np.testing.assert_array_equal(backward(loss)[x], base)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = tensor(np.zeros((2, 3)), requires_grad=True)
    grads = backward(ad.sum_(x))
    np.testing.assert_array_equal(grads[x], np.ones((2, 3)))


def test_backward_elementwise_square():
    x = tensor([1.0, 2.0], requires_grad=True)
    grads = backward(ad.sum_(ad.mul(x, x)))
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(ad.mul(x, 2.0))


def test_backward_twice_on_same_loss_rejected():
    x = tensor([1.0], requires_grad=True)
    loss = ad.sum_(ad.mul(x, x))
    backward(loss)
    with pytest.raises(GraphError):
        backward(loss)


def test_gradients_accumulate_across_losses():
    x = tensor([1.0, 2.0], requires_grad=True)
    backward(ad.sum_(ad.mul(x, x)))
    backward(ad.sum_(ad.mul(x, 3.0)))
    np.testing.assert_array_equal(x.grad, [2.0 + 3.0, 4.0 + 3.0])


def test_backward_through_shared_subexpression():
    # y appears twice; its gradient path must be counted twice
    x = tensor(2.0, requires_grad=True)
    y = ad.mul(x, x)
    grads = backward(ad.add(y, y))
    np.testing.assert_allclose(grads[x], 8.0)


def test_broadcast_add_gradient():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=3)
    b = tensor(b0, requires_grad=True)
    grads = backward(ad.sum_(ad.add(tensor(x0), b)))
    np.testing.assert_array_equal(grads[b], np.full(3, 4.0))


def test_concat_and_narrow_round_trip_gradients():
    rng = np.random.default_rng(7)
    a = tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = tensor(rng.normal(size=(2, 2)), requires_grad=True)
    merged = ad.concat([a, b], axis=1)
    assert merged.shape == (2, 5)
    back = ad.narrow(merged, 1, 0, 3)
    grads = backward(ad.sum_(ad.mul(back, back)))
    np.testing.assert_allclose(grads[a], 2.0 * a.values)
    assert grads.get(b) is None or not np.any(grads[b])


def test_non_finite_forward_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            ad.log(tensor([0.0]))


def test_tensor_rejects_non_finite_values():
    with pytest.raises(ValueError):
        tensor([np.nan])


def test_assign_only_on_leaves():
    x = tensor([1.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    with pytest.raises(GraphError):
        y.assign_(np.array([5.0]))


def test_no_grad_suppresses_graph():
    x = tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        out = ad.sum_(ad.mul(x, x))
    assert not out.requires_grad
    assert out._parents == ()


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------

def test_grad_check_square():
    params = {"x": tensor(3.0, requires_grad=True)}
    err = grad_check(lambda p: ad.mul(p["x"], p["x"]), params)
    assert err < 1e-8


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(8)
    logits = tensor(rng.normal(size=(1, 5)), requires_grad=True)
    target = 2

    def f(p):
        probs = ad.softmax(p["logits"], axis=1)
        return ad.mul(ad.log(ad.narrow(probs, 1, target, 1)), -1.0)

    assert grad_check(f, {"logits": logits}) < 1e-6


def test_grad_check_reports_offending_parameter():
    params = {"bad": tensor([0.5], requires_grad=True)}

    def f(p):
        # crosses into log(<=0) once perturbed downward far enough
        return ad.log(ad.sum_(ad.sub(p["bad"], 0.5 - 1e-7)))

    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(GradCheckError, match="bad"):
            grad_check(f, params, eps=1e-5)


def test_grad_check_restores_values():
    x = tensor([1.0, -1.0], requires_grad=True)
    before = x.values.copy()
    grad_check(lambda p: ad.sum_(ad.mul(p["x"], p["x"])), {"x": x})
    np.testing.assert_array_equal(x.values, before)
