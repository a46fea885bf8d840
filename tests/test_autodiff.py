import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import gradcheck
from histodistill.autodiff import (GradCheckError, GraphError, ShapeError,
                                   Tensor, backward, grad_check, tensor)


def sum_(x):
    """Sum of every entry, as one test-local node: the package has no
    reduction op, and these tests need a scalar of a whole tensor."""
    x = ad._as_tensor(x)
    return ad._make(x.values.sum(), (x,),
                    lambda g: ad._accumulate(x, np.broadcast_to(g, x.shape)), "sum")


def log(x):
    """Elementwise log, as one test-local node."""
    x = ad._as_tensor(x)
    return ad._make(np.log(x.values), (x,),
                    lambda g: ad._accumulate(x, g / x.values), "log")


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
    assert split.shape == (1, 3, 2, 2)
    np.testing.assert_array_equal(split.values[0, 1], x[:, 2:4])
    np.testing.assert_array_equal(ad.merge_heads(split).values, x)
    with pytest.raises(ShapeError):
        ad.split_heads(tensor(x), 4)


def test_split_heads_batches_consecutive_row_blocks():
    x = np.arange(36.0).reshape(6, 6)
    split = ad.split_heads(tensor(x), 3, batch=2)
    assert split.shape == (2, 3, 3, 2)
    np.testing.assert_array_equal(split.values[1, 2], x[3:, 4:])
    np.testing.assert_array_equal(ad.merge_heads(split).values, x)
    with pytest.raises(ShapeError):
        ad.split_heads(tensor(x), 3, batch=4)


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


def test_batched_matmul_broadcasts_a_leading_extent_of_one():
    rng = np.random.default_rng(32)
    a, b = rng.normal(size=(1, 2, 3, 4)), rng.normal(size=(5, 2, 4, 6))
    a_t = tensor(a, requires_grad=True)
    out = ad.batched_matmul(a_t, tensor(b))
    assert out.shape == (5, 2, 3, 6)
    np.testing.assert_allclose(out.values[3, 1], a[0, 1] @ b[3, 1], rtol=1e-14)
    grads = backward(sum_(out))
    np.testing.assert_allclose(grads[a_t][0], np.ones((2, 3, 6)) @ b.sum(axis=0)
                               .swapaxes(-1, -2), rtol=1e-12)
    with pytest.raises(ShapeError):
        ad.batched_matmul(tensor(rng.normal(size=(2, 2, 3, 4))), tensor(b))


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def test_cumprod_gradient_through_an_exact_zero():
    # A hazard of 1 makes the running product of 1 - h exactly 0 from there
    # on; the survival term's backward divides by no factor, so its
    # gradient stays finite. Finite differences of 1e-8 keep every zero
    # survival below the clamp, where it has no gradient.
    h0 = np.array([[0.5, 1.0, 0.2, 0.3], [0.1, 0.4, 1.0, 0.6]])
    events = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    survivals = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    h = tensor(h0, requires_grad=True)
    loss = ad.survival_nll(h, events, survivals, 1e-7)
    np.testing.assert_allclose(loss.values, -2.0 * np.log(1e-7) - np.log(0.5 * 0.9 * 0.6),
                               rtol=1e-14)
    grads = backward(loss)

    def nll(v):
        survival = np.cumprod(1.0 - v, axis=-1)
        return -float((np.log(np.maximum(v, 1e-7)) * events).sum()
                      + (np.log(np.maximum(survival, 1e-7)) * survivals).sum())

    numeric = fd_gradient(nll, h0.copy(), eps=1e-8)
    assert np.isfinite(grads[h]).all()
    np.testing.assert_allclose(grads[h], numeric, atol=1e-6)
    with pytest.raises(ShapeError):
        ad.survival_nll(h, None, None, 1e-7)


def test_squared_and_cosine_error_values():
    pred = tensor([[3.0, 4.0]])
    np.testing.assert_allclose(ad.squared_error([pred], [[[0.0, 4.0]]]).values, 4.5)
    np.testing.assert_allclose(ad.cosine_error([pred], [[[4.0, -3.0]]], 2.0).values, 1.0)
    np.testing.assert_allclose(ad.cosine_error([pred], [[[6.0, 8.0]]], 2.0).values, 0.0,
                               atol=1e-15)
    # the mean over categories happens inside the node
    np.testing.assert_allclose(
        ad.squared_error([pred, pred], [[[0.0, 4.0]], [[3.0, 4.0]]]).values, 2.25)
    with pytest.raises(ShapeError):
        ad.squared_error([pred], [[[1.0]]])
    with pytest.raises(ShapeError):
        ad.squared_error([pred, pred], [[[0.0, 4.0]]])


def test_squared_and_cosine_error_sum_over_rows():
    pred = tensor([[3.0, 4.0], [1.0, 0.0]])
    target = [[0.0, 4.0], [0.0, 1.0]]
    # row means 4.5 and 1.0; cos 0 and 0 with gamma 2
    np.testing.assert_allclose(ad.squared_error([pred], [target]).values, 5.5)
    np.testing.assert_allclose(
        ad.cosine_error([pred], [[[4.0, -3.0], [0.0, 1.0]]], 2.0).values, 2.0)
    with pytest.raises(ShapeError):
        ad.cosine_error([tensor([1.0, 2.0])], [[1.0, 2.0]], 2.0)


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
    grads = backward(sum_(ad.mul(ad.softmax(x, axis=1), probe)))

    def scalar(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return float(((e / e.sum(axis=1, keepdims=True)) * probe).sum())

    np.testing.assert_allclose(grads[x], fd_gradient(scalar, x0.copy()),
                               atol=1e-8)


def test_masked_softmax_zero_weight_and_gradient_off_mask():
    rng = np.random.default_rng(34)
    x0 = rng.normal(size=(2, 5))
    mask = np.array([[True, True, True, False, False], [True] * 5])
    x = tensor(x0, requires_grad=True)
    out = ad.softmax(x, axis=-1, mask=mask)
    assert (out.values[0, 3:] == 0.0).all()
    np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-15)
    np.testing.assert_array_equal(out.values[1], ad.softmax(tensor(x0[1]), axis=0).values)
    np.testing.assert_array_equal(out.values[0, :3],
                                  ad.softmax(tensor(x0[0, :3]), axis=0).values)
    grads = backward(sum_(ad.mul(out, rng.normal(size=(2, 5)))))
    assert (grads[x][0, 3:] == 0.0).all()
    assert np.all(grads[x][0, :3] != 0.0)


def _former_softmax(x, axis, mask=None):
    """Softmax before it wrote every step into its one output array, kept
    verbatim as the oracle."""
    x = ad._as_tensor(x)
    if not -x.values.ndim <= axis < x.values.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    kept = x.values if mask is None else np.where(mask, x.values, -np.inf)
    e = np.exp(kept - kept.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        ad._accumulate(x, y * (g - dot))

    return ad._make(y, (x,), backward_fn, "softmax")


@pytest.mark.parametrize("shape", [(3, 2, 6, 21), (5, 1, 21), (3, 2, 6, 6)])
@pytest.mark.parametrize("masked", [False, True])
def test_softmax_keeps_the_bits_of_the_former_softmax(shape, masked):
    # the attention shapes: (B, heads, tokens, W) over patches, (B, 1, W)
    # pooling rows, (B, heads, tokens, tokens) in self-attention
    rng = np.random.default_rng([38, len(shape), shape[-1], int(masked)])
    x0 = rng.normal(scale=4.0, size=shape)
    probe = rng.normal(size=shape)
    mask = None
    if masked:      # per bag, its first n of W entries, at least one
        lengths = rng.integers(1, shape[-1] + 1, size=shape[0])
        lengths[0] = 1
        mask = (np.arange(shape[-1]) < lengths[:, None]).reshape(
            (shape[0],) + (1,) * (len(shape) - 2) + (shape[-1],))
    results = []
    for op in (ad.softmax, _former_softmax):
        x = tensor(x0, requires_grad=True)
        out = op(x, axis=-1, mask=mask)
        grads = backward(sum_(ad.mul(out, probe)))
        results.append((out.values, grads[x]))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    if masked:
        assert not results[0][0][~np.broadcast_to(mask, shape)].any()


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_activation_origin_values():
    assert ad.elu(tensor(0.0)).values == 0.0
    assert ad.sigmoid(tensor(0.0)).values == 0.5


def test_elu_negative_closed_form():
    np.testing.assert_allclose(ad.elu(tensor(-1.0)).values,
                               np.exp(-1.0) - 1.0, rtol=1e-12)


def test_relu_gradient_piecewise():
    x = tensor([2.0, -2.0], requires_grad=True)
    grads = backward(sum_(ad.relu(x)))
    np.testing.assert_array_equal(grads[x], [1.0, 0.0])


def test_sigmoid_matches_the_two_sided_closed_form_bit_for_bit():
    v = np.random.default_rng(35).normal(scale=6.0, size=200)
    expected = np.where(v >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                        np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    np.testing.assert_array_equal(ad.sigmoid(tensor(v)).values, expected)


def _sigmoid_two_sided_select(v):
    """The former sigmoid, kept as the oracle for the select-free one."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_keeps_the_bits_of_the_two_sided_select():
    special = np.array([0.0, 5e-324, 1e-320, 709.0, 745.0, 800.0, 1e308])
    special = np.concatenate([special, -special])
    rng = np.random.default_rng(36)
    for v in (special, rng.normal(scale=8.0, size=(2586, 64)),
              rng.uniform(-40.0, 40.0, size=5000)):
        got = ad.sigmoid(tensor(v)).values
        np.testing.assert_array_equal(got.view(np.int64),
                                      _sigmoid_two_sided_select(v).view(np.int64))


def _gate_expressions(v, g):
    """The gate arithmetic before it wrote into its own arrays, kept verbatim
    as the oracle: sigmoid's forward, then its backward."""
    y = np.exp(np.minimum(v, 0.0))
    y /= 1.0 + np.exp(-np.abs(v))
    return y, g * y * (1.0 - y)


def test_in_place_gate_arithmetic_keeps_the_bits():
    special = np.array([0.0, 5e-324, 1e-320, 709.0, 745.0, 800.0, 1e308])
    rng = np.random.default_rng(37)
    for v in (np.concatenate([special, -special]),
              rng.normal(scale=3.0, size=(2560, 64))):
        g = rng.normal(size=v.shape)
        g.flags.writeable = False       # a backward must not write into g
        want = _gate_expressions(v, g)
        x = tensor(v, requires_grad=True)
        y = ad.sigmoid(x)
        y._backward_fn(g)
        for got, expected in zip((y.values, x.grad), want):
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_sigmoid_extreme_inputs_do_not_overflow():
    out = ad.sigmoid(tensor([-800.0, 800.0]))
    np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("op", [ad.elu, ad.sigmoid, ad.relu])
def test_activation_gradients(op):
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=8) + 0.05   # nudge away from the relu kink
    probe = rng.normal(size=8)
    x = tensor(x0, requires_grad=True)
    grads = backward(sum_(ad.mul(op(x), probe)))
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
    assert dict(gradcheck._CHECKS)["layer_norm"](1e-5) < 1e-5


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = tensor(np.zeros((2, 3)), requires_grad=True)
    grads = backward(sum_(x))
    np.testing.assert_array_equal(grads[x], np.ones((2, 3)))


def test_backward_elementwise_square():
    x = tensor([1.0, 2.0], requires_grad=True)
    grads = backward(sum_(ad.mul(x, x)))
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(ad.mul(x, 2.0))


def test_backward_twice_on_same_loss_rejected():
    x = tensor([1.0], requires_grad=True)
    loss = sum_(ad.mul(x, x))
    backward(loss)
    with pytest.raises(GraphError):
        backward(loss)


def test_gradients_accumulate_across_losses():
    x = tensor([1.0, 2.0], requires_grad=True)
    backward(sum_(ad.mul(x, x)))
    backward(sum_(ad.mul(x, 3.0)))
    np.testing.assert_array_equal(x.grad, [2.0 + 3.0, 4.0 + 3.0])


def test_backward_drops_interior_gradients_and_keeps_leaves():
    x = tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    loss = sum_(ad.mul(y, 3.0))
    grads = backward(loss)
    assert y.grad is None and loss.grad is None
    np.testing.assert_array_equal(grads[x], [6.0, 12.0])
    assert x.grad is grads[x]


def test_backward_leaves_interior_nodes_without_parents_or_closure():
    x = tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    z = ad.mul(y, 3.0)
    loss = sum_(z)
    grads = backward(loss)
    for node in (y, z, loss):
        assert node._parents == () and node._backward_fn is None and node.grad is None
    np.testing.assert_array_equal(z.values, [3.0, 12.0])    # values stay readable
    assert list(grads) == [x]
    np.testing.assert_array_equal(x.grad, [6.0, 12.0])
    with pytest.raises(GraphError):
        y.assign_(np.array([5.0, 5.0]))


def test_a_second_backward_through_a_consumed_node_is_rejected():
    x = tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    backward(sum_(y))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    # y has no parents left, but it must not pass for a leaf
    with pytest.raises(GraphError, match="mul node"):
        backward(sum_(ad.mul(y, 3.0)))
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


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
    grads = backward(sum_(ad.add(tensor(x0), b)))
    np.testing.assert_array_equal(grads[b], np.full(3, 4.0))


def test_concat_and_gather_round_trip_gradients():
    rng = np.random.default_rng(7)
    a = tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = tensor(rng.normal(size=(2, 2)), requires_grad=True)
    merged = ad.concat([a, b], axis=0)
    assert merged.shape == (5, 2)
    back = ad.gather_rows(merged, np.arange(3))
    grads = backward(sum_(ad.mul(back, back)))
    np.testing.assert_allclose(grads[a], 2.0 * a.values)
    assert grads.get(b) is None or not np.any(grads[b])


def test_gather_rows_scatters_back_and_rejects_negative_rows():
    rng = np.random.default_rng(33)
    x0 = rng.normal(size=(4, 3))
    x = tensor(x0, requires_grad=True)
    index = np.array([[2, 0], [3, 1]])
    out = ad.gather_rows(x, index)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.values, x0[index])
    probe = rng.normal(size=(2, 2, 3))
    grads = backward(sum_(ad.mul(out, probe)))
    np.testing.assert_array_equal(grads[x][index], probe)
    # take would wrap -1 around to the last row
    with pytest.raises(ShapeError, match="negative"):
        ad.gather_rows(x, np.array([[2, 0, -1]]))
    with pytest.raises(ShapeError):
        ad.gather_rows(x, np.array([4]))


def test_non_finite_forward_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            log(tensor([0.0]))


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
        out = sum_(ad.mul(x, x))
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
        return ad.mul(sum_(ad.mul(log(probs), np.eye(5)[target])), -1.0)

    assert grad_check(f, {"logits": logits}) < 1e-6


def test_grad_check_reports_offending_parameter():
    params = {"bad": tensor([0.5], requires_grad=True)}

    def f(p):
        # crosses into log(<=0) once perturbed downward far enough
        return log(sum_(ad.add(p["bad"], -(0.5 - 1e-7))))

    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(GradCheckError, match="bad"):
            grad_check(f, params, eps=1e-5)


def test_grad_check_restores_values():
    x = tensor([1.0, -1.0], requires_grad=True)
    before = x.values.copy()
    grad_check(lambda p: sum_(ad.mul(p["x"], p["x"])), {"x": x})
    np.testing.assert_array_equal(x.values, before)
