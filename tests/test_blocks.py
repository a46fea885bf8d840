import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import blocks
from histodistill.autodiff import ShapeError, grad_check, tensor


def make_mhca(rng, width, heads):
    return blocks.MhcaParams.init(rng, width, heads)


def zero_mhca(width, heads):
    """All-zero projections; attention output collapses to the output bias."""
    z = lambda *shape: tensor(np.zeros(shape), requires_grad=True)
    return blocks.MhcaParams(wq=z(width, width), bq=z(width),
                             wk=z(width, width), bk=z(width),
                             wv=z(width, width), bv=z(width),
                             wo=z(width, width), bo=z(width), heads=heads)


def identity_mhca(width):
    eye = lambda: tensor(np.eye(width), requires_grad=True)
    z = lambda: tensor(np.zeros(width), requires_grad=True)
    return blocks.MhcaParams(wq=eye(), bq=z(), wk=eye(), bk=z(),
                             wv=eye(), bv=z(), wo=eye(), bo=z(), heads=1)


# ---------------------------------------------------------------------------
# cross-attention
# ---------------------------------------------------------------------------

def test_mhca_single_patch_attends_fully():
    rng = np.random.default_rng(0)
    params = make_mhca(rng, 8, 2)
    queries = tensor(rng.normal(size=(3, 8)))
    bag_row = rng.normal(size=(1, 8))
    out, scores = blocks.mhca_forward(params, queries, tensor(bag_row))
    assert out.shape == (3, 8)
    assert scores.shape == (3, 1)
    # with one key the attended value is the projected V row for every query
    v = bag_row @ params.wv.values + params.bv.values
    expected = v @ params.wo.values + params.bo.values
    np.testing.assert_allclose(out.values, np.repeat(expected, 3, axis=0),
                               rtol=1e-12)


def test_mhca_identical_keys_uniform_attention():
    rng = np.random.default_rng(1)
    params = make_mhca(rng, 8, 2)
    queries = tensor(rng.normal(size=(2, 8)))
    row = rng.normal(size=8)
    bag = tensor(np.tile(row, (5, 1)))
    out_full, _ = blocks.mhca_forward(params, queries, bag)
    out_one, _ = blocks.mhca_forward(params, queries, tensor(row[None, :]))
    # uniform attention over identical rows equals attending a single row
    np.testing.assert_allclose(out_full.values, out_one.values, atol=1e-12)


def test_mhca_hand_scores_identity_projections():
    rng = np.random.default_rng(2)
    width = 4
    params = identity_mhca(width)
    q0 = rng.normal(size=(2, width))
    b0 = rng.normal(size=(3, width))
    _, scores = blocks.mhca_forward(params, tensor(q0), tensor(b0))
    np.testing.assert_allclose(scores.values, q0 @ b0.T / np.sqrt(width),
                               rtol=1e-12)


def test_mhca_empty_bag_rejected():
    rng = np.random.default_rng(3)
    params = make_mhca(rng, 8, 2)
    with pytest.raises(ShapeError):
        blocks.mhca_forward(params, tensor(np.zeros((1, 8))),
                            tensor(np.zeros((0, 8)).reshape(0, 8)))


def test_mhca_score_head_selection():
    rng = np.random.default_rng(4)
    params = make_mhca(rng, 8, 2)
    queries = tensor(rng.normal(size=(2, 8)))
    bag = tensor(rng.normal(size=(4, 8)))
    _, merged = blocks.mhca_forward(params, queries, bag)
    _, h0 = blocks.mhca_forward(params, queries, bag, score_head=0)
    _, h1 = blocks.mhca_forward(params, queries, bag, score_head=1)
    np.testing.assert_allclose(merged.values, (h0.values + h1.values) / 2,
                               rtol=1e-12)
    with pytest.raises(ShapeError):
        blocks.mhca_forward(params, queries, bag, score_head=2)


def per_head_reference(params, queries, bag, score_head):
    """Attention one head at a time in plain numpy."""
    val = lambda t: t.values
    heads = params.heads
    dk = val(params.wq).shape[0] // heads
    q = queries @ val(params.wq) + val(params.bq)
    k = bag @ val(params.wk) + val(params.bk)
    v = bag @ val(params.wv) + val(params.bv)
    outputs, scores = [], []
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        s = q[:, cols] @ k[:, cols].T / np.sqrt(dk)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        outputs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
        scores.append(s)
    out = np.concatenate(outputs, axis=1) @ val(params.wo) + val(params.bo)
    merged = np.mean(scores, axis=0) if score_head is None else scores[score_head]
    return out, merged


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("pick_head", [False, True])
def test_mhca_batched_heads_match_per_head_reference(heads, pick_head):
    rng = np.random.default_rng(40 + heads)
    params = make_mhca(rng, 8, heads)
    queries = rng.normal(size=(3, 8))
    bag = rng.normal(size=(7, 8))
    score_head = heads - 1 if pick_head else None
    out, scores = blocks.mhca_forward(params, tensor(queries), tensor(bag),
                                      score_head=score_head)
    ref_out, ref_scores = per_head_reference(params, queries, bag, score_head)
    np.testing.assert_allclose(out.values, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scores.values, ref_scores, rtol=0, atol=1e-12)


def test_mhca_purity():
    rng = np.random.default_rng(5)
    params = make_mhca(rng, 8, 2)
    queries = tensor(rng.normal(size=(2, 8)))
    bag = tensor(rng.normal(size=(6, 8)))
    a, sa = blocks.mhca_forward(params, queries, bag)
    b, sb = blocks.mhca_forward(params, queries, bag)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(sa.values, sb.values)


def test_mhca_patch_permutation_permutes_score_columns():
    rng = np.random.default_rng(6)
    params = make_mhca(rng, 8, 2)
    queries = tensor(rng.normal(size=(2, 8)))
    bag = rng.normal(size=(5, 8))
    perm = rng.permutation(5)
    out_a, scores_a = blocks.mhca_forward(params, queries, tensor(bag))
    out_b, scores_b = blocks.mhca_forward(params, queries, tensor(bag[perm]))
    np.testing.assert_allclose(out_a.values, out_b.values, atol=1e-12)
    np.testing.assert_allclose(scores_a.values[:, perm], scores_b.values,
                               atol=1e-12)


def test_mhca_width_mismatch():
    rng = np.random.default_rng(7)
    params = make_mhca(rng, 8, 2)
    with pytest.raises(ShapeError):
        blocks.mhca_forward(params, tensor(np.zeros((1, 4))),
                            tensor(np.zeros((3, 8))))


# ---------------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------------

def test_mhsa_zero_projections_identity():
    x = np.random.default_rng(8).normal(size=(4, 6))
    out = blocks.mhsa_forward(zero_mhca(6, 2), tensor(x))
    np.testing.assert_array_equal(out.values, x)


def test_mhsa_permutation_equivariance():
    rng = np.random.default_rng(9)
    params = make_mhca(rng, 6, 2)
    x = rng.normal(size=(5, 6))
    perm = rng.permutation(5)
    out = blocks.mhsa_forward(params, tensor(x)).values
    out_perm = blocks.mhsa_forward(params, tensor(x[perm])).values
    np.testing.assert_allclose(out[perm], out_perm, atol=1e-12)


def test_mhsa_gradient_small_input():
    rng = np.random.default_rng(10)
    params = make_mhca(rng, 8, 2)
    x = tensor(rng.normal(size=(3, 8)), requires_grad=True)
    probe = rng.normal(size=(3, 8))
    named = dict(params.named_tensors("p"))
    named["x"] = x
    # the key bias cannot move the output (row-constant score shift), so it
    # is left out; its zero gradient is covered by the grad-check module
    del named["p.bk"]
    err = grad_check(
        lambda p: ad.sum_(ad.mul(blocks.mhsa_forward(params, x), probe)),
        named)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# feed-forward
# ---------------------------------------------------------------------------

def test_ffn_zero_weights_identity():
    width = 6
    z = lambda *shape: tensor(np.zeros(shape), requires_grad=True)
    params = blocks.FfnParams(norm_gain=tensor(np.ones(width), requires_grad=True),
                              norm_bias=z(width),
                              w1=z(width, 2 * width), b1=z(2 * width),
                              w2=z(2 * width, width), b2=z(width))
    x = np.random.default_rng(11).normal(size=(3, width))
    np.testing.assert_array_equal(blocks.ffn_forward(params, tensor(x)).values, x)


def test_ffn_shape_preserved():
    rng = np.random.default_rng(12)
    params = blocks.FfnParams.init(rng, 10)
    for n in (1, 4, 17):
        out = blocks.ffn_forward(params, tensor(rng.normal(size=(n, 10))))
        assert out.shape == (n, 10)


def test_ffn_hidden_width_is_double():
    params = blocks.FfnParams.init(np.random.default_rng(13), 9)
    assert params.w1.shape == (9, 18)
    assert params.w2.shape == (18, 9)


def test_ffn_gradient():
    rng = np.random.default_rng(14)
    params = blocks.FfnParams.init(rng, 6)
    x = tensor(rng.normal(size=(2, 6)), requires_grad=True)
    probe = rng.normal(size=(2, 6))
    named = dict(params.named_tensors("ffn"))
    named["x"] = x
    err = grad_check(
        lambda p: ad.sum_(ad.mul(blocks.ffn_forward(params, x), probe)), named)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# gated attention
# ---------------------------------------------------------------------------

def test_gated_attention_identical_patches_uniform():
    rng = np.random.default_rng(15)
    params = blocks.GatedAttentionParams.init(rng, 5)
    bag = tensor(np.tile(rng.normal(size=5), (7, 1)))
    w = blocks.gated_attention_weights(params, bag).values
    np.testing.assert_allclose(w, np.full((7, 1), 1 / 7), atol=1e-12)


def test_gated_attention_single_patch_weight_one():
    rng = np.random.default_rng(16)
    params = blocks.GatedAttentionParams.init(rng, 5)
    w = blocks.gated_attention_weights(params, tensor(rng.normal(size=(1, 5))))
    np.testing.assert_allclose(w.values, [[1.0]], atol=1e-15)


def test_gated_attention_weights_sum_to_one():
    rng = np.random.default_rng(17)
    params = blocks.GatedAttentionParams.init(rng, 5)
    w = blocks.gated_attention_weights(params, tensor(rng.normal(size=(9, 5))))
    np.testing.assert_allclose(w.values.sum(), 1.0, atol=1e-12)


def test_gated_attention_permutation():
    rng = np.random.default_rng(18)
    params = blocks.GatedAttentionParams.init(rng, 5)
    bag = rng.normal(size=(6, 5))
    perm = rng.permutation(6)
    w = blocks.gated_attention_weights(params, tensor(bag)).values
    w_perm = blocks.gated_attention_weights(params, tensor(bag[perm])).values
    np.testing.assert_allclose(w[perm], w_perm, atol=1e-12)


def test_gated_attention_gradient():
    rng = np.random.default_rng(19)
    params = blocks.GatedAttentionParams.init(rng, 4)
    bag = tensor(rng.normal(size=(5, 4)), requires_grad=True)
    probe = rng.normal(size=(5, 1))
    named = dict(params.named_tensors("gate"))
    named["bag"] = bag
    err = grad_check(
        lambda p: ad.sum_(ad.mul(blocks.gated_attention_weights(params, bag),
                                 probe)),
        named)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# reconstruction head
# ---------------------------------------------------------------------------

def test_snn_zero_second_layer_gives_bias():
    width, out = 6, 4
    rng = np.random.default_rng(20)
    params = blocks.SnnHeadParams.init(rng, width, out)
    params.w2.assign_(np.zeros((width, out)))
    bias = rng.normal(size=out)
    params.b2.assign_(bias)
    result = blocks.snn_forward(params, tensor(rng.normal(size=(1, width))))
    np.testing.assert_allclose(result.values, bias[None, :], atol=1e-12)


def test_snn_output_lengths_match_categories():
    rng = np.random.default_rng(21)
    for count in (4, 12, 16, 16, 48, 12):
        params = blocks.SnnHeadParams.init(rng, 8, count)
        assert params.out_size == count
        out = blocks.snn_forward(params, tensor(rng.normal(size=(1, 8))))
        assert out.shape == (1, count)


def test_snn_gradient():
    rng = np.random.default_rng(22)
    params = blocks.SnnHeadParams.init(rng, 6, 5)
    x = tensor(rng.normal(size=(1, 6)), requires_grad=True)
    probe = rng.normal(size=(1, 5))
    named = dict(params.named_tensors("snn"))
    named["x"] = x
    err = grad_check(
        lambda p: ad.sum_(ad.mul(blocks.snn_forward(params, x), probe)), named)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# init conventions
# ---------------------------------------------------------------------------

def test_linear_init_bounds_and_zero_bias():
    rng = np.random.default_rng(23)
    w, b = blocks.linear_params(rng, 16, 8)
    bound = np.sqrt(1.0 / 16)
    assert np.all(np.abs(w.values) <= bound)
    np.testing.assert_array_equal(b.values, np.zeros(8))
    assert w.requires_grad and b.requires_grad


def test_init_tokens_scale():
    rng = np.random.default_rng(24)
    tokens = blocks.init_tokens(rng, 1000, 4)
    assert tokens.shape == (1000, 4)
    # sigma 0.02: the sample std over 4000 draws should sit close
    assert abs(tokens.values.std() - 0.02) < 0.002


def test_mhca_width_divisible_by_heads():
    with pytest.raises(ShapeError):
        blocks.MhcaParams.init(np.random.default_rng(25), 6, 4)
