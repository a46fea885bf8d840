"""The composed per-patch products against the unfolded chain they replace.

The oracle below is the model's earlier per-patch code: the bag is
projected by `in_w` or `value_w` on the tape, keys, values and the gate's
pre-activations are linear maps of that projection, the gate is built
from tanh, sigmoid, product and score nodes into (B, W, 1) weights,
cross-attention runs over the formed keys and values, and pooling runs
over the gathered projected rows. The model now attends over the padded
raw rows with the key map folded into the queries and the value map
applied after pooling, scores each gate as one `autodiff.gated_scores`
node over the raw rows with its maps composed into augmented weights,
and pools raw rows before projecting; both must give the same hazards,
losses and gradients up to rounding.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import blocks
from histodistill import model as gm
from histodistill.datasets import SynthConfig
from histodistill.training import TrainConfig, TrainEntry, stack_loss

SYNTH = SynthConfig()
LENGTHS = (1, 9, 40, 17, 64, 3)
CONFIGS = ("default", "gated_recon", "cut_bridge", "assoc_only", "gated_baseline")
# Parameters whose gradient is zero in exact arithmetic: a key bias shifts
# every score of a softmax row alike, and so does a gate's score bias.
DEAD = ("mhca.bk", "mhsa.bk", "score_b")


# ---------------------------------------------------------------------------
# the unfolded chain
# ---------------------------------------------------------------------------

def tanh(x):
    x = ad._as_tensor(x)
    y = np.tanh(x.values)

    def backward_fn(g):
        grad = np.multiply(y, y, out=np.empty_like(y))   # g * (1 - y * y)
        np.subtract(1.0, grad, out=grad)
        grad *= g
        ad._accumulate(x, grad)

    return ad._make(y, (x,), backward_fn, "tanh")


def gather_rows(x, index):
    """Rows of x picked by index; a negative index picks a zero row."""
    x = ad._as_tensor(x)
    index = np.asarray(index)
    pads = index < 0
    out_values = x.values.take(index, axis=0)
    if pads.any():
        out_values[pads] = 0.0

    def backward_fn(g):
        # One spare last row takes every pad's gradient and is dropped.
        full = np.zeros((x.shape[0] + 1,) + x.shape[1:], dtype=np.float64)
        full[index] = g
        ad._accumulate(x, full[:-1])

    return ad._make(out_values, (x,), backward_fn, "gather_rows")


def transpose(x):
    """Swap the last two axes."""
    x = ad._as_tensor(x)
    if x.values.ndim < 2:
        raise ad.ShapeError(f"transpose needs at least 2 axes, got {x.shape}")

    def backward_fn(g):
        ad._accumulate(x, g.swapaxes(-1, -2))

    return ad._make(x.values.swapaxes(-1, -2).copy(), (x,), backward_fn, "transpose")


def fused_attention(morph_weights, masked_assoc):
    """Mean of broadcast morphology weights and masked association rows.

    morph_weights is (..., N_p, 1) and sums to 1 over patches; each row of
    the (..., N_g, N_p) result is a distribution over patches (rows sum
    to 1).
    """
    return ad.mul(ad.add(transpose(morph_weights), masked_assoc), 0.5)


@dataclass
class PatchKeys:
    """Per-head keys and values of a stack of bags, (B, heads, W, d)."""
    keys: ad.Tensor
    values: ad.Tensor
    mask: np.ndarray        # (B, 1, 1, W): True at real patches


def oracle_patch_keys(params, proj, layout):
    rows = layout.index.reshape(-1)

    def heads(weight, bias):
        return ad.split_heads(gather_rows(ad.linear(proj, weight, bias), rows),
                              params.heads, layout.batch)

    return PatchKeys(heads(params.wk, params.bk), heads(params.wv, params.bv),
                     layout.mask[:, None, None, :])


def oracle_attend(params, q, k, v, mask=None):
    scores = ad.batched_matmul(q, k, transpose_b=True,
                               scale=1.0 / math.sqrt(q.shape[-1]))
    weights = ad.softmax(scores, axis=-1, mask=mask)
    attended = ad.batched_matmul(weights, v)
    return ad.linear(ad.merge_heads(attended), params.wo, params.bo), scores


def oracle_mhca_forward(params, queries, keys, score_head=None, per_bag=False):
    batch = keys.keys.shape[0] if per_bag else 1
    q = ad.split_heads(ad.linear(queries, params.wq, params.bq), params.heads, batch)
    out, scores = oracle_attend(params, q, keys.keys, keys.values, keys.mask)
    if score_head is None:
        return out, scores.values.sum(axis=1) * (1.0 / params.heads)
    return out, scores.values[:, score_head].copy()


def oracle_gated_attention_weights(params, proj, layout):
    gate = ad.mul(tanh(ad.linear(proj, params.u_w, params.u_b)),
                  ad.sigmoid(ad.linear(proj, params.v_w, params.v_b)))
    raw = gather_rows(ad.linear(gate, params.score_w, params.score_b), layout.index)
    weights = ad.softmax(raw, axis=1, mask=layout.mask[:, :, None])
    return weights, raw.values.transpose(0, 2, 1)


def oracle_assoc_forward(params, stack, score_head=None):
    bag, layout = stack.bag, stack.layout
    proj = ad.linear(bag, params.in_w, params.in_b)
    keys = oracle_patch_keys(params.mhca, proj, layout)
    batch = keys.keys.shape[0]
    n_tokens, width = params.tokens.shape
    pooled, _ = oracle_mhca_forward(params.mhca, params.tokens, keys, score_head)
    first = blocks.ffn_forward(params.ffn_first, pooled)
    queries = ad.reshape(ad.add(ad.reshape(first, (batch, n_tokens, width)),
                                params.tokens), (batch * n_tokens, width))
    pooled2, scores = oracle_mhca_forward(params.mhca, queries, keys, score_head,
                                          per_bag=True)
    return gm.AssocOutput(first, blocks.ffn_forward(params.ffn_second, pooled2), scores)


def oracle_gated_assoc_forward(params, stack):
    bag, layout = stack.bag, stack.layout
    proj = ad.linear(bag, params.in_w, params.in_b)
    values = gather_rows(proj, layout.index)
    feature_rows, score_rows = [], []
    for gate in params.gates:
        weights, scores = oracle_gated_attention_weights(gate, proj, layout)
        feature_rows.append(ad.batched_matmul(transpose(weights), values))
        score_rows.append(scores)
    features = ad.reshape(ad.concat(feature_rows, axis=1),
                          (layout.batch * len(params.gates), proj.shape[1]))
    return gm.AssocOutput(None, features, np.concatenate(score_rows, axis=1))


def oracle_survival_forward(params, stack, scores, features, cfg,
                            masked_assoc=None):
    bag, layout = stack.bag, stack.layout
    proj = ad.linear(bag, params.value_w, params.value_b)
    if masked_assoc is None:
        masked_assoc = gm.topk_masked_softmax(scores, cfg.k_percent, layout.lengths)
    if cfg.assoc_only:
        morph = None
        fused = ad.tensor(masked_assoc)
    else:
        morph, _ = oracle_gated_attention_weights(params.gate, proj, layout)
        fused = fused_attention(morph, masked_assoc)
    pooled = ad.reshape(ad.batched_matmul(fused, gather_rows(proj, layout.index)),
                        (layout.batch * cfg.n_tokens, proj.shape[1]))
    if cfg.cut_bridge or features is None:
        merged = pooled
    else:
        merged = ad.concat([pooled, features], axis=1)
    x = blocks.ffn_forward(params.ffn, blocks.mhsa_forward(params.mhsa, merged,
                                                           layout.batch))
    compressed = ad.relu(ad.layer_norm(ad.linear(x, params.comp_w, params.comp_b),
                                       params.comp_gain, params.comp_bias))
    flat = ad.reshape(compressed, (layout.batch, cfg.n_tokens * cfg.compress_width))
    hazards = ad.sigmoid(ad.linear(flat, params.cls_w, params.cls_b))
    diag = gm.SurvivalDiagnostics(None if morph is None else morph.values.copy(),
                                  masked_assoc, fused.values.copy())
    return hazards, diag


def oracle_baseline_forward(params, stack):
    bag, layout = stack.bag, stack.layout
    proj = ad.linear(bag, params.value_w, params.value_b)
    weights, _ = oracle_gated_attention_weights(params.gate, proj, layout)
    pooled = ad.batched_matmul(transpose(weights), gather_rows(proj, layout.index))
    flat = ad.reshape(pooled, (layout.batch, proj.shape[1]))
    return ad.sigmoid(ad.linear(flat, params.cls_w, params.cls_b))


@pytest.fixture
def unfolded(monkeypatch):
    """Switches `model.stack_forward` to the unfolded chain while active."""
    def switch():
        monkeypatch.setattr(gm, "assoc_forward", oracle_assoc_forward)
        monkeypatch.setattr(gm, "gated_assoc_forward", oracle_gated_assoc_forward)
        monkeypatch.setattr(gm, "survival_forward", oracle_survival_forward)
        monkeypatch.setattr(gm, "baseline_forward", oracle_baseline_forward)
    return switch


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def train_config(name: str) -> TrainConfig:
    return TrainConfig(**({} if name == "default" else {name: True}))


def make_model(config: TrainConfig):
    sizes = () if config.gated_baseline else SYNTH.gene_counts
    model = gm.build_model(config.model_config(SYNTH.feature_dim, sizes), seed=3)
    # Nonzero biases, so the composed bias b0 @ w1 + b1 and its gradients
    # are exercised. Tokens spread apart: at init they lie within 0.02 of
    # each other, which leaves the self-attention's query and key gradients
    # near roundoff scale (see `gradcheck._check_end_to_end`).
    jitter = np.random.default_rng(4)
    for name, tensor in model.named_tensors():
        if name == "assoc.tokens":
            tensor.assign_(jitter.normal(scale=0.8, size=tensor.shape))
        elif name.endswith(("_b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            tensor.assign_(jitter.normal(scale=0.1, size=tensor.shape))
    return model


def make_entries(config: TrainConfig):
    rng = np.random.default_rng(5)
    return [TrainEntry(f"p{i}", rng.normal(size=(n, SYNTH.feature_dim)), i % 4, i % 2,
                       None if config.gated_baseline
                       else [rng.normal(size=c) for c in SYNTH.gene_counts])
            for i, n in enumerate(LENGTHS)]


def step(model, entries, config):
    """Hazards, losses and leaf gradients of one stack."""
    ad.zero_grads(model.tensors())
    with ad.no_grad():
        inference = gm.stack_forward(model, [e.bag for e in entries]).hazards.values
    out = stack_loss(model, entries, config)
    ad.backward(out.total)
    grads = {name: np.zeros_like(t.values) if t.grad is None else np.array(t.grad)
             for name, t in model.named_tensors()}
    ad.zero_grads(model.tensors())
    losses = [out.total.item(), out.nll.item()]
    if out.recon is not None:
        losses.append(out.recon.item())
    return inference, np.array(losses), grads


@pytest.mark.parametrize("name", CONFIGS)
def test_composed_chain_matches_the_unfolded_chain(name, unfolded):
    config = train_config(name)
    model = make_model(config)
    entries = make_entries(config)
    hazards, losses, grads = step(model, entries, config)
    unfolded()
    want_hazards, want_losses, want_grads = step(model, entries, config)

    np.testing.assert_allclose(hazards, want_hazards, rtol=1e-12, atol=0)
    np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
    assert grads.keys() == want_grads.keys()
    dead = 0
    for param, want in want_grads.items():
        err = np.abs(grads[param] - want).max()
        if param.endswith(DEAD):
            dead += 1
            assert err <= 1e-15, f"{name}: {param} off by {err:.1e}"
            continue
        # an unused tensor (the gate under assoc_only) gets no gradient at
        # all, so its scale is 0 and its gradient must be exactly 0 too
        scale = np.abs(want).max()
        assert err <= 1e-12 * scale, f"{name}: {param} off by {err:.1e} of {scale:.1e}"
    assert dead == {"gated_recon": 2 + len(SYNTH.gene_counts),
                    "gated_baseline": 1}.get(name, 3)


def test_the_raw_bag_feeds_only_composed_products():
    config = train_config("default")
    model = make_model(config)
    entries = make_entries(config)
    loss = stack_loss(model, entries, config).total
    batch, width = len(LENGTHS), blocks.aligned(max(LENGTHS))
    packed, dim = sum(LENGTHS), SYNTH.feature_dim
    constants = {(packed, dim): "bag", (batch, 1, width, dim + 1): "rows",
                 (batch, 1, dim + 1, width): "rows_t", (batch, width, dim): "raw"}
    consumers, per_patch = [], []
    for node in ad._topological_order(loss):
        if node._op == "leaf":
            continue
        if node.shape[:1] == (packed,):
            per_patch.append(node._op)
        for parent in node._parents:
            if parent._op == "leaf" and parent.shape in constants:
                consumers.append((constants[parent.shape], node._op))
    # The packed rows feed only the survival gate's score node, which lays
    # its scores out padded; the padded rows feed the two cross-attention
    # rounds' score and pooling products and the survival pooling.
    assert sorted(consumers) == [("bag", "gated_scores"), ("raw", "batched_matmul")] + [
        ("rows", "batched_matmul")] * 2 + [("rows_t", "batched_matmul")] * 2
    # no per-patch key, value or gate activation is left on the tape
    assert per_patch == []


def test_gated_scores_equals_the_unfolded_gate():
    rng = np.random.default_rng(6)
    layout = blocks.PatchLayout.of([5, 1, 7])
    x = ad.tensor(rng.normal(size=(13, 5)))
    w0, b0 = ad.tensor(rng.normal(size=(5, 7))), ad.tensor(rng.normal(size=7))
    maps = [(ad.tensor(rng.normal(size=(7, 3))), ad.tensor(rng.normal(size=3)))
            for _ in range(2)]
    score_w, score_b = ad.tensor(rng.normal(size=(3, 1))), ad.tensor(rng.normal(size=1))
    u, v = (ad.affine_compose(w0, b0, w1, b1, heads=1) for w1, b1 in maps)
    proj = ad.linear(x, w0, b0)
    gate = (np.tanh(ad.linear(proj, *maps[0]).values)
            * ad.sigmoid(ad.linear(proj, *maps[1])).values)
    scores = (gate @ score_w.values)[:, 0] + score_b.values
    want = np.where(layout.mask, scores.take(layout.index), 0.0)[:, None]
    got = ad.gated_scores(x, u, v, score_w, score_b, layout.index).values
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    with ad.no_grad():
        # inference rows come out alike alone and with other rows around
        alone = ad.gated_scores(ad.tensor(x.values[6:]), u, v, score_w, score_b,
                                blocks.PatchLayout.of([7]).index).values
        stacked = ad.gated_scores(x, u, v, score_w, score_b, layout.index).values
    np.testing.assert_array_equal(alone[0], stacked[2])
    with pytest.raises(ad.ShapeError):
        ad.gated_scores(x, u, ad.tensor(np.zeros((1, 1, 6, 4))), score_w, score_b,
                        layout.index)
    with pytest.raises(ad.ShapeError):
        ad.gated_scores(x, u, v, score_w, score_b, layout.index + 1)


# ---------------------------------------------------------------------------
# the unblocked gate
# ---------------------------------------------------------------------------
#
# `gated_scores` once ran its forward over all N rows at once: two (N,
# width) products, tanh, sigmoid, their product and the score product,
# each a whole-array pass. Below is that node, its products the
# row-invariant ones the node uses in both grad modes. The node now runs
# its forward in row blocks, and its backward's elementwise work in row
# blocks written over its own tanh and sigmoid outputs, and must give the
# same bits: values, (B, 1, W) layout and all five gradients, with and
# without a tape. CI runs this test under every forced BLAS kernel and
# thread count, since whether a row's bits survive blocking depends on the
# kernel BLAS picks.

def oracle_gated_scores(bag, u, v, score_w, score_b, index):
    bag, u, v, score_w, score_b = (ad._as_tensor(t) for t in (bag, u, v, score_w, score_b))
    index = np.asarray(index)
    if (bag.values.ndim != 2 or score_w.values.ndim != 2 or score_w.shape[1] != 1
            or u.shape != (1, 1, bag.shape[1] + 1, score_w.shape[0]) or v.shape != u.shape
            or score_b.shape != (1,) or index.ndim != 2):
        raise ad.ShapeError(f"gated_scores operands do not chain: rows {bag.shape}, maps "
                            f"{u.shape} and {v.shape}, score {score_w.shape} + "
                            f"{score_b.shape}, index {index.shape}")
    product = ad._row_invariant_product
    t, s = (product(bag.values, m.values[0, 0, :-1]) for m in (u, v))
    t += u.values[0, 0, -1]
    s += v.values[0, 0, -1]
    np.tanh(t, out=t)
    ad._sigmoid_into(s, s)
    scores = product(t * s, score_w.values)[:, 0] + score_b.values
    try:
        out_values = np.where(index < 0, 0.0, scores.take(index))[:, None]
    except IndexError as err:
        raise ad.ShapeError(f"gated_scores index out of range for {bag.shape[0]} "
                            f"rows") from err

    def backward_fn(g):
        # One spare last entry takes every pad's gradient and is dropped.
        g_scores = np.zeros((bag.shape[0] + 1, 1))
        g_scores[index, 0] = g[:, 0]
        g_scores = g_scores[:-1]
        ad._accumulate(score_w, (t * s).T @ g_scores)
        ad._accumulate(score_b, g_scores.sum(axis=0))
        g_gate = g_scores * score_w.values[:, 0]
        g_t = g_gate * s                            # g * s * (1 - t * t)
        slope = np.multiply(t, t)
        g_t *= np.subtract(1.0, slope, out=slope)
        g_s = np.multiply(g_gate, t, out=g_gate)    # g * t * s * (1 - s)
        g_s *= s
        g_s *= np.subtract(1.0, s, out=slope)
        for m, g_pre in ((u, g_t), (v, g_s)):
            if bag.requires_grad:   # skips the product for a constant bag
                ad._accumulate(bag, g_pre @ m.values[0, 0, :-1].T)
            grad = np.concatenate([bag.values.T @ g_pre, g_pre.sum(axis=0)[None]])
            ad._accumulate(m, grad[None, None])

    return ad._make(out_values, (bag, u, v, score_w, score_b), backward_fn,
                    "gated_scores")


def gate_outputs(gate, leaves, index, probe):
    """The gate's (B, 1, W) values, and the five gradients of sum(values *
    probe) with respect to fresh leaves with these values."""
    fresh = [ad.tensor(leaf, requires_grad=True) for leaf in leaves]
    out = gate(*fresh, index)
    ad.backward(ad.linear(ad.reshape(out, (1, out.size)),
                          ad.tensor(probe.reshape(-1, 1)), ad.tensor(np.zeros(1))))
    return out.values, [t.grad for t in fresh]


BLOCK = ad.GATE_BLOCK
GATE_STACKS = {
    "1": (1,), "7": (7,), "8": (8,), "block-1": (BLOCK - 1,), "block": (BLOCK,),
    "block+1": (BLOCK + 1,), "3block+5": (3 * BLOCK + 5,),
    # bag boundaries inside blocks, bags spanning blocks, a one-patch bag
    "ragged": (BLOCK // 2 + 3, 1, BLOCK + 17, 2 * BLOCK - 9, 40, BLOCK // 3),
}


@pytest.mark.parametrize("features", [32, 768])
@pytest.mark.parametrize("stack", GATE_STACKS)
def test_blocked_gate_keeps_the_bits_of_the_unblocked_gate(stack, features):
    rng = np.random.default_rng([14, features, len(GATE_STACKS[stack])])
    layout = blocks.PatchLayout.of(GATE_STACKS[stack])
    (batch, padded), width = layout.index.shape, 64
    leaves = [rng.normal(size=(int(layout.mask.sum()), features)),
              rng.normal(size=(1, 1, features + 1, width)) / math.sqrt(features),
              rng.normal(size=(1, 1, features + 1, width)) / math.sqrt(features),
              rng.normal(size=(width, 1)), rng.normal(size=1)]
    probe = rng.normal(size=(batch, 1, padded))
    got = gate_outputs(ad.gated_scores, leaves, layout.index, probe)
    want = gate_outputs(oracle_gated_scores, leaves, layout.index, probe)
    assert got[0].shape == (batch, 1, padded)
    assert_same_bits(got[0], want[0])
    assert not got[0][~layout.mask[:, None, :]].any()
    for grad, want_grad in zip(got[1], want[1]):
        assert_same_bits(grad, want_grad)
    with ad.no_grad():
        got = ad.gated_scores(*leaves, layout.index).values
        want = oracle_gated_scores(*leaves, layout.index).values
    assert_same_bits(got, want)


def test_gate_backward_allocates_about_one_row_by_width_array():
    # The (N, width) buffers of a large stack dominate a training step's
    # peak; the backward writes its gradients into the forward's t and s.
    rng = np.random.default_rng(15)
    rows, features, width = 16 * BLOCK + 3, 32, 64
    layout = blocks.PatchLayout.of((rows,))
    leaves = [ad.tensor(rng.normal(size=(rows, features)))] + [
        ad.tensor(value, requires_grad=True) for value in (
            rng.normal(size=(1, 1, features + 1, width)) / math.sqrt(features),
            rng.normal(size=(1, 1, features + 1, width)) / math.sqrt(features),
            rng.normal(size=(width, 1)), rng.normal(size=1))]
    out = ad.gated_scores(*leaves, layout.index)
    loss = ad.linear(ad.reshape(out, (1, out.size)),
                     ad.tensor(rng.normal(size=(out.size, 1))), ad.tensor(np.zeros(1)))
    tracemalloc.start()
    try:
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(leaf.grad is not None for leaf in leaves[1:])
    assert peak < 1.5 * rows * width * 8, peak / (rows * width * 8)


def test_affine_compose_is_the_augmented_weight_of_two_linear_maps():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(13, 5))
    w0, b0 = ad.tensor(rng.normal(size=(5, 7))), ad.tensor(rng.normal(size=7))
    w1, b1 = ad.tensor(rng.normal(size=(7, 6))), ad.tensor(rng.normal(size=6))
    want = ad.linear(ad.linear(ad.tensor(x), w0, b0), w1, b1).values
    heads = ad.affine_compose(w0, b0, w1, b1, heads=3).values
    assert heads.shape == (1, 3, 6, 2)
    # head h holds columns 2h, 2h + 1 of the augmented weight
    augmented = np.concatenate(list(heads[0]), axis=1)
    ones = np.ones((13, 1))
    np.testing.assert_allclose(np.hstack([x, ones]) @ augmented, want,
                               rtol=1e-13, atol=1e-13)
    with pytest.raises(ad.ShapeError):
        ad.affine_compose(w0, b0, w1, b1, heads=4)
    with pytest.raises(ad.ShapeError):
        ad.affine_compose(w0, ad.tensor(np.zeros(5)), w1, b1, heads=1)


# ---------------------------------------------------------------------------
# the composed loss chain
# ---------------------------------------------------------------------------
#
# The loss terms were once chains of small nodes: the survival NLL built
# from clip_min, log, mul and a sum per term, a running product and a
# subtraction; each reconstruction error one node per category, added up
# and scaled by 1/C. The ops below are those nodes, and the three losses
# after them are the chains verbatim. The one-node losses must repeat
# their arithmetic in the same order, so values and gradients keep every
# bit.

def sub(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    out_values = a.values - b.values

    def backward_fn(g):
        ad._accumulate(a, ad._unbroadcast(g, a.shape))
        ad._accumulate(b, ad._unbroadcast(-g, b.shape))

    return ad._make(out_values, (a, b), backward_fn, "sub")


def sum_(x, axis=None, keepdims=False):
    x = ad._as_tensor(x)
    out_values = x.values.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        ad._accumulate(x, np.broadcast_to(g, x.shape))

    return ad._make(out_values, (x,), backward_fn, "sum")


def log(x):
    x = ad._as_tensor(x)
    y = np.log(x.values)

    def backward_fn(g):
        ad._accumulate(x, g / x.values)

    return ad._make(y, (x,), backward_fn, "log")


def clip_min(x, lo):
    """Elementwise max(x, lo); gradient is zero where the floor is active."""
    x = ad._as_tensor(x)
    y = np.maximum(x.values, lo)

    def backward_fn(g):
        ad._accumulate(x, g * (x.values > lo))

    return ad._make(y, (x,), backward_fn, "clip_min")


def cumprod(x):
    """Running product along the last axis."""
    x = ad._as_tensor(x)
    if x.values.ndim < 1:
        raise ad.ShapeError("cumprod needs at least one axis")
    y = np.cumprod(x.values, axis=-1)

    def backward_fn(g):
        # dy_j/dx_i = prod_{k<i} x_k * prod_{i<k<=j} x_k for j >= i. The
        # suffix sums run right to left, so no x is ever divided out (an x
        # of exactly 0 is legal: a hazard of 1).
        suffix = np.array(g, dtype=np.float64, copy=True)
        for i in range(x.shape[-1] - 2, -1, -1):
            suffix[..., i] += x.values[..., i + 1] * suffix[..., i + 1]
        prefix = np.ones_like(y)
        prefix[..., 1:] = y[..., :-1]
        ad._accumulate(x, prefix * suffix)

    return ad._make(y, (x,), backward_fn, "cumprod")


def _row_operands(pred, target, op):
    pred = ad._as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.values.ndim != 2 or pred.shape != target.shape:
        raise ad.ShapeError(f"{op} needs equal 2-d operands, got {pred.shape} vs "
                            f"{target.shape}")
    return pred, target


def squared_error(pred, target):
    """Sum over rows of the row's mean of (pred - target)^2."""
    pred, target = _row_operands(pred, target, "squared_error")
    err = pred.values - target
    scale = 1.0 / err.shape[1]
    out_values = (err * err).sum() * scale

    def backward_fn(g):
        ad._accumulate(pred, 2.0 * ((g * scale) * err))

    return ad._make(out_values, (pred,), backward_fn, "squared_error")


def cosine_error(pred, target, gamma):
    """Sum over rows of (1 - cos(pred row, target row))^gamma."""
    pred, target = _row_operands(pred, target, "cosine_error")
    p = pred.values
    target_norm = np.maximum(np.sqrt((target * target).sum(axis=1)), ad.NORM_FLOOR)
    pred_norm = np.sqrt((p * p).sum(axis=1))
    live = pred_norm > ad.NORM_FLOOR
    denom = np.maximum(pred_norm, ad.NORM_FLOOR) * target_norm
    dot = (p * target).sum(axis=1)
    gap = 1.0 - dot / denom
    out_values = (gap ** gamma).sum()

    def backward_fn(g):
        g_cos = np.where(live, -g * gamma * gap ** (gamma - 1.0), 0.0)
        g_norm = -g_cos * dot / (denom * denom) * target_norm
        ad._accumulate(pred, (g_cos / denom)[:, None] * target
                       + (g_norm / np.where(live, pred_norm, 1.0))[:, None] * p)

    return ad._make(out_values, (pred,), backward_fn, "cosine_error")


_CLAMP = 1e-7


def oracle_nll_loss(hazards, interval, censor):
    batch, n_bins = hazards.shape
    interval = np.asarray(interval).reshape(-1)
    censor = np.asarray(censor).reshape(-1)

    def one_hot(rows, columns):
        out = np.zeros((batch, n_bins))
        out[rows, columns] = 1.0
        return out

    def log_picked(t, picks):
        return sum_(ad.mul(log(clip_min(t, _CLAMP)), picks))

    rows = np.arange(batch)
    event = censor == 0
    survived = np.where(event, interval - 1, interval)   # -1: nothing survived
    pays_survival = survived >= 0
    terms = []
    if event.any():
        terms.append(log_picked(hazards, one_hot(rows[event], interval[event])))
    if pays_survival.any():
        terms.append(log_picked(cumprod(sub(1.0, hazards)),
                                one_hot(rows[pays_survival], survived[pays_survival])))
    total = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    return ad.mul(total, -1.0)


def _row_targets(pred, target):
    return np.reshape(np.asarray(target, dtype=np.float64), (pred.shape[0], -1))


def oracle_mse_loss(recon, targets):
    total = None
    for pred, target in zip(recon, targets):
        term = squared_error(pred, _row_targets(pred, target))
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(recon))


def oracle_sce_loss(recon, targets, gamma=2.0):
    total = None
    for pred, target in zip(recon, targets):
        target = _row_targets(pred, target)
        term = cosine_error(pred, target, gamma)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(recon))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def loss_and_grads(build, leaves):
    """The loss `build` makes of fresh leaves with these values, and their
    gradients after a backward with an incoming gradient of 0.37, as a
    training step's 1 / group scaling hands the loss."""
    fresh = [ad.tensor(leaf, requires_grad=True) for leaf in leaves]
    loss = build(fresh)
    ad.backward(ad.mul(loss, 0.37))
    return loss.values, [t.grad for t in fresh]


def assert_same_loss(build, oracle, leaves):
    got, want = loss_and_grads(build, leaves), loss_and_grads(oracle, leaves)
    assert_same_bits(got[0], want[0])
    for grad, want_grad in zip(got[1], want[1]):
        assert_same_bits(grad, want_grad)


def draw_intervals(rng, batch):
    return rng.integers(0, 4, batch)


def draw_censors(rng, batch):
    return rng.integers(0, 2, batch)


def zeros(rng, batch):
    return np.zeros(batch, int)


def ones(rng, batch):
    return np.ones(batch, int)


# (intervals, censor flags) of each case's stacks
NLL_CASES = {
    "mixed": (draw_intervals, draw_censors),
    "event_only": (draw_intervals, zeros),
    "censored_only": (draw_intervals, ones),
    "interval_0": (zeros, draw_censors),
    "interval_0_events": (zeros, zeros),
}


@pytest.mark.parametrize("case", NLL_CASES)
def test_survival_nll_node_keeps_the_bits_of_the_composed_chain(case):
    rng = np.random.default_rng(11)
    intervals, censors = NLL_CASES[case]
    for batch in (1, 2, 7, 16):
        hazards = rng.uniform(0.0, 1.0, size=(batch, 4))
        interval, censor = intervals(rng, batch), censors(rng, batch)
        assert_same_loss(lambda t: gm.nll_loss(t[0], interval, censor),
                         lambda t: oracle_nll_loss(t[0], interval, censor), [hazards])


def test_survival_nll_node_keeps_the_bits_through_a_hazard_of_one():
    rng = np.random.default_rng(12)
    hazards = rng.uniform(0.0, 1.0, size=(6, 4))
    hazards[:, 1] = 1.0             # every survival past interval 0 is exactly 0
    hazards[0, 0] = 1e-9            # an event hazard below the clamp
    interval = np.array([0, 1, 2, 3, 3, 2])
    censor = np.array([0, 0, 0, 1, 0, 1])
    assert_same_loss(lambda t: gm.nll_loss(t[0], interval, censor),
                     lambda t: oracle_nll_loss(t[0], interval, censor), [hazards])
    grads = loss_and_grads(lambda t: gm.nll_loss(t[0], interval, censor), [hazards])[1]
    assert np.isfinite(grads[0]).all()


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
def test_reconstruction_nodes_keep_the_bits_of_the_composed_chain(gamma):
    rng = np.random.default_rng(13)
    for batch, sizes in ((1, SYNTH.gene_counts), (3, (3, 7, 5, 11, 13, 9)),
                         (8, SYNTH.gene_counts), (5, (1, 29, 2))):
        preds = [rng.normal(size=(batch, n)) for n in sizes]
        targets = [rng.normal(size=(batch, n)) for n in sizes]
        preds[1][0] = 0.0           # a zero-norm prediction row
        targets[2][-1] = 0.0        # and a zero-norm target row
        assert_same_loss(lambda t: gm.mse_loss(t, targets),
                         lambda t: oracle_mse_loss(t, targets), preds)
        assert_same_loss(lambda t: gm.sce_loss(t, targets, gamma),
                         lambda t: oracle_sce_loss(t, targets, gamma), preds)
        # both terms add into the same predictions, as in training
        assert_same_loss(lambda t: gm.reconstruction_loss(t, targets, gamma),
                         lambda t: ad.add(oracle_mse_loss(t, targets),
                                          oracle_sce_loss(t, targets, gamma)), preds)
