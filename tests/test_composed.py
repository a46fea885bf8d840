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
