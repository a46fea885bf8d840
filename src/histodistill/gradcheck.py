"""Named finite-difference gradient checks for every differentiable piece.

Each check builds a tiny seeded instance, scalarizes the block's output
against fixed random weights, and compares backward gradients with central
differences. `run_all` returns {check name: max relative error}; the CLI
surfaces it as the `grad-check` subcommand.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import blocks
from .autodiff import Tensor, grad_check
from .blocks import BagStack
from .model import (ModelConfig, build_model, mse_loss, nll_loss,
                    reconstruction_loss, sce_loss, stack_forward, total_loss)

DEFAULT_TOLERANCE = 1e-4


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.sum_(ad.mul(out, weights))


def _exact_zero_error(f, params: dict[str, Tensor], names: tuple[str, ...]) -> float:
    """Relative error for parameters whose true derivative is exactly zero.

    A key-projection bias shifts every attention score in a row by the same
    amount, and the row softmax cancels a constant shift, so the attention
    output is constant in it; a gated-attention score bias does the same to
    every score of a bag. Central differences on such a parameter
    measure nothing but roundoff in the two evaluations, which the 1e-8
    denominator floor then inflates into a spurious failure. The true
    derivative is known by symmetry, so these entries are scored directly
    against zero and skipped by the probing loop.
    """
    ad.zero_grads(params.values())
    grads = ad.backward(f(params))
    worst = 0.0
    for name in names:
        grad = grads.get(params[name])
        magnitude = 0.0 if grad is None else float(np.max(np.abs(grad)))
        worst = max(worst, magnitude / max(1e-8, magnitude))
    ad.zero_grads(params.values())
    return worst


def _check_linear(eps: float) -> float:
    rng = np.random.default_rng(11)
    x = ad.tensor(rng.normal(size=(5, 3)), requires_grad=True)
    probe = rng.normal(size=(5, 4))
    w, b = blocks.linear_params(rng, 3, 4)
    params = {"x": x, "w": w, "b": b}
    return grad_check(
        lambda p: _scalarize(blocks.linear(p["x"], p["w"], p["b"]), probe),
        params, eps)


def _check_affine_compose(eps: float) -> float:
    rng = np.random.default_rng(33)
    probe = rng.normal(size=(1, 2, 4, 3))
    params = {
        "w0": ad.tensor(rng.normal(size=(3, 5)), requires_grad=True),
        "b0": ad.tensor(rng.normal(size=5), requires_grad=True),
        "w1": ad.tensor(rng.normal(size=(5, 6)), requires_grad=True),
        "b1": ad.tensor(rng.normal(size=6), requires_grad=True),
    }
    return grad_check(
        lambda p: _scalarize(ad.affine_compose(p["w0"], p["b0"], p["w1"], p["b1"],
                                               heads=2), probe),
        params, eps)


def _check_layer_norm(eps: float) -> float:
    rng = np.random.default_rng(12)
    probe = rng.normal(size=(4, 6))
    params = {
        "x": ad.tensor(rng.normal(size=(4, 6)), requires_grad=True),
        "gain": ad.tensor(rng.normal(size=6), requires_grad=True),
        "bias": ad.tensor(rng.normal(size=6), requires_grad=True),
    }
    return grad_check(
        lambda p: _scalarize(ad.layer_norm(p["x"], p["gain"], p["bias"]), probe),
        params, eps)


def _check_split_heads(eps: float) -> float:
    rng = np.random.default_rng(24)
    probe = rng.normal(size=(2, 3, 5, 2))
    params = {"x": ad.tensor(rng.normal(size=(10, 6)), requires_grad=True)}
    return grad_check(
        lambda p: _scalarize(ad.split_heads(p["x"], 3, batch=2), probe), params, eps)


def _check_merge_heads(eps: float) -> float:
    rng = np.random.default_rng(25)
    probe = rng.normal(size=(10, 6))
    params = {"x": ad.tensor(rng.normal(size=(2, 3, 5, 2)), requires_grad=True)}
    return grad_check(
        lambda p: _scalarize(ad.merge_heads(p["x"]), probe), params, eps)


def _check_batched_matmul(eps: float) -> float:
    rng = np.random.default_rng(26)
    params = {
        "a": ad.tensor(rng.normal(size=(2, 3, 4)), requires_grad=True),
        "b": ad.tensor(rng.normal(size=(2, 4, 5)), requires_grad=True),
        "c": ad.tensor(rng.normal(size=(2, 5, 4)), requires_grad=True),
        "shared": ad.tensor(rng.normal(size=(1, 3, 4)), requires_grad=True),
    }
    plain_probe = rng.normal(size=(2, 3, 5))
    transposed_probe = rng.normal(size=(2, 3, 5))
    shared_probe = rng.normal(size=(2, 3, 5))

    def f(p):
        plain = ad.batched_matmul(p["a"], p["b"])
        transposed = ad.batched_matmul(p["a"], p["c"], transpose_b=True, scale=0.7)
        # a leading extent of 1 broadcasts over the other operand's
        shared = ad.batched_matmul(p["shared"], p["c"], transpose_b=True)
        return ad.add(ad.add(_scalarize(plain, plain_probe),
                             _scalarize(transposed, transposed_probe)),
                      _scalarize(shared, shared_probe))

    return grad_check(f, params, eps)


def _check_gather_rows(eps: float) -> float:
    rng = np.random.default_rng(30)
    index = np.array([[3, 0, 5], [1, 4, 2]])      # row 6 unused
    probe = rng.normal(size=(2, 3, 4))
    params = {"x": ad.tensor(rng.normal(size=(7, 4)), requires_grad=True)}
    return grad_check(
        lambda p: _scalarize(ad.gather_rows(p["x"], index), probe), params, eps)


def _check_softmax(eps: float) -> float:
    rng = np.random.default_rng(31)
    mask = np.array([[True, True, False, False], [True, True, True, True],
                     [False, True, False, False]])
    probe = rng.normal(size=(2, 3, 4))
    plain_probe = rng.normal(size=(2, 3, 4))
    params = {"x": ad.tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)}
    return grad_check(
        lambda p: ad.add(_scalarize(ad.softmax(p["x"], axis=-1, mask=mask), probe),
                         _scalarize(ad.softmax(p["x"], axis=1), plain_probe)),
        params, eps)


def _check_mhca(eps: float) -> float:
    rng = np.random.default_rng(13)
    shared = ad.tensor(rng.normal(size=(3, 8)), requires_grad=True)
    per_bag = ad.tensor(rng.normal(size=(6, 8)), requires_grad=True)
    raw = rng.normal(size=(7, 5))
    stack = BagStack.of([raw[:2], raw[2:]])
    mhca = blocks.MhcaParams.init(rng, 8, 2)
    proj_w, proj_b = blocks.linear_params(rng, 5, 8)
    proj_b.assign_(rng.normal(size=8))
    probes = rng.normal(size=(2, 6, 8))
    params = dict(mhca.named_tensors("mhca"))
    params.update(shared=shared, per_bag=per_bag, proj_w=proj_w, proj_b=proj_b)

    def f(p):
        keys = blocks.patch_keys(mhca, stack, proj_w, proj_b)
        first, _ = blocks.mhca_forward(mhca, shared, keys)
        second, _ = blocks.mhca_forward(mhca, per_bag, keys, per_bag=True)
        return ad.add(_scalarize(first, probes[0]), _scalarize(second, probes[1]))

    # The scores leave as a plain array, so only the output carries
    # gradient, and it is constant in the key bias; see _exact_zero_error.
    dead = _exact_zero_error(f, params, ("mhca.bk",))
    del params["mhca.bk"]
    return max(dead, grad_check(f, params, eps))


def _check_mhsa(eps: float) -> float:
    rng = np.random.default_rng(14)
    x = ad.tensor(rng.normal(size=(8, 8)), requires_grad=True)
    mhsa = blocks.MhcaParams.init(rng, 8, 2)
    probe = rng.normal(size=(8, 8))
    params = dict(mhsa.named_tensors("mhsa"))
    params["x"] = x

    def f(p):
        return _scalarize(blocks.mhsa_forward(mhsa, x, batch=2), probe)

    # Self-attention discards the scores, so the output is constant in the
    # key bias; see _exact_zero_error.
    dead = _exact_zero_error(f, params, ("mhsa.bk",))
    del params["mhsa.bk"]
    return max(dead, grad_check(f, params, eps))


def _check_ffn(eps: float) -> float:
    rng = np.random.default_rng(15)
    x = ad.tensor(rng.normal(size=(3, 6)), requires_grad=True)
    ffn = blocks.FfnParams.init(rng, 6)
    probe = rng.normal(size=(3, 6))
    params = dict(ffn.named_tensors("ffn"))
    params["x"] = x
    return grad_check(
        lambda p: _scalarize(blocks.ffn_forward(ffn, x), probe), params, eps)


def _check_gated_attention(eps: float) -> float:
    rng = np.random.default_rng(16)
    bag = ad.tensor(rng.normal(size=(6, 3)), requires_grad=True)
    # the model's bag is a constant; here it is probed too
    stack = dataclasses.replace(BagStack.of([bag.values[:4], bag.values[4:]]), bag=bag)
    gate = blocks.GatedAttentionParams.init(rng, 5)
    proj_w, proj_b = blocks.linear_params(rng, 3, 5)
    proj_b.assign_(rng.normal(size=5))
    probe = rng.normal(size=(2, 1, 8))
    params = dict(gate.named_tensors("gate"))
    params.update(bag=bag, proj_w=proj_w, proj_b=proj_b)

    def f(p):
        weights, _ = blocks.gated_attention_weights(gate, stack, proj_w, proj_b)
        return _scalarize(weights, probe)

    # The score bias shifts every score of a bag alike, which the softmax
    # over the bag cancels; see _exact_zero_error.
    dead = _exact_zero_error(f, params, ("gate.score_b",))
    del params["gate.score_b"]
    return max(dead, grad_check(f, params, eps))


def _check_snn_head(eps: float) -> float:
    rng = np.random.default_rng(17)
    x = ad.tensor(rng.normal(size=(1, 6)), requires_grad=True)
    head = blocks.SnnHeadParams.init(rng, 6, 4)
    probe = rng.normal(size=(1, 4))
    params = dict(head.named_tensors("head"))
    params["x"] = x
    return grad_check(
        lambda p: _scalarize(blocks.snn_forward(head, x), probe), params, eps)


def _check_mse_loss(eps: float) -> float:
    rng = np.random.default_rng(18)
    targets = [rng.normal(size=(2, 4)), rng.normal(size=(2, 3))]
    params = {
        "p0": ad.tensor(rng.normal(size=(2, 4)), requires_grad=True),
        "p1": ad.tensor(rng.normal(size=(2, 3)), requires_grad=True),
    }
    return grad_check(
        lambda p: mse_loss([p["p0"], p["p1"]], targets), params, eps)


def _check_sce_loss(eps: float) -> float:
    rng = np.random.default_rng(19)
    targets = [rng.normal(size=(2, 4)), rng.normal(size=(2, 3))]
    params = {
        "p0": ad.tensor(rng.normal(size=(2, 4)), requires_grad=True),
        "p1": ad.tensor(rng.normal(size=(2, 3)), requires_grad=True),
    }
    return grad_check(
        lambda p: sce_loss([p["p0"], p["p1"]], targets, gamma=2.0), params, eps)


def _check_squared_error(eps: float) -> float:
    rng = np.random.default_rng(27)
    target = rng.normal(size=(3, 5))
    params = {"pred": ad.tensor(rng.normal(size=(3, 5)), requires_grad=True)}
    return grad_check(lambda p: ad.squared_error(p["pred"], target), params, eps)


def _check_cosine_error(eps: float) -> float:
    rng = np.random.default_rng(28)
    target = rng.normal(size=(3, 5))
    params = {"pred": ad.tensor(rng.normal(size=(3, 5)), requires_grad=True)}
    return grad_check(lambda p: ad.cosine_error(p["pred"], target, 2.5), params, eps)


def _check_cumprod(eps: float) -> float:
    rng = np.random.default_rng(29)
    x = rng.normal(size=(2, 4))
    x[0, 1] = 0.0   # an exact zero factor, as a hazard of 1 gives
    probe = rng.normal(size=(2, 4))
    params = {"x": ad.tensor(x, requires_grad=True)}
    return grad_check(lambda p: _scalarize(ad.cumprod(p["x"]), probe), params, eps)


def _check_nll_loss(eps: float) -> float:
    rng = np.random.default_rng(20)
    params = {"raw": ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)}

    def f(p):
        return nll_loss(ad.sigmoid(p["raw"]), interval=[1, 2, 0], censor=[0, 1, 0])

    return grad_check(f, params, eps)


def _check_end_to_end(eps: float) -> float:
    """Whole model on a ragged two-patient stack; the masked association
    matrix is frozen at the base point so finite differences see exactly
    the function the analytic gradients describe (it is a constant to the
    tape by construction)."""
    rng = np.random.default_rng(21)
    config = ModelConfig(feature_dim=8, category_sizes=(3, 2), width=4,
                         heads=1, compress_width=4, n_bins=3, k_percent=50.0)
    model = build_model(config, seed=5)
    # The check needs a generic, well-conditioned point, which fresh init is
    # not: the learnable tokens start within 0.02 of each other, so every
    # token-indexed row downstream is nearly identical and the self-attention
    # score-path gradients sit at roundoff scale, where central differences
    # measure nothing. Redraw the tokens at a wide spread and jitter the
    # rest. The shape choices matter too: a single head keeps the tiny
    # self-attention responsive instead of saturating per-head, and a
    # compress width of 2 would reduce its normalization to a sign function.
    jitter = np.random.default_rng(22)
    for name, tensor in model.named_tensors():
        if name == "assoc.tokens":
            tensor.assign_(jitter.normal(scale=0.8, size=tensor.shape))
        else:
            tensor.assign_(tensor.values + jitter.normal(scale=0.3, size=tensor.shape))
    raw = rng.normal(size=(6, 8))
    bags = [raw[:4], raw[4:]]
    targets = [rng.normal(size=(2, c)) for c in config.category_sizes]
    with ad.no_grad():
        base = stack_forward(model, bags)
    frozen_mask = base.diagnostics.masked_assoc
    params = dict(model.named_tensors())

    def f(p):
        result = stack_forward(model, bags, masked_assoc=frozen_mask)
        nll = nll_loss(result.hazards, interval=[1, 2], censor=[0, 1])
        recon = reconstruction_loss(result.recon, targets, gamma=config.gamma)
        return total_loss(nll, recon, alpha=0.3)

    # Both key biases and the gated score bias are dead here: every
    # attention output is constant in them through the softmax shift
    # cancellation, and the cross-attention scores, which do move, leave the
    # tape as a plain array. See _exact_zero_error.
    dead_names = ("survival.mhsa.bk", "assoc.mhca.bk", "survival.gate.score_b")
    dead = _exact_zero_error(f, params, dead_names)
    for name in dead_names:
        del params[name]
    return max(dead, grad_check(f, params, eps))


_CHECKS: tuple[tuple[str, Callable[[float], float]], ...] = (
    ("linear", _check_linear),
    ("affine_compose", _check_affine_compose),
    ("layer_norm", _check_layer_norm),
    ("split_heads", _check_split_heads),
    ("merge_heads", _check_merge_heads),
    ("batched_matmul", _check_batched_matmul),
    ("gather_rows", _check_gather_rows),
    ("softmax", _check_softmax),
    ("mhca", _check_mhca),
    ("mhsa", _check_mhsa),
    ("ffn", _check_ffn),
    ("gated_attention", _check_gated_attention),
    ("snn_head", _check_snn_head),
    ("mse_loss", _check_mse_loss),
    ("sce_loss", _check_sce_loss),
    ("squared_error", _check_squared_error),
    ("cosine_error", _check_cosine_error),
    ("cumprod", _check_cumprod),
    ("nll_loss", _check_nll_loss),
    ("end_to_end", _check_end_to_end),
)


def run_all(eps: float = 1e-5) -> dict[str, float]:
    """Every named check; values are max relative errors."""
    return {name: fn(eps) for name, fn in _CHECKS}
