"""Differentiable building blocks: multi-head cross/self attention, FFN,
gated attention pooling, and the per-category reconstruction heads."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


def linear_params(rng: np.random.Generator, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    """Weight uniform in +-sqrt(1/fan_in), bias zero."""
    bound = math.sqrt(1.0 / fan_in)
    weight = ad.tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                       requires_grad=True)
    bias = ad.tensor(np.zeros(fan_out), requires_grad=True)
    return weight, bias


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return ad.linear(x, weight, bias)


@dataclass
class MhcaParams:
    """Projections for multi-head cross-attention (also reused for MHSA)."""
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    heads: int

    @classmethod
    def init(cls, rng: np.random.Generator, width: int, heads: int) -> "MhcaParams":
        if width % heads != 0:
            raise ShapeError(f"width {width} not divisible by {heads} heads")
        wq, bq = linear_params(rng, width, width)
        wk, bk = linear_params(rng, width, width)
        wv, bv = linear_params(rng, width, width)
        wo, bo = linear_params(rng, width, width)
        return cls(wq, bq, wk, bk, wv, bv, wo, bo, heads)

    def named_tensors(self, prefix: str):
        for field in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            yield f"{prefix}.{field}", getattr(self, field)


def _attend(params: MhcaParams, queries: Tensor,
            keys_values: Tensor) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over all heads at once.

    Returns the projected output and the pre-softmax scores, shape
    (heads, n_queries, n_keys).
    """
    width = params.wq.shape[0]
    if queries.shape[1] != width or keys_values.shape[1] != width:
        raise ShapeError(f"attention width {width} does not match inputs "
                         f"{queries.shape} / {keys_values.shape}")
    heads = params.heads
    q = ad.split_heads(linear(queries, params.wq, params.bq), heads)
    k = ad.split_heads(linear(keys_values, params.wk, params.bk), heads)
    v = ad.split_heads(linear(keys_values, params.wv, params.bv), heads)
    scores = ad.batched_matmul(q, k, transpose_b=True,
                               scale=1.0 / math.sqrt(width // heads))
    attended = ad.batched_matmul(ad.softmax(scores, axis=-1), v)
    return linear(ad.merge_heads(attended), params.wo, params.bo), scores


def mhca_forward(params: MhcaParams, queries: Tensor, bag: Tensor,
                 score_head: int | None = None) -> tuple[Tensor, Tensor]:
    """Cross-attention of query rows over the patch bag.

    Returns the attended-and-projected output together with the pre-softmax
    score matrix (head-averaged unless `score_head` picks one head).
    """
    if bag.shape[0] < 1:
        raise ShapeError("cross-attention needs at least one patch")
    if score_head is not None and not 0 <= score_head < params.heads:
        raise ShapeError(f"score head {score_head} out of range for "
                         f"{params.heads} heads")
    out, scores = _attend(params, queries, bag)
    if score_head is None:
        return out, ad.mean(scores, axis=0)
    return out, ad.reshape(ad.narrow(scores, 0, score_head, 1), scores.shape[1:])


def mhsa_forward(params: MhcaParams, x: Tensor) -> Tensor:
    """Self-attention with a residual connection: x + attn(x)."""
    out, _ = _attend(params, x, x)
    return ad.add(x, out)


@dataclass
class FfnParams:
    """Pre-norm residual feed-forward block, hidden width 2x."""
    norm_gain: Tensor
    norm_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, width: int) -> "FfnParams":
        hidden = 2 * width
        gain = ad.tensor(np.ones(width), requires_grad=True)
        bias = ad.tensor(np.zeros(width), requires_grad=True)
        w1, b1 = linear_params(rng, width, hidden)
        w2, b2 = linear_params(rng, hidden, width)
        return cls(gain, bias, w1, b1, w2, b2)

    def named_tensors(self, prefix: str):
        for field in ("norm_gain", "norm_bias", "w1", "b1", "w2", "b2"):
            yield f"{prefix}.{field}", getattr(self, field)


def ffn_forward(params: FfnParams, x: Tensor) -> Tensor:
    normed = ad.layer_norm(x, params.norm_gain, params.norm_bias)
    hidden = ad.relu(linear(normed, params.w1, params.b1))
    return ad.add(x, linear(hidden, params.w2, params.b2))


@dataclass
class GatedAttentionParams:
    """Tanh/sigmoid gated scoring over instances."""
    u_w: Tensor
    u_b: Tensor
    v_w: Tensor
    v_b: Tensor
    score_w: Tensor
    score_b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, width: int,
             attn_width: int | None = None) -> "GatedAttentionParams":
        attn_width = width if attn_width is None else attn_width
        u_w, u_b = linear_params(rng, width, attn_width)
        v_w, v_b = linear_params(rng, width, attn_width)
        score_w, score_b = linear_params(rng, attn_width, 1)
        return cls(u_w, u_b, v_w, v_b, score_w, score_b)

    def named_tensors(self, prefix: str):
        for field in ("u_w", "u_b", "v_w", "v_b", "score_w", "score_b"):
            yield f"{prefix}.{field}", getattr(self, field)


def gated_attention_scores(params: GatedAttentionParams, bag: Tensor) -> Tensor:
    """Pre-softmax instance scores, shape (N_p, 1)."""
    gate = ad.mul(ad.tanh(linear(bag, params.u_w, params.u_b)),
                  ad.sigmoid(linear(bag, params.v_w, params.v_b)))
    return linear(gate, params.score_w, params.score_b)


def gated_attention_weights(params: GatedAttentionParams, bag: Tensor) -> Tensor:
    """Instance weights after softmax over the bag; columns sum to 1."""
    return ad.softmax(gated_attention_scores(params, bag), axis=0)


@dataclass
class SnnHeadParams:
    """Two linear layers, the first followed by layer norm and ELU."""
    w1: Tensor
    b1: Tensor
    norm_gain: Tensor
    norm_bias: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, width: int, out_size: int) -> "SnnHeadParams":
        w1, b1 = linear_params(rng, width, width)
        gain = ad.tensor(np.ones(width), requires_grad=True)
        bias = ad.tensor(np.zeros(width), requires_grad=True)
        w2, b2 = linear_params(rng, width, out_size)
        return cls(w1, b1, gain, bias, w2, b2)

    @property
    def out_size(self) -> int:
        return self.w2.shape[1]

    def named_tensors(self, prefix: str):
        for field in ("w1", "b1", "norm_gain", "norm_bias", "w2", "b2"):
            yield f"{prefix}.{field}", getattr(self, field)


def snn_forward(params: SnnHeadParams, features: Tensor) -> Tensor:
    """Reconstruct one category's gene vector from a (1, width) feature row."""
    hidden = ad.elu(ad.layer_norm(linear(features, params.w1, params.b1),
                                  params.norm_gain, params.norm_bias))
    return linear(hidden, params.w2, params.b2)


def init_tokens(rng: np.random.Generator, count: int, width: int) -> Tensor:
    """Learnable query tokens, centered normal with sigma 0.02."""
    return ad.tensor(rng.normal(0.0, 0.02, size=(count, width)), requires_grad=True)
