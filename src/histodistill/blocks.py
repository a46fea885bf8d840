"""Differentiable building blocks: multi-head cross/self attention, FFN,
gated attention pooling, and the per-category reconstruction heads.

Blocks work on a stack of B bags at once. Per-patch layers see the bags'
patch rows packed one bag after another; the per-bag mixers (attention
over patches, gated pooling) see them padded to (B, W) as laid out by a
`PatchLayout`, whose patch mask the softmax over patches takes so pads
get exactly zero weight. Token-level inputs and outputs hold each bag's
rows as one consecutive block. Scores leave a block as plain arrays.

The per-patch blocks (`patch_keys`, `gated_attention_weights`) take the
raw bag together with the affine projection (proj_w, proj_b) that maps it
to the working width. Up to their first nonlinearity their maps are
affine in the raw rows, so each projection-then-map chain runs as one
`autodiff.composed_linear` on the raw rows: the keys, the values and the
gate's tanh and sigmoid pre-activations. No (N, width) projection of the
bag is built or recorded on the tape. Pooling over projected rows runs
as pooling over the padded raw rows followed by the projection
(`pooled_projection`), which is exact up to rounding because every
pooling row sums to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def aligned(n: int) -> int:
    """n rounded up to a multiple of `autodiff.ROW_ALIGN`."""
    return -(-n // ad.ROW_ALIGN) * ad.ROW_ALIGN


@dataclass(frozen=True)
class PatchLayout:
    """Where each bag's packed patch rows sit in the padded (B, W) layout.

    `index[b, i]` is the packed row of bag b's patch i, or -1 at a pad;
    `mask` is True at real patches. W is the longest bag's length rounded
    up to a multiple of 8 (`aligned`), so every per-bag reduction over a
    bag's patches runs over the same width alone and in any stack of bags
    that round to the same length. With `autodiff.linear`'s row-invariant
    no-grad products, that makes a bag's no-grad forward bit-identical in
    both.
    """
    lengths: tuple[int, ...]
    index: np.ndarray
    mask: np.ndarray

    @classmethod
    def of(cls, lengths: Sequence[int]) -> "PatchLayout":
        lengths = tuple(int(n) for n in lengths)
        if not lengths or min(lengths) < 1:
            raise ShapeError(f"every bag needs at least one patch, got {lengths}")
        mask = np.arange(aligned(max(lengths))) < np.array(lengths)[:, None]
        index = np.full(mask.shape, -1)
        index[mask] = np.arange(sum(lengths))
        return cls(lengths, index, mask)

    @property
    def batch(self) -> int:
        return len(self.lengths)

    def check(self, bag: Tensor) -> None:
        if bag.values.ndim != 2 or bag.shape[0] != sum(self.lengths):
            raise ShapeError(f"bag rows {bag.shape} do not match bag lengths "
                             f"{self.lengths}")


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


def _attend(params: MhcaParams, q: Tensor, k: Tensor, v: Tensor,
            mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over all bags and heads at once.

    q, k and v are (batch, heads, n, d); a q batch of 1 is shared by every
    bag. `mask`, when given, broadcasts against the scores and is False at
    padded keys. Returns the projected output rows and the pre-softmax
    scores, shape (batch, heads, n_queries, n_keys).
    """
    scores = ad.batched_matmul(q, k, transpose_b=True,
                               scale=1.0 / math.sqrt(q.shape[-1]))
    weights = ad.softmax(scores, axis=-1, mask=mask)
    attended = ad.batched_matmul(weights, v)
    return linear(ad.merge_heads(attended), params.wo, params.bo), scores


def _check_width(params: MhcaParams, *inputs: Tensor) -> None:
    width = params.wq.shape[0]
    if any(x.values.ndim != 2 or x.shape[1] != width for x in inputs):
        raise ShapeError(f"attention width {width} does not match inputs "
                         f"{[x.shape for x in inputs]}")


@dataclass
class PatchKeys:
    """Per-head keys and values of a stack of bags, (B, heads, W, d).

    Computed once per stack; every cross-attention round with the same
    parameters over the same bag reuses them.
    """
    keys: Tensor
    values: Tensor
    mask: np.ndarray        # (B, 1, 1, W): True at real patches


def patch_keys(params: MhcaParams, bag: Tensor, layout: PatchLayout,
               proj_w: Tensor, proj_b: Tensor) -> PatchKeys:
    """Keys and values of packed raw patch rows, padded per bag.

    The rows are first projected by (proj_w, proj_b) to the attention
    width; each key or value map runs composed with that projection.
    `layout` says which rows belong to which bag.
    """
    layout.check(bag)
    rows = layout.index.reshape(-1)

    def heads(weight: Tensor, bias: Tensor) -> Tensor:
        projected = ad.composed_linear(bag, proj_w, proj_b, weight, bias)
        return ad.split_heads(ad.gather_rows(projected, rows),
                              params.heads, layout.batch)

    return PatchKeys(heads(params.wk, params.bk), heads(params.wv, params.bv),
                     layout.mask[:, None, None, :])


def mhca_forward(params: MhcaParams, queries: Tensor, keys: PatchKeys,
                 score_head: int | None = None,
                 per_bag: bool = False) -> tuple[Tensor, np.ndarray]:
    """Cross-attention of query rows over each bag of a stack.

    `queries` is one block of n rows shared by every bag, or, with
    `per_bag`, B consecutive blocks of n rows, block b for bag b. Returns
    the attended-and-projected output, (B * n, width) in bag blocks,
    together with the pre-softmax scores as a plain (B, n, W) array
    (head-averaged unless `score_head` picks one head; 0 at pads). No
    gradient can flow back through the scores.
    """
    _check_width(params, queries)
    if score_head is not None and not 0 <= score_head < params.heads:
        raise ShapeError(f"score head {score_head} out of range for "
                         f"{params.heads} heads")
    batch = keys.keys.shape[0] if per_bag else 1
    q = ad.split_heads(linear(queries, params.wq, params.bq), params.heads, batch)
    out, scores = _attend(params, q, keys.keys, keys.values, keys.mask)
    if score_head is None:
        return out, scores.values.sum(axis=1) * (1.0 / params.heads)
    return out, scores.values[:, score_head].copy()


def mhsa_forward(params: MhcaParams, x: Tensor, batch: int = 1) -> Tensor:
    """Self-attention with a residual connection: x + attn(x).

    x holds `batch` consecutive blocks of rows; each block attends only
    within itself.
    """
    _check_width(params, x)

    def heads(weight: Tensor, bias: Tensor) -> Tensor:
        return ad.split_heads(linear(x, weight, bias), params.heads, batch)

    out, _ = _attend(params, heads(params.wq, params.bq),
                     heads(params.wk, params.bk), heads(params.wv, params.bv))
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
    def init(cls, rng: np.random.Generator, width: int) -> "GatedAttentionParams":
        u_w, u_b = linear_params(rng, width, width)
        v_w, v_b = linear_params(rng, width, width)
        score_w, score_b = linear_params(rng, width, 1)
        return cls(u_w, u_b, v_w, v_b, score_w, score_b)

    def named_tensors(self, prefix: str):
        for field in ("u_w", "u_b", "v_w", "v_b", "score_w", "score_b"):
            yield f"{prefix}.{field}", getattr(self, field)


def gated_attention_weights(params: GatedAttentionParams, bag: Tensor,
                            layout: PatchLayout, proj_w: Tensor,
                            proj_b: Tensor) -> tuple[Tensor, np.ndarray]:
    """Instance weights after softmax over each bag, shape (B, W, 1).

    Scores are computed on the packed raw rows projected by (proj_w,
    proj_b), each gate map composed with that projection; each bag's
    column sums to 1 and pads get weight 0. Also returns the pre-softmax
    scores as a plain (B, 1, W) array, 0 at pads, through which no
    gradient can flow.
    """
    layout.check(bag)
    gate = ad.mul(
        ad.tanh(ad.composed_linear(bag, proj_w, proj_b, params.u_w, params.u_b)),
        ad.sigmoid(ad.composed_linear(bag, proj_w, proj_b, params.v_w, params.v_b)))
    raw = ad.gather_rows(linear(gate, params.score_w, params.score_b), layout.index)
    weights = ad.softmax(raw, axis=1, mask=layout.mask[:, :, None])
    return weights, raw.values.transpose(0, 2, 1)


def pooled_projection(pooling: Tensor, bag: Tensor, layout: PatchLayout,
                      proj_w: Tensor, proj_b: Tensor) -> Tensor:
    """Pooled projected patch rows, (B * n, width) in bag blocks.

    `pooling` is (B, n, W): n pooling rows per bag over its padded patches,
    each summing to 1. Projecting the pooled raw rows equals pooling the
    projected rows up to rounding, since a row's weights on the bias sum
    to 1; only (B * n) rows are projected, and the padded raw bag is a
    plain array, off the tape.
    """
    raw = bag.values.take(layout.index, axis=0)        # (B, W, feature_dim)
    raw[~layout.mask] = 0.0
    pooled = ad.batched_matmul(pooling, raw)
    return linear(ad.reshape(pooled, (pooled.shape[0] * pooled.shape[1], bag.shape[1])),
                  proj_w, proj_b)


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
