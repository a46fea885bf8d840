"""Differentiable building blocks: multi-head cross/self attention, FFN,
gated attention pooling, and the per-category reconstruction heads.

Blocks work on a stack of B bags at once, a `BagStack`. Per-patch layers
see the bags' patch rows packed one bag after another; the per-bag mixers
(attention over patches, gated pooling) see them padded to (B, W) as laid
out by a `PatchLayout`, whose patch mask the softmax over patches takes so
pads get exactly zero weight. Token-level inputs and outputs hold each
bag's rows as one consecutive block. Scores leave a block as plain arrays.

No block projects the bag to the working width. Every map of a patch row
up to its first nonlinearity is affine in the raw row, so each map runs
composed with the projection (proj_w, proj_b) that precedes it:
- cross-attention (`patch_keys`, `mhca_forward`) attends over the padded
  raw rows with a trailing ones column, X~ = [X, 1]. The key map, composed
  into an augmented weight Wk~ (`autodiff.affine_compose`), folds into the
  queries: a head's scores are (q_h Wk~_h^T) X~^T. The value map applies
  after pooling: a head's output is (A_h X~) Wv~_h, exact up to rounding
  because every attention row sums to 1 over real patches and the ones
  column carries the bias;
- the gate's tanh and sigmoid maps, composed into augmented weights, and
  its score are one `autodiff.gated_scores` node over the packed raw rows;
- pooling (`pooled_projection`) pools the padded raw rows and projects
  the pooled rows, again exact up to rounding since every pooling row
  sums to 1.
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


@dataclass(frozen=True)
class BagStack:
    """The patch rows of a stack of B bags, packed and padded, built once.

    `bag` is the packed (N, D) rows, one bag after another, for the
    per-patch maps; `layout` places them in the padded (B, W) layout.
    `rows` is X~, each bag's rows padded to W with a trailing ones column,
    (B, 1, W, D + 1), zero at pads in every column, the ones column too;
    the axis of 1 broadcasts over attention heads. `rows_t` is X~ with its
    last two axes swapped, as a contiguous copy (see
    `autodiff.batched_matmul`), and `raw` the (B, W, D) view of X~ without
    the ones column. All four are constants.
    """
    bag: Tensor
    layout: PatchLayout
    rows: Tensor
    rows_t: Tensor
    raw: Tensor

    @classmethod
    def of(cls, bags: Sequence[np.ndarray]) -> "BagStack":
        """Stack of (N_p, D) bags; row b of every padded array is bags[b]."""
        layout = PatchLayout.of([np.shape(bag)[0] for bag in bags])
        bag = ad.tensor(np.concatenate(bags, axis=0, dtype=np.float64))
        if bag.values.ndim != 2:
            raise ShapeError(f"bags must be 2-d (patches, features), got rows "
                             f"{bag.shape}")
        dim = bag.shape[1]
        padded = np.zeros(layout.mask.shape + (dim + 1,))
        start = 0
        for b, n in enumerate(layout.lengths):
            padded[b, :n, :dim] = bag.values[start:start + n]
            padded[b, :n, dim] = 1.0
            start += n
        rows = padded[:, None]
        return cls(bag, layout, ad.tensor(rows),
                   ad.tensor(np.ascontiguousarray(rows.swapaxes(-1, -2))),
                   ad.tensor(padded[..., :dim]))


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


def _attend(params: MhcaParams, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention over all bags and heads at once.

    q, k and v are (batch, heads, n, d). Returns the projected output rows.
    """
    scores = ad.batched_matmul(q, k, transpose_b=True,
                               scale=1.0 / math.sqrt(q.shape[-1]))
    attended = ad.batched_matmul(ad.softmax(scores, axis=-1), v)
    return linear(ad.merge_heads(attended), params.wo, params.bo)


def _check_width(params: MhcaParams, *inputs: Tensor) -> None:
    width = params.wq.shape[0]
    if any(x.values.ndim != 2 or x.shape[1] != width for x in inputs):
        raise ShapeError(f"attention width {width} does not match inputs "
                         f"{[x.shape for x in inputs]}")


@dataclass
class PatchKeys:
    """The key and value maps of a stack's cross-attention, on its raw rows.

    `keys` and `values` are the augmented weights Wk~ and Wv~, each
    (1, heads, D + 1, d): the input projection composed with wk/bk or
    wv/bv (`autodiff.affine_compose`). A head's keys would be X~ @ Wk~_h
    and its values X~ @ Wv~_h over the stack's padded rows X~; neither is
    formed. Built once per stack; every cross-attention round with the
    same parameters over the same bags reuses them.
    """
    keys: Tensor
    values: Tensor
    stack: BagStack


def patch_keys(params: MhcaParams, stack: BagStack, proj_w: Tensor,
               proj_b: Tensor) -> PatchKeys:
    """Key and value maps of the stack's raw patch rows, each composed with
    the projection (proj_w, proj_b) to the attention width."""
    return PatchKeys(
        ad.affine_compose(proj_w, proj_b, params.wk, params.bk, params.heads),
        ad.affine_compose(proj_w, proj_b, params.wv, params.bv, params.heads),
        stack)


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

    A head's scores are (q_h Wk~_h^T / sqrt(d)) X~^T and its output
    (A_h X~) Wv~_h: the bag is touched only by products over its D + 1
    raw columns. Every product is a per-(bag, head) slice, the same shape
    alone and in a stack of bags with one padded width.
    """
    _check_width(params, queries)
    if score_head is not None and not 0 <= score_head < params.heads:
        raise ShapeError(f"score head {score_head} out of range for "
                         f"{params.heads} heads")
    stack = keys.stack
    q = ad.split_heads(linear(queries, params.wq, params.bq), params.heads,
                       stack.layout.batch if per_bag else 1)
    folded = ad.batched_matmul(q, keys.keys, transpose_b=True,
                               scale=1.0 / math.sqrt(q.shape[-1]))
    scores = ad.batched_matmul(folded, stack.rows_t)
    weights = ad.softmax(scores, axis=-1, mask=stack.layout.mask[:, None, None, :])
    attended = ad.batched_matmul(ad.batched_matmul(weights, stack.rows), keys.values)
    out = linear(ad.merge_heads(attended), params.wo, params.bo)
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

    out = _attend(params, heads(params.wq, params.bq),
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


def gated_attention_weights(params: GatedAttentionParams, stack: BagStack,
                            proj_w: Tensor, proj_b: Tensor
                            ) -> tuple[Tensor, np.ndarray]:
    """Instance weights after softmax over each bag, one (B, 1, W) pooling
    row per bag.

    Scores are computed on the packed raw rows projected by (proj_w,
    proj_b), each gate map composed with that projection; each bag's row
    sums to 1 and pads get weight 0. Also returns the pre-softmax scores
    as a plain (B, 1, W) array, 0 at pads, through which no gradient can
    flow.
    """
    layout = stack.layout
    scores = ad.gated_scores(
        stack.bag, ad.affine_compose(proj_w, proj_b, params.u_w, params.u_b, heads=1),
        ad.affine_compose(proj_w, proj_b, params.v_w, params.v_b, heads=1),
        params.score_w, params.score_b, layout.index)
    weights = ad.softmax(scores, axis=-1, mask=layout.mask[:, None, :])
    return weights, scores.values


def pooled_projection(pooling: Tensor, stack: BagStack, proj_w: Tensor,
                      proj_b: Tensor) -> Tensor:
    """Pooled projected patch rows, (B * n, width) in bag blocks.

    `pooling` is (B, n, W): n pooling rows per bag over its padded patches,
    each summing to 1. Projecting the pooled raw rows (the stack's `raw`)
    equals pooling the projected rows up to rounding, since a row's
    weights on the bias sum to 1; only (B * n) rows are projected.
    """
    pooled = ad.batched_matmul(pooling, stack.raw)
    return linear(ad.reshape(pooled, (pooled.shape[0] * pooled.shape[1],
                                      pooled.shape[2])), proj_w, proj_b)


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
    """Reconstruct one category's gene vectors, (B, len), from its (B, width)
    feature rows, one per patient."""
    hidden = ad.elu(ad.layer_norm(linear(features, params.w1, params.b1),
                                  params.norm_gain, params.norm_bias))
    return linear(hidden, params.w2, params.b2)


def init_tokens(rng: np.random.Generator, count: int, width: int) -> Tensor:
    """Learnable query tokens, centered normal with sigma 0.02."""
    return ad.tensor(rng.normal(0.0, 0.02, size=(count, width)), requires_grad=True)
