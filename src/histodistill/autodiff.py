"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Covers exactly the operations the attention architecture needs:
broadcast add and multiply, softmax with an optional mask, the
activations, reshaping, concatenation and row gathering, and a
finite-difference gradient checker. Composites that run many times per
training step are single nodes with closed-form backwards: the affine
map, two affine maps composed into one augmented weight split into heads,
the tanh/sigmoid gated scores of a stack's packed rows, layer
normalization, head split/merge with batched matmul, the row gather, and
each loss term: the survival negative log likelihood, and the squared
and cosine reconstruction errors, which average over the gene categories
inside the node. There is no general reduction op. Ops are plain
functions (`add`, `mul`, ...); `Tensor` has no operator overloads.
A value that must not carry gradient leaves the tape as a plain array.
Tensors are immutable during an active forward/backward pass, and no
backward function writes into the gradient it is handed; the optimizer
mutates leaf values between passes via `assign_`. `backward` consumes the
graph it walks, so each interior node is walked by one backward only, and
its activations are freed during that walk.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the backward tape (non-scalar loss, repeated backward)."""


class GradCheckError(RuntimeError):
    """The gradient checker hit a non-finite evaluation."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / FD probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus the tape bookkeeping for backward."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_op", "_backward_done", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor created with non-finite values")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def assign_(self, new_values: np.ndarray) -> None:
        """Overwrite leaf values in place (optimizer use, between passes)."""
        if self._parents or self._backward_done:
            raise GraphError("assign_ is only valid on leaf tensors")
        arr = np.asarray(new_values, dtype=np.float64)
        if arr.shape != self.values.shape:
            raise ShapeError(f"assign_ shape {arr.shape} != {self.values.shape}")
        self.values = arr

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    """Wrap array-like data as a leaf tensor."""
    return Tensor(values, requires_grad=requires_grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _constant(values: np.ndarray) -> Tensor:
    """A constant leaf over a float64 array known to be finite: not scanned."""
    out = Tensor.__new__(Tensor)
    out.values, out.requires_grad, out.grad, out._op = values, False, None, "leaf"
    out._parents, out._backward_fn, out._backward_done = (), None, False
    return out


def _make(values: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out._op = op
    out._backward_done = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = grad           # never written in place, so it can be shared
    else:
        t.grad = t.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_values = a.values + b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_values, (a, b), backward_fn, "add")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_values = a.values * b.values

    def backward_fn(g):
        # skips the product for a constant operand, such as a scale factor
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _make(out_values, (a, b), backward_fn, "mul")


# `linear` and `gated_scores` run their rows in whole blocks of ROW_ALIGN
# and their inner dimension in blocks of at most INNER_BLOCK (see
# `_row_invariant_product`); `blocks.aligned` rounds patch counts up to
# ROW_ALIGN.
ROW_ALIGN = 8
INNER_BLOCK = 256


def _aligned_rows_product(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ w into `out` over whole blocks of ROW_ALIGN rows: the leading rows
    as they are, the last rows - rows % ROW_ALIGN zero-padded, so at most
    ROW_ALIGN - 1 rows are copied."""
    rows = x.shape[0]
    head = rows - rows % ROW_ALIGN
    if head:
        np.matmul(x[:head], w, out=out[:head])
    if head < rows:
        tail = np.zeros((ROW_ALIGN, x.shape[1]))
        tail[:rows - head] = x[head:]
        out[head:] = (tail @ w)[:rows - head]
    return out


def _row_invariant_product(x: np.ndarray, w: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """x @ w, written into `out` if given, with every output row's bits
    independent of x's other rows.

    BLAS picks its kernel by shape: one row goes through gemv, an odd tail
    of rows through a narrower kernel that rounds differently, and
    (OpenBLAS's SkylakeX dgemm) a product with few rows and an inner
    dimension over 384 through a small-matrix kernel that sums the inner
    dimension in one pass where a taller product splits it in two. So rows
    run in whole blocks of ROW_ALIGN, and the inner dimension in blocks of
    at most INNER_BLOCK whose partial products are added in order. Checked
    on OpenBLAS 0.3.31's Haswell, SandyBridge and SkylakeX kernels with 1
    and 2 threads, inner dimensions up to 1024 (`tests/test_invariance.py`).
    """
    out = np.empty((x.shape[0], w.shape[1])) if out is None else out
    if x.shape[1] <= INNER_BLOCK:
        return _aligned_rows_product(x, w, out)
    _aligned_rows_product(x[:, :INNER_BLOCK], w[:INNER_BLOCK], out)
    for start in range(INNER_BLOCK, x.shape[1], INNER_BLOCK):
        out += _aligned_rows_product(x[:, start:start + INNER_BLOCK],
                                     w[start:start + INNER_BLOCK], np.empty_like(out))
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias as one node; bias has shape (fan_out,).

    An output row has the same bits whatever other rows x holds
    (`_row_invariant_product`), so one patient's rows come out the same
    alone and inside a stack.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.values.ndim != 2 or weight.values.ndim != 2:
        raise ShapeError(f"linear needs 2-d operands, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0] or bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear shapes do not chain: {x.shape} @ {weight.shape} "
                         f"+ {bias.shape}")
    out_values = _row_invariant_product(x.values, weight.values)
    out_values += bias.values

    def backward_fn(g):
        if x.requires_grad:     # skips the product for a constant input bag
            _accumulate(x, g @ weight.values.T)
        _accumulate(weight, x.values.T @ g)
        _accumulate(bias, g.sum(axis=0))

    return _make(out_values, (x, weight, bias), backward_fn, "linear")


def affine_compose(w0: Tensor, b0: Tensor, w1: Tensor, b1: Tensor,
                   heads: int) -> Tensor:
    """Two affine maps in a row as one augmented weight, split into heads.

    (x @ w0 + b0) @ w1 + b1 equals [x, 1] @ A for the (fan_in + 1, fan_out)
    matrix A = [[w0], [b0]] @ w1 with b1 added to its last row. Returns
    A's column blocks of fan_out // heads as (1, heads, fan_in + 1, d), the
    right-hand operand of a `batched_matmul` over the rows of [x, 1]. The
    weight is built from the current leaf values on every call. The
    backward merges the heads back into one (fan_in + 1, fan_out) gradient
    and derives all four parameter gradients from it.
    """
    w0, b0, w1, b1 = (_as_tensor(t) for t in (w0, b0, w1, b1))
    if w0.values.ndim != 2 or w1.values.ndim != 2:
        raise ShapeError(f"affine_compose needs 2-d weights, got {w0.shape} and "
                         f"{w1.shape}")
    if (b0.shape != (w0.shape[1],) or w1.shape[0] != w0.shape[1]
            or b1.shape != (w1.shape[1],)):
        raise ShapeError(f"affine_compose shapes do not chain: ({w0.shape} + "
                         f"{b0.shape}) @ {w1.shape} + {b1.shape}")
    rows, width = w0.shape[0] + 1, w1.shape[1]
    if heads < 1 or width % heads != 0:
        raise ShapeError(f"cannot split {width} columns into {heads} heads")
    first = np.concatenate([w0.values, b0.values[None]])
    weight = first @ w1.values
    weight[-1] += b1.values
    out_values = np.ascontiguousarray(
        weight.reshape(rows, heads, width // heads).transpose(1, 0, 2)[None])

    def backward_fn(g):
        grad = g[0].transpose(1, 0, 2).reshape(rows, width)
        grad_first = grad @ w1.values.T
        _accumulate(w0, grad_first[:-1])
        _accumulate(b0, grad_first[-1])
        _accumulate(w1, first.T @ grad)
        _accumulate(b1, grad[-1])

    return _make(out_values, (w0, b0, w1, b1), backward_fn, "affine_compose")


# `gated_scores` runs its forward in blocks of GATE_BLOCK packed rows, so a
# block's (GATE_BLOCK, width) activations stay in cache from the products to
# the score. On slide-scale bags at width 64, 256 rows timed best among 64
# to 1024.
GATE_BLOCK = 32 * ROW_ALIGN


def gated_scores(bag: Tensor, u: Tensor, v: Tensor, score_w: Tensor,
                 score_b: Tensor, index: np.ndarray) -> Tensor:
    """Gated-attention scores of packed rows, laid out as (B, 1, W) rows.

    Per row x of `bag` (N, D), (tanh(x Wu + bu) * sigmoid(x Wv + bv)) @
    score_w + score_b: u and v are augmented weights [[Wu], [bu]], (1, 1,
    D + 1, width) as `affine_compose(..., heads=1)` gives them. Row
    index[b, i] of the (B, W) `index` lands at [b, 0, i]; a negative index
    is a pad and scores 0. The forward runs in blocks of GATE_BLOCK rows,
    each taken from its products to its score while it is in cache; all
    three products are `_row_invariant_product`s, as in `linear`. Without
    a tape only the (N,) scores are written out. While a tape is recorded,
    each block's tanh and sigmoid outputs land in the (N, width) arrays
    the backward keeps, and the backward turns them into the two
    pre-activation gradients in place, in blocks of GATE_BLOCK rows; it
    skips the input gradient for a constant bag.
    """
    bag, u, v, score_w, score_b = (_as_tensor(t) for t in (bag, u, v, score_w, score_b))
    index = np.asarray(index)
    if (bag.values.ndim != 2 or score_w.values.ndim != 2 or score_w.shape[1] != 1
            or u.shape != (1, 1, bag.shape[1] + 1, score_w.shape[0]) or v.shape != u.shape
            or score_b.shape != (1,) or index.ndim != 2):
        raise ShapeError(f"gated_scores operands do not chain: rows {bag.shape}, maps "
                         f"{u.shape} and {v.shape}, score {score_w.shape} + "
                         f"{score_b.shape}, index {index.shape}")
    (wu, bu), (wv, bv) = ((m.values[0, 0, :-1], m.values[0, 0, -1]) for m in (u, v))
    rows, width = bag.shape[0], score_w.shape[0]
    # t, s: all rows for the backward, else one block; gate: scratch per block
    t, s = np.empty((2, rows if _grad_enabled else min(rows, GATE_BLOCK), width))
    gate = np.empty((min(rows, GATE_BLOCK), width))
    scores = np.empty((rows, 1))
    for start in range(0, rows, GATE_BLOCK):
        x = bag.values[start:start + GATE_BLOCK]
        block = slice(start, start + len(x))
        kept = block if _grad_enabled else slice(len(x))
        t_rows = _row_invariant_product(x, wu, out=t[kept])
        s_rows = _row_invariant_product(x, wv, out=s[kept])
        t_rows += bu
        s_rows += bv
        np.tanh(t_rows, out=t_rows)
        t_s = gate[:len(x)]
        _sigmoid_into(s_rows, s_rows, t_s)
        _row_invariant_product(np.multiply(t_rows, s_rows, out=t_s), score_w.values,
                               out=scores[block])
    scores = scores[:, 0] + score_b.values
    try:
        out_values = np.where(index < 0, 0.0, scores.take(index))[:, None]
    except IndexError as err:
        raise ShapeError(f"gated_scores index out of range for {bag.shape[0]} "
                         f"rows") from err

    def backward_fn(g):
        # One spare last entry takes every pad's gradient and is dropped.
        g_scores = np.zeros((bag.shape[0] + 1, 1))
        g_scores[index, 0] = g[:, 0]
        g_scores = g_scores[:-1]
        _accumulate(score_w, (t * s).T @ g_scores)
        _accumulate(score_b, g_scores.sum(axis=0))
        # The rest is elementwise, so row blocks keep every bit. Each block
        # overwrites its rows of t and s with the pre-activation gradients:
        # only this closure holds them, and backward calls it once.
        for start in range(0, rows, GATE_BLOCK):
            t_rows, s_rows = t[start:start + GATE_BLOCK], s[start:start + GATE_BLOCK]
            g_gate = g_scores[start:start + GATE_BLOCK] * score_w.values[:, 0]
            g_s = g_gate * t_rows                   # g * t * s * (1 - s), into s
            g_gate *= s_rows                        # g * s * (1 - t * t), into t
            g_s *= s_rows
            slope = np.subtract(1.0, s_rows)
            np.multiply(g_s, slope, out=s_rows)
            np.multiply(t_rows, t_rows, out=slope)
            np.subtract(1.0, slope, out=slope)
            np.multiply(g_gate, slope, out=t_rows)
        for m, g_pre in ((u, t), (v, s)):
            if bag.requires_grad:   # skips the product for a constant bag
                _accumulate(bag, g_pre @ m.values[0, 0, :-1].T)
            grad = np.concatenate([bag.values.T @ g_pre, g_pre.sum(axis=0)[None]])
            _accumulate(m, grad[None, None])

    return _make(out_values, (bag, u, v, score_w, score_b), backward_fn, "gated_scores")


def batched_matmul(a: Tensor, b: Tensor, transpose_b: bool = False,
                   scale: float = 1.0) -> Tensor:
    """scale * (a[i] @ b[i]) over the leading axes of two stacks of matrices.

    Both operands have the same rank, at least 3; a leading extent of 1
    broadcasts against the other operand's. `transpose_b` uses the
    transpose of each matrix of b.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim < 3 or b.values.ndim != a.values.ndim:
        raise ShapeError(f"batched_matmul needs operands of equal rank >= 3, "
                         f"got {a.shape} and {b.shape}")
    # A transposed operand is copied first: BLAS can round a product with a
    # transposed view differently, and the copy keeps each slice bit-equal
    # to a plain 2-d product of the same two matrices.
    b_mat = (np.ascontiguousarray(b.values.swapaxes(-1, -2)) if transpose_b
             else b.values)
    try:
        out_values = a.values @ b_mat
    except ValueError as err:
        raise ShapeError(f"batched_matmul operands do not chain: {a.shape} vs "
                         f"{b.shape} (transpose_b={transpose_b})") from err
    if scale != 1.0:
        out_values *= scale

    def backward_fn(g):
        if scale != 1.0:
            g = g * scale
        # Reads b, not b_mat, so the transposed copy is freed after the forward.
        b_back = b.values if transpose_b else b.values.swapaxes(-1, -2)
        _accumulate(a, _unbroadcast(g @ b_back, a.shape))
        if b.requires_grad:     # skips the product for a constant bag
            grad_b = a.values.swapaxes(-1, -2) @ g
            if transpose_b:
                grad_b = grad_b.swapaxes(-1, -2)
            _accumulate(b, _unbroadcast(grad_b, b.shape))

    return _make(out_values, (a, b), backward_fn, "batched_matmul")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out_values = x.values.reshape(shape)
    original = x.shape

    def backward_fn(g):
        _accumulate(x, g.reshape(original))

    return _make(out_values, (x,), backward_fn, "reshape")


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out_values = np.concatenate([p.values for p in parts], axis=axis)
    extents = [p.shape[axis] for p in parts]

    def backward_fn(g):
        start = 0
        for p, n in zip(parts, extents):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, start + n)
            _accumulate(p, g[tuple(index)])
            start += n

    return _make(out_values, tuple(parts), backward_fn, "concat")


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows of x picked by an array of row numbers in [0, len(x)).

    The result has shape index.shape + x.shape[1:]. Each row of x may be
    picked at most once, so the backward is a plain scatter. Picking one
    category's row from every bag is such a gather. A negative index is a
    `ShapeError`, where numpy's `take` would count it from the end.
    """
    x = _as_tensor(x)
    index = np.asarray(index)
    if index.size and index.min() < 0:
        raise ShapeError(f"gather index {int(index.min())} is negative")
    try:
        out_values = x.values.take(index, axis=0)
    except IndexError as err:
        raise ShapeError(f"gather index out of range for shape {x.shape}") from err

    def backward_fn(g):
        full = np.zeros(x.shape)
        full[index] = g
        _accumulate(x, full)

    return _make(out_values, (x,), backward_fn, "gather_rows")


def split_heads(x: Tensor, heads: int, batch: int = 1) -> Tensor:
    """(batch * n, heads * d) -> (batch, heads, n, d).

    Rows come in `batch` consecutive blocks of n; column block h of block b
    becomes slice [b, h].
    """
    x = _as_tensor(x)
    if (x.values.ndim != 2 or heads < 1 or batch < 1 or x.shape[1] % heads != 0
            or x.shape[0] % batch != 0):
        raise ShapeError(f"cannot split shape {x.shape} into {batch} blocks "
                         f"of {heads} heads")
    rows, width = x.shape
    out_values = x.values.reshape(batch, rows // batch, heads,
                                  width // heads).transpose(0, 2, 1, 3)

    def backward_fn(g):
        _accumulate(x, g.transpose(0, 2, 1, 3).reshape(rows, width))

    return _make(out_values, (x,), backward_fn, "split_heads")


def merge_heads(x: Tensor) -> Tensor:
    """(batch, heads, n, d) -> (batch * n, heads * d); the inverse of split_heads."""
    x = _as_tensor(x)
    if x.values.ndim != 4:
        raise ShapeError(f"merge_heads needs a 4-d tensor, got {x.shape}")
    batch, heads, n, d = x.shape
    out_values = x.values.transpose(0, 2, 1, 3).reshape(batch * n, heads * d)

    def backward_fn(g):
        _accumulate(x, g.reshape(batch, n, heads, d).transpose(0, 2, 1, 3))

    return _make(out_values, (x,), backward_fn, "merge_heads")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int, mask: np.ndarray | None = None) -> Tensor:
    """Max-shifted softmax along `axis`; each slice sums to 1.

    An optional boolean `mask` broadcasts against x and leaves at least one
    True entry in every slice; the softmax then runs over the True entries
    only, and masked-out entries get exactly zero weight and zero gradient.
    On an all-True mask the values equal the unmasked softmax.
    """
    x = _as_tensor(x)
    if not -x.values.ndim <= axis < x.values.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    # one fresh array takes every step in place: exp(kept - max) / sum
    if mask is None:
        y = x.values - x.values.max(axis=axis, keepdims=True)
    else:
        y = np.where(mask, x.values, -np.inf)
        y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _make(y, (x,), backward_fn, "softmax")


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.maximum(x.values, 0.0)

    def backward_fn(g):
        _accumulate(x, g * (x.values > 0.0))

    return _make(y, (x,), backward_fn, "relu")


def elu(x: Tensor) -> Tensor:
    """ELU with alpha = 1."""
    x = _as_tensor(x)
    neg = np.expm1(np.minimum(x.values, 0.0))
    y = np.where(x.values > 0.0, x.values, neg)

    def backward_fn(g):
        _accumulate(x, g * np.where(x.values > 0.0, 1.0, neg + 1.0))

    return _make(y, (x,), backward_fn, "elu")


def _sigmoid_into(v: np.ndarray, out: np.ndarray,
                  denom: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(v) = exp(min(v, 0)) / (1 + exp(-|v|)) written into `out`, which
    may be v: the numerator is 1 for v >= 0 and exp(v) below, so no exp
    overflows and no select runs per element. Each step writes into `out`
    or the denominator: the scratch `denom` of v's shape, if given, or one
    array made here (a 0-d input too, which a ufunc without `out` would
    turn into a scalar)."""
    denom = np.abs(v, out=np.empty_like(v) if denom is None else denom)
    np.negative(denom, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    np.minimum(v, 0.0, out=out)
    np.exp(out, out=out)
    out /= denom
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_into(x.values, np.empty_like(x.values))

    def backward_fn(g):
        grad = g * y            # (g * y) * (1 - y), in a fresh array
        grad *= 1.0 - y
        _accumulate(x, grad)

    return _make(y, (x,), backward_fn, "sigmoid")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization over the last axis, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match last extent {d}")
    inv_d = 1.0 / d
    centered = x.values - x.values.sum(axis=-1, keepdims=True) * inv_d
    variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    inv_std = (variance + eps) ** -0.5
    normalized = centered * inv_std
    out_values = normalized * gain.values + bias.values

    def backward_fn(g):
        rows = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * normalized).sum(axis=rows))
        _accumulate(bias, g.sum(axis=rows))
        g_norm = g * gain.values
        _accumulate(x, inv_std * (
            g_norm - g_norm.sum(axis=-1, keepdims=True) * inv_d
            - normalized * (g_norm * normalized).sum(axis=-1, keepdims=True) * inv_d))

    return _make(out_values, (x, gain, bias), backward_fn, "layer_norm")


# ---------------------------------------------------------------------------
# survival and reconstruction loss terms
# ---------------------------------------------------------------------------
# Each loss is one node that repeats, in the same order, the arithmetic of
# the chain of small ops it replaced: categories and terms add left to
# right, then scale; the backward scales the incoming gradient first. The
# bits therefore match that chain (tests/test_composed.py keeps it).

def survival_nll(hazards: Tensor, event_picks: np.ndarray | None,
                 survival_picks: np.ndarray | None, clamp: float) -> Tensor:
    """Discrete-time survival negative log likelihood as one node.

    -(sum(log(max(h, clamp)) * event_picks)
      + sum(log(max(S, clamp)) * survival_picks)), with S the running
    product of 1 - h along the last axis. The pick arrays are constants
    of the hazards' shape; a None drops its term, and one must be given.
    A clamped entry gets no gradient. The backward of the running product
    sums right to left and never divides by a factor, so a hazard of
    exactly 1 is legal.
    """
    hazards = _as_tensor(hazards)
    h = hazards.values
    given = [p for p in (event_picks, survival_picks) if p is not None]
    if h.ndim != 2 or not given or any(np.shape(p) != h.shape for p in given):
        raise ShapeError(f"survival_nll needs (B, n_bins) hazards and at least one "
                         f"pick array of their shape, got {h.shape}")
    one_minus = 1.0 - h
    survival = np.cumprod(one_minus, axis=-1)
    terms = [(np.asarray(picks, dtype=np.float64), x, np.maximum(x, clamp))
             for picks, x in ((event_picks, h), (survival_picks, survival))
             if picks is not None]
    values = [(np.log(clamped) * picks).sum() for picks, _, clamped in terms]
    out_values = functools.reduce(operator.add, values) * -1.0

    def backward_fn(g):
        g = g * -1.0
        grad = None
        for picks, x, clamped in terms:
            part = (g * picks) / clamped
            part *= x > clamp
            if x is survival:
                # dS_j/dh_i = -prod_{k<i} (1 - h_k) * prod_{i<k<=j} (1 - h_k)
                # for j >= i, from suffix sums over the picked terms.
                for i in range(h.shape[-1] - 2, -1, -1):
                    part[:, i] += one_minus[:, i + 1] * part[:, i + 1]
                prefix = np.ones_like(survival)
                prefix[:, 1:] = survival[:, :-1]
                part = -(prefix * part)
            grad = part if grad is None else grad + part
        _accumulate(hazards, grad)

    return _make(out_values, (hazards,), backward_fn, "survival_nll")


def _category_operands(preds, targets, op: str) -> tuple[list[Tensor], list[np.ndarray]]:
    preds = [_as_tensor(p) for p in preds]
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    if not preds or len(preds) != len(targets):
        raise ShapeError(f"{op} needs one target per category, got {len(preds)} "
                         f"predictions and {len(targets)} targets")
    for pred, target in zip(preds, targets):
        if pred.values.ndim != 2 or pred.shape != target.shape:
            raise ShapeError(f"{op} needs equal 2-d operands, got {pred.shape} vs "
                             f"{target.shape}")
    return preds, targets


def squared_error(preds: Sequence[Tensor], targets: Sequence[np.ndarray]) -> Tensor:
    """Mean over categories of the summed row means of (pred - target)^2.

    preds[c] and targets[c] are (rows, n_c); the targets are constants.
    """
    preds, targets = _category_operands(preds, targets, "squared_error")
    errs = [pred.values - target for pred, target in zip(preds, targets)]
    values = [(err * err).sum() * (1.0 / err.shape[1]) for err in errs]
    share = 1.0 / len(preds)
    total = functools.reduce(operator.add, values) * share

    def backward_fn(g):
        g = g * share
        for pred, err in zip(preds, errs):
            _accumulate(pred, 2.0 * ((g * (1.0 / err.shape[1])) * err))

    return _make(total, tuple(preds), backward_fn, "squared_error")


NORM_FLOOR = 1e-12


def _cosine_term(pred: Tensor, target: np.ndarray, gamma: float):
    """One category's sum over rows of (1 - cos)^gamma, its count of row
    norms below NORM_FLOOR, and its backward."""
    p = pred.values
    target_norm = np.sqrt((target * target).sum(axis=1))
    pred_norm = np.sqrt((p * p).sum(axis=1))
    clamped = int(np.count_nonzero(target_norm < NORM_FLOOR)
                  + np.count_nonzero(pred_norm < NORM_FLOOR))
    target_norm = np.maximum(target_norm, NORM_FLOOR)
    live = pred_norm > NORM_FLOOR
    denom = np.maximum(pred_norm, NORM_FLOOR) * target_norm
    dot = (p * target).sum(axis=1)
    gap = 1.0 - dot / denom

    def backward_fn(g):
        # Below the floor, 1/denom would scale the gradient by 1/NORM_FLOOR.
        g_cos = np.where(live, -g * gamma * gap ** (gamma - 1.0), 0.0)
        g_norm = -g_cos * dot / (denom * denom) * target_norm
        _accumulate(pred, (g_cos / denom)[:, None] * target
                    + (g_norm / np.where(live, pred_norm, 1.0))[:, None] * p)

    return (gap ** gamma).sum(), clamped, backward_fn


def cosine_error(preds: Sequence[Tensor], targets: Sequence[np.ndarray],
                 gamma: float, diagnostics: dict | None = None) -> Tensor:
    """Mean over categories of the summed rows' (1 - cos(pred, target))^gamma.

    preds[c] and targets[c] are (rows, n_c); the targets are constants.
    Every norm is clamped below at NORM_FLOOR, so a zero row scores
    cos = 0. A row whose prediction norm is clamped contributes no
    gradient at all; its forward value is unchanged. The count of clamped
    rows, targets and predictions alike, is added to
    diagnostics["clamped_norms"] when a dict is supplied.
    """
    preds, targets = _category_operands(preds, targets, "cosine_error")
    values, clamped, backwards = zip(*(_cosine_term(pred, target, gamma)
                                       for pred, target in zip(preds, targets)))
    if diagnostics is not None:
        diagnostics["clamped_norms"] = diagnostics.get("clamped_norms", 0) + sum(clamped)
    share = 1.0 / len(preds)
    total = functools.reduce(operator.add, values) * share

    def backward_fn(g):
        g = g * share
        for term_backward in backwards:
            term_backward(g)

    return _make(total, tuple(preds), backward_fn, "cosine_error")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topological_order(root: Tensor) -> list[Tensor]:
    """Every node reachable from `root`, each after all of its parents.

    Reaching a node an earlier backward has consumed is a `GraphError`:
    its parents are gone, and it must never pass for a leaf.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward_done:
            raise GraphError(f"backward already ran through this {node._op} node; "
                             f"rebuild the graph")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Populate gradients for every requires_grad leaf reachable from `loss`.

    Returns a map from leaf tensors to their gradient arrays. Gradients
    accumulate across calls on *different* losses (gradient accumulation).
    The walk consumes the graph: once an interior node has passed its
    gradient on, it drops its gradient, its backward function and its
    parents, so each node's values are freed as soon as no node still to
    be walked needs them. A consumed node is marked, and a later backward
    that reaches it (the same loss again, or another loss built on it) is
    rejected. Walk a graph before its backward to inspect it.
    """
    if loss.values.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.values).all():
        raise GraphError("backward on a non-finite loss")
    if loss._backward_done:
        raise GraphError("backward already ran on this loss; rebuild the graph")
    if not loss.requires_grad:
        loss._backward_done = True
        return {}
    order = _topological_order(loss)
    loss._backward_done = True
    loss.grad = np.ones_like(loss.values)
    leaves = []
    while order:
        node = order.pop()
        backward_fn = node._backward_fn
        if backward_fn is None:
            if node.requires_grad:
                leaves.append(node)
            continue
        grad = node.grad
        node.grad = node._backward_fn = None
        node._parents = ()
        node._backward_done = True
        if grad is not None:
            backward_fn(grad)
    return {node: node.grad for node in reversed(leaves) if node.grad is not None}


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[dict[str, Tensor]], Tensor],
               params: dict[str, Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between backward gradients and central differences.

    `f` maps the parameter dict to a scalar tensor and must be evaluable
    repeatedly. The relative error denominator is max(1e-8, |a| + |n|).
    """
    zero_grads(params.values())
    out = f(params)
    if out.values.size != 1:
        raise GraphError(f"grad_check target must be scalar, got {out.shape}")
    backward(out)
    analytic = {name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    def evaluate() -> float:
        with no_grad():
            return f(params).item()

    worst = 0.0
    for name, p in params.items():
        values = p.values
        a_flat = analytic[name].reshape(-1)
        for i in range(values.size):
            idx = np.unravel_index(i, values.shape)
            original = values[idx]
            values[idx] = original + eps
            try:
                upper = evaluate()
                values[idx] = original - eps
                lower = evaluate()
            except (ValueError, FloatingPointError) as err:
                raise GradCheckError(
                    f"non-finite evaluation while probing '{name}'[{i}]") from err
            finally:
                values[idx] = original
            if not (math.isfinite(upper) and math.isfinite(lower)):
                raise GradCheckError(
                    f"non-finite evaluation while probing '{name}'[{i}]")
            numeric = (upper - lower) / (2.0 * eps)
            denom = max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    zero_grads(params.values())
    return worst
