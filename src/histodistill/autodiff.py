"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Covers exactly the operations the attention architecture needs: matmul,
broadcast arithmetic, softmax, the usual activations, slicing/concatenation,
and a finite-difference gradient checker. Composites that run many times
per training step are single nodes with closed-form backwards: the affine
map, layer normalization, head split/merge with batched matmul, the two
reconstruction error terms, and the running product of survival. A value
that must not carry gradient leaves the tape as a plain array. Tensors are
immutable during an active forward/backward pass; the optimizer mutates
leaf values between passes via `assign_`.
"""

from __future__ import annotations

import contextlib
import math
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
                 "_op", "_backward_done")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
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
        if self._parents:
            raise GraphError("assign_ is only valid on leaf tensors")
        arr = np.asarray(new_values, dtype=np.float64)
        if arr.shape != self.values.shape:
            raise ShapeError(f"assign_ shape {arr.shape} != {self.values.shape}")
        self.values = arr

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"

    # arithmetic sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(values, requires_grad: bool = False) -> Tensor:
    """Wrap array-like data as a leaf tensor."""
    return Tensor(values, requires_grad=requires_grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(values: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
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
        t.grad = np.array(grad, dtype=np.float64, copy=True)
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


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_values = a.values - b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out_values, (a, b), backward_fn, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_values = a.values * b.values

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.values, a.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _make(out_values, (a, b), backward_fn, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out_values = a.values @ b.values

    def backward_fn(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _make(out_values, (a, b), backward_fn, "matmul")


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {x.shape}")

    def backward_fn(g):
        _accumulate(x, g.T)

    return _make(x.values.T.copy(), (x,), backward_fn, "transpose")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias as one node; bias has shape (fan_out,)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.values.ndim != 2 or weight.values.ndim != 2:
        raise ShapeError(f"linear needs 2-d operands, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0] or bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear shapes do not chain: {x.shape} @ {weight.shape} "
                         f"+ {bias.shape}")
    out_values = x.values @ weight.values + bias.values

    def backward_fn(g):
        if x.requires_grad:     # skips the product for a constant input bag
            _accumulate(x, g @ weight.values.T)
        _accumulate(weight, x.values.T @ g)
        _accumulate(bias, g.sum(axis=0))

    return _make(out_values, (x, weight, bias), backward_fn, "linear")


def batched_matmul(a: Tensor, b: Tensor, transpose_b: bool = False,
                   scale: float = 1.0) -> Tensor:
    """scale * (a[i] @ b[i]) for each i of two stacks of matrices.

    Both operands are 3-d with equal leading extents; `transpose_b` uses
    each b[i].T instead of b[i].
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 3 or b.values.ndim != 3 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"batched_matmul needs 3-d operands with equal leading "
                         f"extents, got {a.shape} and {b.shape}")
    # A transposed operand is copied first: BLAS can round a product with a
    # transposed view differently, and the copy keeps each slice bit-equal
    # to `matmul` on the same two matrices.
    b_mat = (np.ascontiguousarray(b.values.transpose(0, 2, 1)) if transpose_b
             else b.values)
    if a.shape[2] != b_mat.shape[1]:
        raise ShapeError(f"batched_matmul inner extents differ: {a.shape} vs "
                         f"{b.shape} (transpose_b={transpose_b})")
    out_values = (a.values @ b_mat) * scale

    def backward_fn(g):
        g = g * scale
        _accumulate(a, g @ b_mat.transpose(0, 2, 1))
        grad_b = a.values.transpose(0, 2, 1) @ g
        _accumulate(b, grad_b.transpose(0, 2, 1) if transpose_b else grad_b)

    return _make(out_values, (a, b), backward_fn, "batched_matmul")


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def sum_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out_values = x.values.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _make(out_values, (x,), backward_fn, "sum")


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


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` extents along `axis` starting at `start`."""
    x = _as_tensor(x)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for "
                         f"axis {axis} of shape {x.shape}")
    index = [slice(None)] * x.values.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out_values = x.values[index].copy()

    def backward_fn(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[index] = g
        _accumulate(x, full)

    return _make(out_values, (x,), backward_fn, "narrow")


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(n, heads * d) -> (heads, n, d): column block h becomes slice h."""
    x = _as_tensor(x)
    if x.values.ndim != 2 or heads < 1 or x.shape[1] % heads != 0:
        raise ShapeError(f"cannot split shape {x.shape} into {heads} heads")
    n, width = x.shape
    out_values = x.values.reshape(n, heads, width // heads).transpose(1, 0, 2)

    def backward_fn(g):
        _accumulate(x, g.transpose(1, 0, 2).reshape(n, width))

    return _make(out_values, (x,), backward_fn, "split_heads")


def merge_heads(x: Tensor) -> Tensor:
    """(heads, n, d) -> (n, heads * d); the inverse of split_heads."""
    x = _as_tensor(x)
    if x.values.ndim != 3:
        raise ShapeError(f"merge_heads needs a 3-d tensor, got {x.shape}")
    heads, n, d = x.shape
    out_values = x.values.transpose(1, 0, 2).reshape(n, heads * d)

    def backward_fn(g):
        _accumulate(x, g.reshape(n, heads, d).transpose(1, 0, 2))

    return _make(out_values, (x,), backward_fn, "merge_heads")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-shifted softmax along `axis`; each slice sums to 1."""
    x = _as_tensor(x)
    if not -x.values.ndim <= axis < x.values.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _make(y, (x,), backward_fn, "softmax")


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.log(x.values)

    def backward_fn(g):
        _accumulate(x, g / x.values)

    return _make(y, (x,), backward_fn, "log")


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


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    v = x.values
    y = np.where(v >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                 np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))

    def backward_fn(g):
        _accumulate(x, g * y * (1.0 - y))

    return _make(y, (x,), backward_fn, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.values)

    def backward_fn(g):
        _accumulate(x, g * (1.0 - y * y))

    return _make(y, (x,), backward_fn, "tanh")


def clip_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient is zero where the floor is active."""
    x = _as_tensor(x)
    y = np.maximum(x.values, lo)

    def backward_fn(g):
        _accumulate(x, g * (x.values > lo))

    return _make(y, (x,), backward_fn, "clip_min")


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

def cumprod(x: Tensor) -> Tensor:
    """Running product along the last axis."""
    x = _as_tensor(x)
    if x.values.ndim < 1:
        raise ShapeError("cumprod needs at least one axis")
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
        _accumulate(x, prefix * suffix)

    return _make(y, (x,), backward_fn, "cumprod")


def squared_error(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean of (pred - target)^2 over all entries; `target` is a constant."""
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"squared_error operands differ: {pred.shape} vs {target.shape}")
    err = pred.values - target
    scale = 1.0 / err.size
    out_values = (err * err).sum() * scale

    def backward_fn(g):
        _accumulate(pred, 2.0 * ((g * scale) * err))

    return _make(out_values, (pred,), backward_fn, "squared_error")


NORM_FLOOR = 1e-12


def cosine_error(pred: Tensor, target: np.ndarray, gamma: float) -> Tensor:
    """(1 - cos(pred, target))^gamma; `target` is a constant.

    Both norms are clamped below at NORM_FLOOR, so a zero vector scores
    cos = 0. While the prediction norm is clamped the term contributes no
    gradient at all; its forward value is unchanged.
    """
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"cosine_error operands differ: {pred.shape} vs {target.shape}")
    p = pred.values
    target_norm = max(float(np.linalg.norm(target)), NORM_FLOOR)
    pred_norm = float(np.sqrt((p * p).sum()))
    denom = max(pred_norm, NORM_FLOOR) * target_norm
    dot = float((p * target).sum())
    gap = 1.0 - dot / denom
    out_values = gap ** gamma

    def backward_fn(g):
        # Below the floor, 1/denom would scale the gradient by 1/NORM_FLOOR.
        if pred_norm <= NORM_FLOOR:
            return
        g_cos = -g * gamma * gap ** (gamma - 1.0)
        g_norm = -g_cos * dot / (denom * denom) * target_norm
        _accumulate(pred, (g_cos / denom) * target + (g_norm / pred_norm) * p)

    return _make(out_values, (pred,), backward_fn, "cosine_error")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topological_order(root: Tensor) -> list[Tensor]:
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
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Populate gradients for every requires_grad leaf reachable from `loss`.

    Returns a map from leaf tensors to their gradient arrays. Gradients
    accumulate across calls on *different* losses (gradient accumulation);
    a second backward on the same loss is rejected.
    """
    if loss.values.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.values).all():
        raise GraphError("backward on a non-finite loss")
    if loss._backward_done:
        raise GraphError("backward already ran on this loss; rebuild the graph")
    loss._backward_done = True
    if not loss.requires_grad:
        return {}
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
    leaves = {}
    for node in order:
        if node.requires_grad and not node._parents and node.grad is not None:
            leaves[node] = node.grad
    return leaves


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
