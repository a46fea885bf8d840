"""
A tour of the float64 autodiff core
===================================

Every trainable piece of the package sits on one small reverse-mode
engine: Tensors wrap numpy arrays, operations record closures, and
backward() walks the tape. This script builds a few graphs by hand and
checks the machine gradients against finite differences.
"""

import numpy as np

from histodistill import autodiff as ad
from histodistill.autodiff import backward, tensor

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# a scalar chain: y = sigmoid(w * x + b)
# ---------------------------------------------------------------------------

x = tensor(np.array([0.5]))
w = tensor(np.array([1.2]), requires_grad=True)
b = tensor(np.array([-0.3]), requires_grad=True)

y = ad.sigmoid(ad.add(ad.mul(w, x), b))
print("forward value:", y.values)

grads = backward(y)
s = 1.0 / (1.0 + np.exp(-(1.2 * 0.5 - 0.3)))     # dy/dz = s * (1 - s)
print("dy/dw:", grads[w], " analytic:", s * (1 - s) * 0.5)
print("dy/db:", grads[b], " analytic:", s * (1 - s))
assert np.allclose(grads[w], s * (1 - s) * 0.5) and np.allclose(grads[b], s * (1 - s))

# ---------------------------------------------------------------------------
# gradients accumulate
# ---------------------------------------------------------------------------

# backward() adds into each leaf's .grad rather than overwriting it, which
# is what lets the trainer sum gradients over an accumulation group before
# one optimizer step. Calling it twice therefore doubles the stored grad:

backward(ad.sigmoid(ad.add(ad.mul(w, x), b)))
print("after a second backward, w.grad =", w.grad, "(twice dy/dw)")

# start a fresh measurement by zeroing explicitly
ad.zero_grads([w, b])
print("after zero_grads, w.grad =", w.grad)

# ---------------------------------------------------------------------------
# a matrix graph: affine map, softmax and a reduction
# ---------------------------------------------------------------------------

A = tensor(rng.normal(size=(3, 4)), requires_grad=True)
v = tensor(rng.normal(size=(4, 2)), requires_grad=True)
c = tensor(np.zeros(2))              # bias of the affine map, held constant

scores = ad.linear(A, v, c)          # A @ v + c, (3, 2)
probs = ad.softmax(scores, axis=1)   # rows sum to one
loss = ad.mul(ad.sum_(ad.mul(probs, probs)), 1.0 / probs.size)   # mean

print("\nloss:", loss.values)
grads = backward(loss)
print("grad shapes:", grads[A].shape, grads[v].shape)

# ---------------------------------------------------------------------------
# finite-difference cross-check
# ---------------------------------------------------------------------------

# grad_check perturbs every entry of every parameter by +-eps and compares
# the centered difference to the recorded gradient, reporting the worst
# relative error. The same routine backs the package-wide `grad-check`
# CLI command.


def rebuild(params):
    scores = ad.linear(params["A"], params["v"], c)
    probs = ad.softmax(scores, axis=1)
    return ad.mul(ad.sum_(ad.mul(probs, probs)), 1.0 / probs.size)


worst = ad.grad_check(rebuild, {"A": A, "v": v})
print("worst relative error across A and v:", worst)
assert worst < 1e-6

# ---------------------------------------------------------------------------
# detaching a value
# ---------------------------------------------------------------------------

# Re-wrapping `.values` gives a fresh leaf with the same numbers and no
# tape behind it, so no gradient can flow back through it. The model's
# association scores leave cross-attention as a plain array in the same
# way, and the survival branch builds its top-k mask from that array.

ad.zero_grads([A, v])
frozen = tensor(ad.linear(A, v, c).values)
leaked = backward(ad.sum_(ad.mul(frozen, frozen)))
print("\ngrad reaching A through the detached copy:", leaked.get(A))

with ad.no_grad():
    silent = ad.linear(A, v, c)
print("tensor built under no_grad requires grad:", silent.requires_grad)
