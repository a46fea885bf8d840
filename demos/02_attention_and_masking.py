"""
Attention blocks and the top-k mask
===================================

The model routes genomic "function tokens" against a bag of patch
features with multi-head cross-attention, then keeps only the strongest
k percent of patches per token. This walkthrough runs the raw blocks on
a toy bag so the shapes and the masking rule are visible.
"""

import numpy as np

from histodistill import autodiff as ad
from histodistill.blocks import (BagStack, MhcaParams, init_tokens, linear_params,
                                 mhca_forward, mhsa_forward, patch_keys)
from histodistill.model import topk_masked_softmax

rng = np.random.default_rng(11)

width, heads = 8, 2
n_patches, feature_dim = 6, 5
n_tokens = 3

# the association branch projects raw patch features into the working
# width; the projection is composed into each key and value map, so the
# projected bag itself is never built
w_in, b_in = linear_params(rng, feature_dim, width)
bag = rng.normal(size=(n_patches, feature_dim))
print("raw bag:", bag.shape, " input projection:", w_in.shape)

# learnable query tokens, one per genomic category
tokens = init_tokens(rng, n_tokens, width)
print("tokens:", tokens.shape)

# ---------------------------------------------------------------------------
# cross-attention: tokens query the bag
# ---------------------------------------------------------------------------

# The bag is padded once, with a trailing ones column. The key and value
# maps, each composed with the input projection, are built once and both
# association rounds reuse them: the key map folds into the queries and the
# value map applies after pooling, so no per-patch key or value is formed.
# Scores come back per bag, padded to a multiple of 8 patches, so take bag 0
# of this one-bag stack and its real patches.
mhca = MhcaParams.init(rng, width, heads)
keys = patch_keys(mhca, BagStack.of([bag]), w_in, b_in)
out, stacked_scores = mhca_forward(mhca, tokens, keys)
scores = stacked_scores[0, :, :n_patches]
print("\ncross-attention output:", out.shape, " scores:", scores.shape)

weights = ad.softmax(scores, axis=1).values
print("attention rows sum to:", weights.sum(axis=1))

# self-attention over the tokens reuses the same parameter layout
mixed = mhsa_forward(MhcaParams.init(rng, width, heads), out)
print("token self-attention output:", mixed.shape)

# ---------------------------------------------------------------------------
# a ragged stack: several bags in one pass
# ---------------------------------------------------------------------------

# Training packs consecutive patients' patch rows one bag after another and
# pads them per bag; the patch mask gives pads exactly zero attention.
second_bag = rng.normal(size=(4, feature_dim))
stack = BagStack.of([bag, second_bag])
both, both_scores = mhca_forward(mhca, tokens, patch_keys(mhca, stack, w_in, b_in))
print("\nstack of bags with", stack.layout.lengths, "patches: output", both.shape,
      " scores", both_scores.shape)
print("bag 0 output matches its own pass:", np.allclose(both.values[:n_tokens], out.values))
print("pad columns of bag 1's scores:", both_scores[1, 0, 4:])

# ---------------------------------------------------------------------------
# the top-k masked softmax
# ---------------------------------------------------------------------------

# Per token row, keep m = max(1, round(k% of N_p)) patches and renormalize
# over the survivors; everything else becomes an exact zero.

for k in (20.0, 50.0, 100.0):
    masked = topk_masked_softmax(scores, k)
    kept = np.count_nonzero(masked, axis=1)
    print(f"k = {k:5.1f}%  ->  {kept[0]} of {n_patches} patches per row, "
          f"row sums {masked.sum(axis=1)}")

masked = topk_masked_softmax(scores, 50.0)
print("\nmasked matrix at k=50 (zeros are structural):")
print(np.round(masked, 3))

# the surviving weights are the softmax weights renormalized, so the
# ranking inside a row never changes
row = weights[0]
surv = masked[0] > 0
print("\nkept patches are the top softmax entries:",
      np.array_equal(np.sort(np.argsort(row)[-surv.sum():]), np.flatnonzero(surv)))

# ---------------------------------------------------------------------------
# ties and the single-patch floor
# ---------------------------------------------------------------------------

tied = np.zeros((1, 4))
print("\nall-tied scores, k=50 keeps the lowest indices:",
      np.flatnonzero(topk_masked_softmax(tied, 50.0)[0]))
print("k=1 on 4 patches still keeps one:",
      np.count_nonzero(topk_masked_softmax(tied, 1.0)[0]))
