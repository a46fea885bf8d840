"""
Differential gene selection, step by step
=========================================

Before training, each genomic category is pruned to the genes that
distinguish early-event from long-surviving patients: split the cohort
at the median observed time, Welch-test every gene on log(1+x)
expression, adjust with Benjamini-Hochberg, keep what clears alpha.
Here the pieces run one at a time on a planted cohort, so the result
can be compared against the generator's ground truth.
"""

import numpy as np

from histodistill.datasets import SynthConfig, synth_generate
from histodistill.geneselect import bh_adjust, differential_select, split_risk_groups, welch_t
from histodistill.training import expression_matrices

cohort, truth = synth_generate(SynthConfig(), seed=0)
everyone = np.arange(len(cohort))

# ---------------------------------------------------------------------------
# risk groups from the survival labels alone
# ---------------------------------------------------------------------------

groups = split_risk_groups(cohort.times(), cohort.censor_flags())
print(f"midpoint time: {groups.midpoint_time:.1f}")
print(f"high-risk n = {groups.high_risk.size}, low-risk n = {groups.low_risk.size}")
# patients censored before the midpoint are in neither group: their
# outcome past the cut is unknown
dropped = len(cohort) - groups.high_risk.size - groups.low_risk.size
print("excluded (censored early):", dropped)

# ---------------------------------------------------------------------------
# one category by hand
# ---------------------------------------------------------------------------

expr = expression_matrices(cohort, everyone)
mat = np.log1p(expr[1])          # (n_genes, n_patients), oncogenesis
high, low = mat[:, groups.high_risk], mat[:, groups.low_risk]

_, p_raw = welch_t(high, low)    # one test per row (gene)
p_adj = bh_adjust(p_raw)

print("\ngene   p_raw      p_adj      driven?")
for g in range(mat.shape[0]):
    mark = "driven" if truth.driven_masks[1][g] else ""
    print(f"{g:4d}   {p_raw[g]:9.2e}  {p_adj[g]:9.2e}  {mark}")

# ---------------------------------------------------------------------------
# the full selection across all categories
# ---------------------------------------------------------------------------

selection = differential_select(expr, groups, alpha=0.05)

print("\ncategory  kept  of  planted-driven recovered")
hits = misses = 0
for c, sel in enumerate(selection.categories):
    driven = set(np.flatnonzero(truth.driven_masks[c]).tolist())
    kept = set(sel.retained.tolist())
    hits += len(kept & driven)
    misses += len(kept - driven)
    print(f"{c:8d}  {len(kept):4d}  {len(driven):3d}  "
          f"{len(kept & driven)} driven, {len(kept - driven)} flat")

total_driven = sum(int(m.sum()) for m in truth.driven_masks)
print(f"\nrecovered {hits}/{total_driven} driven genes, "
      f"{misses} false keeps across all categories")

# a category can never empty out completely: the single best gene is
# kept even when nothing clears alpha, so downstream shapes stay valid
tiny = differential_select(expr, groups, alpha=1e-30)
print("alpha=1e-30 floor sizes:", [s.retained.size for s in tiny.categories])
