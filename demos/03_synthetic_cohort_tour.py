"""
What the synthetic cohort plants
================================

The generator stands in for a real multi-omic study: each patient gets a
bag of patch features drawn around prototype vectors, per-category gene
profiles that are linear readouts of the prototype mixture, and an
exponential event time whose rate follows a planted risk score. Because
the ground truth comes back alongside the cohort, every downstream claim
(selection recovers driven genes, the model beats a baseline) can be
checked against it.
"""

import numpy as np

from histodistill.datasets import SynthConfig, synth_generate
from histodistill.stats import c_index, km_curve

config = SynthConfig(n_patients=120, patch_range=(8, 24), feature_dim=16,
                     n_prototypes=4, gene_counts=(4, 8, 12, 6, 10, 4),
                     patch_noise=0.5, gene_noise=0.25)
cohort, truth = synth_generate(config, seed=5)

print("patients:", len(cohort))
print("bag shapes, first five:", [cohort[i].bag.features.shape for i in range(5)])
print("gene categories:", cohort.category_names)
print("genes per category:", cohort.category_sizes)

# ---------------------------------------------------------------------------
# censoring
# ---------------------------------------------------------------------------

censor = cohort.censor_flags()
print(f"\ncensored fraction: {censor.mean():.2f} (target {config.censor_target})")

# ---------------------------------------------------------------------------
# the planted risk actually drives survival
# ---------------------------------------------------------------------------

# concordance of the hidden risk against observed outcomes; an oracle
# model that recovered the risk perfectly would score exactly this
ci = c_index(truth.risks, cohort.times(), censor)
print(f"c-index of the planted risk itself: {ci:.3f}")

# risk is a linear function of two prototype weights
print("risk coefficients per prototype:", np.round(truth.risk_coeffs, 2))

# ---------------------------------------------------------------------------
# Kaplan-Meier curve of the whole cohort
# ---------------------------------------------------------------------------

km = km_curve(cohort.times(), censor)
print("\nt      S(t)   at risk  deaths")
for t, s, n, d in list(zip(km.times, km.survival, km.at_risk, km.deaths))[:10]:
    print(f"{t:6.2f} {s:.3f}  {n:7d}  {d:6d}")
print(f"... ({len(km.times)} distinct event times)")

# ---------------------------------------------------------------------------
# driven genes vs flat genes
# ---------------------------------------------------------------------------

# Half of each category (driven_fraction) responds to the mixture; the
# rest is noise around a base level. The masks point at the driven ones.

for c, mask in enumerate(truth.driven_masks):
    print(f"category {c}: driven genes {np.flatnonzero(mask).tolist()}")

# a driven gene's expression should track the risky prototype weight
# across patients far better than a flat gene's
mix = truth.mixtures
risky = int(np.argmax(truth.risk_coeffs))
# (the cohort holds one genes x patients matrix per category)
driven_gene = cohort.expression[0][0]
flat_gene = cohort.expression[0][-1]
print("\n|corr(expression, risky prototype weight)|")
print("  driven gene:", round(abs(np.corrcoef(driven_gene, mix[:, risky])[0, 1]), 3))
print("  flat gene:  ", round(abs(np.corrcoef(flat_gene, mix[:, risky])[0, 1]), 3))

# determinism: the same seed reproduces the cohort bit for bit
again, _ = synth_generate(config, seed=5)
same = all(np.array_equal(cohort[i].bag.features, again[i].bag.features)
           for i in range(len(cohort)))
print("\nsame seed, identical bags:", same)
