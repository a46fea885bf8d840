"""
One cross-validation fold, end to end
=====================================

A compact run of the whole training recipe: plant a small cohort,
discretize the follow-up times into hazard bins, carve out fold 0,
train with the combined survival + reconstruction objective, and read
the scores back off the written checkpoint. Runs in well under a
minute on a laptop core.
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from histodistill.checkpoint import load_checkpoint
from histodistill.datasets import SynthConfig, discretize_survival, make_folds, synth_generate
from histodistill.training import TrainConfig, evaluate, run_fold

synth = SynthConfig(n_patients=60, patch_range=(8, 24), feature_dim=16,
                    n_prototypes=4, gene_counts=(4, 6, 8, 6, 10, 4))
cohort, _ = synth_generate(synth, seed=1)

config = TrainConfig(seed=0, epochs=14, width=32, heads=2, compress_width=16,
                     n_bins=3, n_folds=3, accumulation=16, k_percent=20.0)

boundaries, bins = discretize_survival(cohort.times(), cohort.censor_flags(),
                                       config.n_bins)
print("hazard bin boundaries:", np.round(boundaries, 1))
print("patients per bin:", np.bincount(bins, minlength=config.n_bins))

train_idx, val_idx = make_folds(cohort, config.seed, config.n_folds)[0]
print(f"fold 0: {train_idx.size} train / {val_idx.size} validation")

out_dir = Path(tempfile.mkdtemp(prefix="fold_demo_"))
t0 = time.perf_counter()
run = run_fold(cohort, train_idx, val_idx, config, boundaries, bins, 0, out_dir)
print(f"\ntrained in {time.perf_counter() - t0:.1f}s")
print("genes retained per category:", run.retained_sizes)

# ---------------------------------------------------------------------------
# the loss trace
# ---------------------------------------------------------------------------

print("\nepoch  total    hazard   recon")
for row in run.trace:
    print(f"{row['epoch']:5d}  {row['total']:.4f}  {row['nll']:.4f}  {row['recon']:.4f}")

# ---------------------------------------------------------------------------
# validation scores
# ---------------------------------------------------------------------------

res = run.result
print(f"\nvalidation c-index: {res.c_index:.3f} over {val_idx.size} patients")
print(f"median-risk split log-rank: stat {res.logrank_stat:.2f}, p {res.logrank_p:.2e}")

# rank agreement between reconstructed and true gene profiles, per category
ckpt = load_checkpoint(run.checkpoint_path)
rep = evaluate(ckpt, cohort, run.val_idx, with_spearman=True).spearman
print("\ncategory mean Spearman (validation patients):")
for name, m, s in zip(rep.category_names, rep.means(), rep.stds()):
    note = " (skipped)" if name in rep.skipped else ""
    print(f"  {name:26s} {m:+.3f} +- {s:.3f}{note}")

# ---------------------------------------------------------------------------
# what landed on disk
# ---------------------------------------------------------------------------

for p in sorted(out_dir.iterdir()):
    print(f"{p.name:24s} {p.stat().st_size:7d} bytes")
trace = json.loads((out_dir / "fold0_trace.json").read_text())
print("trace rows:", len(trace))
