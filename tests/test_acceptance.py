"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s) and
fails hard when its bar is missed. The heavyweight fixtures (a full
cross-validation of the 200-patient synthetic cohort plus its baseline
counterpart) are shared session-wide, so the file is meant to run as a
unit: `pytest tests/test_acceptance.py -s`.
"""

import json
import math
import shutil
import time

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import cli, gradcheck
from histodistill import model as gm
from histodistill import stats
from histodistill.autodiff import backward, tensor
from histodistill.blocks import aligned
from histodistill.checkpoint import load_checkpoint
from histodistill.datasets import SynthConfig, discretize_survival, make_folds, synth_generate
from histodistill.io import write_cohort
from histodistill.model import (ModelConfig, build_model, model_forward, nll_loss,
                               stack_forward, survival_curve, topk_masked_softmax)
from histodistill.training import SWEEP_K_GRID, TrainConfig, cross_validate, evaluate, run_fold, sweep_k


pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def default_cohort():
    cohort, truth = synth_generate(SynthConfig(), seed=0)
    return cohort, truth


@pytest.fixture(scope="session")
def full_cv(tmp_path_factory, default_cohort):
    cohort, _ = default_cohort
    out = tmp_path_factory.mktemp("acc_full_cv")
    started = time.monotonic()
    result = cross_validate(cohort, TrainConfig(seed=0), out)
    elapsed = time.monotonic() - started
    return {"result": result, "out": out, "elapsed": elapsed,
            "cohort": cohort}


@pytest.fixture(scope="session")
def baseline_cv(tmp_path_factory, default_cohort):
    cohort, _ = default_cohort
    out = tmp_path_factory.mktemp("acc_baseline_cv")
    result = cross_validate(cohort, TrainConfig(seed=0, gated_baseline=True),
                            out)
    return {"result": result, "out": out}


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    results = gradcheck.run_all()
    elapsed = time.monotonic() - started
    required = {"mhca", "mhsa", "ffn", "gated_attention", "snn_head",
                "layer_norm", "mse_loss", "sce_loss", "nll_loss",
                "end_to_end"}
    missing = required - set(results)
    worst = max(results.values())
    ok = not missing and worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"max rel err {worst:.3e} over {len(results)} checks "
                  f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence
# ---------------------------------------------------------------------------

def _oracle_c_index(risks, times, censor):
    num, den = 0.0, 0
    n = len(times)
    for i in range(n):
        if censor[i] != 0:
            continue
        for j in range(n):
            if times[i] < times[j]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den


def _oracle_nll(h, y, c):
    def s(j):
        return float(np.prod(1.0 - h[:j + 1])) if j >= 0 else 1.0
    if c == 1:
        return -math.log(max(s(y), 1e-7))
    val = -math.log(max(h[y], 1e-7))
    if y > 0:
        val -= math.log(max(s(y - 1), 1e-7))
    return val


def _oracle_sce(preds, targets, gamma):
    total = 0.0
    for p, t in zip(preds, targets):
        pn = max(float(np.linalg.norm(p)), 1e-12)
        tn = max(float(np.linalg.norm(t)), 1e-12)
        total += (1.0 - float(p @ t) / (pn * tn)) ** gamma
    return total / len(preds)


def _oracle_mse(preds, targets):
    return float(np.mean([np.mean((p - t) ** 2)
                          for p, t in zip(preds, targets)]))


def _oracle_km(times, censor):
    out = []
    s = 1.0
    for t in np.unique(times[censor == 0]):
        n = int((times >= t).sum())
        d = int(((times == t) & (censor == 0)).sum())
        s *= (n - d) / n
        out.append((t, s))
    return out


def _oracle_log_rank(ta, ca, tb, cb):
    ome, var = 0.0, 0.0
    for t in np.unique(np.concatenate([ta, tb])):
        na = int((ta >= t).sum())
        nb = int((tb >= t).sum())
        da = int(((ta == t) & (ca == 0)).sum())
        db = int(((tb == t) & (cb == 0)).sum())
        n, d = na + nb, da + db
        if n == 0 or d == 0:
            continue
        ome += da - d * na / n
        if n > 1:
            var += d * (na / n) * (1 - na / n) * (n - d) / (n - 1)
    if var == 0.0:
        return 0.0, 1.0
    stat = ome * ome / var
    return stat, math.erfc(math.sqrt(stat / 2.0))


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0

    for _ in range(100):
        times = np.round(rng.exponential(12.0, size=30), 1)
        censor = rng.integers(0, 2, size=30)
        if (censor == 0).sum() == 0:
            censor[0] = 0
        risks = np.round(rng.normal(size=30), 2)
        got = stats.c_index(risks, times, censor)
        want = _oracle_c_index(risks, times, censor)
        assert got == want, f"c-index {got!r} != oracle {want!r}"

    for _ in range(50):
        b = int(rng.integers(1, 7))
        h = rng.uniform(0.0, 1.0, size=b)
        y = int(rng.integers(0, b))
        c = int(rng.integers(0, 2))
        got = nll_loss(tensor(h[None, :]), y, c).item()
        worst = max(worst, abs(got - _oracle_nll(h, y, c)))

    for _ in range(50):
        sizes = rng.integers(1, 8, size=int(rng.integers(1, 7)))
        preds = [rng.normal(size=n) for n in sizes]
        targets = [rng.normal(size=n) for n in sizes]
        recon = [tensor(p[None, :]) for p in preds]
        gamma = float(rng.integers(1, 4))
        got = gm.sce_loss(recon, targets, gamma=gamma).item()
        worst = max(worst, abs(got - _oracle_sce(preds, targets, gamma)))
        got = gm.mse_loss(recon, targets).item()
        worst = max(worst, abs(got - _oracle_mse(preds, targets)))

    for _ in range(50):
        n = int(rng.integers(3, 25))
        times = np.round(rng.exponential(8.0, size=n), 0) + 1.0
        censor = rng.integers(0, 2, size=n)
        if (censor == 0).sum() == 0:
            censor[0] = 0
        curve = stats.km_curve(times, censor)
        expected = _oracle_km(times, censor)
        assert curve.times.size == len(expected)
        for (t, s), got_t, got_s in zip(expected, curve.times, curve.survival):
            assert got_t == t
            worst = max(worst, abs(got_s - s))

    for _ in range(50):
        na, nb = int(rng.integers(4, 20)), int(rng.integers(4, 20))
        ta = np.round(rng.exponential(8.0, size=na), 0) + 1.0
        tb = np.round(rng.exponential(11.0, size=nb), 0) + 1.0
        ca = rng.integers(0, 2, size=na)
        cb = rng.integers(0, 2, size=nb)
        if (ca == 0).sum() == 0:
            ca[0] = 0
        if (cb == 0).sum() == 0:
            cb[0] = 0
        stat, p = stats.log_rank(ta, ca, tb, cb)
        want_stat, want_p = _oracle_log_rank(ta, ca, tb, cb)
        worst = max(worst, abs(stat - want_stat), abs(p - want_p))

    ok = worst < 1e-10
    report(2, ok, f"c-index exact on 100 instances; "
                  f"losses/KM/log-rank worst dev {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: structural invariants
# ---------------------------------------------------------------------------

def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(30)
    worst_sum = 0.0
    worst_perm = 0.0
    checked = 0
    for i in range(100):
        width = int(rng.choice([4, 8]))
        heads = int(rng.choice([1, 2]))
        n_cats = int(rng.integers(2, 4))
        sizes = tuple(int(v) for v in rng.integers(1, 6, size=n_cats))
        config = ModelConfig(
            feature_dim=int(rng.integers(4, 11)),
            category_sizes=sizes,
            width=width,
            heads=heads,
            compress_width=int(rng.integers(2, 5)),
            n_bins=int(rng.integers(2, 6)),
            k_percent=float(rng.uniform(10.0, 100.0)),
        )
        model = build_model(config, seed=1000 + i)
        n_p = int(rng.integers(1, 13))
        bag = rng.normal(size=(n_p, config.feature_dim))

        result = model_forward(model, bag)

        soft = ad.softmax(result.assoc_scores, axis=1).values
        worst_sum = max(worst_sum,
                        float(np.abs(soft.sum(axis=1) - 1.0).max()))
        worst_sum = max(worst_sum,
                        float(abs(result.morph_weights.sum() - 1.0)))

        masked = result.masked_assoc
        m = max(1, round(config.k_percent * n_p / 100))
        assert (np.count_nonzero(masked, axis=1) == m).all(), \
            f"model {i}: kept {np.count_nonzero(masked, axis=1)} != {m}"
        worst_sum = max(worst_sum,
                        float(np.abs(masked.sum(axis=1) - 1.0).max()))
        # the survival branch pools with the mean of the two weightings
        fused = 0.5 * (result.morph_weights + masked)
        worst_sum = max(worst_sum,
                        float(np.abs(fused.sum(axis=1) - 1.0).max()))

        h = result.hazards.values.reshape(-1)
        s = survival_curve(h)
        assert (np.diff(s) <= 0).all(), f"model {i}: survival curve rises"

        perm = rng.permutation(n_p)
        h_perm = model_forward(model, bag[perm]).hazards.values.reshape(-1)
        worst_perm = max(worst_perm, float(np.abs(h - h_perm).max()))

        # backward comparison: feeding the mask in as a frozen constant must
        # reproduce the association-branch gradients exactly, proving the
        # hazard loss sends nothing through the masking path (backward
        # accumulates into .grad, so each pass starts from zeroed leaves)
        ad.zero_grads(model.tensors())
        grads_auto = backward(nll_loss(result.hazards, 0, 0))
        ad.zero_grads(model.tensors())
        pinned = np.zeros((1, n_cats, aligned(n_p)))
        pinned[0, :, :n_p] = masked
        frozen = stack_forward(model, [bag], masked_assoc=pinned)
        grads_frozen = backward(nll_loss(frozen.hazards, 0, 0))
        for name, param in model.assoc.named_tensors("assoc"):
            a = grads_auto.get(param)
            b = grads_frozen.get(param)
            if a is None and b is None:
                continue
            assert a is not None and b is not None, name
            assert np.array_equal(a, b), f"model {i}: {name} grads diverge"

        if i % 10 == 0:
            cut = ModelConfig(
                feature_dim=config.feature_dim, category_sizes=sizes,
                width=width, heads=heads,
                compress_width=config.compress_width, n_bins=config.n_bins,
                k_percent=config.k_percent, cut_bridge=True)
            cut_model = build_model(cut, seed=2000 + i)
            cut_result = model_forward(cut_model, bag)
            cut_grads = backward(nll_loss(cut_result.hazards, 0, 0))
            for name, param in cut_model.assoc.named_tensors("assoc"):
                g = cut_grads.get(param)
                assert g is None or not np.any(g), \
                    f"model {i}: {name} leaked through the mask"
        checked += 1

    ok = checked == 100 and worst_sum < 1e-12 and worst_perm < 1e-12
    report(3, ok, f"100 models: row-sum dev {worst_sum:.1e}, "
                  f"permutation dev {worst_perm:.1e}, detachment exact")


# ---------------------------------------------------------------------------
# criterion 4: image-only inference
# ---------------------------------------------------------------------------

def test_criterion_4_wsi_only_inference(tmp_path):
    config = SynthConfig(n_patients=30, patch_range=(3, 6), feature_dim=6,
                         n_prototypes=3, gene_counts=(2, 3, 2, 2, 3, 2),
                         censor_target=0.25)
    cohort, _ = synth_generate(config, seed=4)
    data = tmp_path / "data"
    manifest = write_cohort(data, cohort, name="synthetic")

    train_config = TrainConfig(seed=0, epochs=1, width=8, heads=2,
                               compress_width=4, n_bins=2, n_folds=2,
                               accumulation=8, k_percent=50.0)
    boundaries, bins = discretize_survival(cohort.times(),
                                           cohort.censor_flags(), 2)
    train_idx, val_idx = make_folds(cohort, 0, 2)[0]
    run = run_fold(cohort, train_idx, val_idx, train_config, boundaries,
                   bins, 0, tmp_path)

    out_with = tmp_path / "with_genes"
    code_a = cli.main(["eval", "--checkpoint", str(run.checkpoint_path),
                       "--manifest", str(manifest),
                       "--out-dir", str(out_with)])

    (data / "synthetic_genomics.tsv").unlink()
    (data / "synthetic_gene_categories.tsv").unlink()
    out_without = tmp_path / "without_genes"
    code_b = cli.main(["eval", "--checkpoint", str(run.checkpoint_path),
                       "--manifest", str(manifest),
                       "--out-dir", str(out_without)])

    same = ((out_with / "eval_metrics.json").read_bytes()
            == (out_without / "eval_metrics.json").read_bytes())
    ok = code_a == 0 and code_b == 0 and same
    report(4, ok, "eval byte-identical after deleting genomic files"
                  if ok else f"codes {code_a}/{code_b}, identical={same}")


# ---------------------------------------------------------------------------
# criterion 5: planted recovery beats the baseline
# ---------------------------------------------------------------------------

def test_criterion_5_planted_recovery(full_cv, baseline_cv):
    full = full_cv["result"]
    base = baseline_cv["result"]
    per_fold_budget = 15 * 60.0
    gap = full.c_index_mean - base.c_index_mean
    ok = (full.c_index_mean >= 0.70 and gap >= 0.03
          and full_cv["elapsed"] < per_fold_budget * 5)
    report(5, ok, f"full {full.c_index_mean:.4f} vs baseline "
                  f"{base.c_index_mean:.4f} (gap {gap:+.4f}), "
                  f"5 folds in {full_cv['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: KM/log-rank separation plus null control
# ---------------------------------------------------------------------------

def test_criterion_6_logrank_separation(full_cv):
    result = full_cv["result"]
    cohort = full_cv["cohort"]
    p_split = result.pooled_logrank_p

    run = result.folds[0]
    idx = run.val_idx[run.result.high_group]
    times = cohort.times()[idx]
    censor = cohort.censor_flags()[idx]
    _, p_null = stats.log_rank(times, censor, times, censor)

    ok = p_split < 0.05 and p_null > 0.5
    report(6, ok, f"median-split p {p_split:.3g} < 0.05; "
                  f"identical-group control p {p_null:.3g} > 0.5")


# ---------------------------------------------------------------------------
# criterion 7: gene reconstruction rank fidelity
# ---------------------------------------------------------------------------

def test_criterion_7_spearman_reconstruction(full_cv):
    cohort = full_cv["cohort"]
    result = full_cv["result"]
    run = result.folds[0]
    ckpt = load_checkpoint(run.checkpoint_path)
    held_out = evaluate(ckpt, cohort, run.val_idx, with_spearman=True).spearman
    means = held_out.means()
    tested = [m for name, m in zip(held_out.category_names, means)
              if name not in held_out.skipped]

    # control: a noise-only predictor pushed through the same report over the
    # whole cohort must show no rank agreement in either direction
    sel = [np.asarray(s, dtype=np.int64) for s in ckpt.selected_genes]
    noise_rng = np.random.default_rng(77)
    noise_pred, noise_actual = [], []
    for i in range(len(cohort)):
        noise_pred.append([noise_rng.normal(size=len(s)) for s in sel])
        noise_actual.append([m[s, i] for m, s in zip(cohort.expression, sel)])
    control = stats.spearman_report(noise_pred, noise_actual,
                                    held_out.category_names)
    control_means = [m for name, m in zip(control.category_names,
                                          control.means())
                     if name not in control.skipped]

    ok = (all(m >= 0.2 for m in tested)
          and all(abs(m) < 0.1 for m in control_means))
    report(7, ok, f"held-out per-category means "
                  f"{np.round(tested, 3).tolist()} all >= 0.2; "
                  f"noise-predictor control {np.round(control_means, 3).tolist()} "
                  f"within +-0.1")


# ---------------------------------------------------------------------------
# criterion 8: k-sweep harness
# ---------------------------------------------------------------------------

def test_criterion_8_sweep_k(tmp_path, default_cohort):
    cohort, _ = default_cohort
    config = TrainConfig(seed=0, epochs=1, width=8, heads=2,
                         compress_width=4, n_bins=4, n_folds=2,
                         accumulation=32)
    rows = sweep_k(cohort, config, tmp_path, grid=SWEEP_K_GRID)
    ks = [row["k"] for row in rows]
    lines = (tmp_path / "sweep_k.tsv").read_text().strip().splitlines()
    file_ks = [float(line.split("\t")[0]) for line in lines[1:]]
    ok = (ks == [float(k) for k in SWEEP_K_GRID]
          and file_ks == ks
          and all(np.isfinite(row["c_index_mean"]) for row in rows)
          and lines[0] == "k\tc_index_mean\tc_index_std"
          and all(a < b for a, b in zip(file_ks, file_ks[1:])))
    report(8, ok, f"grid {[int(k) for k in file_ks]} -> c-indices "
                  f"{[round(row['c_index_mean'], 3) for row in rows]}")


# ---------------------------------------------------------------------------
# criterion 9: byte-level determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path, default_cohort):
    cohort, _ = default_cohort
    config = TrainConfig(seed=3, epochs=2, width=16, heads=2,
                         compress_width=8, n_bins=4, n_folds=2,
                         accumulation=32)
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    cross_validate(cohort, config, run_a)
    cross_validate(cohort, config, run_b)
    names = ["metrics.json", "km.tsv", "fold0.ghck", "fold1.ghck"]
    mismatched = [name for name in names
                  if (run_a / name).read_bytes() != (run_b / name).read_bytes()]
    ok = not mismatched
    report(9, ok, "identical-seed reruns byte-identical "
                  f"({', '.join(names)})" if ok
                  else f"files differ: {mismatched}")
