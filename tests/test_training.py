import json

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import training as tr
from histodistill.autodiff import tensor
from histodistill.checkpoint import load_checkpoint
from histodistill.datasets import (Cohort, Patient, SynthConfig,
                                   discretize_survival, make_folds,
                                   synth_generate)
from histodistill.errors import ConfigError
from histodistill.model import build_model
from histodistill.training import (Adam, GeneStandardizer, TrainConfig,
                                   cross_validate, evaluate,
                                   export_associations, expression_matrices,
                                   fold_seed, run_fold, select_genes, sweep_k,
                                   train_model)


def tiny_cohort(n=16, seed=0):
    config = SynthConfig(n_patients=n, patch_range=(3, 6), feature_dim=6,
                         n_prototypes=3, gene_counts=(2, 3, 2, 2, 3, 2),
                         censor_target=0.25)
    cohort, _ = synth_generate(config, seed=seed)
    return cohort


def tiny_train_config(**overrides):
    base = dict(epochs=1, width=8, heads=2, compress_width=4, n_bins=2,
                n_folds=2, accumulation=8, k_percent=50.0, seed=0,
                min_genes_per_category=1)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def cv_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cv")
    cohort = tiny_cohort()
    config = tiny_train_config()
    result = cross_validate(cohort, config, out)
    return cohort, config, result, out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_train_config_round_trip():
    config = tiny_train_config(lr=1e-3, cut_bridge=True)
    again = TrainConfig.from_dict(config.to_dict())
    assert again == config


def test_train_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown train config"):
        TrainConfig.from_dict({"learning_rate": 0.1})


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(n_folds=1)


def test_train_config_builds_model_config():
    config = tiny_train_config(k_percent=25.0, gamma=3.0, cut_bridge=True)
    mc = config.model_config(feature_dim=12, category_sizes=(3, 4))
    assert mc.feature_dim == 12
    assert mc.category_sizes == (3, 4)
    assert mc.k_percent == 25.0
    assert mc.gamma == 3.0
    assert mc.cut_bridge


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic():
    from histodistill import autodiff as ad
    target = np.array([[1.5, -2.0, 0.5]])
    x = tensor(np.zeros((1, 3)), requires_grad=True)
    opt = Adam([x], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        ad.backward(ad.squared_error([x], [target]))
        opt.step()
    np.testing.assert_allclose(x.values, target, atol=1e-3)


def test_adam_first_step_is_lr_sized():
    from histodistill import autodiff as ad
    x = tensor(np.array([[10.0]]), requires_grad=True)
    opt = Adam([x], lr=0.01)
    opt.zero_grad()
    ad.backward(ad.mul(x, 3.0))
    opt.step()
    # bias correction makes the first update lr * sign(grad)
    np.testing.assert_allclose(x.values, [[10.0 - 0.01]], atol=1e-6)


def test_adam_skips_parameters_without_gradient():
    x = tensor(np.array([[1.0]]), requires_grad=True)
    untouched = tensor(np.array([[5.0]]), requires_grad=True)
    opt = Adam([x, untouched], lr=0.1)
    from histodistill import autodiff as ad
    opt.zero_grad()
    ad.backward(ad.mul(x, 2.0))
    opt.step()
    assert untouched.values[0, 0] == 5.0
    assert x.values[0, 0] != 1.0


# ---------------------------------------------------------------------------
# gene standardization
# ---------------------------------------------------------------------------

def test_standardizer_zero_mean_unit_std():
    rng = np.random.default_rng(1)
    matrices = [rng.normal(3.0, 2.0, size=(4, 30)), rng.normal(size=(2, 30))]
    scaler = GeneStandardizer.fit(matrices)
    z = [(m - s_mean[:, None]) / s_std[:, None]
         for m, s_mean, s_std in zip(matrices, scaler.means, scaler.stds)]
    for matrix in z:
        np.testing.assert_allclose(matrix.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(matrix.std(axis=1), 1.0, atol=1e-12)


def test_standardizer_transform_inverse_round_trip():
    rng = np.random.default_rng(2)
    matrices = [rng.normal(size=(3, 10))]
    scaler = GeneStandardizer.fit(matrices)
    vec = [rng.normal(size=3)]
    back = scaler.inverse(scaler.transform(vec))
    np.testing.assert_allclose(back[0], vec[0], atol=1e-12)


def test_standardizer_floors_constant_genes():
    matrices = [np.full((2, 8), 7.0)]
    scaler = GeneStandardizer.fit(matrices)
    z = scaler.transform([np.array([7.0, 7.0])])
    np.testing.assert_array_equal(z[0], [0.0, 0.0])
    assert np.isfinite(scaler.stds[0]).all()


def test_standardizer_dict_round_trip():
    scaler = GeneStandardizer.fit([np.random.default_rng(3).normal(size=(2, 5))])
    again = GeneStandardizer.from_dict(scaler.to_dict())
    np.testing.assert_allclose(again.means[0], scaler.means[0], atol=1e-15)
    np.testing.assert_allclose(again.stds[0], scaler.stds[0], atol=1e-15)


def test_expression_matrices_layout():
    cohort = tiny_cohort(n=5)
    matrices = expression_matrices(cohort, np.array([0, 2]))
    assert [m.shape for m in matrices] == [(2, 2), (3, 2), (2, 2), (2, 2),
                                           (3, 2), (2, 2)]
    np.testing.assert_array_equal(matrices[1][:, 0],
                                  cohort[0].genes.vectors[1])
    np.testing.assert_array_equal(matrices[1][:, 1],
                                  cohort[2].genes.vectors[1])


def test_expression_matrices_needs_genomics():
    cohort = tiny_cohort(n=4)
    stripped = Cohort([Patient(p.bag, p.label, None) for p in cohort])
    with pytest.raises(ConfigError):
        expression_matrices(stripped, np.arange(4))


def test_select_genes_bypass():
    cohort = tiny_cohort(n=10)
    config = tiny_train_config(gene_selection=False)
    assert select_genes(cohort, np.arange(10), config) is None


# ---------------------------------------------------------------------------
# fold seeding
# ---------------------------------------------------------------------------

def test_fold_seed_deterministic_and_distinct():
    assert fold_seed(7, 0) == fold_seed(7, 0)
    seeds = {fold_seed(7, f) for f in range(5)}
    assert len(seeds) == 5
    assert fold_seed(8, 0) != fold_seed(7, 0)


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def test_train_model_moves_parameters_and_logs():
    cohort = tiny_cohort()
    config = tiny_train_config(epochs=2)
    boundaries, bins = discretize_survival(cohort.times(),
                                           cohort.censor_flags(), 2)
    train_idx = np.arange(len(cohort))
    selection = select_genes(cohort, train_idx, config)
    _, targets = tr.gene_targets(cohort, train_idx, selection)
    sizes = tuple(len(sel.retained) for sel in selection.categories)
    model = build_model(config.model_config(cohort.feature_dim, sizes), seed=0)
    before = {name: t.values.copy() for name, t in model.named_tensors()}
    trace = train_model(model, cohort, train_idx, bins, config, targets,
                        np.random.default_rng(0))
    assert [entry["epoch"] for entry in trace] == [1, 2]
    for entry in trace:
        assert np.isfinite(entry["total"])
        assert entry["total"] >= entry["nll"] * 0.99
    moved = [name for name, t in model.named_tensors()
             if not np.array_equal(before[name], t.values)]
    assert len(moved) > len(before) // 2


def test_train_model_baseline_needs_no_genes():
    cohort = tiny_cohort()
    stripped = Cohort([Patient(p.bag, p.label, None) for p in cohort])
    config = tiny_train_config(gated_baseline=True)
    boundaries, bins = discretize_survival(stripped.times(),
                                           stripped.censor_flags(), 2)
    model = build_model(config.model_config(stripped.feature_dim, ()), seed=0)
    trace = train_model(model, stripped, np.arange(len(stripped)), bins,
                        config, None, np.random.default_rng(0))
    assert len(trace) == 1
    assert trace[0]["recon"] == 0.0


def test_train_model_full_model_rejects_missing_genes():
    cohort = tiny_cohort()
    stripped = Cohort([Patient(p.bag, p.label, None) for p in cohort])
    config = tiny_train_config()
    boundaries, bins = discretize_survival(stripped.times(),
                                           stripped.censor_flags(), 2)
    model = build_model(config.model_config(stripped.feature_dim, (2,) * 6),
                        seed=0)
    with pytest.raises(ConfigError, match="no genomics"):
        train_model(model, stripped, np.arange(4), bins, config, None,
                    np.random.default_rng(0))


def test_gene_targets_row_j_is_patient_j_standardized_on_selected_genes():
    cohort = tiny_cohort()
    train_idx = np.array([5, 0, 11, 3, 8, 14, 2, 9])
    selection = select_genes(cohort, train_idx, tiny_train_config())
    scaler, targets = tr.gene_targets(cohort, train_idx, selection)
    for j, i in enumerate(train_idx):
        picked = [v[sel.retained] for v, sel in
                  zip(cohort[int(i)].genes.vectors, selection.categories)]
        for row, want in zip(targets, scaler.transform(picked)):
            np.testing.assert_array_equal(row[j], want)


def test_run_fold_names_a_training_patient_without_genomics(tmp_path):
    cohort = tiny_cohort()
    patients = list(cohort)
    gap = patients[3]
    patients[3] = Patient(gap.bag, gap.label, None)
    partial = Cohort(patients, gene_ids=cohort.gene_ids)
    config = tiny_train_config(gene_selection=False)
    boundaries, bins = discretize_survival(partial.times(),
                                           partial.censor_flags(), 2)
    with pytest.raises(ConfigError, match=f"'{gap.patient_id}' has no genomic"):
        expression_matrices(partial, np.arange(len(partial)))
    with pytest.raises(ConfigError, match=f"'{gap.patient_id}' has no genomic"):
        run_fold(partial, np.arange(8), np.arange(8, 16), config, boundaries,
                 bins, 0, tmp_path)


def test_default_training_step_builds_at_most_its_tape_node_cap(monkeypatch):
    # One patient with a 64-patch bag under the default TrainConfig: forward,
    # both losses, backward and the Adam step. Per-head attention loops and
    # composite layer norms built 383 nodes here; fused primitives, composed
    # per-patch maps, the one-node gate and one node per loss term build 103.
    # Every node built must also be reachable from the loss: a node the loss
    # never reaches (such as a score matrix kept on the tape) is waste.
    cohort, _ = synth_generate(SynthConfig(n_patients=16, patch_range=(64, 64)),
                               seed=0)
    config = TrainConfig(epochs=1)
    _, bins = discretize_survival(cohort.times(), cohort.censor_flags(),
                                  config.n_bins)
    every = np.arange(len(cohort))
    _, targets = tr.gene_targets(cohort, every, None)
    model = build_model(config.model_config(cohort.feature_dim,
                                            SynthConfig().gene_counts), seed=0)
    made = []
    losses = []
    reachable = set()
    make = ad._make
    backward = ad.backward

    def counting_make(*args):
        made.append(make(*args))
        return made[-1]

    def recording_backward(loss):
        # walked here, before backward consumes the graph
        losses.append(loss)
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) not in reachable:
                reachable.add(id(node))
                stack.extend(node._parents)
        return backward(loss)

    monkeypatch.setattr(ad, "_make", counting_make)
    monkeypatch.setattr(ad, "backward", recording_backward)
    train_model(model, cohort, every[:1], bins, config, targets,
                np.random.default_rng(0))
    assert cohort[0].bag.n_patches == 64
    assert 0 < len(made) <= 103, sorted({node._op for node in made})
    unreachable = [node._op for node in made if id(node) not in reachable]
    assert len(losses) == 1 and not unreachable, unreachable


# ---------------------------------------------------------------------------
# fold orchestration
# ---------------------------------------------------------------------------

def test_run_fold_outputs(tmp_path):
    cohort = tiny_cohort()
    config = tiny_train_config()
    boundaries, bins = discretize_survival(cohort.times(),
                                           cohort.censor_flags(), 2)
    (train_idx, val_idx), _ = make_folds(cohort, config.seed, 2)
    run = run_fold(cohort, train_idx, val_idx, config, boundaries, bins,
                   fold=0, out_dir=tmp_path)
    assert run.checkpoint_path.exists()
    assert (tmp_path / "fold0_trace.json").exists()
    assert (tmp_path / "fold0_selection.tsv").exists()
    assert run.result.n_patients == val_idx.size
    assert 0.0 <= run.result.c_index <= 1.0
    ckpt = load_checkpoint(run.checkpoint_path)
    assert ckpt.train_config == config.to_dict()
    assert ckpt.selected_genes is not None
    sizes = tuple(len(s) for s in ckpt.selected_genes)
    assert sizes == run.retained_sizes
    assert ckpt.model.config.category_sizes == sizes


def test_cross_validate_metrics_schema(cv_run):
    cohort, config, result, out = cv_run
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["folds"]) == config.n_folds
    for f, entry in enumerate(metrics["folds"]):
        assert entry["fold"] == f
        assert entry["checkpoint"] == f"fold{f}.ghck"
        assert (out / entry["checkpoint"]).exists()
        assert 0.0 <= entry["c_index"] <= 1.0
        assert entry["retained_genes"] is not None
    assert metrics["c_index_mean"] == pytest.approx(
        np.mean([e["c_index"] for e in metrics["folds"]]))
    assert 0.0 <= metrics["pooled_logrank_p"] <= 1.0
    assert (out / metrics["km_tsv"]).exists()
    assert metrics["config"] == config.to_dict()
    assert result.c_index_mean == metrics["c_index_mean"]


def test_cross_validate_covers_every_patient(cv_run):
    cohort, config, result, out = cv_run
    seen = np.concatenate([run.val_idx for run in result.folds])
    np.testing.assert_array_equal(np.sort(seen), np.arange(len(cohort)))


def test_cross_validate_reruns_byte_identical(cv_run, tmp_path):
    cohort, config, _, out = cv_run
    again = tmp_path / "rerun"
    cross_validate(cohort, config, again)
    for name in ("metrics.json", "km.tsv", "fold0.ghck", "fold1.ghck"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def test_evaluate_is_image_only(cv_run):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    val_idx = result.folds[0].val_idx
    with_genes = evaluate(ckpt, cohort, val_idx)
    stripped = Cohort([Patient(p.bag, p.label, None) for p in cohort])
    without = evaluate(ckpt, stripped, val_idx)
    np.testing.assert_array_equal(with_genes.risks, without.risks)
    assert with_genes.c_index == without.c_index
    assert with_genes.logrank_p == without.logrank_p


def test_evaluate_spearman_report(cv_run):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    res = evaluate(ckpt, cohort, result.folds[0].val_idx, with_spearman=True)
    report = res.spearman
    assert report is not None
    assert len(report.category_names) == 6
    for name, values in zip(report.category_names, report.values):
        if name not in report.skipped:
            assert np.isfinite(values).all()
    d = res.to_dict()
    assert set(d["spearman_mean"]) == set(report.category_names)


def test_evaluate_spearman_rejects_a_cohort_of_another_gene_panel(cv_run):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    needed = [max(genes, default=-1) + 1 for genes in ckpt.selected_genes]
    assert max(needed) > 1, "one gene per category would hold every selected gene"
    narrow, _ = synth_generate(SynthConfig(n_patients=4, patch_range=(3, 6),
                                           feature_dim=6, n_prototypes=3,
                                           gene_counts=(1,) * 6), seed=1)
    with pytest.raises(ConfigError) as err:
        evaluate(ckpt, narrow, with_spearman=True)
    assert str([1] * 6) in str(err.value) and str(needed) in str(err.value)


def test_export_associations_format(cv_run, tmp_path):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    path = tmp_path / "assoc.tsv"
    bag = cohort[0].bag.features
    export_associations(ckpt, bag, path, top_n=3)
    lines = [ln.split("\t") for ln in path.read_text().strip().splitlines()]
    kinds = [row[0] for row in lines]
    assert kinds == ["raw"] * 6 + ["masked"] * 6 + ["topk"] * 6
    masked_rows = [np.array([float(v) for v in row[2:]])
                   for row in lines if row[0] == "masked"]
    for row in masked_rows:
        assert row.size == bag.shape[0]
        np.testing.assert_allclose(row.sum(), 1.0, atol=1e-12)
    top_rows = [row[2:] for row in lines if row[0] == "topk"]
    for row in top_rows:
        assert len(row) == 3
        assert all(0 <= int(i) < bag.shape[0] for i in row)


def test_export_associations_rejects_baseline(tmp_path):
    cohort = tiny_cohort()
    stripped = Cohort([Patient(p.bag, p.label, None) for p in cohort])
    config = tiny_train_config(gated_baseline=True)
    result = cross_validate(stripped, config, tmp_path / "base")
    ckpt = load_checkpoint(result.folds[0].checkpoint_path)
    with pytest.raises(ConfigError, match="baseline"):
        export_associations(ckpt, cohort[0].bag.features, tmp_path / "x.tsv")


def test_sweep_k_writes_one_row_per_k(tmp_path):
    cohort = tiny_cohort()
    config = tiny_train_config()
    rows = sweep_k(cohort, config, tmp_path, grid=(50, 100))
    assert [row["k"] for row in rows] == [50.0, 100.0]
    lines = (tmp_path / "sweep_k.tsv").read_text().strip().splitlines()
    assert lines[0] == "k\tc_index_mean\tc_index_std"
    assert len(lines) == 3
    for row, line in zip(rows, lines[1:]):
        k, mean, std = line.split("\t")
        assert float(k) == row["k"]
        assert float(mean) == row["c_index_mean"]
    assert (tmp_path / "k50" / "metrics.json").exists()
    assert (tmp_path / "k100" / "metrics.json").exists()


def test_write_json_stable(tmp_path):
    path = tmp_path / "x.json"
    tr.write_json(path, {"b": 1, "a": [2, 3]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
