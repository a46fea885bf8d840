import json

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import stats
from histodistill import training as tr
from histodistill.autodiff import tensor
from histodistill.checkpoint import load_checkpoint
from histodistill.datasets import (Cohort, Patient, SurvivalLabel, SynthConfig,
                                   discretize_survival, make_folds,
                                   synth_generate)
from histodistill.errors import ConfigError
from histodistill.model import build_model, model_forward
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


@pytest.fixture(scope="module")
def baseline_ckpt(tmp_path_factory):
    """Fold 0 of an image-only gated-baseline run on `tiny_cohort`."""
    stripped = Cohort(tiny_cohort().patients)
    result = cross_validate(stripped, tiny_train_config(gated_baseline=True),
                            tmp_path_factory.mktemp("base"))
    return load_checkpoint(result.folds[0].checkpoint_path)


def count_forwards(monkeypatch) -> list[int]:
    """Replace `training.stack_forward` by a counting wrapper; the list
    collects the bag count of every forward."""
    forwards = []
    real_stack_forward = tr.stack_forward

    def counting(model, bags, *args):
        forwards.append(len(bags))
        return real_stack_forward(model, bags, *args)

    monkeypatch.setattr(tr, "stack_forward", counting)
    return forwards


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
    np.testing.assert_array_equal(matrices[1][:, 0], cohort.expression[1][:, 0])
    np.testing.assert_array_equal(matrices[1][:, 1], cohort.expression[1][:, 2])


def test_expression_matrices_needs_genomics():
    cohort = tiny_cohort(n=4)
    stripped = Cohort(cohort.patients)
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
    stripped = Cohort(cohort.patients)
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
    stripped = Cohort(cohort.patients)
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
        picked = [m[sel.retained, i] for m, sel in
                  zip(cohort.expression, selection.categories)]
        for row, want in zip(targets, scaler.transform(picked)):
            np.testing.assert_array_equal(row[j], want)


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


# Degenerate cohorts: (patients, folds, censor flag per patient, the
# error's text). Every patient's time differs, so only the censoring and
# the fold sizes decide.
DEGENERATE = {
    "all_censored": (16, 2, 1, "need at least 2 uncensored patients"),
    "5_patients_in_5_folds": (5, 5, 0, "validation fold 0 of 5 has no comparable pair"),
    "3_patients_in_2_folds": (3, 2, 0, "validation fold 1 of 2 has no comparable pair"),
}


@pytest.mark.parametrize("case", DEGENERATE)
def test_cross_validate_rejects_a_degenerate_cohort_before_any_fold_trains(
        case, tmp_path, monkeypatch):
    n, n_folds, censor, message = DEGENERATE[case]
    drawn = tiny_cohort(n)
    cohort = Cohort([Patient(p.bag, SurvivalLabel(10.0 + i, censor))
                     for i, p in enumerate(drawn)],
                    drawn.category_names, drawn.gene_ids, drawn.expression)

    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained")

    monkeypatch.setattr(tr, "run_fold", no_training)
    with pytest.raises(ConfigError, match=message):
        cross_validate(cohort, tiny_train_config(n_folds=n_folds), tmp_path)
    # no checkpoint, trace, selection report, km.tsv or metrics.json
    assert list(tmp_path.iterdir()) == []


def test_evaluate_is_image_only(cv_run):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    val_idx = result.folds[0].val_idx
    with_genes = evaluate(ckpt, cohort, val_idx)
    stripped = Cohort(cohort.patients)
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


def one_bag_spearman_report(ckpt, cohort, indices):
    """The Spearman report as it was computed before `evaluate`'s stacks
    reconstructed the genes: one `model_forward` per patient. Returns the
    report and the per-patient predicted profiles."""
    def predict_gene_profiles(ckpt, bag_features):
        """Reconstructed per-category gene vectors on the raw expression scale."""
        model = ckpt.model
        if model.config.gated_baseline:
            raise ConfigError("a baseline checkpoint has no reconstruction heads")
        with ad.no_grad():
            recon = model_forward(model, bag_features).recon
        standardized = [r.values.reshape(-1) for r in recon]
        if ckpt.standardization is None:
            return standardized
        scaler = GeneStandardizer.from_dict(ckpt.standardization)
        return scaler.inverse(standardized)

    selected = [np.asarray(s, dtype=np.int64) for s in ckpt.selected_genes]
    predicted, actual = [], []
    for i in indices:
        patient = cohort[int(i)]
        predicted.append(predict_gene_profiles(ckpt, patient.bag.features))
        actual.append([m[sel, int(i)] for m, sel in zip(cohort.expression, selected)])
    names = ckpt.category_names or list(cohort.category_names)
    return stats.spearman_report(predicted, actual, names), predicted


def test_evaluate_spearman_keeps_the_bits_of_one_bag_reconstructions(cv_run,
                                                                     monkeypatch):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    assert ckpt.standardization is not None and ckpt.selected_genes is not None
    passed, taped = [], []
    real_report, real_make = stats.spearman_report, ad._make

    def recording(predicted, actual, names):
        passed.append(predicted)
        return real_report(predicted, actual, names)

    def recording_make(*args, **kwargs):
        out = real_make(*args, **kwargs)
        if out.requires_grad:
            taped.append(out._op)
        return out

    monkeypatch.setattr(stats, "spearman_report", recording)
    monkeypatch.setattr(ad, "_make", recording_make)
    shuffled = np.random.default_rng(2).permutation(len(cohort))[:11]
    for indices in (np.arange(len(cohort)), shuffled, np.arange(len(cohort))[::-1]):
        passed.clear()
        got = evaluate(ckpt, cohort, indices, with_spearman=True).spearman
        (stacked,) = passed
        # a head read outside no_grad records a tape and runs plain products
        assert taped == [], f"evaluate recorded tape nodes: {sorted(set(taped))}"
        want, predicted = one_bag_spearman_report(ckpt, cohort, indices)
        assert got.category_names == want.category_names
        assert got.skipped == want.skipped
        assert len(got.values) == len(want.values)
        for g, w in zip(got.values, want.values):
            assert np.array_equal(g, w, equal_nan=True), indices
        # the gene rows themselves, not only their ranks
        assert len(stacked) == len(predicted) == indices.size
        for row, (s_row, p_row) in enumerate(zip(stacked, predicted)):
            for c, (s, p) in enumerate(zip(s_row, p_row)):
                assert np.array_equal(s, p), (indices[row], c)


def test_evaluate_spearman_rejects_a_cohort_of_another_gene_panel(cv_run, monkeypatch):
    cohort, config, result, out = cv_run
    ckpt = load_checkpoint(out / "fold0.ghck")
    needed = [max(genes, default=-1) + 1 for genes in ckpt.selected_genes]
    assert max(needed) > 1, "one gene per category would hold every selected gene"
    narrow, _ = synth_generate(SynthConfig(n_patients=4, patch_range=(3, 6),
                                           feature_dim=6, n_prototypes=3,
                                           gene_counts=(1,) * 6), seed=1)
    forwards = count_forwards(monkeypatch)
    with pytest.raises(ConfigError) as err:
        evaluate(ckpt, narrow, with_spearman=True)
    assert str([1] * 6) in str(err.value) and str(needed) in str(err.value)
    assert forwards == [], "the gene panel was checked after a forward"


def test_evaluate_spearman_rejects_a_baseline_checkpoint_before_any_forward(
        baseline_ckpt, monkeypatch):
    forwards = count_forwards(monkeypatch)
    with pytest.raises(ConfigError, match="baseline"):
        evaluate(baseline_ckpt, tiny_cohort(), with_spearman=True)
    assert forwards == []


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


def test_export_associations_rejects_baseline(baseline_ckpt, tmp_path):
    with pytest.raises(ConfigError, match="baseline"):
        export_associations(baseline_ckpt, tiny_cohort()[0].bag.features,
                            tmp_path / "x.tsv")


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


def test_sweep_k_checks_every_k_before_the_first_fold(tmp_path):
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match="k_percent"):
        sweep_k(tiny_cohort(), tiny_train_config(), out, grid=(50, 0))
    assert not out.exists()


def test_write_json_stable(tmp_path):
    path = tmp_path / "x.json"
    tr.write_json(path, {"b": 1, "a": [2, 3]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
