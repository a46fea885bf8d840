import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from histodistill import cli
from histodistill.datasets import SurvivalLabel, SynthConfig, synth_generate
from histodistill.io import load_cohort, write_cohort


SYNTH_SECTION = {
    "n_patients": 30,
    "patch_range": [3, 6],
    "feature_dim": 6,
    "n_prototypes": 3,
    "gene_counts": [2, 3, 2, 2, 3, 2],
    "censor_target": 0.25,
}

TRAIN_SECTION = {
    "epochs": 1,
    "width": 8,
    "heads": 2,
    "compress_width": 4,
    "n_bins": 2,
    "n_folds": 2,
    "accumulation": 8,
    "k_percent": 50.0,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic cohort plus one trained fold, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({"synth": SYNTH_SECTION,
                                  "train": TRAIN_SECTION}))
    data = root / "data"
    assert cli.main(["synth", "--config", str(config), "--seed", "3",
                     "--out-dir", str(data)]) == 0
    manifest = data / "synthetic_manifest.json"
    assert manifest.exists()
    run = root / "run"
    assert cli.main(["train", "--config", str(config),
                     "--manifest", str(manifest),
                     "--out-dir", str(run), "--fold", "0"]) == 0
    return {"root": root, "config": config, "manifest": manifest,
            "checkpoint": run / "fold0.ghck", "run": run, "data": data}


@pytest.fixture(scope="module")
def narrow_data(tmp_path_factory):
    """A cohort of 5-dim bags, one dim short of the workspace checkpoint's."""
    root = tmp_path_factory.mktemp("narrow")
    config = root / "config.json"
    config.write_text(json.dumps({"synth": {**SYNTH_SECTION, "n_patients": 8,
                                            "feature_dim": 5}}))
    assert cli.main(["synth", "--config", str(config), "--out-dir", str(root)]) == 0
    return root


def assert_feature_dim_error(code, err, checkpoint, source):
    assert code == 1
    assert "Traceback" not in err
    for part in (str(checkpoint), str(source), "feature dim 5", "expects 6"):
        assert part in err, (part, err)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("synth", "select-genes", "train", "eval", "cross-validate",
                "sweep-k", "export-assoc", "km", "grad-check"):
        assert sub in out


def test_missing_manifest_is_config_error(tmp_path, capsys):
    code = cli.main(["cross-validate", "--manifest",
                     str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["synth", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 1
    bad.write_text(json.dumps({"mystery": {}}))
    assert cli.main(["synth", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 1
    bad.write_text(json.dumps({"synth": {"bogus_knob": 1}}))
    assert cli.main(["synth", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 1
    bad.write_text(json.dumps({"synth": []}))
    assert cli.main(["synth", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("section, key, value", [
    ("train", "epochs", "3"),
    ("train", "lr", None),
    ("train", "alpha", float("nan")),
    ("train", "width", 64.5),
    ("train", "gated_baseline", 1),
    ("train", "heads", 0),
    ("train", "heads", 3),
    ("train", "score_head", 5),
    ("synth", "patch_range", [4, 8, 9]),
    ("synth", "patch_range", 5),
    ("synth", "gene_counts", ["a"]),
    ("synth", "n_prototypes", 0),
    ("synth", "mixture_alpha", 0),
], ids=str)
def test_a_bad_config_value_fails_before_any_output(workspace, tmp_path, capsys,
                                                    section, key, value):
    # a wrong type, or a value the model cannot be built with, is a config
    # error when the config is read: no cohort loads and nothing is written
    base = {"train": TRAIN_SECTION, "synth": SYNTH_SECTION}[section]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {**base, key: value}}))
    command = (["train", "--manifest", str(workspace["manifest"])]
               if section == "train" else ["synth"])
    out = tmp_path / "out"
    code = cli.main([*command, "--config", str(config), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert key in err, err
    assert not out.exists()


def test_config_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"synth": {"n_patients": 8}}\xff')
    assert cli.main(["synth", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert f"error: {bad}: byte 0xff at offset 28 is not UTF-8" in capsys.readouterr().err


def test_cohort_file_that_is_not_utf8(workspace, tmp_path, capsys):
    import shutil
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    clinical = next(data.glob("*_clinical.csv"))
    clinical.write_bytes(clinical.read_bytes() + b"\xfe,1.0,0\n")
    manifest = next(data.glob("*_manifest.json"))
    assert cli.main(["select-genes", "--config", str(workspace["config"]),
                     "--manifest", str(manifest), "--out-dir", str(tmp_path)]) == 1
    assert f"error: {clinical}: line " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_outputs(workspace, capsys):
    data = workspace["data"]
    manifest = json.loads((data / "synthetic_manifest.json").read_text())
    assert set(manifest) == {"clinical", "bags", "genomics", "gene_categories"}
    assert len(manifest["bags"]) == 30
    truth = json.loads((data / "truth.json").read_text())
    assert truth["seed"] == 3
    assert len(truth["risks"]) == 30


@pytest.mark.parametrize("seed, digest", [
    (0, "65659b46ba5754a45b1f2bc4eb8e647bb833ec5f1339e25ec1d41cd26678c099"),
    (7919, "2ec14adca6a60c26e82bb883c9faa442242b4d522c10612e1c52b0ee13d759ac"),
])
def test_synth_default_cohort_files_are_pinned(tmp_path, seed, digest):
    # the default cohort's bags, clinical CSV, genomics and manifest, hashed
    # by relative path: the planted truth's patch assignments are kept
    # without a new random draw, so the files do not change
    out = tmp_path / "synth"
    assert cli.main(["synth", "--seed", str(seed), "--out-dir", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "truth.json")
    sha = hashlib.sha256()
    for path in files:
        sha.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    assert (len(files), sha.hexdigest()) == (204, digest)
    truth = json.loads((out / "truth.json").read_text())
    cohort = load_cohort(out / "synthetic_manifest.json", with_genomics=False)
    assert [len(a) for a in truth["assignments"]] == [p.bag.n_patches for p in cohort]


def test_synth_deterministic_across_runs(workspace, tmp_path):
    again = tmp_path / "again"
    assert cli.main(["synth", "--config", str(workspace["config"]),
                     "--seed", "3", "--out-dir", str(again)]) == 0
    a = (workspace["data"] / "synthetic_clinical.csv").read_bytes()
    b = (again / "synthetic_clinical.csv").read_bytes()
    assert a == b
    a = (workspace["data"] / "bags" / "synthetic_0000.bag").read_bytes()
    b = (again / "bags" / "synthetic_0000.bag").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# gene selection
# ---------------------------------------------------------------------------

def test_select_genes_writes_report(workspace, tmp_path, capsys):
    out = tmp_path / "sel"
    assert cli.main(["select-genes", "--config", str(workspace["config"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(out)]) == 0
    report = out / "selection.tsv"
    assert report.exists()
    lines = report.read_text().strip().splitlines()
    assert lines[0].startswith("gene_id\tcategory")
    assert len(lines) == 1 + sum(SYNTH_SECTION["gene_counts"])
    printed = capsys.readouterr().out
    assert "retained" in printed


def test_select_genes_with_a_constant_category(tmp_path, capsys):
    cohort, _ = synth_generate(SynthConfig(**SYNTH_SECTION), seed=3)
    expression = list(cohort.expression)
    expression[2] = np.full(expression[2].shape, 7.0)
    cohort.expression = tuple(expression)
    manifest = write_cohort(tmp_path / "data", cohort)
    out = tmp_path / "sel"
    assert cli.main(["select-genes", "--manifest", str(manifest),
                     "--out-dir", str(out)]) == 0
    rows = [line.split("\t") for line in
            (out / "selection.tsv").read_text().splitlines()[1:]]
    flat = [row for row in rows if row[1] == cohort.category_names[2]]
    assert [row[2:] for row in flat] == [["0.0", "1.0", "1.0", "1"],
                                         ["0.0", "1.0", "1.0", "0"]]
    assert f"{cohort.category_names[2]}: 1/2 retained" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def test_train_wrote_checkpoint_and_metrics(workspace):
    assert workspace["checkpoint"].exists()
    metrics = json.loads(
        (workspace["run"] / "fold0_metrics.json").read_text())
    assert 0.0 <= metrics["c_index"] <= 1.0
    assert metrics["n_patients"] > 0


def test_train_fold_out_of_range(workspace, capsys):
    code = cli.main(["train", "--config", str(workspace["config"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(workspace["root"] / "x"),
                     "--fold", "7"])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_eval_writes_metrics(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(out)]) == 0
    metrics = json.loads((out / "eval_metrics.json").read_text())
    assert {"c_index", "logrank_stat", "logrank_p",
            "n_patients"} <= set(metrics)
    assert "c-index" in capsys.readouterr().out


def test_eval_with_spearman(workspace, tmp_path):
    out = tmp_path / "eval_sp"
    assert cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(workspace["manifest"]),
                     "--spearman", "--out-dir", str(out)]) == 0
    metrics = json.loads((out / "eval_metrics.json").read_text())
    assert "spearman_mean" in metrics
    assert (out / "spearman.tsv").exists()


def test_eval_spearman_rejects_a_cohort_listing_a_category_in_another_order(
        workspace, tmp_path, capsys):
    # the checkpoint's gene indices would pick other genes of this cohort;
    # every selection from a category of two genes moves when it is reversed
    import shutil
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    genomics = data / "synthetic_genomics.tsv"
    header, *rows = genomics.read_text().splitlines(keepends=True)
    moved = [row for row in rows if row.startswith("tumor_suppression_")]
    assert len(moved) == 2
    genomics.write_text(header + "".join(moved[::-1])
                        + "".join(row for row in rows if row not in moved))
    out = tmp_path / "out"
    code = cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(data / "synthetic_manifest.json"),
                     "--spearman", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    for part in ("'tumor_suppression'", "tumor_suppression_0000",
                 "tumor_suppression_0001"):
        assert part in err, (part, err)
    assert not (out / "eval_metrics.json").exists()


def test_eval_spearman_rejects_a_baseline_checkpoint_before_any_forward(
        workspace, tmp_path, capsys, monkeypatch):
    from histodistill import training
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {**TRAIN_SECTION, "gated_baseline": True}}))
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(run), "--fold", "0"]) == 0
    capsys.readouterr()
    forwards = []
    real_stack_forward = training.stack_forward

    def counting(model, bags, *args):
        forwards.append(len(bags))
        return real_stack_forward(model, bags, *args)

    monkeypatch.setattr(training, "stack_forward", counting)
    checkpoint = run / "fold0.ghck"
    code = cli.main(["eval", "--checkpoint", str(checkpoint),
                     "--manifest", str(workspace["manifest"]), "--spearman",
                     "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    for part in (str(checkpoint), str(workspace["manifest"]), "baseline"):
        assert part in err, (part, err)
    assert forwards == []
    assert not (tmp_path / "out" / "eval_metrics.json").exists()


def test_eval_spearman_rejects_a_checkpoint_of_another_gene_panel(workspace, tmp_path,
                                                                 capsys):
    from histodistill.checkpoint import load_checkpoint
    selected = load_checkpoint(workspace["checkpoint"]).selected_genes
    # one gene per category cannot hold every gene the checkpoint reconstructs
    assert max(max(genes) for genes in selected) >= 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {**SYNTH_SECTION, "n_patients": 8,
                                            "gene_counts": [1] * 6}}))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(config), "--out-dir", str(data)]) == 0
    capsys.readouterr()
    manifest = data / "synthetic_manifest.json"
    code = cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(manifest), "--spearman",
                     "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    needed = [max(genes, default=-1) + 1 for genes in selected]
    for part in (str(workspace["checkpoint"]), str(manifest), str([1] * 6), str(needed)):
        assert part in err, (part, err)


def test_eval_rejects_bags_of_another_feature_dim(workspace, narrow_data,
                                                  tmp_path, capsys):
    manifest = narrow_data / "synthetic_manifest.json"
    code = cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(manifest), "--out-dir", str(tmp_path)])
    assert_feature_dim_error(code, capsys.readouterr().err,
                             workspace["checkpoint"], manifest)


def test_eval_survives_missing_genomics_files(workspace, tmp_path):
    """Scoring needs only bags and clinical data; the genomics files can be
    deleted outright and eval must not notice."""
    import shutil
    out_a = tmp_path / "before"
    assert cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(out_a)]) == 0

    clone = tmp_path / "dataset"
    shutil.copytree(workspace["data"], clone)
    (clone / "synthetic_genomics.tsv").unlink()
    (clone / "synthetic_gene_categories.tsv").unlink()
    out_b = tmp_path / "after"
    assert cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(clone / "synthetic_manifest.json"),
                     "--out-dir", str(out_b)]) == 0
    assert ((out_a / "eval_metrics.json").read_bytes()
            == (out_b / "eval_metrics.json").read_bytes())


# ---------------------------------------------------------------------------
# cross-validate / sweep
# ---------------------------------------------------------------------------

def test_cross_validate_cli(workspace, tmp_path, capsys):
    out = tmp_path / "cv"
    assert cli.main(["cross-validate", "--config", str(workspace["config"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["folds"]) == 2
    printed = capsys.readouterr().out
    assert "c-index mean" in printed
    assert "pooled log-rank p" in printed


def test_a_validation_fold_without_comparable_pairs_fails_before_training(tmp_path,
                                                                         capsys):
    # 4 early events over 5 folds: folds 0-3 get one event each, with later
    # censored times beside it, and fold 4 none, so its c-index is undefined
    cohort, _ = synth_generate(SynthConfig(**{**SYNTH_SECTION, "n_patients": 20}), seed=0)
    for i, patient in enumerate(cohort):
        patient.label = SurvivalLabel(1.0 + i, 0) if i < 4 else SurvivalLabel(50.0 + i, 1)
    manifest = write_cohort(tmp_path / "data", cohort)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {**TRAIN_SECTION, "n_folds": 5}}))
    for command in (["cross-validate"], ["train", "--fold", "4"]):
        out = tmp_path / "-".join(command)
        assert cli.main([*command, "--config", str(config), "--manifest", str(manifest),
                         "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "validation fold 4 of 5 has no comparable pair" in err, err
        assert not list(out.glob("fold*.ghck"))
    # fold 0 can be scored, whatever fold 4 holds
    out = tmp_path / "train-fold-0"
    assert cli.main(["train", "--fold", "0", "--config", str(config), "--manifest",
                     str(manifest), "--out-dir", str(out)]) == 0
    assert (out / "fold0.ghck").exists()
    assert "no comparable pair" not in capsys.readouterr().err


def test_single_patch_bags_at_k_10(tmp_path, monkeypatch):
    # k = 10% of one patch rounds to 0; the mask keeps m = 1, and one-row
    # bags are the edge case of the row-aligned per-patch products
    from histodistill import model as gm
    from histodistill.checkpoint import load_checkpoint
    from histodistill.training import evaluate

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {**SYNTH_SECTION, "n_patients": 24, "patch_range": [1, 1]},
        "train": {**TRAIN_SECTION, "k_percent": 10.0}}))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(config), "--out-dir", str(data)]) == 0
    masks = []
    real_topk = gm.topk_masked_softmax

    def recording_topk(scores, k_percent, lengths=None):
        out = real_topk(scores, k_percent, lengths)
        masks.append((k_percent, lengths, out))
        return out

    monkeypatch.setattr(gm, "topk_masked_softmax", recording_topk)
    out = tmp_path / "cv"
    assert cli.main(["cross-validate", "--config", str(config),
                     "--manifest", str(data / "synthetic_manifest.json"),
                     "--out-dir", str(out)]) == 0
    assert len(json.loads((out / "metrics.json").read_text())["folds"]) == 2
    assert masks
    for k_percent, lengths, mask in masks:
        assert k_percent == 10.0 and set(lengths) == {1}
        assert (mask[:, :, 0] == 1.0).all() and (mask[:, :, 1:] == 0.0).all()

    monkeypatch.undo()
    ckpt = load_checkpoint(out / "fold0.ghck")
    cohort = load_cohort(data / "synthetic_manifest.json", with_genomics=False)
    risks = evaluate(ckpt, cohort).risks
    alone = [gm.predict(ckpt.model, patient.bag.features).risk for patient in cohort]
    assert risks.tolist() == alone


def test_sweep_k_cli(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep-k", "--config", str(workspace["config"]),
                     "--manifest", str(workspace["manifest"]),
                     "--grid", "50,100", "--out-dir", str(out)]) == 0
    lines = (out / "sweep_k.tsv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert "k=50" in capsys.readouterr().out


def test_sweep_k_bad_grid(workspace, tmp_path, capsys):
    code = cli.main(["sweep-k", "--config", str(workspace["config"]),
                     "--manifest", str(workspace["manifest"]),
                     "--grid", "ten,twenty", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "comma-separated" in capsys.readouterr().err


def test_sweep_k_checks_the_whole_grid_before_any_output(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(["sweep-k", "--config", str(workspace["config"]),
                     "--manifest", str(workspace["manifest"]),
                     "--grid", "10,0", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert "k_percent" in err, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_export_assoc_cli(workspace, tmp_path):
    bag = workspace["data"] / "bags" / "synthetic_0001.bag"
    out = tmp_path / "assoc"
    assert cli.main(["export-assoc", "--checkpoint",
                     str(workspace["checkpoint"]), "--bag", str(bag),
                     "--out-dir", str(out)]) == 0
    lines = (out / "associations.tsv").read_text().strip().splitlines()
    kinds = {line.split("\t")[0] for line in lines}
    assert kinds == {"raw", "masked", "topk"}


def test_export_assoc_rejects_a_bag_of_another_feature_dim(workspace, narrow_data,
                                                           tmp_path, capsys):
    bag = narrow_data / "bags" / "synthetic_0001.bag"
    code = cli.main(["export-assoc", "--checkpoint", str(workspace["checkpoint"]),
                     "--bag", str(bag), "--out-dir", str(tmp_path)])
    assert_feature_dim_error(code, capsys.readouterr().err,
                             workspace["checkpoint"], bag)


def test_km_rejects_bags_of_another_feature_dim(workspace, narrow_data,
                                                tmp_path, capsys):
    manifest = narrow_data / "synthetic_manifest.json"
    code = cli.main(["km", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(manifest), "--out-dir", str(tmp_path)])
    assert_feature_dim_error(code, capsys.readouterr().err,
                             workspace["checkpoint"], manifest)


def test_km_cli(workspace, tmp_path, capsys):
    out = tmp_path / "km"
    assert cli.main(["km", "--checkpoint", str(workspace["checkpoint"]),
                     "--manifest", str(workspace["manifest"]),
                     "--out-dir", str(out)]) == 0
    km = (out / "km.tsv").read_text().strip().splitlines()
    assert km[0].split("\t") == ["group", "time", "survival", "at_risk"]
    groups = {line.split("\t")[0] for line in km[1:]}
    assert groups == {"high_risk", "low_risk"}
    logrank = json.loads((out / "km_logrank.json").read_text())
    assert logrank["n_high"] + logrank["n_low"] == 30
    assert 0.0 <= logrank["logrank_p"] <= 1.0


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def test_grad_check_cli_passes(tmp_path, capsys):
    assert cli.main(["grad-check", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "end_to_end" in out


def test_grad_check_cli_failure_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli.gradcheck, "run_all", lambda: {"fake": 1.0})
    assert cli.main(["grad-check", "--out-dir", str(tmp_path)]) == 2
    assert "FAILED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "histodistill.cli", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "synth" in proc.stdout
