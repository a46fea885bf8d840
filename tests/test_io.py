import builtins
import errno
import struct

import numpy as np
import pytest

from histodistill.checkpoint import save_checkpoint
from histodistill.datasets import PatchBag, SynthConfig, synth_generate
from histodistill.errors import DataFormatError
from histodistill.geneselect import (RiskGroups, differential_select,
                                     write_selection_report)
from histodistill.io import (BAG_MAGIC, load_cohort, read_bag, read_clinical,
                             read_genomics, write_bag, write_clinical,
                             write_cohort, write_genomics)
from histodistill.model import ModelConfig, build_model
from histodistill.training import write_json


@pytest.fixture(scope="module")
def synth_cohort():
    config = SynthConfig(n_patients=6, patch_range=(3, 7), feature_dim=5,
                         n_prototypes=4, gene_counts=(2, 3, 2, 2, 4, 2))
    cohort, _ = synth_generate(config, seed=9)
    return cohort


# ---------------------------------------------------------------------------
# patch-bag binary
# ---------------------------------------------------------------------------

def test_bag_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    bag = PatchBag("case_a", rng.normal(size=(7, 3)).astype(np.float32))
    path = tmp_path / "case_a.bag"
    write_bag(path, bag)
    back = read_bag(path)
    assert back.patient_id == "case_a"
    np.testing.assert_array_equal(back.features.astype(np.float32),
                                  bag.features)


def test_bag_explicit_patient_id(tmp_path):
    bag = PatchBag("x", np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "weird_name.bag"
    write_bag(path, bag)
    assert read_bag(path).patient_id == "weird_name"
    assert read_bag(path, "x").patient_id == "x"


def test_bag_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bag"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="bad magic"):
        read_bag(path)


def test_bag_rejects_truncation(tmp_path):
    path = tmp_path / "short.bag"
    path.write_bytes(b"GH")
    with pytest.raises(DataFormatError, match="truncated header"):
        read_bag(path)
    path.write_bytes(struct.pack("<4sII", BAG_MAGIC, 3, 4) + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="truncated payload"):
        read_bag(path)


@pytest.mark.parametrize("n_patches, dim, offset", [(0, 3, 4), (4, 0, 8), (0, 0, 4)])
def test_bag_rejects_empty_header_with_path_and_offset(tmp_path, n_patches, dim, offset):
    path = tmp_path / "empty.bag"
    path.write_bytes(struct.pack("<4sII", BAG_MAGIC, n_patches, dim))
    with pytest.raises(DataFormatError, match=rf"empty\.bag: .* byte offset {offset}$"):
        read_bag(path, "case_e")


def test_bag_rejects_nan_with_offset(tmp_path):
    features = np.zeros((2, 2), dtype=np.float32)
    features[1, 0] = np.nan
    payload = struct.pack("<4sII", BAG_MAGIC, 2, 2) + features.tobytes()
    path = tmp_path / "nan.bag"
    path.write_bytes(payload)
    with pytest.raises(DataFormatError, match="byte offset 20"):
        read_bag(path)


# ---------------------------------------------------------------------------
# clinical CSV
# ---------------------------------------------------------------------------

def test_clinical_round_trip(tmp_path):
    rows = [("a", 12.5, 0), ("b", 3.25, 1), ("c", 100.0, 0)]
    path = tmp_path / "clinical.csv"
    write_clinical(path, rows)
    labels = read_clinical(path)
    assert set(labels) == {"a", "b", "c"}
    assert labels["a"].time_months == 12.5
    assert labels["b"].censor == 1


def test_clinical_rejects_malformed(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("wrong,header,here\n")
    with pytest.raises(DataFormatError, match="line 1"):
        read_clinical(path)
    path.write_text("patient_id,time_months,censor\na,not_a_number,0\n")
    with pytest.raises(DataFormatError, match="line 2.*bad time"):
        read_clinical(path)
    path.write_text("patient_id,time_months,censor\na,5.0,2\n")
    with pytest.raises(DataFormatError, match="censor"):
        read_clinical(path)
    path.write_text("patient_id,time_months,censor\na,5.0,0\na,6.0,0\n")
    with pytest.raises(DataFormatError, match="duplicate patient id"):
        read_clinical(path)
    path.write_text("patient_id,time_months,censor\na,-1.0,0\n")
    with pytest.raises(DataFormatError, match="positive"):
        read_clinical(path)
    path.write_text("patient_id,time_months,censor\n")
    with pytest.raises(DataFormatError, match="no patient rows"):
        read_clinical(path)


def test_clinical_skips_blank_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("patient_id,time_months,censor\na,5.0,0\n\nb,6.0,1\n")
    assert set(read_clinical(path)) == {"a", "b"}


# ---------------------------------------------------------------------------
# genomics TSV
# ---------------------------------------------------------------------------

def test_genomics_round_trip(tmp_path, synth_cohort):
    matrix = tmp_path / "expr.tsv"
    sidecar = tmp_path / "cats.tsv"
    write_genomics(matrix, sidecar, synth_cohort)
    profiles, gene_ids = read_genomics(matrix, sidecar)
    assert gene_ids == synth_cohort.gene_ids
    for p in synth_cohort:
        back = profiles[p.patient_id]
        assert back.category_names == p.genes.category_names
        for va, vb in zip(back.vectors, p.genes.vectors):
            np.testing.assert_array_equal(va, vb)


def test_genomics_rejects_unknown_category(tmp_path):
    (tmp_path / "cats.tsv").write_text("gene_id\tcategory\ng0\tmystery\n")
    (tmp_path / "expr.tsv").write_text("gene_id\tp0\ng0\t1.0\n")
    with pytest.raises(DataFormatError, match="unknown category"):
        read_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv")


def test_genomics_rejects_matrix_problems(tmp_path):
    (tmp_path / "cats.tsv").write_text(
        "gene_id\tcategory\ng0\toncogenesis\ng1\toncogenesis\n")
    expr = tmp_path / "expr.tsv"
    expr.write_text("gene_id\tp0\tp0\ng0\t1.0\t2.0\n")
    with pytest.raises(DataFormatError, match="duplicate patient ids"):
        read_genomics(expr, tmp_path / "cats.tsv")
    expr.write_text("gene_id\tp0\ng0\t1.0\ng0\t2.0\n")
    with pytest.raises(DataFormatError, match="duplicate gene id"):
        read_genomics(expr, tmp_path / "cats.tsv")
    expr.write_text("gene_id\tp0\ngX\t1.0\n")
    with pytest.raises(DataFormatError, match="missing from category sidecar"):
        read_genomics(expr, tmp_path / "cats.tsv")
    expr.write_text("gene_id\tp0\ng0\tabc\n")
    with pytest.raises(DataFormatError, match="non-numeric"):
        read_genomics(expr, tmp_path / "cats.tsv")
    expr.write_text("gene_id\tp0\ng0\t1.0\t2.0\n")
    with pytest.raises(DataFormatError, match="expected 2 fields"):
        read_genomics(expr, tmp_path / "cats.tsv")


def test_genomics_empty_categories_dropped(tmp_path):
    # only one category present in the files; the result collapses to it
    (tmp_path / "cats.tsv").write_text(
        "gene_id\tcategory\ng0\ttranscription\n")
    (tmp_path / "expr.tsv").write_text("gene_id\tp0\tp1\ng0\t1.5\t2.5\n")
    profiles, gene_ids = read_genomics(tmp_path / "expr.tsv",
                                       tmp_path / "cats.tsv")
    assert gene_ids == (("g0",),)
    assert profiles["p1"].category_names == ("transcription",)
    np.testing.assert_array_equal(profiles["p1"].vectors[0], [2.5])


# ---------------------------------------------------------------------------
# manifest round trip
# ---------------------------------------------------------------------------

def test_write_and_load_cohort(tmp_path, synth_cohort):
    manifest = write_cohort(tmp_path, synth_cohort, name="toy")
    assert manifest.name == "toy_manifest.json"
    back = load_cohort(manifest)
    assert len(back) == len(synth_cohort)
    assert back.gene_ids == synth_cohort.gene_ids
    by_id = {p.patient_id: p for p in synth_cohort}
    for p in back:
        src = by_id[p.patient_id]
        np.testing.assert_array_equal(
            p.bag.features.astype(np.float32),
            src.bag.features.astype(np.float32))
        assert p.label.time_months == src.label.time_months
        assert p.label.censor == src.label.censor
        for va, vb in zip(p.genes.vectors, src.genes.vectors):
            np.testing.assert_array_equal(va, vb)


def test_load_cohort_without_genomics_files(tmp_path, synth_cohort):
    """Image-only loading works even after the genomics files are gone."""
    manifest = write_cohort(tmp_path, synth_cohort, name="toy")
    (tmp_path / "toy_genomics.tsv").unlink()
    (tmp_path / "toy_gene_categories.tsv").unlink()
    back = load_cohort(manifest, with_genomics=False)
    assert back.gene_ids is None
    assert all(p.genes is None for p in back)
    assert len(back) == len(synth_cohort)


def test_load_cohort_missing_pieces(tmp_path, synth_cohort):
    manifest = write_cohort(tmp_path, synth_cohort, name="toy")
    raw = manifest.read_text()
    manifest.write_text(raw.replace('"clinical"', '"clinic"'))
    with pytest.raises(DataFormatError, match="missing 'clinical'"):
        load_cohort(manifest)
    manifest.write_text("{not json")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_cohort(manifest)


def test_load_cohort_bag_without_clinical_row(tmp_path, synth_cohort):
    import json
    manifest = write_cohort(tmp_path, synth_cohort, name="toy")
    data = json.loads(manifest.read_text())
    data["bags"]["ghost"] = next(iter(data["bags"].values()))
    manifest.write_text(json.dumps(data))
    with pytest.raises(DataFormatError, match="no clinical row"):
        load_cohort(manifest)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

class _FailsMidway:
    """A binary file that takes `budget` bytes, then fails like a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        self.fh.write(bytes(data[:max(self.budget, 0)]))
        self.budget -= len(data)
        if self.budget < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _write_checkpoint(path, seed):
    model = build_model(ModelConfig(feature_dim=6, category_sizes=(2, 3), width=4),
                        seed=seed)
    save_checkpoint(path, model, np.array([1.0, 2.0]))


def _write_metrics(path, seed):
    write_json(path, {"seed": seed, "c_index": [0.5] * 20})


def _write_selection_report(path, seed):
    expression = [np.random.default_rng(seed).uniform(1.0, 9.0, size=(4, 8))]
    selection = differential_select(expression, RiskGroups(np.arange(4),
                                                           np.arange(4, 8), 2.0))
    write_selection_report(path, selection, [["g0", "g1", "g2", "g3"]], ["cat"])


@pytest.mark.parametrize("write", [_write_checkpoint, _write_metrics,
                                   _write_selection_report],
                         ids=["checkpoint", "json", "selection_report"])
def test_a_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.bin"
    write(path, seed=0)
    before = path.read_bytes()
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailsMidway(fh, 40) if "w" in mode and "b" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="No space left"):
        write(path, seed=1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    write(path, seed=1)
    assert path.read_bytes() != before
