import builtins
import csv
import errno
import struct
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from histodistill import training
from histodistill.checkpoint import CheckpointData, save_checkpoint
from histodistill.datasets import (CATEGORY_NAMES, GenomicProfile, PatchBag,
                                   SynthConfig, synth_generate)
from histodistill.errors import DataFormatError
from histodistill.geneselect import (RiskGroups, differential_select,
                                     write_selection_report)
from histodistill.io import (BAG_MAGIC, load_cohort, read_bag, read_clinical,
                             read_genomics, write_bag, write_clinical,
                             write_cohort, write_genomics)
from histodistill.model import ModelConfig, build_model
from histodistill.stats import (SpearmanReport, km_curve, write_km_tsv,
                                write_spearman_tsv)
from histodistill.training import TrainConfig, write_json

# The gene panel of the prep_wide_genome benchmark workload: 2,200 genes.
PREP_SHAPED = SynthConfig(patch_range=(8, 16),
                          gene_counts=(100, 300, 500, 350, 500, 450))


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


@pytest.mark.parametrize("sidecar, line_no", [
    pytest.param('gene_id\tcategory\n"g0"\toncogenesis\n', 2, id="quoted_gene_id"),
    pytest.param('gene_id\tcategory\ng0\t"oncogenesis"\n', 2, id="quoted_category"),
    pytest.param('gene_id\tcategory\r\n\r\ng1\toncogenesis\r\ng0"\toncogenesis\r\n', 4,
                 id="stray_quote_after_blank_line"),
    pytest.param('"gene_id"\tcategory\ng0\toncogenesis\n', 1, id="quoted_header"),
])
def test_genomics_sidecar_has_no_quoting_either(tmp_path, sidecar, line_no):
    # csv would read '"g0"' as g0; the sidecar follows the matrix's rule
    cats = tmp_path / "cats.tsv"
    cats.write_bytes(sidecar.encode())
    (tmp_path / "expr.tsv").write_text("gene_id\tp0\ng0\t1.0\n")
    with pytest.raises(DataFormatError) as caught:
        read_genomics(tmp_path / "expr.tsv", cats)
    assert str(caught.value).startswith(f"{cats}: line {line_no}: ")


def test_genomics_sidecar_line_ends_and_blank_lines(tmp_path):
    (tmp_path / "expr.tsv").write_text("gene_id\tp0\ng0\t1.0\ng1\t2.0\n")
    for ending in ("\n", "\r\n", "\r"):
        cats = tmp_path / "cats.tsv"
        cats.write_bytes(ending.join(["gene_id\tcategory", "g0\toncogenesis", "",
                                      "g1\ttranscription"]).encode())
        _, gene_ids = read_genomics(tmp_path / "expr.tsv", cats)
        assert gene_ids == (("g0",), ("g1",))


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


def _csv_float_read_genomics(matrix_path, categories_path):
    """The former csv-and-`float()` reader, verbatim: the oracle for the bulk one."""
    categories_path = Path(categories_path)
    gene_category: dict[str, str] = {}
    with open(categories_path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header != ["gene_id", "category"]:
            raise DataFormatError(f"{categories_path}: line 1: expected header "
                                  f"'gene_id\\tcategory', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{categories_path}: line {line_no}: "
                                      f"expected 2 fields, got {len(row)}")
            gene_id, category = row
            if category not in CATEGORY_NAMES:
                raise DataFormatError(
                    f"{categories_path}: line {line_no}: unknown category "
                    f"'{category}' (expected one of {', '.join(CATEGORY_NAMES)})")
            if gene_id in gene_category:
                raise DataFormatError(f"{categories_path}: line {line_no}: "
                                      f"duplicate gene id '{gene_id}'")
            gene_category[gene_id] = category

    matrix_path = Path(matrix_path)
    per_category_ids: dict[str, list[str]] = {name: [] for name in CATEGORY_NAMES}
    per_category_rows: dict[str, list[np.ndarray]] = {name: [] for name in CATEGORY_NAMES}
    with open(matrix_path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if not header or header[0] != "gene_id" or len(header) < 2:
            raise DataFormatError(f"{matrix_path}: line 1: expected header "
                                  f"'gene_id' then patient ids")
        patient_ids = header[1:]
        if len(set(patient_ids)) != len(patient_ids):
            raise DataFormatError(f"{matrix_path}: line 1: duplicate patient ids")
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + len(patient_ids):
                raise DataFormatError(
                    f"{matrix_path}: line {line_no}: expected "
                    f"{1 + len(patient_ids)} fields, got {len(row)}")
            gene_id = row[0]
            if gene_id in seen:
                raise DataFormatError(f"{matrix_path}: line {line_no}: duplicate "
                                      f"gene id '{gene_id}'")
            seen.add(gene_id)
            category = gene_category.get(gene_id)
            if category is None:
                raise DataFormatError(f"{matrix_path}: line {line_no}: gene "
                                      f"'{gene_id}' missing from category sidecar")
            try:
                values = np.array([float(v) for v in row[1:]])
            except ValueError:
                raise DataFormatError(f"{matrix_path}: line {line_no}: "
                                      f"non-numeric expression value") from None
            if not np.all(np.isfinite(values)):
                raise DataFormatError(f"{matrix_path}: line {line_no}: "
                                      f"non-finite expression value")
            per_category_ids[category].append(gene_id)
            per_category_rows[category].append(values)

    present = [name for name in CATEGORY_NAMES if per_category_ids[name]]
    if not present:
        raise DataFormatError(f"{matrix_path}: no gene rows")
    gene_ids = tuple(tuple(per_category_ids[name]) for name in present)
    stacks = {name: np.stack(per_category_rows[name]) for name in present}
    profiles = {}
    for j, patient_id in enumerate(patient_ids):
        vectors = tuple(stacks[name][:, j] for name in present)
        profiles[patient_id] = GenomicProfile(tuple(present), vectors)
    return profiles, gene_ids


def _csv_write_genomics(matrix_path, categories_path, cohort):
    """The former csv writer, verbatim: the oracle for the writer's bytes."""
    if cohort.gene_ids is None or cohort.category_names is None:
        raise DataFormatError("cohort carries no genomics to write")
    patient_ids = [p.patient_id for p in cohort]
    with open(matrix_path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["gene_id", *patient_ids])
        for c, ids in enumerate(cohort.gene_ids):
            for g, gene_id in enumerate(ids):
                values = [repr(float(p.genes.vectors[c][g])) for p in cohort]
                writer.writerow([gene_id, *values])
    with open(categories_path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["gene_id", "category"])
        for name, ids in zip(cohort.category_names, cohort.gene_ids):
            for gene_id in ids:
                writer.writerow([gene_id, name])


def _assert_same_genomics(got, expected):
    (profiles, gene_ids), (ref_profiles, ref_gene_ids) = got, expected
    assert gene_ids == ref_gene_ids
    assert list(profiles) == list(ref_profiles)
    for patient_id, ref in ref_profiles.items():
        assert profiles[patient_id].category_names == ref.category_names
        for va, vb in zip(profiles[patient_id].vectors, ref.vectors):
            np.testing.assert_array_equal(va.view(np.int64), vb.view(np.int64))


@pytest.fixture(scope="module", params=["default", "prep_shaped"])
def genomics_cohort(request):
    config = SynthConfig() if request.param == "default" else PREP_SHAPED
    return synth_generate(config, seed=0)[0]


def test_genomics_reader_keeps_the_bits_of_the_csv_float_reader(tmp_path,
                                                                genomics_cohort):
    matrix, sidecar = tmp_path / "expr.tsv", tmp_path / "cats.tsv"
    _csv_write_genomics(matrix, sidecar, genomics_cohort)
    _assert_same_genomics(read_genomics(matrix, sidecar),
                          _csv_float_read_genomics(matrix, sidecar))


def test_genomics_writer_bytes_equal_the_csv_writer(tmp_path, genomics_cohort):
    _csv_write_genomics(tmp_path / "ref.tsv", tmp_path / "ref_cats.tsv",
                        genomics_cohort)
    write_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv", genomics_cohort)
    assert (tmp_path / "expr.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()
    assert ((tmp_path / "cats.tsv").read_bytes()
            == (tmp_path / "ref_cats.tsv").read_bytes())


_SIDECAR = "gene_id\tcategory\ng0\toncogenesis\ng1\ttranscription\ng2\toncogenesis\n"


@pytest.mark.parametrize("text", [
    "gene_id\tp0\tp1\r\ng0\t1.5\t-2\r\ng1\t0.1\t3e-5\r\ng2\t7\t8\r\n",
    "gene_id\tp0\tp1\n\ng0\t1.5\t2\n\n\ng1\t1E5\t-1e+05\n\r\ng2\t+3\t.5\n\n",
    "gene_id\tp0\tp1\ng0\t1.5\t2\ng1\t3\t4\ng2\t5\t6",
    "gene_id\tp0\tp1\ng0\t 1.5 \t2 \ng1\t  3\t4\ng2\t5\t6\n",
    "gene_id\tp0\tp1\ng0\t-0.0\t0.0\ng1\t5e-324\t-4.9406564584124654e-324\n"
    "g2\t2.2250738585072011e-308\t1e-320\n",
    "gene_id\tp0\tp1\ng0\t0.1000000000000000055511151231257827\t9007199254740993\n"
    "g1\t1.7976931348623157e308\t-1.7976931348623157e308\n"
    "g2\t123456789012345678901234567890\t0.30000000000000004\n",
], ids=["crlf", "blank_lines", "no_final_newline", "padding", "zeros_subnormals",
        "rounding"])
def test_genomics_reader_matches_the_csv_float_reader_on_hand_written_files(
        tmp_path, text):
    (tmp_path / "cats.tsv").write_text(_SIDECAR)
    (tmp_path / "expr.tsv").write_bytes(text.encode())
    _assert_same_genomics(read_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv"),
                          _csv_float_read_genomics(tmp_path / "expr.tsv",
                                                   tmp_path / "cats.tsv"))


@pytest.mark.parametrize("rows, message", [
    (["g0\t1\t2", "g1\t3", "g2\t5\t6"], r"line 3: expected 3 fields, got 2"),
    (["g0\t1\t2", "g1\t3\t4\t5"], r"line 3: expected 3 fields, got 4"),
    (["g0\t1\t2", "", "g0\t3\t4"], r"line 4: duplicate gene id 'g0'"),
    (["g0\t1\t2", "gX\t3\t4"], r"line 3: gene 'gX' missing from category sidecar"),
    (["g0\t1\t2", "g1\t\t4"], r"line 3: non-numeric expression value"),
    (["g0\t1\t2", "g1\t3\t"], r"line 3: non-numeric expression value"),
    (["g0\t1\t2", "g1\t3\tabc"], r"line 3: non-numeric expression value"),
    (["g0\t1\t2", "g1\t3\t4", "g2\t1_0\t4"], r"line 4: non-numeric expression value"),
    (["g0\t1\t2", "g1\t3\tnan"], r"line 3: non-finite expression value"),
    (["g0\t1\t2", "g1\t-inf\t2"], r"line 3: non-finite expression value"),
    (["g0\t1\t2", "g1\t1e400\t2"], r"line 3: non-finite expression value"),
    (["g0\t1\t2", 'g1\t"3"\t4'], r"line 3: '\"' in a field"),
    (['"g0"\t1\t2'], r"line 2: '\"' in a field"),
    ([], r"no gene rows"),
    (["", ""], r"no gene rows"),
], ids=["too_few_fields", "too_many_fields", "duplicate_id", "missing_from_sidecar",
        "empty_field", "empty_last_field", "non_numeric", "underscore", "nan",
        "minus_inf", "overflow", "quoted_value", "quoted_gene_id", "no_rows",
        "only_blank_lines"])
def test_genomics_errors_name_the_line(tmp_path, rows, message):
    (tmp_path / "cats.tsv").write_text(_SIDECAR)
    expr = tmp_path / "expr.tsv"
    expr.write_text("\n".join(["gene_id\tp0\tp1", *rows]) + "\n")
    with pytest.raises(DataFormatError, match=rf"expr\.tsv: {message}"):
        read_genomics(expr, tmp_path / "cats.tsv")


def test_genomics_rejects_a_quoted_header_field(tmp_path):
    (tmp_path / "cats.tsv").write_text(_SIDECAR)
    (tmp_path / "expr.tsv").write_text('gene_id\t"p0"\ng0\t1\n')
    with pytest.raises(DataFormatError, match=r"line 1: '\"' in a field"):
        read_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv")


def test_genomics_accepted_float_underscores_and_now_rejects_them(tmp_path):
    (tmp_path / "cats.tsv").write_text(_SIDECAR)
    (tmp_path / "expr.tsv").write_text("gene_id\tp0\ng0\t1_0\n")
    profiles, _ = _csv_float_read_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv")
    assert profiles["p0"].vectors[0][0] == 10.0
    with pytest.raises(DataFormatError, match="line 2: non-numeric"):
        read_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv")


@pytest.mark.parametrize("bad, message", [
    ("x", "line 60000: non-numeric expression value"),
    ("inf", "line 60000: non-finite expression value"),
    ("1\t2", "line 60000: expected 2 fields, got 3"),
])
def test_genomics_errors_past_the_parsers_first_chunk_name_the_line(tmp_path, bad,
                                                                   message):
    n_genes = 60_500
    (tmp_path / "cats.tsv").write_text(
        "gene_id\tcategory\n" + "".join(f"g{i}\toncogenesis\n" for i in range(n_genes)))
    values = ["1.25"] * n_genes
    values[60_000 - 2] = bad
    (tmp_path / "expr.tsv").write_text(
        "gene_id\tp0\n" + "".join(f"g{i}\t{v}\n" for i, v in enumerate(values)))
    with pytest.raises(DataFormatError, match=message):
        read_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv")


@pytest.mark.parametrize("bad_id", ["a\tb", "a\rb", "a\nb", 'a"b'])
@pytest.mark.parametrize("kind", ["gene", "patient"])
def test_genomics_writer_rejects_ids_it_would_have_to_quote(tmp_path, bad_id, kind):
    cohort = synth_generate(SynthConfig(n_patients=3, patch_range=(2, 2),
                                        feature_dim=3, n_prototypes=2), seed=1)[0]
    if kind == "gene":
        cohort.gene_ids = (cohort.gene_ids[0][:-1] + (bad_id,),
                           *cohort.gene_ids[1:])
    else:
        cohort[1].bag.patient_id = bad_id
    with pytest.raises(DataFormatError, match=f"{kind} id"):
        write_genomics(tmp_path / "expr.tsv", tmp_path / "cats.tsv", cohort)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("name", ["toy_manifest.json", "toy_clinical.csv",
                                  "toy_genomics.tsv", "toy_gene_categories.tsv"])
def test_load_cohort_names_the_file_and_line_of_a_byte_that_is_not_utf8(
        tmp_path, synth_cohort, name):
    write_cohort(tmp_path, synth_cohort, name="toy")
    path = tmp_path / name
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataFormatError, match=f"{name}: line 3: byte 0xff is not UTF-8"):
        load_cohort(tmp_path / "toy_manifest.json")


@pytest.mark.parametrize("edit, message", [
    (lambda data: list(data), "must be a JSON object"),
    (lambda data: {**data, "bags": list(data["bags"].values())}, "'bags' must map"),
    (lambda data: {**data, "bags": dict.fromkeys(data["bags"], 3)}, "'bags' must map"),
    (lambda data: {**data, "clinical": 7}, "'clinical' must be a file path"),
    (lambda data: {**data, "genomics": ["a.tsv"]}, "'genomics' must be a file path"),
])
def test_load_cohort_rejects_a_manifest_of_the_wrong_shape(tmp_path, synth_cohort,
                                                           edit, message):
    import json
    manifest = write_cohort(tmp_path, synth_cohort, name="toy")
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    with pytest.raises(DataFormatError, match=message) as err:
        load_cohort(manifest)
    assert str(manifest) in str(err.value)


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


def _write_km(path, seed):
    rng = np.random.default_rng(seed)
    times, censor = rng.uniform(1.0, 60.0, size=12), np.arange(12) % 3 == 2
    write_km_tsv(path, [("low", km_curve(times[:6], censor[:6])),
                        ("high", km_curve(times[6:], censor[6:]))])


def _write_spearman(path, seed):
    rng = np.random.default_rng(seed)
    write_spearman_tsv(path, SpearmanReport(("oncogenesis", "transcription"),
                                            (rng.uniform(size=5), np.array([])),
                                            ("transcription",)))


def _write_sweep_k(path, seed):
    def cross_validate(cohort, config, out_dir):
        return SimpleNamespace(c_index_mean=config.k_percent / 100 + seed,
                               c_index_std=0.25)

    with mock.patch.object(training, "cross_validate", cross_validate):
        training.sweep_k(None, TrainConfig(), path.parent, grid=(5, 10, 20))


def _write_associations(path, seed):
    model = build_model(ModelConfig(feature_dim=6, category_sizes=(2, 3), width=4),
                        seed=seed)
    ckpt = CheckpointData(model, np.array([1.0, 2.0]), None, None,
                          ["oncogenesis", "transcription"], None, None)
    features = np.random.default_rng(seed).normal(size=(5, 6)).astype(np.float32)
    training.export_associations(ckpt, features, path)


def _genomics_cohort(seed):
    config = SynthConfig(n_patients=4, patch_range=(2, 2), feature_dim=3,
                         n_prototypes=2, gene_counts=(2 + seed, 3, 2, 2, 2, 2))
    return synth_generate(config, seed=seed)[0]


def _write_genomics_matrix(path, seed):
    write_genomics(path, path.with_name("cats.tsv"), _genomics_cohort(seed))


def _write_genomics_sidecar(path, seed):
    write_genomics(path.with_name("expr.tsv"), path, _genomics_cohort(seed))


def _write_bag(path, seed):
    write_bag(path, PatchBag("p0", np.random.default_rng(seed).normal(size=(3, 4))))


def _write_clinical(path, seed):
    times = np.random.default_rng(seed).uniform(1.0, 60.0, size=4)
    write_clinical(path, [(f"p{i}", t, i % 2) for i, t in enumerate(times)])


def _write_manifest(path, seed):
    # a cohort of 4 + seed patients lists a different set of bags
    config = SynthConfig(n_patients=4 + seed, patch_range=(2, 2), feature_dim=3,
                         n_prototypes=2)
    write_cohort(path.parent, synth_generate(config, seed=seed)[0],
                 name=path.name.removesuffix("_manifest.json"))


@pytest.mark.parametrize("write, name", [
    pytest.param(_write_checkpoint, "out.bin", id="checkpoint"),
    pytest.param(_write_metrics, "out.bin", id="json"),
    pytest.param(_write_selection_report, "out.bin", id="selection_report"),
    pytest.param(_write_km, "km.tsv", id="km_tsv"),
    pytest.param(_write_spearman, "spearman.tsv", id="spearman_tsv"),
    pytest.param(_write_sweep_k, "sweep_k.tsv", id="sweep_k_tsv"),
    pytest.param(_write_associations, "assoc.tsv", id="export_assoc_tsv"),
    pytest.param(_write_genomics_matrix, "expr.tsv", id="genomics_matrix"),
    pytest.param(_write_genomics_sidecar, "cats.tsv", id="genomics_sidecar"),
    pytest.param(_write_bag, "p0.bag", id="bag"),
    pytest.param(_write_clinical, "clinical.csv", id="clinical_csv"),
    pytest.param(_write_manifest, "c_manifest.json", id="manifest"),
])
def test_a_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch,
                                                       write, name):
    path = tmp_path / name
    write(path, seed=0)
    before = path.read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        # only writes to `path`, or to a temporary file named after it
        writes_path = "w" in mode and "b" in mode and name in Path(file).name
        return _FailsMidway(fh, 40) if writes_path else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="No space left"):
        write(path, seed=1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    write(path, seed=1)
    assert path.read_bytes() != before
