"""On-disk formats: patch-bag binary, clinical CSV, genomics TSV, manifest.

Bag files are little-endian binary ("GHB1" magic, u32 patch count, u32
feature dim, float32 row-major data), so write -> read round trips are
bit-exact. Text formats are plain csv/tsv readable by anything.
`write_atomic` is the write path for outputs that must never be left
half-written: checkpoints, JSON results, reports, and every file of a
cohort (`write_cohort`).
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import struct
from io import StringIO
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .datasets import (CATEGORY_NAMES, Cohort, GenomicProfile, PatchBag,
                       Patient, SurvivalLabel)
from .errors import DataFormatError

BAG_MAGIC = b"GHB1"
_BAG_HEADER = struct.Struct("<4sII")


@contextlib.contextmanager
def _utf8(path: Path) -> Iterator[None]:
    """Text reads of `path` inside the block decode UTF-8; a byte that does
    not decode is a DataFormatError naming the file and its line."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as err:
                    byte = line[err.start]
                    raise DataFormatError(f"{path}: line {line_no}: byte {byte:#04x} "
                                          f"is not UTF-8") from None
        raise DataFormatError(f"{path}: not UTF-8 text") from None


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Run `write` on a temporary file beside `path`, then rename it over `path`.

    `path` holds the old bytes or all of the new ones, never part of them.
    If `write` raises or the process is interrupted, the temporary file is
    removed; a killed process may leave it behind. Nothing is fsynced, so
    this guards against a failed process, not against power loss.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            write(fh)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_bag(path: str | Path, bag: PatchBag) -> None:
    features = np.ascontiguousarray(bag.features, dtype="<f4")
    header = _BAG_HEADER.pack(BAG_MAGIC, bag.n_patches, bag.feature_dim)

    def write(fh):
        fh.write(header)
        fh.write(memoryview(features).cast("B"))

    write_atomic(path, write)


def read_bag(path: str | Path, patient_id: str | None = None) -> PatchBag:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _BAG_HEADER.size:
        raise DataFormatError(
            f"{path}: truncated header, {len(raw)} bytes (need {_BAG_HEADER.size})")
    magic, n_patches, dim = _BAG_HEADER.unpack_from(raw)
    if magic != BAG_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r} at byte 0, "
                              f"expected {BAG_MAGIC!r}")
    for offset, field, value in ((4, "patch count", n_patches), (8, "feature dim", dim)):
        if value == 0:
            raise DataFormatError(f"{path}: {field} is 0 at byte offset {offset}")
    expected = _BAG_HEADER.size + 4 * n_patches * dim
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: truncated payload, {len(raw)} bytes (need {expected} "
            f"for a {n_patches}x{dim} bag)")
    flat = np.frombuffer(raw, dtype="<f4", offset=_BAG_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        offset = _BAG_HEADER.size + 4 * int(bad[0])
        raise DataFormatError(f"{path}: non-finite value at byte offset {offset}")
    features = flat.reshape(n_patches, dim).copy()
    return PatchBag(patient_id or path.stem, features)


# ---------------------------------------------------------------------------
# clinical CSV
# ---------------------------------------------------------------------------

CLINICAL_HEADER = ["patient_id", "time_months", "censor"]


def write_clinical(path: str | Path, patients: list[tuple[str, float, int]]) -> None:
    text = StringIO()
    writer = csv.writer(text)
    writer.writerow(CLINICAL_HEADER)
    for patient_id, time_months, censor in patients:
        writer.writerow([patient_id, repr(float(time_months)), censor])
    data = text.getvalue().encode("utf-8")
    write_atomic(path, lambda fh: fh.write(data))


def read_clinical(path: str | Path) -> dict[str, SurvivalLabel]:
    path = Path(path)
    labels: dict[str, SurvivalLabel] = {}
    with open(path, newline="", encoding="utf-8") as fh, _utf8(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CLINICAL_HEADER:
            raise DataFormatError(f"{path}: line 1: expected header "
                                  f"{','.join(CLINICAL_HEADER)!r}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}: line {line_no}: expected 3 fields, "
                                      f"got {len(row)}")
            patient_id, time_field, censor_field = row
            if patient_id in labels:
                raise DataFormatError(
                    f"{path}: line {line_no}: duplicate patient id '{patient_id}'")
            try:
                time_months = float(time_field)
            except ValueError:
                raise DataFormatError(f"{path}: line {line_no}: bad time "
                                      f"'{time_field}'") from None
            if not np.isfinite(time_months) or time_months <= 0:
                raise DataFormatError(f"{path}: line {line_no}: time must be a "
                                      f"positive number, got '{time_field}'")
            if censor_field not in ("0", "1"):
                raise DataFormatError(f"{path}: line {line_no}: censor must be "
                                      f"0 or 1, got '{censor_field}'")
            labels[patient_id] = SurvivalLabel(time_months, int(censor_field))
    if not labels:
        raise DataFormatError(f"{path}: no patient rows")
    return labels


# ---------------------------------------------------------------------------
# genomics TSV (expression matrix + category sidecar)
# ---------------------------------------------------------------------------

# The matrix is plain tab-separated text with no quoting: no field holds a
# tab, a line break or '"', and the writer refuses ids that would need
# quoting. Expression values are what `float()` parses, minus '_' digit
# separators, and must be finite.

_NOT_IN_FIELDS = ("\t", "\r", "\n", '"')
# Data lines per `np.loadtxt` call when a bad value is located again.
_RESCAN_LINES = 1024
# Genes per (genes x patients) block the writer stacks: small blocks reuse
# freed heap space, where a whole category's stack raised peak RSS.
_WRITE_BLOCK_GENES = 64


def _check_ids(path: Path, kind: str, ids) -> None:
    for id_ in ids:
        if any(c in id_ for c in _NOT_IN_FIELDS):
            raise DataFormatError(f"{path}: {kind} id {id_!r} contains a tab, a "
                                  f"line break or '\"'; the genomics files have "
                                  f"no quoting")


def write_genomics(matrix_path: str | Path, categories_path: str | Path,
                   cohort: Cohort) -> None:
    """Expression matrix (genes x patients) plus gene -> category sidecar.

    Values are written as `repr(float)`, lines end in CRLF, and each file
    is replaced atomically (`write_atomic`).
    """
    if cohort.gene_ids is None or cohort.category_names is None:
        raise DataFormatError("cohort carries no genomics to write")
    matrix_path = Path(matrix_path)
    patient_ids = [p.patient_id for p in cohort]
    _check_ids(matrix_path, "patient", patient_ids)
    for ids in cohort.gene_ids:
        _check_ids(matrix_path, "gene", ids)

    def write_matrix(fh):
        fh.write(("\t".join(["gene_id", *patient_ids]) + "\r\n").encode())
        for c, ids in enumerate(cohort.gene_ids):
            vectors = [p.genes.vectors[c] for p in cohort]
            for start in range(0, len(ids), _WRITE_BLOCK_GENES):
                stop = start + _WRITE_BLOCK_GENES
                block = np.stack([v[start:stop] for v in vectors], axis=1)
                for gene_id, row in zip(ids[start:stop], block):
                    line = "\t".join([gene_id, *map(repr, row.tolist())]) + "\r\n"
                    fh.write(line.encode())

    def write_categories(fh):
        fh.write(b"gene_id\tcategory\r\n")
        for name, ids in zip(cohort.category_names, cohort.gene_ids):
            fh.write("".join(f"{gene_id}\t{name}\r\n" for gene_id in ids).encode())

    write_atomic(matrix_path, write_matrix)
    write_atomic(categories_path, write_categories)


def _read_gene_categories(path: Path) -> dict[str, str]:
    """gene id -> category from the sidecar, read by the matrix's own rules:
    tab-separated, no quoting, blank lines skipped."""
    gene_category: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh, _utf8(path):
        header = fh.readline().rstrip("\r\n").split("\t")
        if header != ["gene_id", "category"]:
            raise DataFormatError(f"{path}: line 1: expected header "
                                  f"'gene_id\\tcategory', got {header}")
        for line_no, line in _data_lines(fh, start=2):
            if '"' in line:
                raise DataFormatError(f"{path}: line {line_no}: '\"' in a field; "
                                      f"the category sidecar has no quoting")
            row = line.split("\t")
            if len(row) != 2:
                raise DataFormatError(f"{path}: line {line_no}: "
                                      f"expected 2 fields, got {len(row)}")
            gene_id, category = row
            if category not in CATEGORY_NAMES:
                raise DataFormatError(
                    f"{path}: line {line_no}: unknown category "
                    f"'{category}' (expected one of {', '.join(CATEGORY_NAMES)})")
            if gene_id in gene_category:
                raise DataFormatError(f"{path}: line {line_no}: "
                                      f"duplicate gene id '{gene_id}'")
            gene_category[gene_id] = category
    return gene_category


def _data_lines(fh, start: int) -> Iterator[tuple[int, str]]:
    """(line number, text without its line end) for each non-blank line."""
    for line_no, line in enumerate(fh, start):
        line = line.rstrip("\r\n")
        if line:
            yield line_no, line


def _parse_values(lines: Iterable[str], n_fields: int) -> np.ndarray:
    """Fields 1.. of every line as float64, one C-level pass.

    `np.loadtxt` converts with the same correctly rounded
    `PyOS_string_to_double` as `float()`, so the bits are the same.
    """
    return np.loadtxt(lines, dtype=np.float64, delimiter="\t",
                      usecols=range(1, n_fields), comments=None,
                      quotechar=None, ndmin=2)


def _first_unparsable_line(path: Path, n_fields: int) -> int | None:
    """Line number of the first data line `_parse_values` rejects."""
    def parses(lines: list[str]) -> bool:
        try:
            _parse_values(lines, n_fields)
        except ValueError:
            return False
        return True

    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        lines = _data_lines(fh, start=2)
        while chunk := list(islice(lines, _RESCAN_LINES)):
            if not parses([line for _, line in chunk]):
                return next((line_no for line_no, line in chunk
                             if not parses([line])), None)
    return None


def read_genomics(matrix_path: str | Path, categories_path: str | Path,
                  ) -> tuple[dict[str, GenomicProfile], tuple[tuple[str, ...], ...]]:
    """Returns per-patient profiles plus per-category gene id lists.

    Categories follow the canonical fixed order; genes keep file order
    within each category. The matrix is streamed: each line is checked as
    the parser pulls it, and the file text is never held whole.
    """
    gene_category = _read_gene_categories(Path(categories_path))
    matrix_path = Path(matrix_path)
    rows_by_category: dict[str, list[int]] = {}
    ids_by_category: dict[str, list[str]] = {}
    line_numbers: list[int] = []
    with open(matrix_path, newline="", encoding="utf-8") as fh, _utf8(matrix_path):
        header_line = fh.readline().rstrip("\r\n")
        if '"' in header_line:
            raise DataFormatError(f"{matrix_path}: line 1: '\"' in a field; the "
                                  f"matrix has no quoting")
        header = header_line.split("\t")
        if header[0] != "gene_id" or len(header) < 2:
            raise DataFormatError(f"{matrix_path}: line 1: expected header "
                                  f"'gene_id' then patient ids")
        patient_ids = header[1:]
        if len(set(patient_ids)) != len(patient_ids):
            raise DataFormatError(f"{matrix_path}: line 1: duplicate patient ids")
        n_fields = len(header)

        def gene_rows() -> Iterator[str]:
            seen: set[str] = set()
            for line_no, line in _data_lines(fh, start=2):
                if '"' in line:
                    raise DataFormatError(f"{matrix_path}: line {line_no}: '\"' "
                                          f"in a field; the matrix has no quoting")
                n_tabs = line.count("\t")
                if n_tabs != n_fields - 1:
                    raise DataFormatError(
                        f"{matrix_path}: line {line_no}: expected "
                        f"{n_fields} fields, got {n_tabs + 1}")
                gene_id = line[:line.index("\t")]
                if gene_id in seen:
                    raise DataFormatError(f"{matrix_path}: line {line_no}: "
                                          f"duplicate gene id '{gene_id}'")
                seen.add(gene_id)
                category = gene_category.get(gene_id)
                if category is None:
                    raise DataFormatError(f"{matrix_path}: line {line_no}: gene "
                                          f"'{gene_id}' missing from category sidecar")
                rows_by_category.setdefault(category, []).append(len(line_numbers))
                ids_by_category.setdefault(category, []).append(gene_id)
                line_numbers.append(line_no)
                yield line

        rows = gene_rows()
        first = next(rows, None)
        if first is None:
            raise DataFormatError(f"{matrix_path}: no gene rows")
        try:
            values = _parse_values(chain((first,), rows), n_fields)
        except (DataFormatError, UnicodeDecodeError):
            raise
        except ValueError:
            line_no = _first_unparsable_line(matrix_path, n_fields)
            if line_no is None:
                raise
            raise DataFormatError(f"{matrix_path}: line {line_no}: "
                                  f"non-numeric expression value") from None

    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        line_no = line_numbers[int(np.argmin(finite))]
        raise DataFormatError(f"{matrix_path}: line {line_no}: "
                              f"non-finite expression value")
    present = [name for name in CATEGORY_NAMES if name in rows_by_category]
    gene_ids = tuple(tuple(ids_by_category[name]) for name in present)
    # one row take into category order, skipped for a file already in it
    # (as `write_genomics` writes): the stacks are then views, and no second
    # copy of the matrix raises peak RSS
    order = np.concatenate([rows_by_category[name] for name in present])
    if (order != np.arange(order.size)).any():
        values = values.take(order, axis=0)
    stacks = np.split(values, np.cumsum([len(ids) for ids in gene_ids])[:-1])
    profiles = {}
    for j, patient_id in enumerate(patient_ids):
        vectors = tuple(stack[:, j] for stack in stacks)
        profiles[patient_id] = GenomicProfile(tuple(present), vectors)
    return profiles, gene_ids


# ---------------------------------------------------------------------------
# cohort manifest
# ---------------------------------------------------------------------------

def write_cohort(out_dir: str | Path, cohort: Cohort,
                 name: str = "cohort") -> Path:
    """Writes bags, clinical CSV, genomics (when present), and a manifest.

    Returns the manifest path; all entries inside it are relative to the
    manifest's directory. Each file is replaced atomically (`write_atomic`).
    """
    out_dir = Path(out_dir)
    bag_dir = out_dir / "bags"
    bag_dir.mkdir(parents=True, exist_ok=True)
    bag_paths = {}
    for patient in cohort:
        rel = f"bags/{patient.patient_id}.bag"
        write_bag(out_dir / rel, patient.bag)
        bag_paths[patient.patient_id] = rel

    clinical_rel = f"{name}_clinical.csv"
    write_clinical(out_dir / clinical_rel,
                   [(p.patient_id, p.label.time_months, p.label.censor)
                    for p in cohort])

    manifest = {"clinical": clinical_rel, "bags": bag_paths}
    if cohort.category_sizes is not None:
        matrix_rel = f"{name}_genomics.tsv"
        categories_rel = f"{name}_gene_categories.tsv"
        write_genomics(out_dir / matrix_rel, out_dir / categories_rel, cohort)
        manifest["genomics"] = matrix_rel
        manifest["gene_categories"] = categories_rel

    manifest_path = out_dir / f"{name}_manifest.json"
    data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    write_atomic(manifest_path, lambda fh: fh.write(data))
    return manifest_path


def load_cohort(manifest_path: str | Path, with_genomics: bool = True) -> Cohort:
    """Reads a manifest back into a cohort.

    with_genomics=False skips the genomics files entirely (they may be
    absent from disk); the returned patients then carry no profiles.
    """
    manifest_path = Path(manifest_path)
    try:
        with _utf8(manifest_path):
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise DataFormatError(f"{manifest_path}: invalid JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: the manifest must be a JSON object")
    for key in ("clinical", "bags"):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path}: missing '{key}' entry")
    for key in ("clinical", "genomics", "gene_categories"):
        if not isinstance(manifest.get(key, ""), str):
            raise DataFormatError(f"{manifest_path}: '{key}' must be a file path")
    if not (isinstance(manifest["bags"], dict)
            and all(isinstance(rel, str) for rel in manifest["bags"].values())):
        raise DataFormatError(f"{manifest_path}: 'bags' must map patient ids to "
                              f"bag file paths")
    base = manifest_path.parent
    labels = read_clinical(base / manifest["clinical"])

    profiles: dict[str, GenomicProfile] = {}
    gene_ids = None
    if with_genomics and "genomics" in manifest:
        if "gene_categories" not in manifest:
            raise DataFormatError(f"{manifest_path}: genomics listed without "
                                  f"'gene_categories'")
        profiles, gene_ids = read_genomics(base / manifest["genomics"],
                                           base / manifest["gene_categories"])

    patients = []
    for patient_id, rel in sorted(manifest["bags"].items()):
        if patient_id not in labels:
            raise DataFormatError(f"{manifest_path}: bag entry '{patient_id}' "
                                  f"has no clinical row")
        genes = None
        if profiles:
            genes = profiles.get(patient_id)
            if genes is None:
                raise DataFormatError(f"{manifest_path}: patient '{patient_id}' "
                                      f"missing from genomics matrix")
        patients.append(Patient(read_bag(base / rel, patient_id),
                                labels[patient_id], genes))
    cohort = Cohort(patients, gene_ids=gene_ids)
    cohort.validate()
    return cohort
