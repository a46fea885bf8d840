"""Checkpoint serialization: model weights plus everything eval needs.

Binary layout: magic "GHCK", u32 format version, u32 JSON header length,
the UTF-8 JSON header, then one float32 little-endian blob per weight
entry in header order, written to a temporary file and renamed into
place (`io.write_atomic`). The header carries the model configuration, bin
boundaries, gene standardization, and the per-category selected genes, so
a checkpoint alone supports image-only inference and analysis exports.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .io import write_atomic
from .model import ModelConfig, ModelParams, init_model

CHECKPOINT_MAGIC = b"GHCK"
CHECKPOINT_VERSION = 1
_PREFIX = struct.Struct("<4sII")


@dataclass
class CheckpointData:
    model: ModelParams
    bin_boundaries: np.ndarray
    standardization: dict | None            # {"mean": [...per category...], "std": [...]}
    selected_genes: list[list[int]] | None  # per category, into the full gene lists
    category_names: list[str]
    gene_ids: list[list[str]] | None        # ids of the selected genes
    train_config: dict | None


class _NoDraws:
    """`init_model`'s generator for a load: every tensor starts at zero, as
    the file overwrites them all, so no random number is drawn."""
    def uniform(self, low, high, size):
        return np.zeros(size)

    normal = uniform


def _per_category(value, leaf, sizes: tuple[int, ...]) -> bool:
    """True for a list holding one list of `leaf` values per category size."""
    if not isinstance(value, list) or len(value) != len(sizes):
        return False
    return all(isinstance(row, list) and len(row) == n
               and all(isinstance(v, leaf) and not isinstance(v, bool) for v in row)
               for row, n in zip(value, sizes))


def _check_optional_keys(path: Path, header: dict, sizes: tuple[int, ...]) -> None:
    """Each optional header key is absent, null, or shaped as `save_checkpoint`
    writes it; per-category tables hold one entry per reconstructed gene."""
    scaler = header.get("standardization")
    selected = header.get("selected_genes")
    names = header.get("category_names")
    gene_ids = header.get("gene_ids")
    train_config = header.get("train_config")
    malformed = {
        "standardization": not (isinstance(scaler, dict)
                                and set(scaler) == {"mean", "std"}
                                and all(_per_category(v, (int, float), sizes)
                                        for v in scaler.values())),
        "selected_genes": not (_per_category(selected, int, sizes)
                               and all(g >= 0 for row in selected for g in row)),
        "category_names": not (isinstance(names, list)
                               and all(isinstance(n, str) for n in names)),
        "gene_ids": not _per_category(gene_ids, str, sizes),
        "train_config": not isinstance(train_config, dict),
    }
    for key, bad in malformed.items():
        if bad and header.get(key) is not None:
            raise CheckpointError(f"{path}: malformed header key '{key}' (model "
                                  f"category sizes {list(sizes)})")


def save_checkpoint(path: str | Path, model: ModelParams,
                    bin_boundaries: np.ndarray,
                    standardization: dict | None = None,
                    selected_genes: list[list[int]] | None = None,
                    category_names: list[str] | None = None,
                    gene_ids: list[list[str]] | None = None,
                    train_config: dict | None = None) -> None:
    entries = []
    blobs = []
    for name, tensor in model.named_tensors():
        entries.append({"name": name, "shape": list(tensor.shape)})
        blobs.append(np.ascontiguousarray(tensor.values, dtype="<f4").tobytes())
    header = {
        "model_config": model.config.to_dict(),
        "bin_boundaries": [float(b) for b in np.asarray(bin_boundaries)],
        "standardization": standardization,
        "selected_genes": selected_genes,
        "category_names": list(category_names or ()),
        "gene_ids": gene_ids,
        "train_config": train_config,
        "entries": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    def write(fh) -> None:
        fh.write(_PREFIX.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)

    write_atomic(path, write)


def load_checkpoint(path: str | Path) -> CheckpointData:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _PREFIX.size:
        raise CheckpointError(f"{path}: truncated prefix ({len(raw)} bytes)")
    magic, version, header_len = _PREFIX.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, "
                              f"expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version} "
                              f"(this build reads {CHECKPOINT_VERSION})")
    header_end = _PREFIX.size + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[_PREFIX.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable header: {err}") from None

    try:
        config = ModelConfig.from_dict(header["model_config"])
        entries = [(str(entry["name"]), tuple(int(n) for n in entry["shape"]))
                   for entry in header["entries"]]
        bin_boundaries = np.asarray(header["bin_boundaries"], dtype=np.float64)
    except KeyError as err:
        raise CheckpointError(f"{path}: header lacks key {err}") from None
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed header: {err}") from None
    _check_optional_keys(path, header, config.category_sizes)

    model = init_model(config, _NoDraws())
    offset = header_end
    by_name = dict(model.named_tensors())
    stored = [name for name, _ in entries]
    if sorted(stored) != sorted(by_name):
        missing = sorted(set(by_name) - set(stored))
        extra = sorted(set(stored) - set(by_name))
        raise CheckpointError(f"{path}: weight names do not match the "
                              f"configuration (missing {missing}, extra {extra})")
    for name, shape in entries:
        tensor = by_name[name]
        if shape != tensor.shape:
            raise CheckpointError(f"{path}: entry '{name}' has shape "
                                  f"{shape}, model expects {tensor.shape}")
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated data for '{name}'")
        values = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        tensor.assign_(values.astype(np.float64).reshape(shape))
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")

    return CheckpointData(
        model=model,
        bin_boundaries=bin_boundaries,
        standardization=header.get("standardization"),
        selected_genes=header.get("selected_genes"),
        category_names=list(header.get("category_names") or ()),
        gene_ids=header.get("gene_ids"),
        train_config=header.get("train_config"),
    )
