import json
import struct

import numpy as np
import pytest

from histodistill.checkpoint import (CHECKPOINT_MAGIC, load_checkpoint,
                                     save_checkpoint)
from histodistill.errors import CheckpointError
from histodistill.model import ModelConfig, build_model, model_forward


def toy_model(seed=0, **overrides):
    base = dict(feature_dim=6, category_sizes=(2, 3), width=4, heads=2,
                compress_width=3, n_bins=3)
    base.update(overrides)
    return build_model(ModelConfig(**base), seed=seed)


def test_checkpoint_round_trip_preserves_forward(tmp_path):
    model = toy_model(seed=1)
    path = tmp_path / "model.ghck"
    save_checkpoint(path, model, np.array([4.0, 9.0]),
                    standardization={"mean": [[0.0, 0.0], [1.0, 1.0, 1.0]],
                                     "std": [[1.0, 1.0], [2.0, 2.0, 2.0]]},
                    selected_genes=[[0, 1], [0, 2, 4]],
                    category_names=["a", "b"],
                    gene_ids=[["g0", "g1"], ["h0", "h2", "h4"]],
                    train_config={"seed": 1})
    data = load_checkpoint(path)
    assert data.model.config == model.config
    np.testing.assert_array_equal(data.bin_boundaries, [4.0, 9.0])
    assert data.selected_genes == [[0, 1], [0, 2, 4]]
    assert data.category_names == ["a", "b"]
    assert data.gene_ids[1] == ["h0", "h2", "h4"]
    assert data.train_config == {"seed": 1}

    # weights survive the float32 store exactly after one round trip
    bag = np.random.default_rng(2).normal(size=(5, 6)).astype(np.float32)
    a = model_forward(model, bag)
    path2 = tmp_path / "again.ghck"
    save_checkpoint(path2, data.model, data.bin_boundaries)
    again = load_checkpoint(path2)
    b = model_forward(data.model, bag)
    c = model_forward(again.model, bag)
    np.testing.assert_array_equal(b.hazards.values, c.hazards.values)
    # and stay close to the float64 original
    np.testing.assert_allclose(a.hazards.values, b.hazards.values, atol=1e-6)


def test_checkpoint_rejects_corruption(tmp_path):
    model = toy_model()
    path = tmp_path / "m.ghck"
    save_checkpoint(path, model, np.array([1.0]))
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.ghck"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)

    bad.write_bytes(bytes(raw[:20]))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(bytes(raw) + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(bad)

    bad.write_bytes(bytes(raw[:-4]))
    with pytest.raises(CheckpointError, match="truncated data"):
        load_checkpoint(bad)


def rewrite_header(path, edit):
    """Apply `edit` to the checkpoint's JSON header in place."""
    raw = path.read_bytes()
    prefix = struct.Struct("<4sII")
    magic, version, header_len = prefix.unpack_from(raw)
    header = json.loads(raw[prefix.size:prefix.size + header_len])
    edit(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(prefix.pack(magic, version, len(new_header))
                     + new_header + raw[prefix.size + header_len:])


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    model = toy_model()
    path = tmp_path / "m.ghck"
    save_checkpoint(path, model, np.array([1.0]))
    rewrite_header(path, lambda h: h["model_config"].update(mystery_knob=3))
    with pytest.raises(CheckpointError, match="unknown model config keys"):
        load_checkpoint(path)


@pytest.mark.parametrize("drop", [
    lambda h: h.pop("model_config"),
    lambda h: h.pop("entries"),
    lambda h: h.pop("bin_boundaries"),
    lambda h: h["entries"][0].pop("name"),
    lambda h: h["entries"][0].pop("shape"),
], ids=["model_config", "entries", "bin_boundaries", "entry.name", "entry.shape"])
def test_checkpoint_missing_header_key_names_the_file(tmp_path, drop):
    path = tmp_path / "m.ghck"
    save_checkpoint(path, toy_model(), np.array([1.0]))
    rewrite_header(path, drop)
    with pytest.raises(CheckpointError, match="m.ghck"):
        load_checkpoint(path)


@pytest.mark.parametrize("corrupt", [
    lambda h: h.update(model_config=[1, 2]),
    lambda h: h.update(entries=7),
    lambda h: h["entries"][0].update(shape="wide"),
    lambda h: h.update(bin_boundaries=["soon"]),
], ids=["model_config", "entries", "entry.shape", "bin_boundaries"])
def test_checkpoint_mistyped_header_value_names_the_file(tmp_path, corrupt):
    path = tmp_path / "m.ghck"
    save_checkpoint(path, toy_model(), np.array([1.0]))
    rewrite_header(path, corrupt)
    with pytest.raises(CheckpointError, match="m.ghck"):
        load_checkpoint(path)


def test_checkpoint_baseline_variant(tmp_path):
    model = toy_model(seed=3, gated_baseline=True)
    path = tmp_path / "base.ghck"
    save_checkpoint(path, model, np.array([2.0, 5.0]))
    data = load_checkpoint(path)
    assert data.model.baseline is not None
    assert data.model.assoc is None
    for (na, ta), (nb, tb) in zip(model.named_tensors(),
                                  data.model.named_tensors()):
        assert na == nb
        np.testing.assert_allclose(ta.values, tb.values, atol=1e-7)


def test_checkpoint_magic_constant():
    assert CHECKPOINT_MAGIC == b"GHCK"
