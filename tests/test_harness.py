import struct

import numpy as np
import numpy.testing as npt
import pytest

from meshnet.errors import CheckpointError
from meshnet.harness import load_checkpoint, save_checkpoint
from meshnet.model import ModelSpec, build_model

SPEC = ModelSpec(target_dim=3, hidden_type="rho0+rho1", final_type="2xrho0",
                 dense_hidden=4, residual_blocks=1)


@pytest.fixture
def saved(tmp_path):
    path = str(tmp_path / "model.ckpt")
    model = build_model(SPEC, seed=1)
    save_checkpoint(model, path, "cfg")
    with open(path, "rb") as fh:
        return path, model.flat_parameters(), fh.read()


def test_round_trip(saved):
    path, flat, _data = saved
    model = build_model(SPEC, seed=2)
    assert load_checkpoint(model, path, expect_hash="cfg") == "cfg"
    npt.assert_array_equal(model.flat_parameters(), flat)


@pytest.mark.parametrize("keep", [6, 14, 21, -8])
def test_truncated_checkpoint_rejected(saved, tmp_path, keep):
    # 6: inside the version/hash-length header; 14: inside the config hash;
    # 21: inside the parameter count; -8: one float short
    _path, _flat, data = saved
    cut = str(tmp_path / "cut.ckpt")
    with open(cut, "wb") as fh:
        fh.write(data[:keep])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(build_model(SPEC), cut)


def test_undecodable_config_hash_rejected(saved, tmp_path):
    _path, _flat, data = saved
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "wb") as fh:
        fh.write(data[:12] + b"\xff" + data[13:])
    with pytest.raises(CheckpointError):
        load_checkpoint(build_model(SPEC), bad)


def test_unknown_version_rejected(saved, tmp_path):
    _path, _flat, data = saved
    other = str(tmp_path / "v2.ckpt")
    with open(other, "wb") as fh:
        fh.write(data[:4] + struct.pack("<I", 2) + data[8:])
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(build_model(SPEC), other)
