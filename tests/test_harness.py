import struct

import numpy as np
import numpy.testing as npt
import pytest

from meshnet import harness
from meshnet.autodiff import Tensor
from meshnet.config import parse_config
from meshnet.errors import (
    CheckpointError,
    ConfigError,
    EmptyNeighborhoodError,
    FrameBindingError,
    TrainingDivergedError,
)
from meshnet.features import GeometricFeatureField, xyz_features
from meshnet.harness import (
    equivariance_gap,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from meshnet.layers import EdgeGeometry, EmanAttentionLayer, GemConvLayer
from meshnet.mesh import generate_icosphere
from meshnet.model import ModelSpec, build_model
from meshnet.representations import FeatureType
from meshnet.tangent import build_frames, regauge

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
    # version 3 held a bias entry for every component, pairs included
    other = str(tmp_path / "v3.ckpt")
    with open(other, "wb") as fh:
        fh.write(data[:4] + struct.pack("<I", 3) + data[8:])
    with pytest.raises(CheckpointError, match="version 3"):
        load_checkpoint(build_model(SPEC), other)


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_parameter_count_rejected(saved, tmp_path, delta):
    # a self-consistent record with one float too few or too many
    _path, flat, data = saved
    resized = np.concatenate([flat, [0.5]]) if delta > 0 else flat[:-1]
    path = str(tmp_path / "resized.ckpt")
    with open(path, "wb") as fh:
        fh.write(data[:4 + 8 + len("cfg")] + struct.pack("<Q", resized.size)
                 + resized.astype("<f8").tobytes())
    model = build_model(SPEC, seed=2)
    before = model.flat_parameters()
    with pytest.raises(CheckpointError, match="model needs"):
        load_checkpoint(model, path)
    npt.assert_array_equal(model.flat_parameters(), before)


# -- equivariance gap, evaluation, degenerate neighborhoods ------------------

ALL_FAMILIES = ("gauge", "rot_tr_scale", "rot", "translate", "scale", "perm")
SMALL = """
[model]
hidden_type = 2x(rho0+rho1+rho2)
final_type = 2xrho0
dense_hidden = 8
{extra}
[data]
n_meshes = 2
train_meshes = 2
test_meshes = 2
[training]
epochs = 1
[transforms]
families = {families}
"""


def _small_config(extra="", families=", ".join(ALL_FAMILIES)):
    return parse_config(SMALL.format(extra=extra, families=families))


@pytest.mark.parametrize("extra", ["kind = eman", "kind = gem",
                                   "self_contribution = true", "heads = 2"])
def test_equivariant_models_have_noise_level_gaps(extra):
    gaps = equivariance_gap(_small_config(extra))["gaps"]
    assert set(gaps) == set(ALL_FAMILIES)
    for family, gap in gaps.items():
        assert gap < 1e-20, (family, gap)


@pytest.mark.parametrize("extra, family", [("bias = additive", "gauge"),
                                           ("features = xyz", "rot_tr_scale")])
def test_negative_controls_break_their_family(extra, family):
    gaps = equivariance_gap(_small_config(extra, family))["gaps"]
    assert gaps[family] > 1e-6


def test_evaluate_reports_every_accuracy():
    cfg = _small_config()
    model, _metrics = train(cfg)
    accuracy = evaluate(cfg, model=model)["accuracy"]
    assert set(accuracy) == {"train", "test", "gauge", "rot_tr_scale", "perm"}
    for value in accuracy.values():
        assert 0.0 <= value <= 100.0


# A reduced default EMAN model at the default learning rate; chance level on
# the 42-vertex correspondence is a loss of ln 42 = 3.74.
REDUCED = """
[model]
hidden_type = 4x(rho0+rho1+rho2)
final_type = 8xrho0
dense_hidden = 64
[data]
train_meshes = 5
test_meshes = 0
[training]
epochs = 10
"""


def test_reduced_eman_trains():
    history = train(parse_config(REDUCED))[1]["history"]
    assert history[-1]["loss"] < 1.0, [h["loss"] for h in history]


def test_history_records_wall_time_and_gradient_norm():
    (epoch,) = train(_small_config())[1]["history"]
    assert epoch["wall_s"] > 0.0
    assert 0.0 < epoch["grad_norm_max"] < np.inf


def test_divergence_names_the_first_non_finite_parameter(monkeypatch):
    def poisoned(spec, seed):
        model = build_model(spec, seed)
        dict(model.parameters())["final.value_kernel"].value[0, 0] = np.nan
        return model

    monkeypatch.setattr(harness, "build_model", poisoned)
    with pytest.raises(TrainingDivergedError, match="final.value_kernel") as info:
        train(_small_config())
    assert info.value.parameter == "final.value_kernel"


def test_forward_needs_features_of_the_geometry_frames():
    mesh = generate_icosphere(1)
    frames = build_frames(mesh)
    model = build_model(ModelSpec(target_dim=3, features="xyz", hidden_type="rho0+rho1",
                                  final_type="2xrho0", dense_hidden=4, residual_blocks=1))
    features = xyz_features(mesh, frames)
    model.forward(features, EdgeGeometry.from_frames(frames))
    _frames, other = regauge(frames, np.zeros(mesh.n_vertices))
    with pytest.raises(FrameBindingError):
        model.forward(features, other)
    unbound = GeometricFeatureField(features.ftype, features.values, -1)
    with pytest.raises(FrameBindingError):  # no token stands for any gauge
        model.forward(unbound, EdgeGeometry.from_frames(frames))


def _isolated_vertex_geometry():
    # vertices 0 and 1 exchange an edge; vertex 2 has no neighbors
    return EdgeGeometry(src=[1, 0], dst=[0, 1], theta=[0.3, -1.2],
                        transport=[0.1, 0.4], degrees=[1, 1, 0], n_vertices=3,
                        frame_token=-1)


@pytest.mark.parametrize("make", [
    lambda t, rng: GemConvLayer(t, t, rng=rng),
    lambda t, rng: EmanAttentionLayer(t, t, rng=rng),
])
def test_empty_neighborhood_rejected(make):
    t = FeatureType.parse("rho0+rho1")
    layer = make(t, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((3, t.dim)))
    with pytest.raises(EmptyNeighborhoodError):
        layer.forward(x, _isolated_vertex_geometry())


def test_self_contribution_accepts_empty_neighborhood():
    t = FeatureType.parse("rho0+rho1")
    layer = EmanAttentionLayer(t, t, self_contribution=True,
                               rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((3, t.dim)))
    out = layer.forward(x, _isolated_vertex_geometry()).value
    assert out.shape == (3, t.dim)
    assert np.isfinite(out).all()


def test_evaluate_honours_transform_ranges():
    # GET features do not change under a rotation about the origin, so with
    # translation and scaling ruled out by the config the rot_tr_scale
    # accuracy is the untransformed one
    text = SMALL.format(extra="features = get", families="rot_tr_scale")
    cfg = parse_config(text + "translation_range = 0\nscale_min = 1\nscale_max = 1\n")
    model, _metrics = train(cfg)
    accuracy = evaluate(cfg, model=model)["accuracy"]
    assert accuracy["rot_tr_scale"] == accuracy["test"]


def test_reversed_scale_range_rejected():
    with pytest.raises(ConfigError, match="scale_min.*scale_max"):
        parse_config("[transforms]\nscale_min = 5\nscale_max = 0.5\n")
