import collections
import dataclasses
import io
import json
import re
import struct
import zipfile

import numpy as np
import numpy.testing as npt
import pytest

from meshnet import harness
from meshnet.autodiff import Tensor, nll_loss
from meshnet.cli import main
from meshnet.config import (
    config_hash,
    default_config,
    load_config,
    model_spec_from_config,
    parse_config,
)
from meshnet.datasets import (
    classification_shapes,
    eqgap_meshes,
    load_file_dataset,
    segmentation_spheres,
)
from meshnet.errors import (
    CheckpointError,
    ConfigError,
    EmptyNeighborhoodError,
    FeatureTypeError,
    FrameBindingError,
    MeshValidationError,
    TrainingDivergedError,
    TransformError,
)
from meshnet.features import (
    GeometricFeatureField,
    compute_features,
    feature_type_for,
    get_features,
    xyz_features,
)
from meshnet.harness import (
    equivariance_gap,
    evaluate,
    load_checkpoint,
    mesh_pipeline,
    save_checkpoint,
    train,
)
from meshnet.layers import EdgeGeometry, EmanAttentionLayer, GemConvLayer
from meshnet.mesh import generate_grid_patch, generate_icosphere, save_mesh
from meshnet.model import ModelSpec, build_model
from meshnet.representations import FeatureType
from meshnet.tangent import build_frames, regauge
from meshnet.transforms import apply_ambient, apply_permutation, random_transform_suite
from oracles import isolated_vertex_geometry

SPEC = ModelSpec(target_dim=3, hidden_type="rho0+rho1", final_type="2xrho0",
                 dense_hidden=4, residual_blocks=1)


def _flat(model):
    return np.concatenate([t.value.ravel() for _n, t in model.parameters()])


@pytest.fixture
def saved(tmp_path):
    path = str(tmp_path / "model.ckpt")
    model = build_model(SPEC, seed=1)
    save_checkpoint(model, path, "cfg")
    with open(path, "rb") as fh:
        return path, _flat(model), fh.read()


def _write(tmp_path, data):
    path = str(tmp_path / "edited.ckpt")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _record(tmp_path, **entries):
    """A record laid out as ``save_checkpoint`` documents it, for the seed-1
    model, with ``entries`` replaced or added (None: removed)."""
    arrays = {"version": np.array(6), "config_hash": np.array("cfg"),
              **{name: t.value for name, t in build_model(SPEC, seed=1).parameters()},
              **entries}
    path = str(tmp_path / "edited.ckpt")
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})
    return path


def _flip(data, at, bit):
    return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]


def _assert_rejected(path, match=None, expect_hash="cfg"):
    """The load raises CheckpointError and changes no parameter; by default
    the load expects the records' own config hash, so another check rejects."""
    model = build_model(SPEC, seed=2)
    before = _flat(model)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(model, path, expect_hash=expect_hash)
    npt.assert_array_equal(_flat(model), before)


def test_round_trip(saved, tmp_path):
    path, flat, data = saved
    model = build_model(SPEC, seed=2)
    assert load_checkpoint(model, path, expect_hash="cfg") == "cfg"
    npt.assert_array_equal(_flat(model), flat)
    # the documented layout, written by hand, is the same record byte for byte
    with open(_record(tmp_path), "rb") as fh:
        assert fh.read() == data


def test_saves_are_byte_identical(saved, tmp_path):
    _path, _params, data = saved
    again = str(tmp_path / "again.ckpt")
    save_checkpoint(build_model(SPEC, seed=1), again, "cfg")
    with open(again, "rb") as fh:
        assert fh.read() == data


def test_config_hash_mismatch_rejected(saved):
    _assert_rejected(saved[0], "written for config cfg, current config hashes to other",
                     expect_hash="other")


@pytest.mark.parametrize("keep", [0, 6, 14, 21, 3000, -8])
def test_truncated_checkpoint_rejected(saved, tmp_path, keep):
    # 0: an empty file; 6, 14, 21: inside the first member's header; 3000:
    # inside the members; -8: inside the end-of-central-directory record
    _path, _params, data = saved
    _assert_rejected(_write(tmp_path, data[:keep]), "not a readable version 6 checkpoint")


def test_flipped_parameter_bit_rejected(saved, tmp_path):
    _path, _params, data = saved
    value = build_model(SPEC, seed=1).parameters()[0][1].value.tobytes()
    flipped = _flip(data, data.index(value) + len(value) // 2, 4)
    _assert_rejected(_write(tmp_path, flipped), "fails its CRC-32 check")


def test_flip_sweep_loads_the_saved_weights_or_nothing(saved, tmp_path):
    # one bit of every 29th byte, each bit in turn: a flip that is not
    # rejected (a zip time stamp, an unused field) loads the saved weights
    _path, flat, data = saved
    model = build_model(SPEC, seed=2)
    rejected = 0
    for k, at in enumerate(range(0, len(data), 29)):
        before = _flat(model)
        try:
            load_checkpoint(model, _write(tmp_path, _flip(data, at, k % 8)), expect_hash="cfg")
        except CheckpointError:
            rejected += 1
            npt.assert_array_equal(_flat(model), before)
        else:
            npt.assert_array_equal(_flat(model), flat)
    assert rejected > len(data) // 29 // 2


def test_undecodable_config_hash_rejected(tmp_path):
    _assert_rejected(_record(tmp_path, config_hash=np.array(b"\xffcfg")),
                     "holds no config hash")


def test_unknown_version_rejected(tmp_path):
    # version 5 was the hand-rolled binary record of stacked-head kernels
    _assert_rejected(_record(tmp_path, version=np.array(5)), "version 5 is not supported")


@pytest.mark.parametrize("entry, match", [("version", "version None"),
                                          ("config_hash", "no config hash")],
                         ids=["version", "config_hash"])
def test_missing_record_entry_rejected(tmp_path, entry, match):
    _assert_rejected(_record(tmp_path, **{entry: None}), match)


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_parameter_count_rejected(tmp_path, delta):
    # one parameter too few or too many; the error names it
    last = build_model(SPEC).parameters()[-1][0]
    if delta < 0:
        path, match = _record(tmp_path, **{last: None}), f"'{last}' is missing in the record"
    else:
        path, match = _record(tmp_path, **{"extra.weight": np.zeros(2)}), "absent in the model"
    _assert_rejected(path, match)


@pytest.mark.parametrize("change", [lambda v: v.reshape(1, -1), lambda v: v.astype(np.float32)],
                         ids=["reshaped", "float32"])
def test_mistyped_parameter_rejected(tmp_path, change):
    name, t = build_model(SPEC, seed=1).parameters()[0]
    _assert_rejected(_record(tmp_path, **{name: change(t.value)}),
                     f"'{name}' is .* in the record, \\('float64', {re.escape(str(t.value.shape))}")


def _v5_record():
    """The version 5 layout: magic, version, hash length, hash, count, floats."""
    flat = _flat(build_model(SPEC, seed=1))
    return (b"MNET" + struct.pack("<II", 5, 3) + b"cfg" + struct.pack("<Q", flat.size)
            + flat.astype("<f8").tobytes())


def _npy(value):
    buf = io.BytesIO()
    np.save(buf, value)
    return buf.getvalue()


def _rezipped(data, name, content):
    """The zip ``data`` with member ``name`` holding ``content``, CRCs all valid."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            dst.writestr(info, content if info.filename == name else src.read(info))
    return out.getvalue()


def _huge_header():
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                               "shape": (2 ** 62,)})
    return buf.getvalue()


# Headers a bit flip can damage: the central directory entry of the first
# member (flags, compression method, name length), the zip signature, and
# an .npy header that declares 2**62 floats under a valid CRC; then records
# and files of another kind.
CORRUPTIONS = {
    "encrypted_flag": lambda d: _flip(d, d.index(b"PK\x01\x02") + 8, 0),
    "compression_method": lambda d: _flip(d, d.index(b"PK\x01\x02") + 10, 0),
    "name_length": lambda d: _flip(d, d.index(b"PK\x01\x02") + 28, 0),
    "zip_signature": lambda d: _flip(d, 2, 0),
    "huge_shape": lambda d: _rezipped(d, "entry.bias.npy", _huge_header()),
    "raw_member": lambda d: _rezipped(d, "config_hash.npy", b"cfg"),
    "v5_format": lambda d: _v5_record(),
    "bare_npy": lambda d: _npy(np.zeros(3)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_or_foreign_record_rejected(saved, tmp_path, capsys, name):
    _path, _params, data = saved
    path = _write(tmp_path, CORRUPTIONS[name](data))
    _assert_rejected(path)
    # meshnet eval names the error in JSON, with no traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nsubdivisions = 0\ntrain_meshes = 1\ntest_meshes = 1\n")
    assert main(["eval", "--config", str(cfg), "--checkpoint", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "CheckpointError"


# -- equivariance gap, evaluation, degenerate neighborhoods ------------------

ALL_FAMILIES = ("gauge", "rot_tr_scale", "rot", "translate", "scale", "perm")
SMALL = """
[model]
hidden_type = {width}x(rho0+rho1+rho2)
final_type = {width}xrho0
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


def _small_config(extra="", families=", ".join(ALL_FAMILIES), width=2):
    return parse_config(SMALL.format(extra=extra, families=families, width=width))


@pytest.mark.parametrize("extra", ["kind = eman", "kind = gem",
                                   "self_contribution = true", "heads = 2",
                                   "heads = 2\nself_contribution = true", "heads = 4",
                                   "bias = none", "[run]\ntask = classification"])
def test_equivariant_models_have_noise_level_gaps(extra):
    # every multiplicity must divide by the head count
    width = 4 if extra == "heads = 4" else 2
    gaps = equivariance_gap(_small_config(extra, width=width))["gaps"]
    assert set(gaps) == set(ALL_FAMILIES)
    for family, gap in gaps.items():
        assert gap < 1e-20, (family, gap)


@pytest.mark.parametrize("fields, invariant", [
    ({}, True), ({"kind": "gem"}, True), ({"heads": 2, "self_contribution": True}, True),
    ({"bias": "additive"}, False), ({"features": "xyz"}, False),
], ids=["eman", "gem", "two_heads_self_contribution", "additive_bias", "xyz_features"])
def test_parameter_gradients_are_invariant_under_the_whole_group(fields, invariant):
    # a rigid motion with scale, a relabelling and a gauge turn of one mesh at once,
    # labels relabelled alike: an equivariant model's loss has the parameter
    # gradients of the original, so training on either is the same (no dropout:
    # its mask is drawn per row)
    data, tr = segmentation_spheres(3, 0, 1, seed=0), default_config().transforms
    spec = ModelSpec(target_dim=data.target_dim, dropout=0.0, **fields)
    model = build_model(spec, seed=0)
    params = [t for _n, t in model.parameters()]
    rng = np.random.default_rng(1)

    def gradients(prepared, label):
        for p in params:
            p.zero_grad()
        nll_loss(model.forward(prepared[1], prepared[0], train=True), label).backward()
        return [p.grad.copy() for p in params]

    worst = 0.0
    for s in data.train:
        suite = random_transform_suite(s.mesh.n_vertices, rng, tr["translation_range"],
                                       tr["scale_min"], tr["scale_max"])
        moved = apply_permutation(apply_ambient(s.mesh, suite.ambient), suite.perm)
        base = gradients(mesh_pipeline(spec, build_frames(s.mesh)), s.label)
        turned = gradients(mesh_pipeline(spec, *regauge(build_frames(moved), suite.gauge)),
                           suite.perm.permute_rows(s.label))
        largest = max(np.abs(g).max() for g in base)
        worst = max(worst, *(np.abs(a - b).max() / largest for a, b in zip(base, turned)))
    assert worst < 1e-9 if invariant else worst > 1e-3, worst


# the families each negative control leaves at noise level: its symmetry row
KEPT = {"bias = additive": ("rot_tr_scale", "perm"), "features = get": ("gauge", "rot", "perm"),
        "features = xyz": ("gauge", "perm")}


@pytest.mark.parametrize("extra, family", [("bias = additive", "gauge"),
                                           ("features = xyz", "rot_tr_scale"),
                                           ("features = get", "translate, scale"),
                                           ("features = xyz", "rot, translate, scale")])
def test_negative_controls_break_their_family(extra, family):
    gaps = equivariance_gap(_small_config(extra, ", ".join([family, *KEPT[extra]])))["gaps"]
    for broken in family.split(", "):
        assert gaps[broken] > 1e-6, (broken, gaps)
    for kept in KEPT[extra]:
        assert gaps[kept] < 1e-20, (kept, gaps)


def test_unknown_transform_family_is_named():
    mesh = generate_icosphere(0)
    model = build_model(ModelSpec(hidden_type="rho0", final_type="rho0", residual_blocks=0))
    prepared = [harness.mesh_pipeline(model.spec, build_frames(mesh))]
    suites = harness._transform_suites(parse_config(""), prepared, np.random.default_rng(0))
    with pytest.raises(TransformError, match="unknown transform family 'bogus'"):
        harness.transformed_logits(model, prepared, "bogus", suites)


def _trained(cfg, tmp_path):
    """The checkpoint that ``meshnet train`` writes for ``cfg``."""
    path = str(tmp_path / "train.ckpt")
    save_checkpoint(train(cfg)[0], path, config_hash(cfg))
    return path


def test_evaluate_reports_every_accuracy(tmp_path):
    cfg = _small_config()
    accuracy = evaluate(cfg, _trained(cfg, tmp_path))["accuracy"]
    assert set(accuracy) == {"train", "test", "gauge", "rot_tr_scale", "perm"}
    for value in accuracy.values():
        assert 0.0 <= value <= 100.0


def test_each_mesh_is_prepared_once(monkeypatch, tmp_path):
    # train's accuracy pass reads the meshes train prepared, and the gauge
    # family regauges the base frames instead of building them again: its
    # pass goes through mesh_pipeline with them, and builds no frames
    calls = collections.Counter()
    for name in ("build_frames", "mesh_pipeline"):
        def counted(*args, _call=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(harness, name, counted)
    cfg = parse_config(SMALL.format(extra="", families="gauge", width=2)
                       .replace("epochs = 1", "epochs = 3"))
    checkpoint = _trained(cfg, tmp_path)
    assert calls == {"build_frames": 2, "mesh_pipeline": 2}  # two training meshes
    calls.clear()
    equivariance_gap(cfg)  # base and gauge passes over two meshes
    assert calls == {"build_frames": 2, "mesh_pipeline": 4}
    calls.clear()
    evaluate(cfg, checkpoint)  # train, test and three families: two meshes each
    assert calls == {"build_frames": 8, "mesh_pipeline": 10}


def test_one_adam_step_per_training_mesh(monkeypatch):
    steps = []
    step = harness.Adam.step
    monkeypatch.setattr(harness.Adam, "step", lambda opt: steps.append(step(opt)))
    cfg = parse_config(SMALL.format(extra="", families="gauge", width=2)
                       .replace("train_meshes = 2", "train_meshes = 3")
                       .replace("epochs = 1", "epochs = 2"))
    train(cfg)
    assert len(steps) == 2 * 3  # epochs x training meshes


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


def test_forward_needs_features_of_its_input_type():
    # GET and XYZ fields are both 3 wide, of types rho0+rho1 and 3xrho0
    frames = build_frames(generate_icosphere(1))
    model = build_model(ModelSpec(target_dim=3, features="xyz", hidden_type="rho0+rho1",
                                  final_type="2xrho0", dense_hidden=4, residual_blocks=0))
    with pytest.raises(FeatureTypeError, match=re.escape("expects input type 3xrho0, got rho0+rho1")):
        model.forward(get_features(frames), EdgeGeometry.from_frames(frames))


def test_forward_needs_features_of_the_geometry_frames():
    mesh = generate_icosphere(1)
    frames = build_frames(mesh)
    model = build_model(ModelSpec(target_dim=3, features="xyz", hidden_type="rho0+rho1",
                                  final_type="2xrho0", dense_hidden=4, residual_blocks=1))
    features = xyz_features(frames)
    model.forward(features, EdgeGeometry.from_frames(frames))
    _frames, other = regauge(frames, np.zeros(mesh.n_vertices))
    with pytest.raises(FrameBindingError):
        model.forward(features, other)
    unbound = GeometricFeatureField(features.ftype, features.values, None)
    with pytest.raises(FrameBindingError):  # a field of no frames is of no real gauge
        model.forward(unbound, EdgeGeometry.from_frames(frames))


def test_training_forward_without_rng_is_a_named_error():
    # the default dropout draws its mask from the caller's generator
    mesh = generate_icosphere(0)
    frames = build_frames(mesh)
    model = build_model(ModelSpec(hidden_type="rho0", final_type="rho0", residual_blocks=0))
    field = compute_features("reltan", mesh, frames)
    with pytest.raises(ConfigError, match="dropout = 0.5 needs an rng"):
        model.forward(field, EdgeGeometry.from_frames(frames), train=True)


@pytest.mark.parametrize("field, value", [
    ("kind", "conv"),
    ("task", "regression"),
    ("dropout", 1.5),  # keep = -0.5 zeroed every dense activation
    ("dropout", -0.1),
    ("residual_blocks", -1),  # built no block
    ("dense_hidden", 0),  # ended in numpy's OverflowError
    ("features", "bogus"),  # ended in a bare ValueError
    ("target_dim", 0),  # built zero-width logits
    # the config alone refused these; a spec took them, to fail when it built
    # or not at all
    ("bias", "angular"),
    ("heads", 0),
    ("reltan_powers", (np.nan,)),
    ("reltan_powers", ()),
    ("hidden_type", "junk"),
    ("attention_type", "rho0+"),
    ("final_type", "rho1"),
    # an EMAN layer splits every type into heads: this failed only as it built,
    # with no key
    ("heads", 3),
    # a value of another type: the string built a model with self contribution,
    # the others ended in a bare TypeError
    ("self_contribution", "no"),
    ("dense_hidden", 2.5),
    ("residual_blocks", 1.5),
    ("target_dim", 2.5),
    ("heads", 2.0),
    ("reltan_powers", "0.7"),
])
def test_model_spec_refuses_out_of_range_fields(field, value):
    with pytest.raises(ConfigError, match=f"ModelSpec {field} must be") as info:
        ModelSpec(**{field: value})
    assert info.value.key == field


def test_reltan_needs_a_power():
    # the spec refuses no powers as a ConfigError; the feature lookup of a
    # library caller still refuses them itself
    with pytest.raises(FeatureTypeError, match="at least one component"):
        feature_type_for("reltan", ())


def test_spec_changed_after_construction_builds_as_changed():
    spec = dataclasses.replace(SPEC)
    spec.kind, spec.bias, spec.hidden_type = "gem", "additive", "2x(rho0+rho1)"
    model = build_model(spec)
    assert isinstance(model.entry, GemConvLayer)
    assert model.entry.out_type == FeatureType.parse("2x(rho0+rho1)")
    assert model.entry.bias.mode == "additive"


@pytest.mark.parametrize("field, value", [("final_type", "rho1"), ("dropout", 1.5),
                                          ("heads", 3)])
def test_spec_changed_after_construction_is_checked(field, value):
    # the model builds from a checked copy of its spec, so a bad field set
    # after construction is refused by key, and later edits leave it alone
    spec = dataclasses.replace(SPEC)
    setattr(spec, field, value)
    with pytest.raises(ConfigError, match=f"ModelSpec {field} must be") as info:
        build_model(spec)
    assert info.value.key == field
    spec = dataclasses.replace(SPEC)
    model = build_model(spec)
    spec.dropout = 0.25
    assert model.spec == SPEC and model.spec is not spec


def test_every_label_is_an_int_array(tmp_path):
    for ci, name in enumerate(("bumpy", "flat")):
        (tmp_path / name).mkdir()
        for k, ext in enumerate((".off", ".obj")):
            mesh = generate_icosphere(0) if ci == 0 else generate_grid_patch(3, 4, 0.1, k)
            save_mesh(mesh, tmp_path / name / f"m{k}{ext}")
    datasets = [segmentation_spheres(2, 1, 0, 0.3, 0.05, 3),
                classification_shapes(3, 1, 0, 0.3, 0.05, 3),
                load_file_dataset(str(tmp_path), "classification", 3, 1)]
    for dataset in datasets:
        for s in dataset.train + dataset.test:
            assert isinstance(s.label, np.ndarray) and s.label.dtype.kind == "i"
            want = (s.mesh.n_vertices,) if dataset.task == "segmentation" else (1,)
            assert s.label.shape == want, dataset.task
    assert sorted(int(s.label[0]) for s in datasets[2].train + datasets[2].test) == [0, 0, 1, 1]


@pytest.mark.parametrize("make", [segmentation_spheres, classification_shapes],
                         ids=["segmentation", "classification"])
@pytest.mark.parametrize("counts, match", [
    ((1.5, 0), "n_train must hold integers, got float64"),
    ((0, "1"), "n_test must hold integers, got <U1"),
    ((-2, 0), "n_train must be >= 0, got -2"),
    ((1, -1), "n_test must be >= 0, got -1"),
    ((True, 0), "n_train must hold integers, got bool"),
], ids=["float_train", "string_test", "negative_train", "negative_test", "bool_train"])
def test_generated_dataset_counts_checked(make, counts, match):
    # a float count ended in a bare TypeError, and a negative one gave an empty dataset
    with pytest.raises(ConfigError, match=re.escape(match)):
        make(*counts, 0, 0.3, 0.05, 0)


def test_generated_dataset_counts_of_any_integer_kind():
    data = classification_shapes(np.uint8(2), np.int32(1), 0, 0.3, 0.05, 0)
    assert (len(data.train), len(data.test)) == (2, 1)


@pytest.mark.parametrize("make, error, match", [
    (lambda: build_model(ModelSpec(), 1.5), ConfigError, "seed must hold integers, got float64"),
    (lambda: build_model(ModelSpec(), -1), ConfigError, "seed must be >= 0, got -1"),
    (lambda: eqgap_meshes(2, -1, 0), ConfigError, "seed must be >= 0, got -1"),
    (lambda: classification_shapes(2, 0, 0, 0.3, 0.1, 2.5), ConfigError,
     "seed must hold integers, got float64"),
    (lambda: segmentation_spheres(1, 0, 0, seed="1"), ConfigError,
     "seed must hold integers, got <U1"),
    (lambda: generate_grid_patch(3, 3, 0.1, -2), MeshValidationError, "seed must be >= 0, got -2"),
], ids=["float_model_seed", "negative_model_seed", "negative_eqgap_seed",
        "float_classification_seed", "string_segmentation_seed", "negative_grid_seed"])
def test_public_seeds_checked(make, error, match):
    # each ended in a bare TypeError or ValueError from np.random.default_rng
    with pytest.raises(error, match=re.escape(match)):
        make()


@pytest.mark.parametrize("layout, task, match", [
    (None, "segmentation", "does not exist"),
    ({"a.off": 0}, "segmentation", "need 2 meshes in .*, found 1"),
    ({"a.off": 0, "b.off": 1}, "segmentation", "must share a vertex count"),
    ({"a.off": 0, "b.off": 0}, "classification", "no class subdirectories"),
    ({"round/a.off": 0}, "classification", "need 2 meshes, found 1"),
], ids=["missing_directory", "too_few_segmentation_meshes", "mixed_vertex_counts",
        "no_class_subdirectories", "too_few_classification_meshes"])
def test_file_dataset_refusals_name_the_directory_problem(tmp_path, layout, task, match):
    root = tmp_path / "meshes"
    for name, subdivisions in (layout or {}).items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        save_mesh(generate_icosphere(subdivisions), root / name)
    with pytest.raises(ConfigError, match=match):
        load_file_dataset(str(root), task, 1, 1)


def test_boolean_words_and_a_missing_config_file(tmp_path):
    for word, value in (("off", False), ("On", True), ("no", False), ("1", True)):
        text = f"[model]\nself_contribution = {word}\n"
        assert parse_config(text).model["self_contribution"] is value
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "none.cfg")


def test_config_mesh_from_the_grid_generator():
    cfg = parse_config("[run]\nseed = 3\n[mesh]\ngenerator = grid_patch\nrows = 3\ncols = 4\n"
                       "noise = 0.2\n")
    got, want = harness.generate_config_mesh(cfg), generate_grid_patch(3, 4, 0.2, 3)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.tobytes() == want.faces.tobytes()


@pytest.mark.parametrize("make", [
    lambda t, rng: GemConvLayer(t, t, rng=rng),
    lambda t, rng: EmanAttentionLayer(t, t, rng=rng),
])
def test_empty_neighborhood_rejected(make):
    t = FeatureType.parse("rho0+rho1")
    layer = make(t, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((3, t.dim)))
    with pytest.raises(EmptyNeighborhoodError):
        layer.forward(x, isolated_vertex_geometry())


def test_self_contribution_accepts_empty_neighborhood():
    t = FeatureType.parse("rho0+rho1")
    layer = EmanAttentionLayer(t, t, self_contribution=True,
                               rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((3, t.dim)))
    out = layer.forward(x, isolated_vertex_geometry()).value
    assert out.shape == (3, t.dim)
    assert np.isfinite(out).all()


def test_evaluate_honours_transform_ranges(tmp_path):
    # GET features do not change under a rotation about the origin, so with
    # translation and scaling ruled out by the config the rot_tr_scale
    # accuracy is the untransformed one
    text = SMALL.format(extra="features = get", families="rot_tr_scale", width=2)
    cfg = parse_config(text + "translation_range = 0\nscale_min = 1\nscale_max = 1\n")
    accuracy = evaluate(cfg, _trained(cfg, tmp_path))["accuracy"]
    assert accuracy["rot_tr_scale"] == accuracy["test"]


def test_widest_translation_range_is_drawn():
    r = float(np.finfo(float).max / 2)  # the widest range with a finite 2 r
    text = "[transforms]\ntranslation_range = {!r}\n"
    prepared = [harness.mesh_pipeline(ModelSpec(), build_frames(generate_icosphere(0)))]
    [suite] = harness._transform_suites(parse_config(text.format(r)), prepared,
                                        np.random.default_rng(0))
    assert np.isfinite(suite.ambient.translation).all()
    with pytest.raises(ConfigError, match="translation_range"):
        parse_config(text.format(float(np.nextafter(r, np.inf))))


def test_model_section_is_the_spec():
    model = parse_config("").model
    fields = {f.name: f.default for f in dataclasses.fields(ModelSpec)}
    assert set(model) == set(fields) - {"task", "target_dim", "residual_blocks"}
    assert model == {key: fields[key] for key in model}
    assert model_spec_from_config(parse_config("")) == ModelSpec()
    cfg = parse_config("[run]\ntask = classification\n"
                       "[model]\nheads = 2\nattention_type = 2xrho1\n")
    assert model_spec_from_config(cfg, target_dim=3) == ModelSpec(
        target_dim=3, task="classification", heads=2, attention_type="2xrho1")
    assert model_spec_from_config(cfg, task="segmentation").task == "segmentation"


@pytest.mark.parametrize("text", ["[DEFAULT]\nepochs = 5\n", "[DEFAULT]\nseed = 3\n[run]\n"])
def test_default_section_rejected(text):
    # it was ignored (the first) or lent its keys to every section (the second)
    with pytest.raises(ConfigError, match=re.escape("unknown config section [DEFAULT]")):
        parse_config(text)
    # refusing it leaves the hash of every config that does not spell it alone
    assert config_hash(parse_config("")) == "edb68665566351be"


def test_reversed_scale_range_rejected():
    with pytest.raises(ConfigError, match="scale_min.*scale_max"):
        parse_config("[transforms]\nscale_min = 5\nscale_max = 0.5\n")
