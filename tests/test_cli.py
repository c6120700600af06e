import json
import re

import numpy as np
import pytest

from meshnet import cli
from meshnet.cli import main
from meshnet.mesh import generate_icosphere, load_mesh
from test_mesh import BAD_TOKENS, TETRA_OFF

TINY = """
[model]
hidden_type = rho0+rho1
final_type = 2xrho0
dense_hidden = 8
[mesh]
subdivisions = 0
[data]
subdivisions = 0
train_meshes = 2
test_meshes = 1
n_meshes = 1
[training]
epochs = 1
"""


@pytest.mark.parametrize("command, text, key", [
    ("gen-mesh", "[mesh]\ngenerator = grid_patch\nrows = 1\n", "[mesh] rows"),
    ("gen-mesh", "[mesh]\nsubdivisions = -1\n", "[mesh] subdivisions"),
    ("gen-mesh", "[mesh]\ngenerator = cube\n", "[mesh] generator"),
    ("eqgap", "[model]\nself_contribution = maybe\n", "[model] self_contribution"),
    # a key before any section header
    ("eqgap", "seed = 3\n", "cannot parse config"),
    ("eqgap", "[model]\nheads = 0\n", "[model] heads"),
    ("train", "[model]\ndropout = 1.0\n", "[model] dropout"),
    ("features", "[model]\nreltan_powers =\n", "[model] reltan_powers"),
    ("eqgap", "[model]\nreltan_powers = nan\n", "[model] reltan_powers"),
    ("eqgap", "[transforms]\nfamilies =\n", "[transforms] families"),
    ("eqgap", "[timing]\nrepetitions = 20\n", "[timing]"),
    # configparser's default section would leak its keys into every section
    ("eqgap", "[DEFAULT]\nseed = 3\n[run]\n[model]\n", "unknown config section [DEFAULT]"),
    # keys that had no effect, or could not work, are refused rather than ignored
    ("eval", "[run]\ncheckpoint = train.json.ckpt\n", "unknown config key [run] checkpoint"),
    ("train", "[model]\ntarget_dim = 3\n", "unknown config key [model] target_dim"),
    ("train", "[training]\nbatch_size = 2\n", "unknown config key [training] batch_size"),
    ("eqgap", "[transforms]\nsamples_per_mesh = 2\n",
     "unknown config key [transforms] samples_per_mesh"),
    ("features", "[mesh]\ndump_frames = true\n", "unknown config key [mesh] dump_frames"),
    ("eqgap", "[transforms]\ntranslation_range = inf\n", "[transforms] translation_range"),
    # finite, but uniform(-r, r) cannot draw across a width 2 r that overflows
    ("eqgap", "[transforms]\ntranslation_range = 1e308\n", "[transforms] translation_range"),
    ("eval", "[transforms]\ntranslation_range = 1e308\n", "[transforms] translation_range"),
    ("eqgap", "[mesh]\nnoise = inf\n", "[mesh] noise"),
    ("eqgap", "[data]\nnoise = nan\n", "[data] noise"),
    ("train", "[data]\nbump_amplitude = -inf\n", "[data] bump_amplitude"),
    ("eqgap", "[transforms]\nscale_max = inf\n", "[transforms] scale_max"),
    ("train", "[training]\nlearning_rate = inf\n", "[training] learning_rate"),
    ("eqgap", "[model]\nbias = angular\n", "[model] bias"),
    # the head count splits the attention and the output type; 2**62 heads
    # must be refused before any type is built for them
    ("eqgap", "[model]\nheads = 4611686018427387904\n", "heads = 4611686018427387904"),
    ("eqgap", "[model]\nhidden_type = 2x(rho0+rho1)\nattention_type = 3x(rho0+rho1)\n"
     "heads = 2\n", "heads = 2 does not divide the multiplicities of 3xrho0+3xrho1"),
    # a type is read when the config loads; multiplicities that cannot be
    # built are refused without allocating them
    ("eqgap", "[model]\nhidden_type = 4611686018427387904xrho0\n", "[model] hidden_type"),
    ("eqgap", "[model]\nfinal_type = 100000000000000000000xrho0\n", "[model] final_type"),
    ("eqgap", "[model]\nattention_type = rho0+\n", "[model] attention_type"),
    # the spec judges every model setting, so a GEM model's heads and a final
    # type of vector channels are refused with the others when the config loads
    ("eqgap", "[model]\nkind = gem\nheads = 0\n", "[model] heads"),
    ("eqgap", "[model]\nfinal_type = rho1\n", "[model] final_type"),
    # three heads cannot split the default types: refused by key as the
    # config loads, not as the model builds
    ("eqgap", "[model]\nheads = 3\n", "[model] heads"),
    ("train", "[model]\nattention_type = 3xrho1\nheads = 2\n", "[model] heads"),
    ("train", "[run]\ntask = regression\n", "[run] task"),
])
def test_out_of_range_config_value(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert key in error["message"]


def test_overflowing_reltan_power_is_a_json_error(tmp_path, capsys):
    # finite, but dist ** (power - 1) overflows: the features are not finite
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nreltan_powers = 1e308\n")
    code = main(["eqgap", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "NonFiniteFeatureError"
    assert "relative power 1e+308" in error["message"]


def _train_on_file(tmp_path, name, text):
    """Exit code of ``meshnet train`` for zero epochs of a tiny model on one
    mesh file."""
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    (meshes / name).write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nhidden_type = rho0+rho1\nfinal_type = 2xrho0\n"
                   f"dense_hidden = 8\n[data]\nsource = files\nmesh_dir = {meshes}\n"
                   "train_meshes = 1\ntest_meshes = 0\n[training]\nepochs = 0\n")
    return main(["train", "--config", str(cfg), "--out", str(tmp_path / "out.json")])


def test_unparsable_mesh_file_is_a_json_error(tmp_path, capsys):
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n"
    assert _train_on_file(tmp_path, "a.off", text) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "MeshParseError"
    assert "a.off:6:" in error["message"]


def test_file_of_no_mesh_format_is_a_json_error(tmp_path, capsys):
    # every file of a files-mode directory is a mesh; none is skipped
    assert _train_on_file(tmp_path, "notes.txt", "not a mesh\n") == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "MeshParseError" and "'txt'" in error["message"]


def test_folded_mesh_file_is_a_json_error(tmp_path, capsys):
    # two coplanar triangles of opposite orientation: no normal at vertex 0
    text = "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 -1 0\n3 0 1 2\n3 0 2 3\n"
    assert _train_on_file(tmp_path, "strip.off", text) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error == {"type": "DegenerateNormalError",
                     "message": "vertex 0: area-weighted normal sum is zero"}


def test_mesh_file_without_vertices_is_a_json_error(tmp_path, capsys):
    assert _train_on_file(tmp_path, "empty.off", "OFF\n0 0 0\n") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "MeshValidationError"


def _tetra_with(token_index, token):
    pieces = re.split(r"(\s+)", TETRA_OFF)  # tokens at even positions
    pieces[2 * token_index] = token
    return "".join(pieces)


# each bad token in place of the vertex count, a coordinate and a face index,
# and the file cut in its vertex and in its face block; the intact file trains
MUTATED_TETRA = {
    "intact": TETRA_OFF,
    **{f"{where}={token}": _tetra_with(i, token)
       for where, i in (("n_vertices", 1), ("coordinate", 7), ("face_index", 18))
       for token in BAD_TOKENS},
    "cut_in_vertices": TETRA_OFF[:20],
    "cut_in_faces": TETRA_OFF[:-10],
}


@pytest.mark.parametrize("text", MUTATED_TETRA.values(), ids=MUTATED_TETRA.keys())
def test_mutated_mesh_file_trains_or_is_a_json_error(tmp_path, capsys, text):
    code = _train_on_file(tmp_path, "m.off", text)
    lines = capsys.readouterr().out.splitlines()
    if code == 0:
        assert not lines
        assert json.loads((tmp_path / "out.json").read_text())["epochs"] == 0
    else:
        assert code == 1 and len(lines) == 1
        assert set(json.loads(lines[0])["error"]) == {"type", "message"}


def test_negative_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("MESHNET_SEED", "-3")
    assert main(["features"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "MESHNET_SEED" in error["message"]


def test_every_subcommand_succeeds(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    off = tmp_path / "mesh.off"
    assert main(["gen-mesh", "--config", str(cfg), "--out", str(off)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config_hash"] and report["build_id"]
    assert report["n_vertices"] == load_mesh(off).n_vertices == 12
    for command in ("features", "eqgap", "train"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config_hash"] and report["build_id"]
    # vector features are written in these gauges: one frame per vertex
    frames = json.loads((tmp_path / "features.json").read_text())["frames"]
    assert {k: np.shape(v) for k, v in frames.items()} == {
        "normals": (12, 3), "e1": (12, 3), "e2": (12, 3)}
    checkpoint = json.loads((tmp_path / "train.json").read_text())["checkpoint"]
    assert sorted(p.name for p in tmp_path.glob("*.ckpt*")) == ["train.json.ckpt"]
    out = tmp_path / "eval.json"
    assert main(["eval", "--config", str(cfg), "--checkpoint", checkpoint,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config_hash"] and report["build_id"]
    assert set(report["accuracy"]) == {"train", "test", "gauge", "rot_tr_scale", "perm"}


def test_gen_mesh_writes_the_format_its_extension_names(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    want = generate_icosphere(0)  # TINY's [mesh]
    for name in ("m.off", "m.obj"):
        assert main(["gen-mesh", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        got = load_mesh(tmp_path / name)
        assert got.vertices.tobytes() == want.vertices.tobytes(), name
        assert got.faces.tobytes() == want.faces.tobytes(), name
    capsys.readouterr()
    # an extension that names no mesh format writes nothing
    txt = tmp_path / "m.txt"
    assert main(["gen-mesh", "--config", str(cfg), "--out", str(txt)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "MeshParseError" and "'txt'" in error["message"]
    assert not txt.exists()


def test_eval_without_checkpoint_is_a_json_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert main(["eval", "--config", str(cfg)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "checkpoint" in error["message"]
    # a checkpoint is named, but there is no test mesh to evaluate
    cfg.write_text(TINY.replace("test_meshes = 1", "test_meshes = 0"))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "no.ckpt")]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "needs a non-empty test set" in error["message"]


@pytest.mark.parametrize("command", ["gen-mesh", "features", "train"])
def test_unwritable_out_is_a_json_error(tmp_path, capsys, command):
    # train fails on its checkpoint, written before the report
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / "missing" / ("out.off" if command == "gen-mesh" else "out.json")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "FileNotFoundError"
    assert "missing" in error["message"]


def test_oversize_grid_is_a_json_error(tmp_path, capsys):
    # the grid is refused before it is built, and no file is written
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("[mesh]\ngenerator = grid_patch\nrows = 1000000\ncols = 1000000\n")
    out = tmp_path / "g.off"
    assert main(["gen-mesh", "--config", str(cfg), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "MeshValidationError"
    assert "1000000000000 vertices" in error["message"]
    assert not out.exists()


def test_memory_error_is_a_json_error(tmp_path, capsys, monkeypatch):
    # an allocation numpy refuses (a dense head of 10^9 units) ended in a
    # traceback and an empty stdout; here the report raises it without allocating
    def unable(cfg):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "equivariance_gap", unable)
    assert main(["eqgap", "--out", str(tmp_path / "gap.json")]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "MemoryError", "message": "Unable to allocate 7.45 GiB for an array"}
    assert json.loads((tmp_path / "gap.json").read_text())["error"] == error


def test_gen_mesh_without_out_is_a_json_error(capsys):
    assert main(["gen-mesh"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "MeshNetError" and "needs --out" in error["message"]


def test_time_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["time"])
    assert info.value.code == 2
