import json

import pytest

from meshnet.cli import main
from meshnet.mesh import load_mesh

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
    ("eqgap", "[model]\nheads = 0\n", "[model] heads"),
    ("train", "[model]\ndropout = 1.0\n", "[model] dropout"),
    ("features", "[model]\nreltan_powers =\n", "[model] reltan_powers"),
    ("eqgap", "[model]\nreltan_powers = nan\n", "[model] reltan_powers"),
    ("eqgap", "[transforms]\nfamilies =\n", "[transforms] families"),
    ("eqgap", "[timing]\nrepetitions = 20\n", "[timing]"),
    ("eqgap", "[transforms]\ntranslation_range = inf\n", "[transforms] translation_range"),
    ("eqgap", "[transforms]\nscale_max = inf\n", "[transforms] scale_max"),
    ("train", "[training]\nlearning_rate = inf\n", "[training] learning_rate"),
    ("eqgap", "[model]\nbias = angular\n", "[model] bias"),
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


def test_unparsable_mesh_file_is_a_json_error(tmp_path, capsys):
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    (meshes / "a.off").write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
                                  "3 0 1 99999999999999999999\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[data]\nsource = files\nmesh_dir = {meshes}\n"
                   "train_meshes = 1\ntest_meshes = 0\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "MeshParseError"
    assert "a.off:6:" in error["message"]


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
    checkpoint = json.loads((tmp_path / "train.json").read_text())["checkpoint"]
    out = tmp_path / "eval.json"
    assert main(["eval", "--config", str(cfg), "--checkpoint", checkpoint,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config_hash"] and report["build_id"]
    assert set(report["accuracy"]) == {"train", "test", "gauge", "rot_tr_scale", "perm"}


@pytest.mark.parametrize("command", ["gen-mesh", "features", "train"])
def test_unwritable_out_is_a_json_error(tmp_path, capsys, command):
    # train fails on its checkpoint, written before the report
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / "missing" / "out.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "FileNotFoundError"
    assert "missing" in error["message"]


def test_time_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["time"])
    assert info.value.code == 2
