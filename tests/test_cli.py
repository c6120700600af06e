import json

import pytest

from meshnet.cli import main


@pytest.mark.parametrize("command, text, key", [
    ("gen-mesh", "[mesh]\ngenerator = grid_patch\nrows = 1\n", "[mesh] rows"),
    ("gen-mesh", "[mesh]\nsubdivisions = -1\n", "[mesh] subdivisions"),
    ("eqgap", "[model]\nheads = 0\n", "[model] heads"),
    ("train", "[model]\ndropout = 1.0\n", "[model] dropout"),
])
def test_out_of_range_config_value(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert key in error["message"]


def test_negative_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("MESHNET_SEED", "-3")
    assert main(["features"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "MESHNET_SEED" in error["message"]
