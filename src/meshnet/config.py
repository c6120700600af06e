"""Run configuration: flat key=value files with [section] headers.

Every key has a typed default; unknown sections or keys are rejected.  The
environment variable ``MESHNET_SEED`` overrides ``[run] seed``.  The config
hash embedded in reports and checkpoints is taken over the fully resolved
key set, so two configs that differ only in formatting hash identically.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os

from .errors import ConfigError
from .model import ModelSpec

__all__ = ["RunConfig", "load_config", "parse_config", "default_config",
           "config_hash", "model_spec_from_config"]


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _checked(parse, ok, what):
    def check(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value
    return check


def _at_least(parse, low):
    return _checked(parse, lambda v: low <= v < math.inf, f">= {low} and finite")


def _positive(parse):
    return _checked(parse, lambda v: 0 < v < math.inf, "> 0 and finite")


def _enum(*allowed):
    def parse(text):
        t = text.strip()
        if t not in allowed:
            raise ValueError(f"expected one of {allowed}, got {t!r}")
        return t
    return parse


def _list(parse):
    """Comma-separated items, each read by ``parse``; at least one."""
    def parse_list(text):
        items = (x.strip() for x in text.strip().strip("[]").split(","))
        return tuple(parse(x) for x in items if x)
    return _checked(parse_list, bool, "a non-empty list")


_SCHEMA = {
    "run": {
        "seed": (_at_least(int, 0), 0),
        "task": (_enum("segmentation", "classification"), "segmentation"),
        "checkpoint": (str, ""),
    },
    "model": {
        "kind": (_enum("gem", "eman"), "eman"),
        "bias": (_enum("scalar", "additive", "none"), "scalar"),
        "features": (_enum("xyz", "get", "reltan"), "reltan"),
        "reltan_powers": (_list(_checked(float, math.isfinite, "finite")), (0.7,)),
        "hidden_type": (str, "16x(rho0+rho1+rho2)"),
        "final_type": (str, "16xrho0"),
        "attention_type": (str, ""),
        "dense_hidden": (_at_least(int, 1), 256),
        "dropout": (_checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"), 0.5),
        "heads": (_at_least(int, 1), 1),
        "self_contribution": (_bool, False),
        "target_dim": (_at_least(int, 1), 10),
    },
    "mesh": {
        "generator": (_enum("icosphere", "grid_patch"), "icosphere"),
        "subdivisions": (_at_least(int, 0), 1),
        "rows": (_at_least(int, 2), 8),
        "cols": (_at_least(int, 2), 8),
        "noise": (float, 0.0),
        "dump_frames": (_bool, False),
    },
    "data": {
        "source": (_enum("synthetic", "files"), "synthetic"),
        "train_meshes": (_at_least(int, 1), 10),
        "test_meshes": (_at_least(int, 0), 5),
        "subdivisions": (_at_least(int, 0), 1),
        "bump_amplitude": (float, 0.3),
        "noise": (float, 0.05),
        "n_meshes": (_at_least(int, 1), 20),
        "mesh_dir": (str, ""),
    },
    "training": {
        "learning_rate": (_positive(float), 0.01),
        "epochs": (_at_least(int, 0), 100),
        "batch_size": (_at_least(int, 1), 1),
    },
    "transforms": {
        "families": (_list(_enum("gauge", "rot_tr_scale", "rot", "translate",
                                 "scale", "perm")),
                     ("gauge", "rot_tr_scale", "perm")),
        "samples_per_mesh": (_at_least(int, 1), 1),
        "translation_range": (_at_least(float, 0.0), 10.0),
        "scale_min": (_positive(float), 0.1),
        "scale_max": (_positive(float), 10.0),
    },
}


class RunConfig:
    """Resolved configuration; section dicts are attributes."""

    def __init__(self, sections):
        self.sections = sections
        for name, values in sections.items():
            setattr(self, name, values)

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                value = self.sections[section][key]
                if isinstance(value, tuple):
                    value = ", ".join(str(v) for v in value)
                lines.append(f"{section}.{key} = {value}")
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    resolved = {s: {k: d for k, (_p, d) in keys.items()} for s, keys in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            parse_fn, _default = _SCHEMA[section][key]
            try:
                resolved[section][key] = parse_fn(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    env_seed = os.environ.get("MESHNET_SEED")
    if env_seed is not None:
        try:
            resolved["run"]["seed"] = _SCHEMA["run"]["seed"][0](env_seed)
        except ValueError as exc:
            raise ConfigError(f"bad value for MESHNET_SEED: {exc}") from exc
    tr = resolved["transforms"]
    if tr["scale_min"] > tr["scale_max"]:
        raise ConfigError(f"[transforms] scale_min = {tr['scale_min']} exceeds "
                          f"scale_max = {tr['scale_max']}")
    return RunConfig(resolved)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def default_config() -> RunConfig:
    return parse_config("")


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.canonical_text().encode()).hexdigest()[:16]


def model_spec_from_config(cfg: RunConfig, target_dim=None, task=None) -> ModelSpec:
    m = cfg.model
    return ModelSpec(
        target_dim=target_dim if target_dim is not None else m["target_dim"],
        kind=m["kind"],
        task=task if task is not None else cfg.run["task"],
        features=m["features"],
        reltan_powers=tuple(m["reltan_powers"]),
        hidden_type=m["hidden_type"],
        final_type=m["final_type"],
        attention_type=m["attention_type"] or None,
        dense_hidden=m["dense_hidden"],
        dropout=m["dropout"],
        bias=m["bias"],
        heads=m["heads"],
        self_contribution=m["self_contribution"],
    )
