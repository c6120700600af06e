"""Run configuration: flat key=value files with [section] headers.

Every key has a typed default; unknown sections or keys are rejected, and
:class:`ModelSpec` checks its fields: the ``[model]`` keys and ``[run] task``.
The environment variable ``MESHNET_SEED`` overrides ``[run] seed``.  The config
hash embedded in reports and checkpoints is taken over the fully resolved
key set, so two configs that differ only in formatting hash identically.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
import math
import os
import typing

from .datasets import segmentation_spheres
from .errors import ConfigError
from .model import ModelSpec
from .transforms import CORE_FAMILIES, TRANSFORM_FAMILIES

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


_finite = _checked(float, math.isfinite, "finite")


def _enum(*allowed):
    def parse(text):
        t = text.strip()
        if t not in allowed:
            raise ValueError(f"expected one of {allowed}, got {t!r}")
        return t
    return parse


def _list(parse):
    """Comma-separated items, each read by ``parse``."""
    def parse_list(text):
        items = (x.strip() for x in text.strip().strip("[]").split(","))
        return tuple(parse(x) for x in items if x)
    return parse_list


# a ModelSpec field is read by its type (the one tuple holds the reltan powers)
_READ = {int: int, float: float, str: str, bool: _bool, tuple: _list(float)}
# [data] bump_amplitude and noise default to those of segmentation_spheres,
# the one generator with defaults
_SPHERE_DEFAULTS = {k: p.default for k, p in
                    inspect.signature(segmentation_spheres).parameters.items()}

_SCHEMA = {
    "run": {
        "seed": (_at_least(int, 0), 0),
        "task": (str, ModelSpec.task),
    },
    # ModelSpec's fields and defaults but task, which [run] sets, target_dim,
    # which the dataset sets, and residual_blocks, which stays at the default
    "model": {name: (_READ[hint], getattr(ModelSpec, name))
              for name, hint in typing.get_type_hints(ModelSpec).items()
              if name not in ("task", "target_dim", "residual_blocks")},
    "mesh": {
        "generator": (_enum("icosphere", "grid_patch"), "icosphere"),
        "subdivisions": (_at_least(int, 0), 1),
        "rows": (_at_least(int, 2), 8),
        "cols": (_at_least(int, 2), 8),
        "noise": (_finite, 0.0),
    },
    "data": {
        "source": (_enum("synthetic", "files"), "synthetic"),
        "train_meshes": (_at_least(int, 1), 10),
        "test_meshes": (_at_least(int, 0), 5),
        "subdivisions": (_at_least(int, 0), 1),
        "bump_amplitude": (_finite, _SPHERE_DEFAULTS["bump_amplitude"]),
        "noise": (_finite, _SPHERE_DEFAULTS["noise"]),
        "n_meshes": (_at_least(int, 1), 20),
        "mesh_dir": (str, ""),
    },
    "training": {
        "learning_rate": (_positive(float), 0.01),
        "epochs": (_at_least(int, 0), 100),
    },
    "transforms": {
        "families": (_checked(_list(_enum(*TRANSFORM_FAMILIES)), bool, "non-empty"), CORE_FAMILIES),
        # a translation is drawn from uniform(-r, r), whose width 2 r must be finite
        "translation_range": (_checked(float, lambda v: 0.0 <= 2.0 * v < math.inf,
                                       ">= 0 and finite when doubled"), 10.0),
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
    # no header can spell the empty name, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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
    try:
        ModelSpec(task=resolved["run"]["task"], **resolved["model"])
    except ConfigError as exc:
        section = "run" if exc.key == "task" else "model"
        raise ConfigError(f"bad value for [{section}] {exc.key}: {exc}") from exc
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
    """The [model] section and the [run] task; given arguments override, and
    ``target_dim`` is the spec's default unless given."""
    given = {"target_dim": target_dim, "task": task}
    return ModelSpec(**{"task": cfg.run["task"], **cfg.model,
                        **{k: v for k, v in given.items() if v is not None}})
