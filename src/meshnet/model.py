"""Whole-model assembly: entry layer, residual conv blocks, dense head.

The network is a convolution block followed by a dense block.  The
convolution block is one non-residual entry layer taking the input feature
type to the hidden type, three residual pairs of equivariant layers on the
hidden type, and a final layer collapsing to scalar channels.  The dense
block is two affine layers with ReLU and dropout between them; for
classification the per-vertex activations are mean-pooled before the last
layer, making the logits permutation invariant.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, _recording_as
from .errors import ConfigError, FeatureTypeError, FrameBindingError, _kept
from .features import FAMILIES, RELTAN_POWERS, GeometricFeatureField, feature_type_for
from .layers import (BIAS_MODES, DenseLayer, EmanAttentionLayer, GaugeNonlinearity,
                     GemConvLayer, _heads)
from .representations import FeatureType
from .tangent import EdgeGeometry

__all__ = ["ModelSpec", "Model", "build_model"]

TASKS = ("segmentation", "classification")
LAYER_KINDS = ("gem", "eman")
# each field annotation's test of a value (a bool is no number) and its name
_KINDS = {
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    bool: (lambda v: isinstance(v, bool), "a bool"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, tuple) and all(map(_KINDS[float][0], v)), "a tuple of reals"),
}


@dataclass
class ModelSpec:
    """Everything needed to reconstruct a model architecture.

    The defaults are the config's; an empty ``attention_type`` is the hidden type.
    Construction is the one check of every field, of its annotated type first
    (a :class:`ConfigError` whose ``key`` names it), an EMAN model's ``heads``
    against each of its types too; :class:`Model` builds from a checked copy.
    """

    target_dim: int = 10
    kind: str = "eman"
    task: str = "segmentation"
    features: str = "reltan"
    reltan_powers: tuple = RELTAN_POWERS
    hidden_type: str = "16x(rho0+rho1+rho2)"
    final_type: str = "16xrho0"
    attention_type: str = ""
    dense_hidden: int = 256
    dropout: float = 0.5
    bias: str = "scalar"
    heads: int = 1
    self_contribution: bool = False
    residual_blocks: int = 3

    def __post_init__(self):
        for name, hint in typing.get_type_hints(ModelSpec).items():
            ok, what = _KINDS[hint]
            if not ok(getattr(self, name)):
                raise ConfigError(f"ModelSpec {name} must be {what}, "
                                  f"got {getattr(self, name)!r}", key=name)
        types, powers = {}, self.reltan_powers
        for name in ("hidden_type", "final_type") + ("attention_type",) * bool(self.attention_type):
            try:
                types[name] = FeatureType.parse(getattr(self, name))
            except FeatureTypeError as exc:
                raise ConfigError(f"ModelSpec {name} must be a feature type: {exc}", key=name)
        for name, ok, what in (
                ("kind", self.kind in LAYER_KINDS, f"one of {LAYER_KINDS}"),
                ("task", self.task in TASKS, f"one of {TASKS}"),
                ("target_dim", self.target_dim >= 1, ">= 1"),
                ("features", self.features in FAMILIES, f"one of {FAMILIES}"),
                ("reltan_powers", powers and np.isfinite(powers).all(), "non-empty and finite"),
                ("final_type", types["final_type"].max_order == 0, "of scalar channels only"),
                ("dense_hidden", self.dense_hidden >= 1, ">= 1"),
                ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
                ("bias", self.bias in BIAS_MODES, f"one of {BIAS_MODES}"),
                ("heads", self.heads >= 1, ">= 1"),
                ("residual_blocks", self.residual_blocks >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"ModelSpec {name} must be {what}, "
                                  f"got {getattr(self, name)!r}", key=name)
        for t in types.values() if self.kind == "eman" else ():
            try:
                _heads(t, self.heads)
            except ConfigError as exc:
                raise ConfigError(f"ModelSpec heads must be a divisor of every "
                                  f"multiplicity: {exc}", key="heads")


def _make_layer(spec: ModelSpec, in_type, out_type, att_type, rng):
    if spec.kind == "gem":
        return GemConvLayer(in_type, out_type, bias=spec.bias, rng=rng)
    return EmanAttentionLayer(
        in_type, out_type, att_type=att_type, bias=spec.bias,
        self_contribution=spec.self_contribution, heads=spec.heads, rng=rng,
    )


class Model:
    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec = replace(spec)  # checked again; later edits leave it alone
        hidden = FeatureType.parse(spec.hidden_type)
        final = FeatureType.parse(spec.final_type)
        att = FeatureType.parse(spec.attention_type) if spec.attention_type else hidden
        self.in_type = feature_type_for(spec.features, spec.reltan_powers)
        self.entry = _make_layer(spec, self.in_type, hidden, att, rng)
        self.entry_nl = GaugeNonlinearity(hidden)
        self.blocks = []
        for _ in range(spec.residual_blocks):
            pair = (
                _make_layer(spec, hidden, hidden, att, rng), GaugeNonlinearity(hidden),
                _make_layer(spec, hidden, hidden, att, rng), GaugeNonlinearity(hidden),
            )
            self.blocks.append(pair)
        self.final = _make_layer(spec, hidden, final, att, rng)
        self.dense1 = DenseLayer(final.dim, spec.dense_hidden, rng)
        self.dense2 = DenseLayer(spec.dense_hidden, spec.target_dim, rng)

    def forward(self, features: GeometricFeatureField, geom: EdgeGeometry,
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """Logits: (V, target_dim) for segmentation, (1, target_dim) otherwise;
        ``train=False`` records no tape, so a backward needs ``train=True``."""
        if features.ftype != self.in_type:
            raise FeatureTypeError(f"model expects input type {self.in_type}, got {features.ftype}")
        if features.frames is not geom.frames:
            raise FrameBindingError("input features and edge geometry use different frame fields")
        with _recording_as(train):
            x = Tensor(features.values)
            x = self.entry_nl.forward(self.entry.forward(x, geom))
            for conv1, nl1, conv2, nl2 in self.blocks:
                y = nl1.forward(conv1.forward(x, geom))
                y = nl2.forward(conv2.forward(y, geom))
                x = x + y
            z = self.final.forward(x, geom)
            h = self.dense1.forward(z).relu()
            if train and self.spec.dropout > 0.0:
                if rng is None:
                    raise ConfigError(f"a training forward with dropout = "
                                      f"{self.spec.dropout} needs an rng")
                keep = 1.0 - self.spec.dropout
                mask = (rng.random(h.shape) < keep).astype(np.float64) / keep
                h = h * mask
            if self.spec.task == "classification":
                h = h.mean(axis=0, keepdims=True)
            return self.dense2.forward(h)

    def parameters(self):
        """Deterministically ordered (name, tensor) pairs."""
        parts = [("entry", self.entry), ("entry_nl", self.entry_nl)]
        for bi, block in enumerate(self.blocks):
            parts += zip((f"block{bi}.{tag}" for tag in ("conv0", "nl0", "conv1", "nl1")),
                         block)
        parts += [("final", self.final), ("dense1", self.dense1), ("dense2", self.dense2)]
        return [(f"{tag}.{n}", t) for tag, part in parts for n, t in part.parameters()]

    def n_parameters(self):
        return sum(t.value.size for _n, t in self.parameters())


def build_model(spec: ModelSpec, seed: int = 0) -> Model:
    """Construct a model with seed-deterministic initialization; the seed is an
    integer >= 0, else a ConfigError."""
    if (seed := _kept(seed, np.int64, (), ConfigError, "seed")) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return Model(spec, np.random.default_rng(seed))
