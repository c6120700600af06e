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

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, FeatureTypeError, FrameBindingError
from .features import GeometricFeatureField, feature_type_for
from .layers import DenseLayer, EmanAttentionLayer, GaugeNonlinearity, GemConvLayer
from .representations import FeatureType
from .tangent import EdgeGeometry

__all__ = ["ModelSpec", "Model", "build_model"]

TASKS = ("segmentation", "classification")
LAYER_KINDS = ("gem", "eman")


@dataclass
class ModelSpec:
    """Everything needed to reconstruct a model architecture."""

    target_dim: int
    kind: str = "eman"
    task: str = "segmentation"
    features: str = "reltan"
    reltan_powers: tuple = (0.7,)
    hidden_type: str = "16x(rho0+rho1+rho2)"
    final_type: str = "16xrho0"
    attention_type: str | None = None
    dense_hidden: int = 256
    dropout: float = 0.5
    bias: str = "scalar"
    heads: int = 1
    self_contribution: bool = False
    residual_blocks: int = 3

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")

    @property
    def in_type(self) -> FeatureType:
        return feature_type_for(self.features, self.reltan_powers)


def _make_layer(spec: ModelSpec, in_type, out_type, att_type, rng):
    if spec.kind == "gem":
        return GemConvLayer(in_type, out_type, bias=spec.bias, rng=rng)
    return EmanAttentionLayer(
        in_type, out_type, att_type=att_type, bias=spec.bias,
        self_contribution=spec.self_contribution, heads=spec.heads, rng=rng,
    )


class Model:
    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        hidden = FeatureType.parse(spec.hidden_type)
        final = FeatureType.parse(spec.final_type)
        if final.max_order != 0:
            raise ConfigError("final conv type must contain only scalar channels")
        # attention representation defaults to the hidden composition
        att = (FeatureType.parse(spec.attention_type)
               if spec.attention_type is not None else hidden)
        self.in_type = spec.in_type
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
        """Logits: (V, target_dim) for segmentation, (1, target_dim) otherwise."""
        if features.ftype != self.in_type:
            raise FeatureTypeError(
                f"model expects input type {self.in_type}, got {features.ftype}"
            )
        if features.frame_token != geom.frame_token:
            raise FrameBindingError(
                "input features and edge geometry use different frame fields"
            )
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
                raise ValueError("training-mode forward needs an rng for dropout")
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

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([t.value.ravel() for _n, t in self.parameters()])

    def load_flat_parameters(self, flat: np.ndarray):
        """Overwrite every parameter; a vector of the wrong size changes none."""
        need = self.n_parameters()
        if flat.size != need:
            raise ConfigError(
                f"parameter vector has {flat.size} entries, model needs {need}"
            )
        pos = 0
        for _n, t in self.parameters():
            k = t.value.size
            t.value[...] = flat[pos:pos + k].reshape(t.value.shape)
            pos += k


def build_model(spec: ModelSpec, seed: int = 0) -> Model:
    """Construct a model with seed-deterministic initialization."""
    return Model(spec, np.random.default_rng(seed))
