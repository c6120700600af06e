"""Experiment harness: equivariance-gap reports, toy training, evaluation.

The equivariance gap of a model under a transformation family is the mean
squared difference between the logits of the transformed input and the
(pushed-forward) logits of the original, averaged over a mesh set.  An
equivariant model shows gaps at floating-point noise level; models with raw
coordinates or plain vector biases show gaps orders of magnitude larger
under the corresponding family.

Every report embeds the config hash, a build identifier (hash of the
installed package sources), and the seed, so identical inputs reproduce
identical JSON, apart from the wall times of a training history.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time

import numpy as np

from . import __version__
from .autodiff import Adam, nll_loss
from .config import RunConfig, config_hash, model_spec_from_config
from .datasets import Dataset, dataset_from_config, eqgap_meshes
from .errors import CheckpointError, ConfigError, TrainingDivergedError
from .features import RELTAN_POWERS, compute_features
from .mesh import Mesh, generate_grid_patch, generate_icosphere
from .model import Model, build_model
from .tangent import EdgeGeometry, build_frames, regauge
from .transforms import (
    AmbientTransform,
    apply_ambient,
    apply_permutation,
    random_transform_suite,
)

__all__ = ["build_id", "model_logits", "transformed_logits", "equivariance_gap",
           "train", "evaluate", "save_checkpoint",
           "load_checkpoint", "generate_config_mesh", "features_report"]

_CKPT_MAGIC = b"MNET"
# 2: K(0) neighbor kernels; 3: order-major; 4: scalar-only bias; 5: stacked heads
_CKPT_VERSION = 5


def build_id() -> str:
    """Hash of the installed package sources (git-style build identifier)."""
    pkg_dir = os.path.dirname(__file__)
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(name.encode())
                h.update(fh.read())
    return h.hexdigest()[:12]


def _report_header(cfg: RunConfig) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "build_id": build_id(),
        "seed": cfg.run["seed"],
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Forward pipeline
# ---------------------------------------------------------------------------

def mesh_pipeline(mesh: Mesh, family: str, powers=RELTAN_POWERS):
    """Frames, transport, edge geometry, and input features for one mesh."""
    frames = build_frames(mesh)
    geom = EdgeGeometry.from_frames(frames)
    field = compute_features(family, mesh, frames, powers)
    return frames, geom, field


def model_logits(model: Model, mesh: Mesh) -> np.ndarray:
    spec = model.spec
    _frames, geom, field = mesh_pipeline(mesh, spec.features, spec.reltan_powers)
    return model.forward(field, geom).value


# ---------------------------------------------------------------------------
# Equivariance gap
# ---------------------------------------------------------------------------

# the parts of a suite's similarity that each ambient family applies
_AMBIENT_PARTS = {"rot_tr_scale": ("rotation", "translation", "scale"), "rot": ("rotation",),
                  "translate": ("translation",), "scale": ("scale",)}


def transformed_logits(model: Model, mesh: Mesh, family: str, suite, frames) -> np.ndarray:
    """Logits of ``mesh``, whose frames are ``frames``, under ``suite``'s ``family`` member.

    Rows stay in the original vertex order, so they compare directly with
    :func:`model_logits` of the untransformed mesh.  The gauge family
    rotates ``frames`` rather than re-selecting reference neighbors, which
    isolates gauge sensitivity.
    """
    spec = model.spec
    if family == "gauge":
        frames, geom = regauge(frames, suite.gauge)
        field = compute_features(spec.features, mesh, frames, spec.reltan_powers)
        return model.forward(field, geom).value
    if family == "perm":
        logits = model_logits(model, apply_permutation(mesh, suite.perm))
        if spec.task == "segmentation":
            return suite.perm.unpermute_rows(logits)
        return logits
    parts = {k: getattr(suite.ambient, k) for k in _AMBIENT_PARTS[family]}
    return model_logits(model, apply_ambient(mesh, AmbientTransform(**parts)))


def _transform_suite(cfg: RunConfig, n_vertices: int, rng):
    """One transform of every family, drawn within the configured ranges."""
    tr = cfg.transforms
    return random_transform_suite(n_vertices, rng, tr["translation_range"],
                                  tr["scale_min"], tr["scale_max"])


def equivariance_gap(cfg: RunConfig) -> dict:
    """Mean per-family logit MSE of a randomly initialized model."""
    seed = cfg.run["seed"]
    spec = model_spec_from_config(cfg)
    model = build_model(spec, seed)
    meshes = eqgap_meshes(cfg.data["n_meshes"], seed, cfg.data["subdivisions"])
    tr = cfg.transforms
    families = list(tr["families"])
    gaps = {f: [] for f in families}
    rng = np.random.default_rng(seed + 1)
    for mesh in meshes:
        frames, geom, field = mesh_pipeline(mesh, spec.features, spec.reltan_powers)
        logits0 = model.forward(field, geom).value
        for _ in range(tr["samples_per_mesh"]):
            suite = _transform_suite(cfg, mesh.n_vertices, rng)
            for family in families:
                logits1 = transformed_logits(model, mesh, family, suite, frames)
                gaps[family].append(float(np.mean((logits1 - logits0) ** 2)))
    report = _report_header(cfg)
    report.update({
        "kind": spec.kind,
        "features": spec.features,
        "bias": spec.bias,
        "n_meshes": len(meshes),
        "gaps": {f: float(np.mean(v)) for f, v in gaps.items()},
    })
    return report


# ---------------------------------------------------------------------------
# Training / evaluation
# ---------------------------------------------------------------------------

def _accuracy(task: str, samples, logits) -> float:
    """Percentage of correct predictions, from one logits array per sample."""
    correct = total = 0
    for s, sample_logits in zip(samples, logits):
        pred = sample_logits.argmax(axis=1)
        if task == "segmentation":
            correct += int((pred == s.label).sum())
            total += len(s.label)
        else:
            correct += int(pred[0] == s.label)
            total += 1
    return 100.0 * correct / total


def train(cfg: RunConfig, dataset: Dataset | None = None):
    """NLL training with Adam on the configured dataset.

    No transformations are applied to the training meshes.  Each history
    epoch records its mean loss, train accuracy, wall time and the largest
    global gradient norm of its steps.  Returns ``(model, metrics)``; raises
    TrainingDivergedError, naming the first non-finite parameter if there is
    one, if the loss leaves the reals.
    """
    if dataset is None:
        dataset = dataset_from_config(cfg)
    seed = cfg.run["seed"]
    spec = model_spec_from_config(cfg, target_dim=dataset.target_dim,
                                  task=dataset.task)
    model = build_model(spec, seed)
    opt = Adam([t for _n, t in model.parameters()], lr=cfg.training["learning_rate"])
    drop_rng = np.random.default_rng(seed + 2)
    batch_size = cfg.training["batch_size"]

    # geometry and features never change during training: precompute
    prepared = []
    for s in dataset.train:
        _frames, geom, field = mesh_pipeline(s.mesh, spec.features, spec.reltan_powers)
        target = (np.asarray(s.label) if spec.task == "segmentation"
                  else np.array([s.label]))
        prepared.append((field, geom, target))

    history = []
    for epoch in range(cfg.training["epochs"]):
        start_s = time.perf_counter()
        losses, grad_norms = [], []
        for start in range(0, len(prepared), batch_size):
            batch = prepared[start:start + batch_size]
            opt.zero_grad()
            total = None
            for field, geom, target in batch:
                logits = model.forward(field, geom, train=True, rng=drop_rng)
                loss = nll_loss(logits, target)
                total = loss if total is None else total + loss
            total = total * (1.0 / len(batch))
            if not np.isfinite(total.item()):
                bad = next((n for n, t in model.parameters()
                            if not np.isfinite(t.value).all()), None)
                raise TrainingDivergedError(epoch, total.item(), bad)
            total.backward()
            grad_norms.append(float(np.sqrt(sum(np.vdot(p.grad, p.grad)
                                                for p in opt.params))))
            opt.step()
            losses.append(total.item())
        acc = _accuracy(spec.task, dataset.train,
                        (model.forward(field, geom).value for field, geom, _t in prepared))
        history.append({"epoch": epoch, "loss": float(np.mean(losses)),
                        "train_accuracy": acc,
                        "wall_s": time.perf_counter() - start_s,
                        "grad_norm_max": max(grad_norms)})
    metrics = _report_header(cfg)
    metrics.update({
        "epochs": cfg.training["epochs"],
        "final_train_accuracy": history[-1]["train_accuracy"] if history else None,
        "history": history,
        "n_parameters": model.n_parameters(),
    })
    return model, metrics


def evaluate(cfg: RunConfig, model: Model | None = None,
             checkpoint: str | None = None, dataset: Dataset | None = None) -> dict:
    """Accuracy table: train / test / per transformation family."""
    if dataset is None:
        dataset = dataset_from_config(cfg)
    if not dataset.test:
        raise ConfigError("evaluation needs a non-empty test set")
    if model is None:
        spec = model_spec_from_config(cfg, target_dim=dataset.target_dim,
                                      task=dataset.task)
        model = build_model(spec, cfg.run["seed"])
        if checkpoint is None:
            raise ConfigError("evaluate needs a model or a checkpoint path")
        load_checkpoint(model, checkpoint, expect_hash=config_hash(cfg))
    seed = cfg.run["seed"]
    report = _report_header(cfg)
    spec = model.spec
    test = [mesh_pipeline(s.mesh, spec.features, spec.reltan_powers) for s in dataset.test]
    accuracy = {"train": _accuracy(spec.task, dataset.train,
                                   (model_logits(model, s.mesh) for s in dataset.train)),
                "test": _accuracy(spec.task, dataset.test,
                                  (model.forward(field, geom).value for _fr, geom, field in test))}
    for offset, family in enumerate(("gauge", "rot_tr_scale", "perm"), 10):
        rng = np.random.default_rng(seed + offset)
        suites = [_transform_suite(cfg, s.mesh.n_vertices, rng) for s in dataset.test]
        accuracy[family] = _accuracy(spec.task, dataset.test, (
            transformed_logits(model, s.mesh, family, suite, frames)
            for s, (frames, _g, _f), suite in zip(dataset.test, test, suites)))
    report["accuracy"] = accuracy
    return report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str, cfg_hash: str):
    """Binary record: magic, version, hash, count, float64 parameters in
    ``Model.parameters()`` order; JSON sidecar."""
    flat = model.flat_parameters()
    hash_bytes = cfg_hash.encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(hash_bytes)))
        fh.write(hash_bytes)
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.astype("<f8").tobytes())
    sidecar = {
        "config_hash": cfg_hash,
        "n_parameters": int(flat.size),
        "layers": [{"name": n, "shape": list(t.value.shape)}
                   for n, t in model.parameters()],
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated {what}")
    return data


def load_checkpoint(model: Model, path: str, expect_hash: str | None = None):
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _CKPT_MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint file")
            version, hash_len = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
            if version != _CKPT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version {version} is not supported "
                    f"(expected {_CKPT_VERSION})"
                )
            stored_hash = _read_exact(fh, hash_len, path, "config hash").decode()
            (count,) = struct.unpack("<Q", _read_exact(fh, 8, path, "parameter count"))
            flat = np.frombuffer(_read_exact(fh, count * 8, path, "parameter record"),
                                 dtype="<f8").copy()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if expect_hash is not None and stored_hash != expect_hash:
        raise CheckpointError(
            f"checkpoint was written for config {stored_hash}, "
            f"current config hashes to {expect_hash}"
        )
    try:
        model.load_flat_parameters(flat)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return stored_hash


# ---------------------------------------------------------------------------
# Small CLI helpers
# ---------------------------------------------------------------------------

def generate_config_mesh(cfg: RunConfig) -> Mesh:
    m = cfg.mesh
    if m["generator"] == "icosphere":
        return generate_icosphere(m["subdivisions"])
    return generate_grid_patch(m["rows"], m["cols"], m["noise"], cfg.run["seed"])


def features_report(cfg: RunConfig) -> dict:
    mesh = generate_config_mesh(cfg)
    frames, _geom, field = mesh_pipeline(
        mesh, cfg.model["features"], cfg.model["reltan_powers"])
    report = _report_header(cfg)
    report.update({
        "family": cfg.model["features"],
        "feature_type": str(field.ftype),
        "n_vertices": mesh.n_vertices,
        "values": field.values.tolist(),
    })
    if cfg.mesh["dump_frames"]:
        report["frames"] = {
            "normals": frames.normals.tolist(),
            "e1": frames.e1.tolist(),
            "e2": frames.e2.tolist(),
        }
    return report
