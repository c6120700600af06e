"""Experiment harness: equivariance-gap reports, toy training, evaluation.

The equivariance gap of a model under a transformation family is the mean
squared difference between the logits of the transformed input and the
(pushed-forward) logits of the original, averaged over a mesh set.  An
equivariant model shows gaps at floating-point noise level; models with raw
coordinates or plain vector biases show gaps orders of magnitude larger
under the corresponding family.

Every pass that reads logits (train accuracy, evaluation's train and test
sets, the gap's base and each transform family) is one list of
:func:`mesh_pipeline` pairs turned into logits by ``_logits``; a transform
family only changes what ``mesh_pipeline`` is given.  A prepared mesh is its
edge geometry and features, bound to one FrameField (``geom.frames``), the
one handle on its mesh and its gauge.

Every report embeds the config hash, a build identifier (hash of the
installed package sources), and the seed, so identical inputs reproduce
identical JSON, apart from the wall times of a training history.  A
checkpoint is one ``.npz`` record of named float64 parameters, the format
version and the config hash; loading it checks all of them, the hash against
the current config's, or changes nothing.  Training and evaluation build
their dataset from the config alone, and evaluation reads its model from the
checkpoint that training wrote.
"""

from __future__ import annotations

import hashlib
import os
import time
import zipfile

import numpy as np

from . import __version__
from .autodiff import Adam, nll_loss
from .config import RunConfig, config_hash, model_spec_from_config
from .datasets import dataset_from_config, eqgap_meshes
from .errors import CheckpointError, ConfigError, TrainingDivergedError, TransformError
from .features import compute_features
from .mesh import Mesh, generate_grid_patch, generate_icosphere
from .model import Model, ModelSpec, build_model
from .tangent import EdgeGeometry, FrameField, build_frames, regauge
from .transforms import (
    CORE_FAMILIES,
    TRANSFORM_FAMILIES,
    AmbientTransform,
    apply_ambient,
    apply_permutation,
    random_transform_suite,
)

__all__ = ["build_id", "transformed_logits", "equivariance_gap", "train", "evaluate",
           "save_checkpoint", "load_checkpoint", "generate_config_mesh", "features_report"]

# 2: K(0) neighbor kernels; 3: order-major; 4: scalar-only bias; 5: stacked heads; 6: .npz
_CKPT_VERSION = 6


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


def _report(cfg: RunConfig, **fields) -> dict:
    """``fields`` under the header every report carries."""
    return {"config_hash": config_hash(cfg), "build_id": build_id(), "seed": cfg.run["seed"],
            "version": __version__, **fields}


# ---------------------------------------------------------------------------
# Forward pipeline
# ---------------------------------------------------------------------------

def mesh_pipeline(spec: ModelSpec, frames: FrameField, geom=None):
    """Edge geometry and ``spec``'s input features, both bound to ``frames``; a
    given ``geom`` is checked against them by :meth:`EdgeGeometry.from_frames`."""
    geom = EdgeGeometry.from_frames(frames, geom)
    return geom, compute_features(spec.features, frames.mesh, frames, spec.reltan_powers)


def _logits(model: Model, prepared) -> list:
    """Eval logits of every :func:`mesh_pipeline` pair in ``prepared``, one array each."""
    return [model.forward(field, geom).value for geom, field in prepared]


# ---------------------------------------------------------------------------
# Equivariance gap
# ---------------------------------------------------------------------------

def transformed_logits(model: Model, prepared, family: str, suites) -> list:
    """Logits of each prepared mesh under its suite's ``family`` member.

    ``prepared`` holds :func:`mesh_pipeline` pairs.  Rows stay in the
    original vertex order, so they compare directly with its :func:`_logits`.
    The gauge family rotates the prepared frames rather than re-selecting
    reference neighbors, which isolates gauge sensitivity.
    """
    spec = model.spec
    if family not in TRANSFORM_FAMILIES:
        raise TransformError(f"unknown transform family {family!r}")

    def transformed(frames, suite):
        if family == "gauge":
            return mesh_pipeline(spec, *regauge(frames, suite.gauge))
        parts = {k: getattr(suite.ambient, k) for k in TRANSFORM_FAMILIES[family]}
        moved = (apply_permutation(frames.mesh, suite.perm) if family == "perm"
                 else apply_ambient(frames.mesh, AmbientTransform(**parts)))
        return mesh_pipeline(spec, build_frames(moved))

    logits = _logits(model, [transformed(geom.frames, suite)
                             for (geom, _f), suite in zip(prepared, suites)])
    if family == "perm" and spec.task == "segmentation":
        return [suite.perm.unpermute_rows(lg) for suite, lg in zip(suites, logits)]
    return logits


def _transform_suites(cfg: RunConfig, prepared, rng) -> list:
    """One transform of every family per prepared mesh, drawn within the configured ranges."""
    tr = cfg.transforms
    return [random_transform_suite(geom.edges.n_vertices, rng, tr["translation_range"],
                                   tr["scale_min"], tr["scale_max"]) for geom, _f in prepared]


def equivariance_gap(cfg: RunConfig) -> dict:
    """Mean per-family logit MSE of a randomly initialized model."""
    seed = cfg.run["seed"]
    spec = model_spec_from_config(cfg)
    model = build_model(spec, seed)
    prepared = [mesh_pipeline(spec, build_frames(mesh)) for mesh in
                eqgap_meshes(cfg.data["n_meshes"], seed, cfg.data["subdivisions"])]
    base = _logits(model, prepared)
    suites = _transform_suites(cfg, prepared, np.random.default_rng(seed + 1))
    gaps = {f: float(np.mean([np.mean((lg1 - lg0) ** 2) for lg0, lg1 in
                              zip(base, transformed_logits(model, prepared, f, suites))]))
            for f in cfg.transforms["families"]}
    return _report(cfg, kind=spec.kind, features=spec.features, bias=spec.bias,
                   n_meshes=len(prepared), gaps=gaps)


# ---------------------------------------------------------------------------
# Training / evaluation
# ---------------------------------------------------------------------------

def _accuracy(samples, logits) -> float:
    """Percentage of correct predictions, from one logits array per sample."""
    correct = sum(int((lg.argmax(axis=1) == s.label).sum()) for s, lg in zip(samples, logits))
    return 100.0 * correct / sum(s.label.size for s in samples)


def train(cfg: RunConfig):
    """NLL training with Adam on the configured dataset, one step per training mesh.

    No transformations are applied to the training meshes.  Each history
    epoch records its mean loss, train accuracy, wall time and the largest
    global gradient norm of its steps.  Returns ``(model, metrics)``; raises
    TrainingDivergedError, naming the first non-finite parameter if there is
    one, if the loss leaves the reals.
    """
    dataset = dataset_from_config(cfg)
    seed = cfg.run["seed"]
    spec = model_spec_from_config(cfg, target_dim=dataset.target_dim, task=dataset.task)
    model = build_model(spec, seed)
    opt = Adam([t for _n, t in model.parameters()], lr=cfg.training["learning_rate"])
    drop_rng = np.random.default_rng(seed + 2)

    # geometry and features never change during training: precompute
    prepared = [mesh_pipeline(spec, build_frames(s.mesh)) for s in dataset.train]

    history = []
    for epoch in range(cfg.training["epochs"]):
        start_s = time.perf_counter()
        losses, grad_norms = [], []
        for (geom, field), s in zip(prepared, dataset.train):
            opt.zero_grad()
            loss = nll_loss(model.forward(field, geom, train=True, rng=drop_rng), s.label)
            if not np.isfinite(loss.item()):
                bad = next((n for n, t in model.parameters()
                            if not np.isfinite(t.value).all()), None)
                raise TrainingDivergedError(epoch, loss.item(), bad)
            loss.backward()
            grad_norms.append(float(np.sqrt(sum(np.vdot(p.grad, p.grad)
                                                for p in opt.params))))
            opt.step()
            losses.append(loss.item())
        history.append({"epoch": epoch, "loss": float(np.mean(losses)),
                        "train_accuracy": _accuracy(dataset.train, _logits(model, prepared)),
                        "wall_s": time.perf_counter() - start_s,
                        "grad_norm_max": max(grad_norms)})
    return model, _report(cfg, epochs=cfg.training["epochs"],
                          final_train_accuracy=history[-1]["train_accuracy"] if history else None,
                          history=history, n_parameters=model.n_parameters())


def evaluate(cfg: RunConfig, checkpoint: str | None) -> dict:
    """Accuracy table of the model in ``checkpoint``: train / test / per
    transformation family.

    The checkpoint is the record ``meshnet train`` wrote for this config
    (:func:`load_checkpoint` checks its config hash); none is a ConfigError.
    """
    if not checkpoint:
        raise ConfigError("evaluation needs a checkpoint (--checkpoint)")
    dataset = dataset_from_config(cfg)
    if not dataset.test:
        raise ConfigError("evaluation needs a non-empty test set")
    seed = cfg.run["seed"]
    spec = model_spec_from_config(cfg, target_dim=dataset.target_dim, task=dataset.task)
    model = build_model(spec, seed)
    load_checkpoint(model, checkpoint, config_hash(cfg))
    test = [mesh_pipeline(spec, build_frames(s.mesh)) for s in dataset.test]
    accuracy = {"train": _accuracy(dataset.train, _logits(
                    model, [mesh_pipeline(spec, build_frames(s.mesh)) for s in dataset.train])),
                "test": _accuracy(dataset.test, _logits(model, test))}
    for offset, family in enumerate(CORE_FAMILIES, 10):
        suites = _transform_suites(cfg, test, np.random.default_rng(seed + offset))
        accuracy[family] = _accuracy(dataset.test, transformed_logits(model, test, family, suites))
    return _report(cfg, accuracy=accuracy)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str, cfg_hash: str):
    """One uncompressed ``.npz`` record: a float64 array per parameter name, and the
    scalars ``version`` and ``config_hash`` (a parameter name always holds a dot)."""
    with open(path, "wb") as fh:
        np.savez(fh, version=np.array(_CKPT_VERSION), config_hash=np.array(cfg_hash),
                 **{name: t.value for name, t in model.parameters()})


def load_checkpoint(model: Model, path: str, expect_hash: str) -> str:
    """Load a :func:`save_checkpoint` record into ``model``; return its config hash.

    All or nothing: zip checks every member's CRC-32, then the version, the
    stored config hash (it must equal ``expect_hash``) and each parameter's
    name, dtype and shape are checked before any parameter is written.  A
    failure raises :class:`CheckpointError`.
    """
    try:
        # not np.load: a file that is no zip (a bare .npy, a version 5 record) is a
        # BadZipFile, and the file is closed on every path
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            if (bad := npz.zip.testzip()) is not None:
                raise CheckpointError(f"{path}: member {bad} fails its CRC-32 check")
            # a member that is not a .npy file reads as bytes: a 0-d "S" array
            record = {name: np.asarray(npz[name]) for name in npz.files}
    # RuntimeError includes zip's NotImplementedError for an unknown compression
    except (OSError, ValueError, EOFError, MemoryError, RuntimeError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not a readable version {_CKPT_VERSION} "
                              f"checkpoint record: {exc}") from exc
    version, stored_hash = (record.pop(k, np.array(None)) for k in ("version", "config_hash"))
    if version.ndim or version.dtype.kind != "i" or version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version} is not supported "
                              f"(expected {_CKPT_VERSION})")
    if stored_hash.ndim or stored_hash.dtype.kind != "U":
        raise CheckpointError(f"{path}: the record holds no config hash")
    if stored_hash != expect_hash:
        raise CheckpointError(f"checkpoint was written for config {stored_hash}, "
                              f"current config hashes to {expect_hash}")
    params = dict(model.parameters())
    want = {name: ("float64", t.value.shape) for name, t in params.items()}
    got = {name: (str(a.dtype), a.shape) for name, a in record.items()}
    odd = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    if odd:
        raise CheckpointError(f"{path}: parameter {odd[0]!r} is {got.get(odd[0], 'missing')} "
                              f"in the record, {want.get(odd[0], 'absent')} in the model")
    for name, t in params.items():
        t.value[...] = record[name]
    return str(stored_hash)


# ---------------------------------------------------------------------------
# Small CLI helpers
# ---------------------------------------------------------------------------

def generate_config_mesh(cfg: RunConfig) -> Mesh:
    m = cfg.mesh
    if m["generator"] == "icosphere":
        return generate_icosphere(m["subdivisions"])
    return generate_grid_patch(m["rows"], m["cols"], m["noise"], cfg.run["seed"])


def features_report(cfg: RunConfig) -> dict:
    geom, field = mesh_pipeline(model_spec_from_config(cfg),
                                build_frames(generate_config_mesh(cfg)))
    # vector features are coordinates in these gauges
    return _report(cfg, family=cfg.model["features"], feature_type=str(field.ftype),
                   n_vertices=geom.edges.n_vertices, values=field.values.tolist(),
                   frames={n: getattr(geom.frames, n).tolist() for n in ("normals", "e1", "e2")})
