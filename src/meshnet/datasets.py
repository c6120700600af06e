"""Desk-scale synthetic datasets and optional file loaders.

Segmentation: deformed icospheres where each vertex keeps its identity
across meshes (the label is the vertex index).  A fixed bump pattern, drawn
once from the dataset seed, breaks the sphere's symmetry identically in
every mesh; a small per-mesh radial jitter provides variation.  This is a
correspondence task in miniature.

Classification: bumpy icospheres versus noisy grid patches, two classes
with distinct local geometry.

Files mode reads directories of meshes: flat for segmentation (labels are
vertex indices), one subdirectory per class for classification.  Every file
in them is a mesh, in the format its extension names (``.off`` or ``.obj``,
see :func:`~meshnet.mesh.load_mesh`); any other file is a MeshParseError.

A label is always an int array: one class per vertex, shape (V,), for
segmentation, and the mesh's class, shape (1,), for classification.

The generators take their parameters from ``[data]``, and the seed from
``[run]``, through :func:`dataset_from_config`.  Only ``segmentation_spheres``
has defaults, for ``bump_amplitude``, ``noise`` and ``seed``, which the
benchmark's tests omit; ``[data]`` takes its two from it, so each value is
named once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _kept
from .mesh import Mesh, generate_grid_patch, generate_icosphere, load_mesh

__all__ = ["MeshSample", "Dataset", "segmentation_spheres",
           "classification_shapes", "eqgap_meshes", "load_file_dataset",
           "dataset_from_config"]


@dataclass
class MeshSample:
    """A mesh and its int label array: shape (V,) per vertex, or (1,) per mesh."""

    mesh: Mesh
    label: np.ndarray


@dataclass
class Dataset:
    train: list
    test: list
    target_dim: int
    task: str


def _bumpy_sphere(base: Mesh, bump: np.ndarray, noise: float,
                  rng: np.random.Generator) -> Mesh:
    radii = 1.0 + bump + noise * rng.uniform(-1.0, 1.0, base.n_vertices)
    return base.with_vertices(base.vertices * radii[:, None])


def _count(n, what):
    """A mesh count or a seed as an int; a ConfigError unless it is an integer >= 0."""
    if (n := _kept(n, np.int64, (), ConfigError, what)) < 0:
        raise ConfigError(f"{what} must be >= 0, got {n}")
    return n


def segmentation_spheres(n_train: int, n_test: int, subdivisions: int,
                         bump_amplitude: float = 0.3, noise: float = 0.05,
                         seed: int = 0) -> Dataset:
    n_train, n_test = _count(n_train, "n_train"), _count(n_test, "n_test")
    bump_amplitude, noise = (_kept(v, np.float64, (), ConfigError, what, finite=True)
                             for v, what in ((bump_amplitude, "bump_amplitude"), (noise, "noise")))
    base = generate_icosphere(subdivisions)
    rng = np.random.default_rng(_count(seed, "seed"))
    bump = bump_amplitude * rng.uniform(-1.0, 1.0, base.n_vertices)
    labels = np.arange(base.n_vertices)

    def batch(n):
        return [MeshSample(_bumpy_sphere(base, bump, noise, rng), labels.copy())
                for _ in range(n)]

    return Dataset(batch(n_train), batch(n_test), base.n_vertices, "segmentation")


def classification_shapes(n_train: int, n_test: int, subdivisions: int,
                          bump_amplitude: float, noise: float, seed: int) -> Dataset:
    n_train, n_test = _count(n_train, "n_train"), _count(n_test, "n_test")
    bump_amplitude, noise = (_kept(v, np.float64, (), ConfigError, what, finite=True)
                             for v, what in ((bump_amplitude, "bump_amplitude"), (noise, "noise")))
    base = generate_icosphere(subdivisions)
    rng = np.random.default_rng(_count(seed, "seed"))

    def sample(i):
        if i % 2 == 0:
            bump = bump_amplitude * rng.uniform(-1.0, 1.0, base.n_vertices)
            return MeshSample(_bumpy_sphere(base, bump, 0.0, rng), np.array([0]))
        mesh = generate_grid_patch(6, 7, noise, int(rng.integers(0, 2**31)))
        return MeshSample(mesh, np.array([1]))

    total = [sample(i) for i in range(n_train + n_test)]
    return Dataset(total[:n_train], total[n_train:], 2, "classification")


def eqgap_meshes(n: int, seed: int, subdivisions: int) -> list:
    """Mixed synthetic meshes for equivariance-gap reports: the training
    meshes of ``classification_shapes`` with grid noise 0.25."""
    return [s.mesh for s in classification_shapes(n, 0, subdivisions, 0.3, 0.25, seed).train]


def load_file_dataset(mesh_dir: str, task: str, n_train: int, n_test: int) -> Dataset:
    if not os.path.isdir(mesh_dir):
        raise ConfigError(f"mesh directory {mesh_dir!r} does not exist")
    if task == "segmentation":
        paths = sorted(os.path.join(mesh_dir, f) for f in os.listdir(mesh_dir))
        if len(paths) < n_train + n_test:
            raise ConfigError(
                f"need {n_train + n_test} meshes in {mesh_dir}, found {len(paths)}"
            )
        samples = []
        for p in paths[: n_train + n_test]:
            mesh = load_mesh(p)
            samples.append(MeshSample(mesh, np.arange(mesh.n_vertices)))
        V = samples[0].mesh.n_vertices
        for s in samples:
            if s.mesh.n_vertices != V:
                raise ConfigError("segmentation meshes must share a vertex count")
        return Dataset(samples[:n_train], samples[n_train:], V, task)
    # classification: one subdirectory per class
    classes = sorted(d for d in os.listdir(mesh_dir)
                     if os.path.isdir(os.path.join(mesh_dir, d)))
    if not classes:
        raise ConfigError(f"no class subdirectories in {mesh_dir}")
    samples = []
    for ci, cname in enumerate(classes):
        cdir = os.path.join(mesh_dir, cname)
        for f in sorted(os.listdir(cdir)):
            samples.append(MeshSample(load_mesh(os.path.join(cdir, f)), np.array([ci])))
    if len(samples) < n_train + n_test:
        raise ConfigError(f"need {n_train + n_test} meshes, found {len(samples)}")
    order = np.random.default_rng(0).permutation(len(samples))
    samples = [samples[i] for i in order[: n_train + n_test]]
    return Dataset(samples[:n_train], samples[n_train:], len(classes), task)


def dataset_from_config(cfg) -> Dataset:
    d, task, seed = cfg.data, cfg.run["task"], cfg.run["seed"]
    if d["source"] == "files":
        return load_file_dataset(d["mesh_dir"], task, d["train_meshes"], d["test_meshes"])
    maker = segmentation_spheres if task == "segmentation" else classification_shapes
    return maker(d["train_meshes"], d["test_meshes"], d["subdivisions"],
                 d["bump_amplitude"], d["noise"], seed)
