"""Transformation families: ambient similarities, permutations, gauges.

Ambient similarity transforms (rotation, translation, positive scaling)
move vertex positions and permutations relabel vertices; both return a new
:class:`Mesh`, from which frames, transport and features are rebuilt.  A
gauge transform rotates the per-vertex frames in place and is applied by
:func:`meshnet.tangent.regauge`; here only its angles are drawn.
:func:`random_transform_suite` samples one member of every family for a
given vertex count; a transform keeps read-only copies, so its checks hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TransformError, _frozen, _kept
from .mesh import Mesh

__all__ = [
    "AmbientTransform",
    "Permutation",
    "TransformSuite",
    "apply_ambient",
    "apply_permutation",
    "random_rotation",
    "random_transform_suite",
]

# every family, by the parts of a suite's similarity it applies (gauge and perm: none)
TRANSFORM_FAMILIES = {"gauge": (), "rot_tr_scale": ("rotation", "translation", "scale"),
                      "rot": ("rotation",), "translate": ("translation",),
                      "scale": ("scale",), "perm": ()}
# one family of each kind: the accuracy table's and the default eqgap report's
CORE_FAMILIES = ("gauge", "rot_tr_scale", "perm")


@dataclass(frozen=True)
class AmbientTransform:
    """p -> scale * rotation @ p + translation, for finite parts (every check refuses NaN,
    with a :class:`TransformError`); it keeps read-only copies and a float scale."""

    rotation: np.ndarray = None
    translation: np.ndarray = None
    scale: float = 1.0

    def __post_init__(self):
        R = _kept(np.eye(3) if self.rotation is None else self.rotation, np.float64, (3, 3),
                  TransformError, "orthogonal rotation")
        x = _kept(np.zeros(3) if self.translation is None else self.translation, np.float64,
                  (3,), TransformError, "translation")
        s = _kept(self.scale, np.float64, (), TransformError, "scale")
        self.__dict__.update(rotation=R, translation=x, scale=s)  # past the frozen __setattr__
        if not np.abs(R.T @ R - np.eye(3)).max() <= 1e-10:
            raise TransformError("rotation must be 3x3 orthogonal and finite")
        if not np.linalg.det(R) > 0:
            raise TransformError("rotation must have determinant +1")
        if not np.isfinite(x).all():
            raise TransformError(f"translation must be 3 finite numbers, got {x!r}")
        if not 0 < s < np.inf:
            raise TransformError(f"scale must be positive and finite, got {s!r}")

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Permutation:
    """Bijection on vertex indices; ``forward[old] = new``, kept as a read-only copy
    beside its read-only ``inverse``.  A non-permutation raises :class:`TransformError`."""

    forward: np.ndarray

    def __post_init__(self):
        f = _kept(self.forward, np.int64, (None,), TransformError, "permutation")
        object.__setattr__(self, "forward", f)
        inv, = _frozen(np.argsort(f))
        if not np.array_equal(f[inv], np.arange(f.size)):
            raise TransformError(f"not a permutation of {f.size} indices")
        object.__setattr__(self, "inverse", inv)

    def _rows(self, arr, order):
        if (arr := np.asarray(arr)).shape[:1] != self.forward.shape:
            raise TransformError(f"a permutation of {self.forward.size} rows got shape {arr.shape}")
        return np.take(arr, order, axis=0)

    def permute_rows(self, arr: np.ndarray) -> np.ndarray:
        """out[forward[i]] = arr[i]"""
        return self._rows(arr, self.inverse)

    def unpermute_rows(self, arr: np.ndarray) -> np.ndarray:
        """out[i] = arr[forward[i]]"""
        return self._rows(arr, self.forward)


def apply_ambient(mesh: Mesh, t: AmbientTransform) -> Mesh:
    """Transformed mesh; combinatorics (faces, stored rings) unchanged."""
    return mesh.with_vertices(t.apply(mesh.vertices))


def apply_permutation(mesh: Mesh, perm: Permutation) -> Mesh:
    """Relabel vertices, preserving stored neighbor-ring order exactly.

    A permutation of another size raises :class:`MeshValidationError`.
    """
    return mesh._derived(mesh.vertices, perm.forward)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform SO(3) sample via a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass(frozen=True)
class TransformSuite:
    """One sample of every transformation family for a fixed vertex count."""

    gauge: np.ndarray
    ambient: AmbientTransform
    perm: Permutation


def random_transform_suite(n_vertices: int, rng: np.random.Generator,
                           translation_range: float, scale_min: float,
                           scale_max: float) -> TransformSuite:
    """Gauge angles uniform in (-pi, pi], uniform rotation, uniform box translation,
    log-uniform scale, uniform permutation; :class:`TransformError` unless ``n_vertices >= 0``,
    ``0 <= 2 translation_range < inf`` and ``0 < scale_min <= scale_max < inf``."""
    V = _kept(n_vertices, np.int64, (), TransformError, "vertex count")
    r, lo, hi = (_kept(v, np.float64, (), TransformError, what) for v, what in zip(
        (translation_range, scale_min, scale_max), ("translation_range", "scale_min", "scale_max")))
    if not (V >= 0 and 0 <= 2 * r < np.inf and 0 < lo <= hi < np.inf):
        raise TransformError(f"a suite needs n_vertices >= 0, 0 <= 2 translation_range < inf and "
                             f"0 < scale_min <= scale_max < inf, got {V}, {r}, {lo} and {hi}")
    gauge = rng.uniform(-np.pi, np.pi, V)
    ambient = AmbientTransform(
        rotation=random_rotation(rng),
        translation=rng.uniform(-r, r, 3),
        scale=np.exp(rng.uniform(np.log(lo), np.log(hi))),
    )
    perm = Permutation(rng.permutation(V))
    return TransformSuite(gauge=gauge, ambient=ambient, perm=perm)
