"""Initial geometric feature fields: relative-tangent, local-position, raw XYZ.

Three input families with different symmetry behavior:

* ``reltan`` -- per-vertex tangent vectors summarizing the neighbor
  directions, weighted by powers of the neighbor distances.  Equivariant to
  global rotations and invariant to translations and scalings; one
  (rho0 + rho1) group per relative power, rho0 slots zero.
* ``get`` -- the vertex position expressed in its own frame
  (rho0 = normal projection, rho1 = tangent projections).  Gauge-covariant
  but sensitive to translation and scaling.
* ``xyz`` -- raw coordinates as three scalar channels; gauge-insensitive and
  sensitive to every ambient transform.

Every family reads its mesh from the frames (``frames.mesh``), so coordinates
and their gauges always come from one mesh.  No family is normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FeatureTypeError, FrameBindingError, NonFiniteFeatureError, ZeroDistanceError,
                     _kept)
from .mesh import Mesh
from .representations import FeatureType
from .tangent import FrameField

__all__ = [
    "GeometricFeatureField",
    "reltan_features",
    "reltan_vectors",
    "get_features",
    "xyz_features",
    "compute_features",
    "feature_type_for",
]

RELTAN_POWERS = (0.7,)  # the default relative distance powers of ``reltan``


@dataclass
class GeometricFeatureField:
    """Per-vertex coordinate vectors of a declared type, bound to a gauge.

    ``values`` is kept as a read-only copy, a :class:`FeatureTypeError` unless it holds
    real numbers in one column per component of ``ftype``.  ``frames`` is the FrameField
    the coordinates are written in (none for a hand-built field); a model refuses a
    field whose frames are not those of its edge geometry.
    """

    ftype: FeatureType
    values: np.ndarray
    frames: FrameField | None

    def __post_init__(self):
        self.values = _kept(self.values, np.float64, (None, self.ftype.dim), FeatureTypeError,
                            f"feature array of type {self.ftype}")


def reltan_vectors(frames: FrameField, power: float) -> np.ndarray:
    """Raw 3D tangent summary vectors of ``frames.mesh`` for one real relative power.

    For a vertex p with neighbors q, the vector is

        N_p^{-3/2} * sum_q proj_p((q-p)/|q-p|) * S_p / |q-p|^{power-1}

    with ``S_p = sum_q |q-p|^{power-1}`` and ``proj_p`` the projection onto
    the tangent plane.  Distances enter only through the power, so the
    result is scale free; directions are relative, so it is translation
    free.

    Raises
    ------
    ZeroDistanceError
        If a neighbor coincides with its center vertex.
    NonFiniteFeatureError
        If ``|q-p|^{power-1}`` overflows or underflows so far that a
        vector is not finite (``power = 1e308``, say).
    """
    power = _kept(power, np.float64, (), FeatureTypeError, "reltan power")
    edges = frames.mesh.edges
    tang, _, dist = frames._projection
    zero = np.where(dist <= 0.0)[0]
    if zero.size:
        e = int(zero[0])
        raise ZeroDistanceError(int(edges.dst[e]), int(edges.src[e]))
    unit = tang / dist[:, None]  # proj of the unit offset, length <= 1

    with np.errstate(all="ignore"):  # a non-finite result is raised below
        w = dist ** (power - 1.0)
        wsum = np.bincount(edges.dst, w, edges.n_vertices)
        contrib = unit * (wsum[edges.dst] / w)[:, None]
        out = np.stack([np.bincount(edges.dst, contrib[:, c], edges.n_vertices)
                        for c in range(3)], axis=1) * edges.degrees[:, None] ** -1.5
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise NonFiniteFeatureError(int(bad[0]), power)
    return out


def reltan_features(frames: FrameField, powers=RELTAN_POWERS) -> GeometricFeatureField:
    """Tangent-summary features, one (rho0 + rho1) group per relative power.

    In the order-major layout the P zero rho0 columns come first, then one
    rho1 pair per power: the frame coordinates of its summary vector.
    """
    ftype, pairs = feature_type_for("reltan", powers), []
    for r in powers:
        v3 = reltan_vectors(frames, r)
        pairs += [np.einsum("ij,ij->i", v3, frames.e1), np.einsum("ij,ij->i", v3, frames.e2)]
    values = np.stack([np.zeros(frames.mesh.n_vertices)] * len(powers) + pairs, axis=1)
    return GeometricFeatureField(ftype, values, frames)


def get_features(frames: FrameField) -> GeometricFeatureField:
    """Vertex position in its own local frame: (p.n, p.e1, p.e2)."""
    v = frames.mesh.vertices
    coords = np.stack([np.einsum("ij,ij->i", v, a) for a in (frames.normals, frames.e1, frames.e2)],
                      axis=1)
    return GeometricFeatureField(feature_type_for("get"), coords, frames)


def xyz_features(frames: FrameField) -> GeometricFeatureField:
    """Raw coordinates as three scalar channels.

    Scalar-only fields are gauge independent, but like every family the
    field is bound to the ``frames`` it was computed with.
    """
    return GeometricFeatureField(feature_type_for("xyz"), frames.mesh.vertices, frames)


_FAMILIES = {  # the orders of a family's type (reltan's per power) and its field
    "xyz": ((0, 0, 0), lambda frames, _powers: xyz_features(frames)),
    "get": ((0, 1), lambda frames, _powers: get_features(frames)),
    "reltan": ((0, 1), reltan_features),
}
FAMILIES = tuple(_FAMILIES)


def _family(family: str):
    if family not in _FAMILIES:
        raise FeatureTypeError(f"unknown feature family {family!r}")
    return _FAMILIES[family]


def feature_type_for(family: str, powers=RELTAN_POWERS) -> FeatureType:
    """The type of a family's features (``reltan`` has one group per power)."""
    orders, _compute = _family(family)
    return FeatureType(orders * (len(tuple(powers)) if family == "reltan" else 1))


def compute_features(family: str, mesh: Mesh, frames: FrameField,
                     powers=RELTAN_POWERS) -> GeometricFeatureField:
    """Dispatch on family name (``reltan`` honors ``powers``); the features read ``frames``
    alone.  ``mesh`` stays for callers that name it (the benchmark's pre-processing), and
    any mesh but ``frames.mesh`` is a FrameBindingError."""
    if mesh is not frames.mesh:
        raise FrameBindingError("compute_features was given frames built on another mesh")
    return _family(family)[1](frames, powers)
