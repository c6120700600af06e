"""Tangent-plane geometry: gauges, log maps, neighbor angles, transport.

Every vertex carries an orthonormal frame (e1, e2) of its tangent plane such
that (e1, e2, n) is positively oriented.  Features are expressed in these
frames.  An :class:`EdgeGeometry` carries, for every directed edge q -> p,
the two read-only angles the equivariant layers consume:

* ``theta``   -- angle of the neighbor's log-map image in the frame at p,
* ``transport`` -- frame-alignment angle after rotating the neighbor's
  tangent plane onto p's about the axis ``n_q x n_p``.  That rotation is
  ``H_m H_{n_q}`` for the reflections ``H`` across the planes orthogonal to
  ``m = n_q + n_p`` and ``n_q``; ``H_{n_q}`` fixes q's tangent plane, so
  there it is the one reflection ``v - 2 (v.m)/(m.m) m``.  Normals closer
  to antipodal than ``1 + n_q.n_p = 1e-8`` are refused, so
  ``m.m = 2 (1 + n_q.n_p)`` never vanishes.

It records the token of the frames it was computed in, so a model can reject
features bound to another gauge.  All angles live in (-pi, pi].  The frames,
the angles and the relative-tangent features share one array projection of
the edge offsets.  A :class:`FrameField` keeps it and :func:`regauge` hands
it on.  The scalar references these arrays are tested against (the log map,
the two angles of one edge, the tangent projector and angle wrapping) live in
``tests/oracles.py`` and share the tolerances defined here.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .autodiff import Phases
from .errors import (
    AmbiguousTransportError,
    FrameBindingError,
    FrameConstructionError,
    MeshValidationError,
    TransformError,
    UndefinedLogMapError,
)
from .mesh import Edges, Mesh, _frozen, vertex_normals

__all__ = [
    "FrameField",
    "EdgeGeometry",
    "build_frames",
    "regauge",
]

_ANTIPODAL_TOL = 1e-8
_PROJECTION_TOL = 1e-12

_token_counter = itertools.count()


class FrameField:
    """Per-vertex orthonormal gauges plus the normals they complete.

    Attributes
    ----------
    mesh : Mesh
    normals : ndarray, shape (V, 3)
    e1, e2 : ndarray, shape (V, 3)
        ``(e1, e2, n)`` is a positively oriented orthonormal basis at every
        vertex.
    token : int
        Identity of this gauge choice; feature fields and edge geometry
        record it so layers can reject mixed-gauge inputs.

    Another shape than (V, 3) is a FrameBindingError; values are not checked.
    """

    def __init__(self, mesh, normals, e1, e2):
        self.mesh = mesh
        self.normals, self.e1, self.e2 = _frozen(*(np.asarray(a, float) for a in (normals, e1, e2)))
        n, shapes = mesh.n_vertices, [a.shape for a in (self.normals, self.e1, self.e2)]
        if shapes != [(n, 3)] * 3:
            raise FrameBindingError(f"normals, e1 and e2 need shape ({n}, 3), got {shapes}")
        self.token = next(_token_counter)

    @cached_property
    def _projection(self):
        """:func:`_edge_projection` under these normals, unless already set."""
        return _edge_projection(self.mesh, self.normals)


def _edge_projection(mesh: Mesh, normals):
    """``w = d - n_p (n_p . d)``, ``|w|`` and ``|d|`` for the offset ``d = q - p``
    of every directed edge q -> p, in edge order (read-only arrays)."""
    npm = normals[mesh.edges.dst]
    d = mesh.vertices[mesh.edges.src] - mesh.vertices[mesh.edges.dst]
    w = d - npm * np.einsum("ij,ij->i", npm, d)[:, None]
    return _frozen(w, np.linalg.norm(w, axis=1), np.linalg.norm(d, axis=1))


def build_frames(mesh: Mesh) -> FrameField:
    """Construct a gauge at every vertex.

    e1 is the unit tangent projection of the offset to the first neighbor
    (in stored ring order) whose log map is defined, and ``e2 = n x e1``.
    Any other choice of gauge is a :func:`regauge` of these frames.

    Raises
    ------
    FrameConstructionError
        If every neighbor of some vertex projects to zero.
    """
    normals = vertex_normals(mesh)
    w, wn, dn = _edge_projection(mesh, normals)
    defined = wn > _PROJECTION_TOL * np.maximum(dn, 1e-300)  # log map defined
    counts = np.bincount(mesh.edges.dst[defined], minlength=mesh.n_vertices)
    if not counts.all():
        raise FrameConstructionError(int(np.argmin(counts)))
    first = np.flatnonzero(defined)[np.cumsum(counts) - counts]  # one per vertex
    e1 = w[first] / wn[first, None]
    frames = FrameField(mesh, normals, e1, np.cross(normals, e1))
    frames._projection = w, wn, dn
    return frames


class EdgeGeometry:
    """Read-only copies of the two angles of every edge of ``edges``.

    The layers only ever touch ``edges`` (shared by every geometry of one
    mesh, with its scatter plans), the angles and their ``Phases`` tables,
    so tests can hand-construct instances for degenerate cases.  The tables
    of ``theta`` and ``transport - theta`` are built on first use, never by
    :meth:`from_frames` or :func:`regauge`, and kept (about 0.25 MB for
    orders 1 and 2 at E=3840).

    Attributes
    ----------
    edges : Edges
        Directed edges q -> p: ``edges.src`` is q, ``edges.dst`` the receiving p.
    theta : ndarray, shape (E,)
        Neighbor angle of q in the frame at p for each edge q -> p.
    transport : ndarray, shape (E,)
        Frame alignment angle g for each edge q -> p: turning q's coordinates
        by g expresses them in p's gauge, and regauging shifts g by
        ``-g_p + g_q``.  It is the angle in p's frame of q's ``e1`` reflected
        across the plane orthogonal to ``n_q + n_p`` (see the module notes).
    frame_token : int
        Token of the FrameField these angles refer to.

    Raises
    ------
    MeshValidationError
        Unless ``theta`` and ``transport`` hold one angle per edge.
    """

    def __init__(self, edges: Edges, theta, transport, frame_token):
        self.edges, self.frame_token = edges, frame_token
        self.theta, self.transport = _frozen(np.array(theta, float), np.array(transport, float))
        if not self.theta.shape == self.transport.shape == edges.src.shape:
            raise MeshValidationError(f"{edges.src.size} edges need one theta and transport each, "
                                      f"got shapes {self.theta.shape} and {self.transport.shape}")

    theta_phases = cached_property(lambda self: Phases(self.theta))
    transport_phases = cached_property(lambda self: Phases(self.transport - self.theta))

    @classmethod
    def from_frames(cls, frames: FrameField, geometry: EdgeGeometry | None = None):
        """Theta and transport angles of every directed edge at once.

        A given ``geometry`` is checked against ``frames`` and returned.

        Raises
        ------
        FrameBindingError
            If ``geometry`` was computed for different frames.
        """
        if geometry is not None:
            if geometry.frame_token != frames.token:
                raise FrameBindingError("edge geometry was computed for different frames")
            return geometry
        mesh = frames.mesh
        src, dst = mesh.edges.src, mesh.edges.dst
        npm = frames.normals[dst]
        e1p, e2p = frames.e1[dst], frames.e2[dst]

        w, wn, dn = frames._projection
        bad = np.where(wn <= _PROJECTION_TOL * np.maximum(dn, 1e-300))[0]
        if bad.size:
            raise UndefinedLogMapError(int(dst[bad[0]]), int(src[bad[0]]))
        theta = np.arctan2(np.einsum("ij,ij->i", e2p, w), np.einsum("ij,ij->i", e1p, w))

        nq = frames.normals[src]
        c = np.einsum("ij,ij->i", nq, npm)
        anti = np.where(c < -1.0 + _ANTIPODAL_TOL)[0]
        if anti.size:
            raise AmbiguousTransportError(int(dst[anti[0]]), int(src[anti[0]]))
        # q's first axis reflected across the plane orthogonal to m = n_q + n_p
        e1q, m = frames.e1[src], nq + npm
        re1 = e1q - m * (2.0 * np.einsum("ij,ij->i", e1q, m)
                         / np.einsum("ij,ij->i", m, m))[:, None]
        g = np.arctan2(
            np.einsum("ij,ij->i", re1, e2p), np.einsum("ij,ij->i", re1, e1p)
        )
        return cls(mesh.edges, theta, g, frames.token)


def regauge(frames: FrameField, angles):
    """Rotate every gauge by its angle; returns the new frames and their
    :class:`EdgeGeometry`.

    The new first axis is ``cos(g) e1 + sin(g) e2`` and the second is
    recomputed as ``n x e1'``, so the frame invariants hold exactly.

    Raises
    ------
    TransformError
        Unless ``angles`` holds one finite angle per vertex.
    """
    angles, n = np.asarray(angles, dtype=np.float64), frames.mesh.n_vertices
    if angles.shape != (n,) or not np.isfinite(angles).all():
        raise TransformError(f"regauge needs {n} finite angles, one per vertex, got "
                             f"{np.isfinite(angles).sum()} finite of shape {angles.shape}")
    e1 = np.cos(angles)[:, None] * frames.e1 + np.sin(angles)[:, None] * frames.e2
    e2 = np.cross(frames.normals, e1)
    out = FrameField(frames.mesh, frames.normals, e1, e2)
    out._projection = frames._projection
    return out, EdgeGeometry.from_frames(out)
