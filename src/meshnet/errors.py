"""Exception hierarchy, and the one reader of a caller's arrays and numbers.

Every error names the offending element (vertex, face, edge, config key)
so failures on large meshes stay debuggable.

A constructor keeps a caller's array as a read-only copy from ``_kept``, and a caller's
number as a Python scalar from it; ``_kept`` refuses ragged, non-numeric, misshapen or float
index input with the constructor's named error.  ``_frozen`` guards the package's own arrays.
"""

import numpy as np


class MeshNetError(Exception):
    """Base class for all library errors."""


class MeshParseError(MeshNetError):
    """Mesh file could not be parsed under the declared format."""


class MeshValidationError(MeshNetError):
    """Mesh violates a structural invariant."""


class IndexRangeError(MeshValidationError):
    def __init__(self, face, index, n_vertices):
        self.face = face
        self.index = index
        super().__init__(
            f"face {face} references vertex {index}, but mesh has {n_vertices} vertices"
        )


class NonFiniteVertexError(MeshValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has a non-finite coordinate")


class DegenerateFaceError(MeshValidationError):
    def __init__(self, face, reason="repeated vertex indices"):
        self.face = face
        super().__init__(f"face {face} is degenerate: {reason}")


class NonManifoldError(MeshValidationError):
    def __init__(self, edge, count):
        self.edge = tuple(int(v) for v in edge)
        super().__init__(f"edge {self.edge} is shared by {int(count)} faces (at most 2 allowed)")


class OrientationError(MeshValidationError):
    def __init__(self, edge):
        self.edge = tuple(int(v) for v in edge)
        super().__init__(
            f"directed edge {self.edge} appears in more than one face: inconsistent orientation"
        )


class NonManifoldVertexError(MeshValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex}: incident faces do not form a single fan")


class DegreeError(MeshValidationError):
    def __init__(self, vertex, degree):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has degree {degree} (minimum is 2)")


class DegenerateNormalError(MeshNetError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex}: area-weighted normal sum is zero")


class UndefinedLogMapError(MeshNetError):
    def __init__(self, p, q):
        self.p, self.q = p, q
        super().__init__(f"log map undefined for {p} -> {q}: offset is parallel to the normal")


class FrameConstructionError(MeshNetError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex}: no neighbor with a defined log map")


class AmbiguousTransportError(MeshNetError):
    def __init__(self, p, q):
        self.p, self.q = p, q
        super().__init__(f"edge {q} -> {p}: normals are antipodal, transport rotation is ambiguous")


class ZeroDistanceError(MeshNetError):
    def __init__(self, p, q):
        self.p, self.q = p, q
        super().__init__(f"vertices {p} and {q} are coincident")


class NonFiniteFeatureError(MeshNetError):
    def __init__(self, vertex, power):
        self.vertex, self.power = vertex, power
        super().__init__(
            f"vertex {vertex}: RelTan summary for relative power {power} is not finite"
        )


class FeatureTypeError(MeshNetError):
    """Feature type mismatch between a layer and its input."""


class FrameBindingError(MeshNetError):
    """Frames of the wrong shape or of another mesh, or features and edge
    geometry bound to different frames."""


class EmptyNeighborhoodError(MeshNetError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no neighbors")


class TransformError(MeshNetError):
    """Transform parameters outside their group (a reflection, a non-permutation)."""


class AutodiffError(MeshNetError):
    """Misuse of the reverse-mode engine (non-scalar root, repeated backward, bad index)."""


class ConfigError(MeshNetError):
    """Run configuration failed validation; ``key`` names the setting at fault, if one."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)


class CheckpointError(MeshNetError):
    """Checkpoint file is malformed or does not match the config."""


class TrainingDivergedError(MeshNetError):
    def __init__(self, epoch, loss, parameter=None):
        self.epoch = epoch
        self.loss = loss
        self.parameter = parameter
        where = f"; first non-finite parameter: {parameter}" if parameter else ""
        super().__init__(f"loss became non-finite ({loss}) at epoch {epoch}{where}")


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _kept(value, dtype, shape, error, what):
    """A read-only C-ordered copy of ``value`` in ``dtype``, or a Python scalar for shape
    ``()``; ``error`` naming ``what`` unless it is a rectangular array of numbers (integers
    that fit, for an integer ``dtype``) of ``shape``, where ``None`` matches any length.
    A read-only C-ordered array in ``dtype`` that owns its memory, as this returns, is
    already immutable and comes back as is, so a plan shares its ``Edges``' indices."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged
        raise error(f"{what} must be a rectangular array, got a ragged one") from None
    kinds, numbers = ("iu", "integers") if np.issubdtype(dtype, np.integer) else ("iuf", "reals")
    if a.dtype.kind not in kinds:
        raise error(f"{what} must hold {numbers}, got {a.dtype}")
    if a.dtype.kind == "u" and kinds == "iu" and a.size and a.max() > np.iinfo(dtype).max:
        raise error(f"{what} must fit in {np.dtype(dtype)}, got {a.max()}")
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        raise error(f"{what} must have shape {str(shape).replace('None', 'any')}, got {a.shape}")
    if not shape:
        return a.astype(dtype).item()
    if a.dtype == dtype and a.base is None and a.flags.c_contiguous and not a.flags.writeable:
        return a
    return _frozen(np.array(a, dtype=dtype, order="C"))[0]
