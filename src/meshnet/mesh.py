"""Triangle meshes: representation, validation, I/O, and synthetic generators.

A mesh is an oriented triangulated surface embedded in R^3.  Construction
checks the faces with array operations over their directed edges (index
range, degenerate faces, manifold edges, consistent orientation), then
walks all fans in lock-step over the sorted link edges to store each vertex's
neighbor ring in the cyclic order the oriented fan induces, so that all
downstream per-neighbor sums have a reproducible order.  The rings are the
read-only :class:`Edges` ``mesh.edges``, in vertex order: the ring of p is
the ``degrees[p]`` entries of ``edges.src`` after the first ``degrees[:p].sum()``.

A mesh derived from another one -- new vertex positions
(:meth:`Mesh.with_vertices`) or a relabelling of its vertices
(:func:`meshnet.transforms.apply_permutation`) -- goes through one private
path that reuses the source's faces and rings.  Those were validated when
the source was built and stay valid under new positions or a bijective
relabelling, so the path checks only the new vertex array and the size of
the relabelling.  New positions share the source's ``Edges`` and its scatter
plans; a relabelling gathers the rings into new ``Edges``, walking no face.

A constructor keeps a caller's array and number through ``errors._kept``.
"""

from __future__ import annotations

import io
import warnings
from functools import cached_property

import numpy as np

from .autodiff import ScatterPlan
from .errors import (
    DegenerateFaceError,
    DegenerateNormalError,
    DegreeError,
    IndexRangeError,
    MeshParseError,
    MeshValidationError,
    NonFiniteVertexError,
    NonManifoldError,
    NonManifoldVertexError,
    OrientationError,
    _frozen,
    _kept,
)

__all__ = [
    "Mesh",
    "Edges",
    "load_mesh",
    "save_mesh",
    "face_geometry",
    "vertex_normals",
    "generate_icosphere",
    "generate_grid_patch",
]


class Edges:
    """Read-only directed edges q -> p: ``src`` is the neighbor q, ``dst`` the receiving p,
    and ``degrees`` counts the edges into each of the ``n_vertices`` vertices.  The
    ``ScatterPlan`` of ``src``, ``dst`` and ``arange(V) ++ dst`` is built on first use and
    kept, so every geometry, layer and pass over these edges shares one.  ``src`` and ``dst``
    are kept as read-only copies; unless they are 1-D integer arrays of one length, every
    index in ``[0, n_vertices)`` for an integer ``n_vertices >= 0``, construction raises
    :class:`MeshValidationError`.
    """

    def __init__(self, src, dst, n_vertices):
        self.src = src = _kept(src, np.int64, (None,), MeshValidationError, "edge src")
        self.dst = dst = _kept(dst, np.int64, src.shape, MeshValidationError, "edge dst")
        self.n_vertices = V = _kept(n_vertices, np.int64, (), MeshValidationError, "vertex count")
        if V < 0:
            raise MeshValidationError(f"vertex count must be >= 0, got {V}")
        outside = np.flatnonzero((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= V))
        if outside.size:
            raise MeshValidationError(f"edge {outside[0]} names a vertex outside 0..{V - 1}")
        self.degrees, = _frozen(np.bincount(dst, minlength=V))

    src_plan = cached_property(lambda self: ScatterPlan(self.src))
    dst_plan = cached_property(lambda self: ScatterPlan(self.dst))
    self_plan = cached_property(lambda self: ScatterPlan(np.r_[:self.n_vertices, self.dst]))


class Mesh:
    """Immutable oriented triangle mesh; it keeps read-only copies of its arrays and
    refuses input that makes no valid mesh with a :class:`MeshValidationError`.

    Parameters
    ----------
    vertices : array_like, shape (V, 3)
        Vertex positions, real and finite.
    faces : array_like, shape (F, 3)
        Vertex-index triples of integers, counter-clockwise when seen from outside.

    Attributes
    ----------
    vertices : ndarray, shape (V, 3)
    faces : ndarray, shape (F, 3)
    edges : Edges
        Directed edges q -> p in vertex order: the ``src`` of the edges into
        p is its neighbor ring in oriented-fan order.  Closed fans start at
        the smallest neighbor index; open fans (boundary vertices) start at
        the head of the chain.
    """

    def __init__(self, vertices, faces):
        self._set_vertices(vertices, (None, 3))
        if not self.n_vertices:
            raise MeshValidationError("a mesh needs at least one vertex, got none")
        self.faces = _kept(faces, np.int64, (None, 3), MeshValidationError, "face array")
        order = self._validate_faces()
        self.edges = self._build_neighbor_rings(order)
        low = np.flatnonzero(self.edges.degrees < 2)
        if low.size:
            raise DegreeError(int(low[0]), int(self.edges.degrees[low[0]]))

    def _set_vertices(self, vertices, shape):
        self.vertices = _kept(vertices, np.float64, shape, MeshValidationError, "vertex array")
        if not np.isfinite(self.vertices).all():
            bad = ~np.isfinite(self.vertices).all(axis=1)
            raise NonFiniteVertexError(int(np.argmax(bad)))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @property
    def n_edges(self):
        """Number of directed edges."""
        return self.edges.src.shape[0]

    def _validate_faces(self):
        """Check the faces; return the stable argsort of the edges i -> j by i*V + j."""
        V = self.n_vertices
        f = self.faces
        outside = np.argwhere((f < 0) | (f >= V))
        if outside.size:
            raise IndexRangeError(int(outside[0, 0]), int(f[tuple(outside[0])]), V)
        degenerate = np.flatnonzero((f == np.roll(f, 1, axis=1)).any(axis=1))
        if degenerate.size:
            raise DegenerateFaceError(int(degenerate[0]))
        # Directed edges a->b, b->c, c->a.  Three faces on one undirected
        # edge always repeat a direction, so the face count is checked first.
        i, j = f.ravel(), np.roll(f, -1, axis=1).ravel()
        _, inverse, count = np.unique(np.minimum(i, j) * V + np.maximum(i, j),
                                      return_inverse=True, return_counts=True)
        shared = np.flatnonzero(count[inverse] > 2)
        if shared.size:
            e = shared[0]
            raise NonManifoldError(sorted((i[e], j[e])), count[inverse[e]])
        # after a stable sort every equal key but the first in face order repeats
        key = i * V + j
        order = np.argsort(key, kind="stable")
        repeated = order[1:][key[order[1:]] == key[order[:-1]]]
        if repeated.size:
            e = repeated.min()
            raise OrientationError((i[e], j[e]))
        return order

    def _build_neighbor_rings(self, order):
        # At vertex p, face (p, x, y) contributes the oriented link edge
        # x -> y; chaining link edges walks the fan counter-clockwise.  With
        # unique directed edges the link edges form disjoint chains, each
        # with one head, and cycles; a single fan is one chain or one cycle.
        # Link edge x -> y at p is directed edge p -> x: ``order`` groups by p, then x.
        V = self.n_vertices
        p, x, y = (np.roll(self.faces, -k, axis=1).ravel()[order] for k in range(3))
        key, next_key = p * V + x, p * V + y
        succ = np.minimum(np.searchsorted(key, next_key), key.size - 1)
        succ[key[succ] != next_key] = -1
        head = np.bincount(succ[succ >= 0], minlength=key.size) == 0
        links = np.bincount(p, minlength=V)
        degrees = links + np.bincount(p[head], minlength=V)
        # an open fan starts at its head, a closed one at its smallest neighbor
        start = np.cumsum(links) - links
        with_head, first = np.unique(p[head], return_index=True)
        start[with_head] = np.flatnonzero(head)[first]
        # Walk all fans one link edge per step.  A walk stays in one fan, so a
        # vertex with several ends short of its degree, inside its block.
        offsets = np.cumsum(degrees) - degrees
        edge_src = np.empty(degrees.sum(), dtype=np.int64)
        length = np.zeros(V, dtype=np.int64)
        active = np.flatnonzero(links)
        cur, step = start[active], 0
        while active.size:
            edge_src[offsets[active] + step] = x[cur]
            nxt = succ[cur]
            end = nxt < 0
            edge_src[offsets[active[end]] + step + 1] = y[cur[end]]
            length[active] = step + 1 + end
            keep = ~end & (nxt != start[active])
            active, cur, step = active[keep], nxt[keep], step + 1
        bad = np.flatnonzero(length != degrees)
        if bad.size:
            raise NonManifoldVertexError(int(bad[0]))
        return Edges(edge_src, np.repeat(np.arange(V), degrees), V)

    def with_vertices(self, vertices):
        """Same combinatorics, new vertex positions (keeps stored rings)."""
        return self._derived(vertices)

    def _derived(self, vertices, forward=None):
        """This mesh's combinatorics with new positions, optionally relabelled.

        ``vertices`` holds the new position of every vertex under its current
        label and ``forward[old] = new`` relabels them.  Only this new input
        is checked; the read-only faces and edges are shared, or mapped
        through the relabelling with every ring kept in order.
        """
        V = self.n_vertices
        out = Mesh.__new__(Mesh)
        out.__dict__.update(self.__dict__)
        out._set_vertices(vertices, (V, 3))
        if forward is None:
            return out
        if forward.shape != (V,):
            raise MeshValidationError(
                f"a relabelling of {forward.size} vertices does not fit a mesh "
                f"with {V} vertices"
            )
        inverse = np.argsort(forward)
        out.vertices, out.faces = _frozen(out.vertices[inverse], forward[self.faces])
        old = self.edges.degrees
        degrees = old[inverse]
        shift = (np.cumsum(degrees) - degrees) - (np.cumsum(old) - old)[inverse]
        ring_pos = np.arange(self.n_edges) - np.repeat(shift, degrees)
        out.edges = Edges(forward[self.edges.src[ring_pos]], np.repeat(np.arange(V), degrees), V)
        return out

    def __repr__(self):
        return f"Mesh(V={self.n_vertices}, F={self.n_faces})"


def face_geometry(mesh: Mesh):
    """Unit normal (CCW cross product) and area of every face, as read-only
    arrays of shape (F, 3) and (F,).

    Raises
    ------
    DegenerateFaceError
        If a face has zero area, or its area or edge lengths overflow.
    """
    v = mesh.vertices
    f = mesh.faces
    e1 = v[f[:, 1]] - v[f[:, 0]]
    e2 = v[f[:, 2]] - v[f[:, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.cross(e1, e2)
        norms = np.linalg.norm(cross, axis=1)
        scale = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | ~np.isfinite(scale))
    if bad.size:
        raise DegenerateFaceError(int(bad[0]), "area is not finite")
    bad = np.where(norms <= 1e-14 * np.maximum(scale, 1e-300))[0]
    if bad.size:
        raise DegenerateFaceError(int(bad[0]), "zero area")
    return _frozen(cross / norms[:, None], 0.5 * norms)


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted vertex normals.

    Each vertex normal is the sum of incident face normals weighted by face
    area, normalized to unit length.

    Raises
    ------
    DegenerateNormalError
        If the weighted sum vanishes at some vertex (folded configuration).
    """
    normals, areas = face_geometry(mesh)
    corners = mesh.faces.T.ravel()  # corner 0 of every face, then 1, then 2
    w = np.tile(areas[:, None] * normals, (3, 1))
    acc = np.stack([np.bincount(corners, w[:, c], mesh.n_vertices) for c in range(3)],
                   axis=1)
    norms = np.linalg.norm(acc, axis=1)
    bad = np.where(norms <= 1e-12 * max(np.max(areas), 1e-300))[0]
    if bad.size:
        raise DegenerateNormalError(int(bad[0]))
    return acc / norms[:, None]


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def load_mesh(path) -> Mesh:
    """Load a mesh from an OFF or OBJ file, as its extension says.

    OBJ import reads only ``v`` and ``f`` records and drops texture/normal
    indices.
    """
    path = str(path)
    parse = _parse_off if _mesh_format(path) == "off" else _parse_obj
    return Mesh(*parse(path))


def _mesh_format(path):
    """The extension of ``path``, when it is OFF or OBJ."""
    fmt = path.rsplit(".", 1)[-1].lower()
    if fmt not in ("off", "obj"):
        raise MeshParseError(f"unknown mesh format {fmt!r} for {path}")
    return fmt


def _read_lines(path):
    """Lines of a UTF-8 text file in any newline convention; a file that
    cannot be read or decoded is a MeshParseError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return io.StringIO(data.decode("utf-8"), newline=None)
    except OSError as exc:
        raise MeshParseError(f"cannot read mesh file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        ln = data.count(b"\n", 0, exc.start) + 1
        raise MeshParseError(f"{path}:{ln}: not UTF-8 text") from exc


def _parse_off(path):
    """Read an OFF file line by line; every record is one whole line.

    The counts (vertices, faces, edges) follow the ``OFF`` keyword on its
    own line or on the next one; then one ``x y z`` line per vertex and one
    ``3 a b c`` line per face, and nothing after the last face.  ``#``
    starts a comment.

    Each block of lines is read by one ``np.loadtxt``, kept if it raises no
    error or warning (numpy < 2 warns on reading ``2.5`` as an int) and
    gives one row of the right width per line.  Otherwise the block takes
    the slow path: Python's ``float`` or ``int`` per token, which names the
    first bad line.  Tokens loadtxt rejects but Python takes (``1_0``,
    non-ASCII digits) go the slow way; the ones it takes, it reads alike.
    """
    lines, numbers = [], []
    for ln, line in enumerate(_read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
            numbers.append(ln)
    if not lines or lines[0].split()[0] != "OFF":
        raise MeshParseError(f"{path}: missing OFF header")
    if lines[0] == "OFF":
        del lines[0], numbers[0]
    else:
        lines[0] = lines[0][3:]
    if not lines:
        raise MeshParseError(f"{path}: missing OFF counts line")
    nv, nf, _ne = _off_rows(path, lines[:1], numbers, "nv nf ne", int)[0].tolist()
    end = 1 + nv + nf
    if min(nv, nf) < 0 or len(lines) < end:
        raise MeshParseError(
            f"{path}: OFF counts on line {numbers[0]} ask for {nv} vertices and "
            f"{nf} faces, the file holds {len(lines) - 1} lines after them"
        )
    if len(lines) > end:
        raise MeshParseError(f"{path}:{numbers[end]}: data after the last face")
    vertices = _off_rows(path, lines[1:1 + nv], numbers[1:], "x y z", float)
    faces = _off_rows(path, lines[1 + nv:], numbers[1 + nv:], "3 a b c", int)
    polygons = np.flatnonzero(faces[:, 0] != 3)
    if polygons.size:
        i = 1 + nv + polygons[0]
        raise _off_line_error(path, numbers[i], "3 a b c", lines[i])
    _check_face_indices(path, faces[:, 1:], numbers[1 + nv:], nv, first=0)
    return vertices, faces[:, 1:]


def _off_rows(path, lines, numbers, form, convert):
    """One row of numbers per line, each line shaped like ``form``."""
    width = len(form.split())
    if lines:  # loadtxt warns on no data
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(lines, dtype=convert, comments=None, ndmin=2)
            if rows.shape == (len(lines), width):
                return rows
        except (ValueError, Warning):
            pass
    tokens = []
    for line, ln in zip(lines, numbers):
        toks = line.split()
        if len(toks) != width:
            raise _off_line_error(path, ln, form, line)
        tokens += toks
    try:
        return np.array([convert(t) for t in tokens], dtype=convert).reshape(len(lines), width)
    except (ValueError, OverflowError):
        # an integer beyond int64 converts, then overflows the array
        for line, ln in zip(lines, numbers):
            try:
                np.array([convert(t) for t in line.split()], dtype=convert)
            except (ValueError, OverflowError):
                raise _off_line_error(path, ln, form, line) from None
        raise


def _check_face_indices(path, faces, numbers, nv, first):
    """Name ``path:line`` and the index as written (counted from ``first``)
    of the first face index outside the nv vertices."""
    outside = np.argwhere((faces < 0) | (faces >= nv))
    if outside.size:
        row, col = outside[0]
        raise MeshParseError(f"{path}:{numbers[row]}: face index {faces[row, col] + first}"
                             f" does not name one of the {nv} vertices")


def _off_line_error(path, ln, form, line):
    return MeshParseError(f"{path}:{ln}: expected an OFF line {form!r}, got {line.strip()!r}")


def _parse_obj(path):
    """Read ``v`` and ``f`` records of an OBJ file.

    A face index counts from 1; a negative one counts back from the last
    vertex read so far (-1 is that vertex), as the format defines.
    """
    vertices = []
    faces, face_lines = [], []
    for ln, line in enumerate(_read_lines(path), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshParseError(f"{path}:{ln}: short vertex record")
            try:
                vertices.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise MeshParseError(
                    f"{path}:{ln}: bad vertex coordinate in {line.strip()!r}") from exc
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshParseError(f"{path}:{ln}: only triangle faces supported")
            idx = []
            for tok in parts[1:]:
                head = tok.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise MeshParseError(f"{path}:{ln}: bad face index {tok!r}") from exc
                if i == 0 or i < -len(vertices) or i > np.iinfo(np.int64).max:
                    raise MeshParseError(
                        f"{path}:{ln}: face index {i} does not name one of the "
                        f"{len(vertices)} vertices read so far"
                    )
                idx.append(i - 1 if i > 0 else len(vertices) + i)
            faces.append(idx)
            face_lines.append(ln)
        # every other record type (vt, vn, usemtl, ...) is ignored
    if not vertices:
        raise MeshParseError(f"{path}: no vertex records")
    # a positive index may name a vertex read later (a negative one was checked)
    faces = np.array(faces, dtype=np.int64).reshape(len(faces), 3)
    _check_face_indices(path, faces, face_lines, len(vertices), first=1)
    return np.array(vertices, dtype=np.float64), faces


def save_mesh(mesh: Mesh, path):
    """Write vertices and faces to OFF or OBJ, as the extension of ``path``
    says; any other extension is a MeshParseError and writes nothing.

    Both formats round-trip bit-for-bit through :func:`load_mesh` (floats are
    written with 17 significant digits).
    """
    path = str(path)
    fmt = _mesh_format(path)
    with open(path, "w") as fh:
        if fmt == "off":
            fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n")
            np.savetxt(fh, mesh.vertices, fmt="%.17g")
            np.savetxt(fh, mesh.faces, fmt="3 %d %d %d")
        else:
            np.savetxt(fh, mesh.vertices, fmt="v %.17g %.17g %.17g")
            np.savetxt(fh, mesh.faces + 1, fmt="f %d %d %d")


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTICES = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=np.float64,
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def generate_icosphere(subdivisions: int = 0) -> Mesh:
    """Unit icosphere: icosahedron plus midpoint subdivision.

    Every subdivision level replaces each face by four and projects new
    vertices onto the unit sphere (V' = V + E, F' = 4F).
    """
    subdivisions = _kept(subdivisions, np.int64, (), MeshValidationError, "subdivisions")
    if subdivisions < 0:
        raise MeshValidationError(f"subdivisions must be >= 0, got {subdivisions}")
    verts = _ICO_VERTICES / np.linalg.norm(_ICO_VERTICES, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(subdivisions):
        verts, faces = _subdivide_midpoint(verts, faces)
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return Mesh(verts, faces)


def _subdivide_midpoint(verts, faces):
    """Four faces per face; a new vertex per edge, numbered in the order a walk
    of the faces meets the edges ab, bc, ca."""
    V = len(verts)
    i, j = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    _, first, inverse = np.unique(np.minimum(i, j) * V + np.maximum(i, j),
                                  return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    (a, b, c), (ab, bc, ca) = faces.T, (V + rank[inverse]).reshape(-1, 3).T
    met = np.sort(first)  # where the walk meets each edge first
    mids = 0.5 * (verts[i[met]] + verts[j[met]])
    return (np.concatenate([verts, mids]),
            np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3))


def generate_grid_patch(rows: int, cols: int, height_noise_amplitude: float = 0.0,
                        rng_seed: int = 0) -> Mesh:
    """Triangulated height field over a unit-spaced ``rows`` x ``cols`` grid.

    Heights are ``amplitude * U(-1, 1)`` per vertex, deterministic for a
    fixed seed, an integer >= 0.  The patch has boundary vertices (open fans).
    """
    rows, cols = (_kept(n, np.int64, (), MeshValidationError, "grid size") for n in (rows, cols))
    if rows < 2 or cols < 2:
        raise MeshValidationError(f"rows and cols must both be >= 2, got {rows} x {cols}")
    if (rng_seed := _kept(rng_seed, np.int64, (), MeshValidationError, "seed")) < 0:
        raise MeshValidationError(f"seed must be >= 0, got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    z = height_noise_amplitude * rng.uniform(-1.0, 1.0, size=(rows, cols))
    verts = np.stack([jj.ravel().astype(float), ii.ravel().astype(float), z.ravel()], axis=1)
    a = (np.arange(rows - 1)[:, None] * cols + np.arange(cols - 1)).ravel()
    b, c, d = a + 1, a + cols, a + cols + 1
    # faces (a, b, d) and (a, d, c) of each cell, CCW when viewed from +z
    return Mesh(verts, np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3))

