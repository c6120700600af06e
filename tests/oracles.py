"""Independent slow-path oracles used across the test suite.

The layers learn a neighbor kernel as its matrix ``K(0)`` and evaluate it at
an edge angle through the factorisation
``K(theta) = rho_out(theta) K(0) rho_in(-theta)``.  The oracles here do not
use that identity.  They hold the harmonic angular basis of GEM-CNN (de Haan
et al., ICLR 2021; Weiler & Cesa, NeurIPS 2019), a square map from its
coefficients to ``K(0)``, and the per-angle assembly from the harmonics.  A
layer's ``K(0)`` is solved for its coefficients once, and the dense layer
oracles then build every per-edge kernel from the harmonics, with dense
representation matrices and a Python loop over vertices.  Self kernels are
assembled from their coefficients through the same basis.

``rho_matrix`` and ``rep_block_diag`` are the dense representation
matrices.  ``scatter_add`` is the ``np.add.at`` reference for the tape's
plan scatters, ``reference_rings`` the dict walk that the array
construction of ``Mesh`` neighbor rings is tested against, and
``neighbor_rings`` reads the stored rings back from ``mesh.edges``.
``isolated_vertex_geometry`` is a hand-built geometry in which one vertex
has no neighbors.
``reference_subdivide`` and ``reference_grid_faces`` are the loops the
array mesh generators are tested against.
``reference_parse_off`` reads an OFF file one token at a time, the
reference for the block-at-once numpy reader of ``meshnet.mesh``.

The scalar tangent references -- ``wrap_angle``, ``tangent_projector``,
``log_map``, ``theta_angle`` and ``transport_angle`` -- compute one vertex or
one edge at a time what ``meshnet.tangent`` computes for all at once, with
the tolerances of that module.  ``reltan_scaling_statistics`` is a
Monte-Carlo check of the N^{-3/2} normalisation of the RelTan features.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meshnet.errors import (
    AmbiguousTransportError,
    FeatureTypeError,
    MeshParseError,
    NonManifoldVertexError,
    UndefinedLogMapError,
)
from meshnet.mesh import Edges, Mesh, generate_grid_patch, generate_icosphere
from meshnet.representations import FeatureType
from meshnet.tangent import _ANTIPODAL_TOL, _PROJECTION_TOL, EdgeGeometry, FrameField


# ---------------------------------------------------------------------------
# Representation matrices
# ---------------------------------------------------------------------------

def rho_matrix(n: int, g):
    """Irrep matrix: 1 for order 0, rotation by ``n * g`` for order >= 1."""
    if n == 0:
        return np.array([[1.0]])
    c, s = np.cos(n * g), np.sin(n * g)
    return np.array([[c, -s], [s, c]])


def rep_block_diag(t: FeatureType, g) -> np.ndarray:
    """Block-diagonal representation matrix of a composite type."""
    out = np.zeros((t.dim, t.dim))
    for ci, n in enumerate(t.orders):
        off = t.offsets[ci]
        d = t.component_dims[ci]
        out[off:off + d, off:off + d] = rho_matrix(n, g)
    return out


# ---------------------------------------------------------------------------
# Scalar tangent references
# ---------------------------------------------------------------------------

def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    a = np.asarray(a, dtype=np.float64)
    out = np.remainder(a + np.pi, 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return out if out.ndim else float(out)


def tangent_projector(n):
    """Orthogonal projector I - n n^T onto the plane normal to unit ``n``."""
    n = np.asarray(n, dtype=np.float64)
    return np.eye(3) - np.outer(n, n)


def log_map(p, q, n_p):
    """Norm-preserving discrete logarithm of ``q`` at ``p``.

    Projects q - p onto the tangent plane at p and rescales to the original
    length, so ``||log_p(q)|| = ||q - p||``.  Raises
    :class:`UndefinedLogMapError` if q - p is parallel to the normal.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d = q - p
    w = d - n_p * np.dot(n_p, d)
    wn = np.linalg.norm(w)
    dn = np.linalg.norm(d)
    if wn <= _PROJECTION_TOL * max(dn, 1e-300):
        raise UndefinedLogMapError(tuple(p), tuple(q))
    return dn * w / wn


def theta_angle(p, q, e1_p, e2_p, n_p):
    """Angle of log_p(q) measured from e1 toward e2."""
    v = log_map(p, q, n_p)
    return float(np.arctan2(np.dot(e2_p, v), np.dot(e1_p, v)))


def transport_angle(p_idx, q_idx, frames: FrameField):
    """Gauge alignment angle for the directed edge q -> p.

    The tangent plane at q is rotated onto the one at p by the unique
    rotation taking n_q to n_p about ``n_q x n_p`` (identity when the
    normals agree); the returned angle is the angle of the rotated first
    frame axis of q measured in the frame at p.  Raises
    :class:`AmbiguousTransportError` if the normals are antipodal.
    """
    nq, nprm = frames.normals[q_idx], frames.normals[p_idx]
    c = float(np.dot(nq, nprm))
    if c < -1.0 + _ANTIPODAL_TOL:
        raise AmbiguousTransportError(p_idx, q_idx)
    axis = np.cross(nq, nprm)
    s = float(np.linalg.norm(axis))
    e1q = frames.e1[q_idx]
    if s < 1e-15:
        re1 = e1q
    else:  # Rodrigues rotation of q's first axis about the unit axis k
        k = axis / s
        re1 = e1q * c + np.cross(k, e1q) * s + k * np.dot(k, e1q) * (1.0 - c)
    return float(
        np.arctan2(np.dot(re1, frames.e2[p_idx]), np.dot(re1, frames.e1[p_idx]))
    )


# ---------------------------------------------------------------------------
# RelTan normalisation
# ---------------------------------------------------------------------------

def reltan_scaling_statistics(degree: int, samples: int, rng_seed: int = 0,
                              relative_power: float = 0.7,
                              radial: str = "absnormal"):
    """Monte-Carlo mean squared norm of the tangent summary at one degree.

    Neighbor offsets are sampled i.i.d. in the tangent plane with a uniform
    angular component and a radial component that is either ``|N(0,1)|``
    (default) or the ``"unit"`` point mass.  Returns a dict with the
    normalized (degree^{-3/2} factor applied) and unnormalized mean squared
    norms; the unnormalized one grows like degree cubed.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    rng = np.random.default_rng(rng_seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(samples, degree))
    if radial == "absnormal":
        rad = np.abs(rng.standard_normal((samples, degree)))
        rad = np.maximum(rad, 1e-12)
    elif radial == "unit":
        rad = np.ones((samples, degree))
    else:
        raise ValueError(f"unknown radial law {radial!r}")
    ux, uy = np.cos(phi), np.sin(phi)
    w = rad ** (relative_power - 1.0)
    wsum = w.sum(axis=1, keepdims=True)
    scale = wsum / w
    vx = (ux * scale).sum(axis=1)
    vy = (uy * scale).sum(axis=1)
    sq = vx**2 + vy**2
    unnormalized = float(np.mean(sq))
    return {
        "degree": degree,
        "samples": samples,
        "relative_power": relative_power,
        "unnormalized_mean_square": unnormalized,
        "normalized_mean_square": unnormalized / degree**3,
    }


# ---------------------------------------------------------------------------
# Harmonic kernel basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """One angular basis solution, stored symbolically.

    ``entries`` is a tuple of ``(row, col, kind, harmonic, sign)`` with kind
    ``"c"`` or ``"s"`` (cosine / sine of ``harmonic * theta``; the constant
    entry is cosine with harmonic 0); calling with an angle evaluates the
    matrix.
    """

    out_dim: int
    in_dim: int
    entries: tuple

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        out = np.zeros(theta.shape + (self.out_dim, self.in_dim))
        for r, c, kind, h, sign in self.entries:
            f = np.cos(h * theta) if kind == "c" else np.sin(h * theta)
            out[..., r, c] += sign * f
        return out


def _cos_entry(r, c, h, sign=1.0):
    return (r, c, "c", abs(h), float(sign))


def _sin_entry(r, c, h, sign=1.0):
    # sin is odd: fold the sign of a negative harmonic into the coefficient
    if h == 0:
        return None
    return (r, c, "s", abs(h), float(sign) * (1.0 if h > 0 else -1.0))


def _element(out_dim, in_dim, entries):
    return BasisElement(out_dim, in_dim, tuple(e for e in entries if e is not None))


@functools.lru_cache(maxsize=None)
def kernel_basis(n_in: int, n_out: int, kind: str) -> tuple:
    """Linearly independent solutions of the angular kernel constraint.

    For ``kind="neigh"`` the basis depends on the edge angle; for
    ``kind="self"`` solutions exist only between components of equal order
    (the empty tuple is returned otherwise, including the order-0 to
    order-n pairs).
    """
    if kind == "self":
        if n_in != n_out:
            return ()
        if n_in == 0:
            return (_element(1, 1, [_cos_entry(0, 0, 0)]),)
        return (
            _element(2, 2, [_cos_entry(0, 0, 0), _cos_entry(1, 1, 0)]),
            _element(2, 2, [_cos_entry(0, 1, 0), _cos_entry(1, 0, 0, -1.0)]),
        )
    if kind != "neigh":
        raise ValueError(f"unknown kernel kind {kind!r}")
    n, m = n_in, n_out
    if n == 0 and m == 0:
        return (_element(1, 1, [_cos_entry(0, 0, 0)]),)
    if m == 0:
        return (
            _element(1, 2, [_cos_entry(0, 0, n), _sin_entry(0, 1, n)]),
            _element(1, 2, [_sin_entry(0, 0, n), _cos_entry(0, 1, n, -1.0)]),
        )
    if n == 0:
        return (
            _element(2, 1, [_cos_entry(0, 0, m), _sin_entry(1, 0, m)]),
            _element(2, 1, [_sin_entry(0, 0, m), _cos_entry(1, 0, m, -1.0)]),
        )
    a, b = m - n, m + n
    return (
        _element(2, 2, [_cos_entry(0, 0, a), _sin_entry(0, 1, a, -1.0),
                        _sin_entry(1, 0, a), _cos_entry(1, 1, a)]),
        _element(2, 2, [_sin_entry(0, 0, a), _cos_entry(0, 1, a),
                        _cos_entry(1, 0, a, -1.0), _sin_entry(1, 1, a)]),
        _element(2, 2, [_cos_entry(0, 0, b), _sin_entry(0, 1, b),
                        _sin_entry(1, 0, b), _cos_entry(1, 1, b, -1.0)]),
        _element(2, 2, [_sin_entry(0, 0, b, -1.0), _cos_entry(0, 1, b),
                        _cos_entry(1, 0, b), _sin_entry(1, 1, b)]),
    )


def _block_pairs(in_type: FeatureType, out_type: FeatureType, kind: str):
    """Yield (row offset, col offset, basis) in layout order."""
    for i, m in enumerate(out_type.orders):
        for j, n in enumerate(in_type.orders):
            yield out_type.offsets[i], in_type.offsets[j], kernel_basis(n, m, kind)


def coefficient_count(in_type: FeatureType, out_type: FeatureType, kind: str) -> int:
    return sum(len(basis) for *_rest, basis in _block_pairs(in_type, out_type, kind))


@dataclass
class HarmonicKernel:
    """Coefficients over the angular basis of a type pair.

    Coefficients are laid out row-major over (output component, input
    component) with the basis index fastest.  For a self kernel of sorted
    types that is the layout of a layer's ``_SelfKernel.coeffs``: order 0's
    matrix, then one ``(a, b)`` pair per entry of each shared order.
    """

    in_type: FeatureType
    out_type: FeatureType
    kind: str
    coefficients: np.ndarray = field(default=None)

    def __post_init__(self):
        expected = coefficient_count(self.in_type, self.out_type, self.kind)
        if self.coefficients is None:
            self.coefficients = np.zeros(expected)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (expected,):
            raise FeatureTypeError(
                f"kernel expects {expected} coefficients, got {self.coefficients.shape}"
            )


def assemble_kernel(kernel: HarmonicKernel, theta=0.0) -> np.ndarray:
    """Explicit kernel matrix at one angle, summed from the harmonics."""
    K = np.zeros((kernel.out_type.dim, kernel.in_type.dim))
    pos = 0
    for ro, co, basis in _block_pairs(kernel.in_type, kernel.out_type, kernel.kind):
        for elem in basis:
            c = kernel.coefficients[pos]
            pos += 1
            if c != 0.0:
                K[ro:ro + elem.out_dim, co:co + elem.in_dim] += c * elem(theta)
    return K


def constraint_residual(kernel: HarmonicKernel, theta, g) -> float:
    """Frobenius norm of the gauge-constraint violation at (theta, g)."""
    rout = rep_block_diag(kernel.out_type, -g)
    rin = rep_block_diag(kernel.in_type, g)
    if kernel.kind == "self":
        K = assemble_kernel(kernel, 0.0)
        return float(np.linalg.norm(K - rout @ K @ rin))
    lhs = assemble_kernel(kernel, theta - g)
    rhs = rout @ assemble_kernel(kernel, theta) @ rin
    return float(np.linalg.norm(lhs - rhs))


def coefficient_map(in_type: FeatureType, out_type: FeatureType, kind: str):
    """Sparse map from basis coefficients to the kernel matrix at angle 0.

    ``(smat @ coeffs).reshape(out_dim, in_dim)`` equals
    ``assemble_kernel(kernel, 0.0)``: only cosine entries survive there.
    For neighbor kernels the map is square and invertible.
    """
    rows, cols, data = [], [], []
    pos = 0
    for ro, co, basis in _block_pairs(in_type, out_type, kind):
        for elem in basis:
            for r, c, k, _h, s in elem.entries:
                if k == "c":
                    rows.append((ro + r) * in_type.dim + co + c)
                    cols.append(pos)
                    data.append(s)
            pos += 1
    return sp.csr_matrix((data, (rows, cols)),
                         shape=(out_type.dim * in_type.dim, pos))


def harmonic_kernel(K0, in_type: FeatureType, out_type: FeatureType) -> HarmonicKernel:
    """The neighbor kernel whose matrix at angle 0 is ``K0``, in harmonics."""
    smat = coefficient_map(in_type, out_type, "neigh")
    coeffs = spla.spsolve(smat.tocsc(), np.ravel(K0))
    assert np.abs(smat @ coeffs - np.ravel(K0)).max() <= 1e-13 * max(1.0, np.abs(K0).max())
    return HarmonicKernel(in_type, out_type, "neigh", coeffs)


def self_kernel_matrix(kernel) -> np.ndarray:
    """A layer self kernel's matrix, assembled from its coefficients."""
    return assemble_kernel(HarmonicKernel(kernel.in_type, kernel.out_type, "self",
                                          kernel.coeffs.value))


# ---------------------------------------------------------------------------
# Meshes and scatters
# ---------------------------------------------------------------------------

def regauge_coords(values, ftype, angles):
    """Coordinate pushforward under a per-vertex gauge change."""
    out = np.empty_like(values)
    for p in range(values.shape[0]):
        out[p] = rep_block_diag(ftype, -angles[p]) @ values[p]
    return out


def scatter_add(values, idx, n):
    """``np.add.at`` reference for the tape's scatters: row k into row idx[k]."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, idx, values)
    return out


def neighbor_rings(mesh: Mesh):
    """The stored neighbor ring of every vertex: ``degrees[p]`` entries of
    ``edges.src`` after those of the vertices before p."""
    return np.split(mesh.edges.src, np.cumsum(mesh.edges.degrees)[:-1])


def isolated_vertex_geometry():
    """Vertices 0 and 1 exchange an edge; vertex 2 has no neighbors."""
    return EdgeGeometry(Edges(src=[1, 0], dst=[0, 1], n_vertices=3), theta=[0.3, -1.2],
                        transport=[0.1, 0.4])


def reference_rings(faces, n_vertices):
    """Neighbor ring of every vertex, walked face fan by face fan in dicts.

    At vertex p, face (p, a, b) contributes the oriented link edge a -> b.
    An open fan starts at its head, a closed one at its smallest neighbor;
    a vertex whose link edges do not form one chain or one cycle raises
    :class:`NonManifoldVertexError`, the first such vertex first.
    """
    succ = [dict() for _ in range(n_vertices)]
    for a, b, c in np.asarray(faces).tolist():
        for p, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            succ[p][x] = y
    rings = []
    for p, nxt in enumerate(succ):
        heads = set(nxt).difference(nxt.values())
        ring = [min(heads or nxt)] if nxt else []
        while ring and ring[-1] in nxt and nxt[ring[-1]] != ring[0]:
            ring.append(nxt[ring[-1]])
        if len(ring) != len(nxt) + len(heads):
            raise NonManifoldVertexError(p)
        rings.append(np.array(ring, dtype=np.int64))
    return rings


def reference_subdivide(verts, faces):
    """Midpoint subdivision walked face by face with a dict of edge midpoints:
    one new vertex per edge, in the order the walk meets the edges."""
    verts, midpoint, new_faces = [tuple(v) for v in verts], {}, []

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            verts.append(tuple(0.5 * (np.array(verts[i]) + np.array(verts[j]))))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    for a, b, c in np.asarray(faces).tolist():
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts, dtype=np.float64), np.array(new_faces, dtype=np.int64)


def reference_grid_faces(rows, cols):
    """The faces (a, b, d) and (a, d, c) of every grid cell, cell by cell."""
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, c = i * cols + j, (i + 1) * cols + j
            faces += [[a, a + 1, c + 1], [a, c + 1, c]]
    return np.array(faces, dtype=np.int64)


def random_test_mesh(rng, max_subdivisions=1):
    """Bumpy icosphere or noisy grid patch, randomized."""
    if rng.random() < 0.5:
        base = generate_icosphere(int(rng.integers(0, max_subdivisions + 1)))
        radii = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, base.n_vertices)
        return base.with_vertices(base.vertices * radii[:, None])
    rows = int(rng.integers(3, 7))
    cols = int(rng.integers(3, 7))
    return generate_grid_patch(rows, cols, 0.25, int(rng.integers(0, 2**31)))


def reference_parse_off(path):
    """The OFF reader's ``(vertices, faces[:, 1:])``, or its MeshParseError,
    with every token converted on its own by Python's ``float`` or ``int``.

    Records are whole lines with ``#`` comments and surrounding whitespace
    removed; blank ones are skipped.  Errors come in the reader's order: the
    header, the counts line, the line counts, then per block every line's
    token count before any token's value, then the ``3`` of every face and
    last the face indices, each time the first bad line.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ln = data.count(b"\n", 0, exc.start) + 1
        raise MeshParseError(f"{path}:{ln}: not UTF-8 text") from None
    records = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for ln, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if body:
            records.append((ln, body))
    if not records or records[0][1].split()[0] != "OFF":
        raise MeshParseError(f"{path}: missing OFF header")
    ln, first = records.pop(0)
    if first != "OFF":
        records.insert(0, (ln, first[3:]))
    if not records:
        raise MeshParseError(f"{path}: missing OFF counts line")
    (nv, nf, _ne), = _reference_off_block(path, records[:1], "nv nf ne", int)
    end = 1 + nv + nf
    if min(nv, nf) < 0 or len(records) < end:
        raise MeshParseError(
            f"{path}: OFF counts on line {records[0][0]} ask for {nv} vertices and "
            f"{nf} faces, the file holds {len(records) - 1} lines after them"
        )
    if len(records) > end:
        raise MeshParseError(f"{path}:{records[end][0]}: data after the last face")
    vertices = _reference_off_block(path, records[1:1 + nv], "x y z", float)
    faces = _reference_off_block(path, records[1 + nv:], "3 a b c", int)
    for (ln, line), face in zip(records[1 + nv:], faces):
        if face[0] != 3:
            raise _reference_off_error(path, ln, "3 a b c", line)
    for (ln, _line), face in zip(records[1 + nv:], faces):
        for index in face[1:]:
            if not 0 <= index < nv:
                raise MeshParseError(f"{path}:{ln}: face index {index}"
                                     f" does not name one of the {nv} vertices")
    return (np.array(vertices, dtype=np.float64).reshape(nv, 3),
            np.array(faces, dtype=np.int64).reshape(nf, 4)[:, 1:])


def _reference_off_block(path, records, form, convert):
    width = len(form.split())
    for ln, line in records:
        if len(line.split()) != width:
            raise _reference_off_error(path, ln, form, line)
    rows = []
    for ln, line in records:
        row = []
        for token in line.split():
            try:
                value = convert(token)
            except ValueError:
                raise _reference_off_error(path, ln, form, line) from None
            if convert is int and not -2**63 <= value < 2**63:
                raise _reference_off_error(path, ln, form, line)
            row.append(value)
        rows.append(row)
    return rows


def _reference_off_error(path, ln, form, line):
    return MeshParseError(f"{path}:{ln}: expected an OFF line {form!r}, got {line.strip()!r}")


def _edge_data(mesh: Mesh, td):
    for p in range(mesh.n_vertices):
        sl = mesh.edges.dst == p
        yield p, mesh.edges.src[sl], td.theta[sl], td.transport[sl]


# ---------------------------------------------------------------------------
# Dense layer oracles
# ---------------------------------------------------------------------------

def dense_gem_forward(layer, f, mesh, td):
    """Per-vertex explicit evaluation of the convolution update."""
    kneigh = harmonic_kernel(layer.neigh_kernel.value, layer.in_type, layer.out_type)
    tin = layer.in_type
    Ks = self_kernel_matrix(layer.self_kernel)
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        acc = Ks @ f[p]
        for q, th, g in zip(qs, thetas, gs):
            acc = acc + assemble_kernel(kneigh, th) @ rep_block_diag(tin, g) @ f[q]
        out[p] = acc
    return _dense_bias(layer, out)


def _dense_bias(layer, out):
    bias = layer.bias
    if bias.mode == "none":
        return out
    if bias.mode == "additive":
        return out + bias.b.value
    res = out.copy()
    for ci, n in enumerate(layer.out_type.orders):
        if n == 0:
            res[:, layer.out_type.offsets[ci]] += bias.b.value[ci]
    return res


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _head_columns(t: FeatureType, heads: int):
    """The columns of ``t`` that each head owns, and one head's type.

    Head h owns the h-th of ``heads`` equal chunks of every order block.
    """
    cols = [np.concatenate([np.arange(lo, hi).reshape(heads, -1)[h]
                            for _n, lo, hi in t.blocks]) for h in range(heads)]
    return cols, FeatureType(t.orders[::heads])


def _per_head(kernel, heads, in_type, head_type):
    """The matrix of each head's part of a self kernel that writes head-major
    columns: head h's coefficients follow head h - 1's, each laid out as a
    self kernel from ``in_type`` to ``head_type``."""
    return [assemble_kernel(HarmonicKernel(in_type, head_type, "self", c))
            for c in np.split(kernel.coeffs.value, heads)]


def dense_eman_forward(layer, f, mesh, td):
    """Line-by-line attention update of every head, with explicit matrices.

    Head h takes its rows of the stacked ``K(0)``s and its part of the
    stacked self kernels; its key and value kernels at each edge angle are
    summed from the harmonics.  With self contribution each
    vertex's own key and value join its neighbors' and the normalizer is
    ``N_p + 1``.  With several heads the out kernel mixes their outputs.
    """
    heads, tin, tout = layer.heads, layer.in_type, layer.out_type
    att = _head_columns(layer.att_type, heads)[1]
    val_cols, val = _head_columns(tout, heads)
    q = _per_head(layer.query_kernel, heads, tin, att)
    key = [harmonic_kernel(k0, tin, att) for k0 in np.split(layer.key_kernel.value, heads)]
    value = [harmonic_kernel(k0, tin, val) for k0 in np.split(layer.value_kernel.value, heads)]
    if layer.self_contribution:
        self_key = _per_head(layer.self_key_kernel, heads, tin, att)
        self_value = _per_head(layer.self_value_kernel, heads, tin, val)
    mix = self_kernel_matrix(layer.out_kernel) if heads > 1 else np.eye(tout.dim)
    mix = [mix[:, c] for c in val_cols]
    out = np.zeros((mesh.n_vertices, tout.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        for h in range(heads):
            Kcols, Vcols = [], []
            if layer.self_contribution:
                Kcols.append(self_key[h] @ f[p])
                Vcols.append(self_value[h] @ f[p])
            for qv, th, g in zip(qs, thetas, gs):
                transported = rep_block_diag(tin, g) @ f[qv]
                Kcols.append(assemble_kernel(key[h], th) @ transported)
                Vcols.append(assemble_kernel(value[h], th) @ transported)
            K = np.stack(Kcols, axis=1)
            V = np.stack(Vcols, axis=1)
            alpha = _softmax(K.T @ (q[h] @ f[p]) / np.sqrt(att.dim))
            out[p] += mix[h] @ (len(Kcols) * (V @ alpha))
    return _dense_bias(layer, out)
