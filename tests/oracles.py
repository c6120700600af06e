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

``scatter_add`` is the ``np.add.at`` reference for the tape's sparse
incidence scatters, and ``reference_rings`` the dict walk that the array
construction of ``Mesh`` neighbor rings is tested against.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meshnet.errors import FeatureTypeError, NonManifoldVertexError
from meshnet.mesh import Mesh, generate_grid_patch, generate_icosphere
from meshnet.representations import FeatureType, rep_block_diag


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


def random_test_mesh(rng, max_subdivisions=1):
    """Bumpy icosphere or noisy grid patch, randomized."""
    if rng.random() < 0.5:
        base = generate_icosphere(int(rng.integers(0, max_subdivisions + 1)))
        radii = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, base.n_vertices)
        return base.with_vertices(base.vertices * radii[:, None])
    rows = int(rng.integers(3, 7))
    cols = int(rng.integers(3, 7))
    return generate_grid_patch(rows, cols, 0.25, int(rng.integers(0, 2**31)))


def _edge_data(mesh: Mesh, td):
    for p in range(mesh.n_vertices):
        sl = mesh.edge_slice(p)
        yield p, mesh.edge_src[sl], td.theta[sl], td.transport[sl]


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


def _key_value_kernels(layer):
    return (harmonic_kernel(layer.key_kernel.value, layer.in_type, layer.att_type),
            harmonic_kernel(layer.value_kernel.value, layer.in_type, layer.out_type))


def dense_eman_forward(layer, f, mesh, td):
    """Line-by-line attention update with explicit matrices."""
    kq = self_kernel_matrix(layer.query_kernel)
    kkey, kval = _key_value_kernels(layer)
    tin = layer.in_type
    catt = layer.att_type.dim
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        Q = kq @ f[p]
        Kcols, Vcols = [], []
        for q, th, g in zip(qs, thetas, gs):
            transported = rep_block_diag(tin, g) @ f[q]
            Kcols.append(assemble_kernel(kkey, th) @ transported)
            Vcols.append(assemble_kernel(kval, th) @ transported)
        K = np.stack(Kcols, axis=1)
        V = np.stack(Vcols, axis=1)
        alpha = _softmax(K.T @ Q / np.sqrt(catt))
        out[p] = len(qs) * (V @ alpha)
    return _dense_bias(layer, out)


def dense_eman_self_forward(layer, f, mesh, td):
    """Attention update with the self column and (N_p + 1) normalizer."""
    kq = self_kernel_matrix(layer.query_kernel)
    kkey, kval = _key_value_kernels(layer)
    kkey_self = self_kernel_matrix(layer.self_key_kernel)
    kval_self = self_kernel_matrix(layer.self_value_kernel)
    tin = layer.in_type
    catt = layer.att_type.dim
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        Q = kq @ f[p]
        Kcols = [kkey_self @ f[p]]
        Vcols = [kval_self @ f[p]]
        for q, th, g in zip(qs, thetas, gs):
            transported = rep_block_diag(tin, g) @ f[q]
            Kcols.append(assemble_kernel(kkey, th) @ transported)
            Vcols.append(assemble_kernel(kval, th) @ transported)
        K = np.stack(Kcols, axis=1)
        V = np.stack(Vcols, axis=1)
        alpha = _softmax(K.T @ Q / np.sqrt(catt))
        out[p] = (len(qs) + 1) * (V @ alpha)
    return _dense_bias(layer, out)


def dense_multihead_forward(layer, f, mesh, td):
    kq = self_kernel_matrix(layer.query_kernel)
    kkey, kval = _key_value_kernels(layer)
    Wq = [self_kernel_matrix(k) for k in layer.head_query]
    Wk = [self_kernel_matrix(k) for k in layer.head_key]
    Wv = [self_kernel_matrix(k) for k in layer.head_value]
    Wo = [self_kernel_matrix(k) for k in layer.head_out]
    tin = layer.in_type
    d = layer.head_type.dim
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        Q = kq @ f[p]
        Kcols, Vcols = [], []
        for q, th, g in zip(qs, thetas, gs):
            transported = rep_block_diag(tin, g) @ f[q]
            Kcols.append(assemble_kernel(kkey, th) @ transported)
            Vcols.append(assemble_kernel(kval, th) @ transported)
        K = np.stack(Kcols, axis=1)
        V = np.stack(Vcols, axis=1)
        for i in range(layer.heads):
            alpha = _softmax((Wk[i] @ K).T @ (Wq[i] @ Q) / np.sqrt(d))
            out[p] += Wo[i] @ (len(qs) * (Wv[i] @ V @ alpha))
    return _dense_bias(layer, out)
