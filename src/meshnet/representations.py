"""SO(2) irreducible representations, feature types, and kernel matrices.

A feature type is a direct sum of irreducible components: the trivial
1-dimensional component (order 0) and 2-dimensional rotation components
(order n >= 1, rotating by n times the gauge angle).  It is a multiset of
orders, laid out order-major: all rho_0 channels, then all rho_1 pairs, then
all rho_2 pairs, and so on, so ``16x(rho0+rho1+rho2)`` is 16 scalars, 16
rho_1 pairs and 16 rho_2 pairs.  Each order-n block is contiguous, and read
as complex numbers ``x + iy`` its pairs rotate by one phase ``exp(i n g)``,
which is how the layers apply every per-edge rotation.  Message passing
between two types is gauge equivariant when its kernels satisfy

    K_neigh(theta - g) = rho_out(-g) K_neigh(theta) rho_in(g)
    K_self            = rho_out(-g) K_self         rho_in(g)

for every gauge angle g.  Setting ``g = theta`` in the first gives

    K_neigh(theta) = rho_out(theta) K_neigh(0) rho_in(-theta),

which fixes a neighbor kernel at every angle from ``K(0)`` and puts no
constraint on ``K(0)`` itself.  So a neighbor kernel is a free dense matrix
``K(0)``: the layers learn it directly, rotate the neighbor feature, apply
``K(0)`` and rotate the result.  The harmonic angular basis of GEM-CNN is one
coordinate system on that matrix; only its seeded initialisation is used
here (:func:`init_neighbor_kernel`).

A self kernel is constrained: a block between components of equal order is
``a`` (order 0) or ``[[a, b], [-b, a]]`` (order n), and every other block is
zero.  :func:`kernel_matrix_map` takes its coefficients to the matrix.
"""

from __future__ import annotations

import bisect
import collections
import functools
import re

import numpy as np
import scipy.sparse as sp

from .errors import FeatureTypeError

__all__ = [
    "MAX_IRREP_ORDER",
    "FeatureType",
    "rho_matrix",
    "rep_block_diag",
    "kernel_matrix_map",
    "init_coefficients",
    "init_neighbor_kernel",
]

MAX_IRREP_ORDER = 8


class FeatureType:
    """Multiset of irreducible components, laid out by order.

    The constructor sorts the orders, so every type is order-major and two
    types are equal when their multisets are.

    Parameters
    ----------
    orders : iterable of int
        Component orders in any sequence, e.g. ``(0, 1, 2)``.  Order 0
        contributes one dimension, order n >= 1 contributes two.

    Attributes
    ----------
    n_scalars : int
        Number of order-0 components, the leading columns.
    vector_blocks : tuple of (n, lo, hi)
        Columns ``lo:hi`` of the order-n block, for every order n >= 1.
    order_of_dim, partner, partner_sign : ndarray, shape (dim,)
        Per column: its order, the other column of its pair (itself for a
        scalar), and the sign with which that column enters a rotation.
    """

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if not orders:
            raise FeatureTypeError("feature type needs at least one component")
        for n in orders:
            if n < 0 or n > MAX_IRREP_ORDER:
                raise FeatureTypeError(f"irrep order {n} outside [0, {MAX_IRREP_ORDER}]")
        self.orders = orders = tuple(sorted(orders))
        self.component_dims = tuple(1 if n == 0 else 2 for n in orders)
        self.offsets = tuple(np.concatenate([[0], np.cumsum(self.component_dims)]).tolist())
        self.dim = self.offsets[-1]
        self.n_components = len(orders)
        self.max_order = orders[-1]
        self.n_scalars = m = orders.count(0)
        self.vector_blocks = tuple(
            (n, self.offsets[bisect.bisect_left(orders, n)],
             self.offsets[bisect.bisect_right(orders, n)])
            for n in sorted(set(orders[m:])))
        pairs = np.arange(m, self.dim).reshape(-1, 2)
        self.order_of_dim = np.repeat(orders, self.component_dims)
        self.partner = np.concatenate([np.arange(m), pairs[:, ::-1].ravel()])
        self.partner_sign = np.concatenate([np.zeros(m), np.tile([-1.0, 1.0], len(pairs))])
        for a in (self.order_of_dim, self.partner, self.partner_sign):
            a.flags.writeable = False

    # -- algebra on types ---------------------------------------------------

    def __add__(self, other):
        return FeatureType(self.orders + other.orders)

    def __rmul__(self, k):
        if not isinstance(k, int) or k < 1:
            return NotImplemented
        return FeatureType(self.orders * k)

    __mul__ = __rmul__

    def __eq__(self, other):
        return isinstance(other, FeatureType) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"FeatureType({self})"

    def __str__(self):
        """``m0xrho0+m1xrho1+...`` over the orders present (``rho1`` for one)."""
        return "+".join(f"{k}xrho{n}" if k > 1 else f"rho{n}"
                        for n, k in collections.Counter(self.orders).items())

    @classmethod
    def parse(cls, text: str) -> "FeatureType":
        """Parse strings like ``"16x(rho0+rho1+rho2)"`` or ``"rho0+rho1"``."""
        tokens = re.findall(r"\d+x|\(|\)|\+|rho\d+", text.replace(" ", ""))
        if "".join(tokens) != text.replace(" ", ""):
            raise FeatureTypeError(f"cannot parse feature type {text!r}")
        pos = 0

        def parse_sum():
            nonlocal pos
            orders = parse_term()
            while pos < len(tokens) and tokens[pos] == "+":
                pos += 1
                orders += parse_term()
            return orders

        def parse_term():
            nonlocal pos
            mult = 1
            if pos < len(tokens) and tokens[pos].endswith("x"):
                mult = int(tokens[pos][:-1])
                pos += 1
            if pos >= len(tokens):
                raise FeatureTypeError(f"cannot parse feature type {text!r}")
            if tokens[pos] == "(":
                pos += 1
                inner = parse_sum()
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise FeatureTypeError(f"unbalanced parentheses in {text!r}")
                pos += 1
                return inner * mult
            if tokens[pos].startswith("rho"):
                n = int(tokens[pos][3:])
                pos += 1
                return (n,) * mult
            raise FeatureTypeError(f"cannot parse feature type {text!r}")

        orders = parse_sum()
        if pos != len(tokens):
            raise FeatureTypeError(f"trailing tokens in feature type {text!r}")
        return cls(orders)


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
# Kernel matrices
# ---------------------------------------------------------------------------

def _coefficient_counts(in_type: FeatureType, out_type: FeatureType, kind: str):
    """Coefficients per (output, input) component pair.

    A neighbor block has one per entry (1, 2 or 4); a self block has 1 on
    rho_0 -> rho_0, 2 on rho_n -> rho_n and none otherwise.
    """
    rows = np.array(out_type.component_dims)[:, None]
    cols = np.array(in_type.component_dims)[None, :]
    if kind == "neigh":
        return rows * cols
    if kind != "self":
        raise ValueError(f"unknown kernel kind {kind!r}")
    same = np.array(out_type.orders)[:, None] == np.array(in_type.orders)[None, :]
    return np.where(same, rows, 0)


@functools.lru_cache(maxsize=None)
def kernel_matrix_map(in_type: FeatureType, out_type: FeatureType):
    """Sparse linear map from a self kernel's coefficients to its matrix.

    Coefficients run over the (output, input) component pairs of equal
    order in layout order, ``a`` before ``b``, and
    ``(smat @ coeffs).reshape(out_dim, in_dim)`` is the matrix.  Cached per
    type pair, so every caller shares one matrix; its arrays are read-only.
    """
    nb = _coefficient_counts(in_type, out_type, "self")
    i, j = np.nonzero(nb)
    r, q, n = np.array(out_type.offsets)[i], np.array(in_type.offsets)[j], nb[i, j]
    k = np.cumsum(n) - n
    v = n == 2
    rows = np.concatenate([r, r[v] + 1, r[v], r[v] + 1])
    cols = np.concatenate([q, q[v] + 1, q[v] + 1, q[v]])
    coef = np.concatenate([k, k[v], k[v] + 1, k[v] + 1])
    sign = np.repeat([1.0, -1.0], [len(k) + 2 * v.sum(), v.sum()])
    smat = sp.csr_matrix((sign, (rows * in_type.dim + cols, coef)),
                        shape=(out_type.dim * in_type.dim, int(nb.sum())))
    for arr in (smat.data, smat.indices, smat.indptr):
        arr.flags.writeable = False
    return smat


def init_coefficients(in_type: FeatureType, out_type: FeatureType, kind: str,
                      rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-s, s] with s = 1/sqrt(fan_in * block_count).

    ``block_count`` is the number of coefficients of the block.  Keeps
    pre-activation variance bounded across the chosen type sizes.  One draw
    over all blocks, in layout order.
    """
    nb = _coefficient_counts(in_type, out_type, kind).ravel()
    nb = nb[nb > 0]
    s = np.repeat(1.0 / np.sqrt(in_type.dim * nb), nb)
    return rng.uniform(-s, s)


def init_neighbor_kernel(in_type: FeatureType, out_type: FeatureType,
                         rng: np.random.Generator) -> np.ndarray:
    """Seeded ``K(0)`` of a neighbor kernel, shape (out.dim, in.dim).

    Draws the harmonic-basis coefficients ``c`` of
    :func:`init_coefficients` and writes each block's ``K(0)`` in closed
    form: ``[[c1+c3, c2+c4], [c4-c2, c1-c3]]`` for rho_n -> rho_m,
    ``[c1, -c2]`` for rho_n -> rho_0, ``[c1; -c2]`` for rho_0 -> rho_m and
    ``c1`` for rho_0 -> rho_0.
    """
    c = init_coefficients(in_type, out_type, "neigh", rng)
    vo, vi = np.meshgrid(np.array(out_type.orders) > 0,
                         np.array(in_type.orders) > 0, indexing="ij")
    ro, co = np.meshgrid(out_type.offsets[:-1], in_type.offsets[:-1], indexing="ij")
    nb = (1 + vo) * (1 + vi)
    k = np.cumsum(nb).reshape(nb.shape) - nb
    K = np.empty((out_type.dim, in_type.dim))
    s = ~vo & ~vi
    K[ro[s], co[s]] = c[k[s]]
    s = ~vo & vi
    K[ro[s], co[s]], K[ro[s], co[s] + 1] = c[k[s]], -c[k[s] + 1]
    s = vo & ~vi
    K[ro[s], co[s]], K[ro[s] + 1, co[s]] = c[k[s]], -c[k[s] + 1]
    r, q, k = ro[vo & vi], co[vo & vi], k[vo & vi]
    K[r, q], K[r, q + 1] = c[k] + c[k + 2], c[k + 1] + c[k + 3]
    K[r + 1, q], K[r + 1, q + 1] = c[k + 3] - c[k + 1], c[k] - c[k + 2]
    return K
