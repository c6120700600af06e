"""SO(2) irreducible representations, feature types, and equivariant kernels.

A feature type is an ordered direct sum of irreducible components: the
trivial 1-dimensional component (order 0) and 2-dimensional rotation
components (order n >= 1, rotating by n times the gauge angle).  Kernels
mapping between two types are linear combinations of a fixed angular basis,
one small basis per (input component, output component) pair; the assembled
matrices satisfy

    K_neigh(theta - g) = rho_out(-g) K_neigh(theta) rho_in(g)
    K_self            = rho_out(-g) K_self         rho_in(g)

for every gauge angle g, which is what makes message passing built on them
gauge equivariant.

Basis elements are stored symbolically as sparse lists of
``(row, col, kind, harmonic, sign)`` entries with ``kind`` one of
``"c"``/``"s"`` (cosine / sine of ``harmonic * theta``; the constant entry is
cosine with harmonic 0).  The same symbolic form drives the explicit
per-angle assembly used by oracles and the coefficient-to-``K(0)`` map used
by the layers.  Setting ``g = theta`` in the constraint gives

    K_neigh(theta) = rho_out(theta) K_neigh(0) rho_in(-theta),

so the layers never evaluate a kernel at an edge angle: they rotate the
neighbor feature, apply the constant matrix ``K(0)`` and rotate the result.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import FeatureTypeError

__all__ = [
    "MAX_IRREP_ORDER",
    "FeatureType",
    "BasisElement",
    "EquivariantKernel",
    "rho_matrix",
    "rep_block_diag",
    "kernel_basis",
    "coefficient_count",
    "assemble_kernel",
    "constraint_residual",
    "kernel_matrix_map",
    "init_coefficients",
]

MAX_IRREP_ORDER = 8


class FeatureType:
    """Ordered multiset of irreducible components.

    Parameters
    ----------
    orders : iterable of int
        Component orders, e.g. ``(0, 1, 2)``.  Order 0 contributes one
        dimension, order n >= 1 contributes two.
    """

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if not orders:
            raise FeatureTypeError("feature type needs at least one component")
        for n in orders:
            if n < 0 or n > MAX_IRREP_ORDER:
                raise FeatureTypeError(f"irrep order {n} outside [0, {MAX_IRREP_ORDER}]")
        self.orders = orders
        self.component_dims = tuple(1 if n == 0 else 2 for n in orders)
        self.offsets = tuple(np.concatenate([[0], np.cumsum(self.component_dims)]).tolist())
        self.dim = self.offsets[-1]
        self.n_components = len(orders)
        self._build_layout()

    def _build_layout(self):
        dim = self.dim
        order_of_dim = np.zeros(dim, dtype=np.int64)
        comp_of_dim = np.zeros(dim, dtype=np.int64)
        partner = np.arange(dim)
        partner_sign = np.zeros(dim)
        for ci, n in enumerate(self.orders):
            off = self.offsets[ci]
            if n == 0:
                order_of_dim[off] = 0
                comp_of_dim[off] = ci
            else:
                order_of_dim[off:off + 2] = n
                comp_of_dim[off:off + 2] = ci
                partner[off], partner[off + 1] = off + 1, off
                # x row mixes in -sin * y, y row mixes in +sin * x
                partner_sign[off], partner_sign[off + 1] = -1.0, 1.0
        self.order_of_dim = order_of_dim
        self.comp_of_dim = comp_of_dim
        self.partner = partner
        self.partner_sign = partner_sign
        self.scalar_dims = np.where(order_of_dim == 0)[0]
        self.vector_dims = np.where(order_of_dim > 0)[0]
        self.vector_comps = np.array(
            [ci for ci, n in enumerate(self.orders) if n > 0], dtype=np.int64
        )
        self.max_order = max(self.orders)
        for a in (self.order_of_dim, self.comp_of_dim, self.partner,
                  self.partner_sign, self.scalar_dims, self.vector_dims,
                  self.vector_comps):
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
        n = len(self.orders)
        for period in range(1, n + 1):
            if n % period:
                continue
            if self.orders == self.orders[:period] * (n // period):
                reps = n // period
                inner = "+".join(f"rho{k}" for k in self.orders[:period])
                if reps == 1:
                    return inner
                if period == 1:
                    return f"{reps}x{inner}"
                return f"{reps}x({inner})"
        return "+".join(f"rho{k}" for k in self.orders)

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
# Angular kernel bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """One angular basis solution, stored symbolically.

    ``entries`` is a tuple of ``(row, col, kind, harmonic, sign)`` with kind
    ``"c"`` or ``"s"``; calling with an angle evaluates the matrix.
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
    order-n pairs).  Bases are cached: every block of every kernel of a
    model asks for one.
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
    """Yield (out comp, in comp, row offset, col offset, basis) in layout order."""
    for i, m in enumerate(out_type.orders):
        for j, n in enumerate(in_type.orders):
            yield (i, j, out_type.offsets[i], in_type.offsets[j],
                   kernel_basis(n, m, kind))


def coefficient_count(in_type: FeatureType, out_type: FeatureType, kind: str) -> int:
    return sum(len(basis) for *_rest, basis in _block_pairs(in_type, out_type, kind))


@dataclass
class EquivariantKernel:
    """Learnable coefficients over the angular basis of a type pair.

    Coefficients are laid out row-major over (output component, input
    component) with the basis index fastest, matching
    :func:`kernel_matrix_map` and the optimizer's flat parameter order.
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


def assemble_kernel(kernel: EquivariantKernel, theta=0.0) -> np.ndarray:
    """Explicit kernel matrix at one angle (reference path, block loops)."""
    K = np.zeros((kernel.out_type.dim, kernel.in_type.dim))
    pos = 0
    for _i, _j, ro, co, basis in _block_pairs(kernel.in_type, kernel.out_type, kernel.kind):
        for elem in basis:
            c = kernel.coefficients[pos]
            pos += 1
            if c != 0.0:
                K[ro:ro + elem.out_dim, co:co + elem.in_dim] += c * elem(theta)
    return K


def constraint_residual(kernel: EquivariantKernel, theta, g) -> float:
    """Frobenius norm of the gauge-constraint violation at (theta, g)."""
    rout = rep_block_diag(kernel.out_type, -g)
    rin = rep_block_diag(kernel.in_type, g)
    if kernel.kind == "self":
        K = assemble_kernel(kernel, 0.0)
        return float(np.linalg.norm(K - rout @ K @ rin))
    lhs = assemble_kernel(kernel, theta - g)
    rhs = rout @ assemble_kernel(kernel, theta) @ rin
    return float(np.linalg.norm(lhs - rhs))


# ---------------------------------------------------------------------------
# Kernel at angle 0 (the linear map used by the layers)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def kernel_matrix_map(in_type: FeatureType, out_type: FeatureType, kind: str):
    """Sparse linear map from coefficients to the kernel matrix at angle 0.

    ``(smat @ coeffs).reshape(out_dim, in_dim)`` equals
    ``assemble_kernel(kernel, 0.0)``: only cosine entries survive there.  A
    self kernel is this matrix at every angle; a neighbor kernel follows from
    it by the gauge constraint at ``g = theta``,

        K(theta) = rho_out(theta) K(0) rho_in(-theta).

    Cached per type pair and kind, so every caller shares one matrix; its
    arrays are read-only.
    """
    rows, cols, data = [], [], []
    pos = 0
    for _i, _j, ro, co, basis in _block_pairs(in_type, out_type, kind):
        for elem in basis:
            for r, c, k, _h, s in elem.entries:
                if k == "c":
                    rows.append((ro + r) * in_type.dim + co + c)
                    cols.append(pos)
                    data.append(s)
            pos += 1
    smat = sp.csr_matrix((data, (rows, cols)),
                        shape=(out_type.dim * in_type.dim, pos))
    for arr in (smat.data, smat.indices, smat.indptr):
        arr.flags.writeable = False
    return smat


# ---------------------------------------------------------------------------
# Initialization helpers
# ---------------------------------------------------------------------------

def init_coefficients(in_type: FeatureType, out_type: FeatureType, kind: str,
                      rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-s, s] with s = 1/sqrt(fan_in * basis_count).

    Keeps pre-activation variance bounded across the chosen type sizes.
    One draw over all blocks, in the layout order of :func:`_block_pairs`.
    """
    out_orders, out_of = np.unique(out_type.orders, return_inverse=True)
    in_orders, in_of = np.unique(in_type.orders, return_inverse=True)
    sizes = np.array([[len(kernel_basis(n, m, kind)) for n in in_orders]
                      for m in out_orders], dtype=np.int64)
    nb = sizes[out_of[:, None], in_of[None, :]].ravel()
    nb = nb[nb > 0]
    s = np.repeat(1.0 / np.sqrt(in_type.dim * nb), nb)
    return rng.uniform(-s, s)

