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
coordinate system on that matrix; :func:`init_neighbor_kernel` draws ``K(0)``
with the per-entry variance of its seeded draw.

A self kernel has no angle to absorb the constraint.  By Schur's lemma for
SO(2) it maps each order to itself: a real matrix on the scalars, and on the
order-n pairs, read as complex numbers, a complex matrix (the 2x2 blocks that
commute with rotations multiply by a complex number).  The layers apply it
order by order (``autodiff.commuting_matmul``).
"""

from __future__ import annotations

import bisect
import collections
import re

import numpy as np

from .errors import FeatureTypeError, _kept

__all__ = [
    "MAX_IRREP_ORDER",
    "MAX_COMPONENTS",
    "FeatureType",
    "init_neighbor_kernel",
]

MAX_IRREP_ORDER = 8
# components of one feature type: 4096 pairs are 8192 columns, and a neighbour kernel
# K(0) from and to that type holds 8192^2 float64s, 512 MiB
MAX_COMPONENTS = 4096


def _check_size(n_components):
    if n_components > MAX_COMPONENTS:
        raise FeatureTypeError(f"a feature type has at most {MAX_COMPONENTS} components, "
                               f"got {n_components}")


class FeatureType:
    """Multiset of irreducible components, laid out by order.

    The constructor sorts the orders, so every type is order-major and two
    types are equal when their multisets are.

    Parameters
    ----------
    orders : sequence of int
        Component orders in any sequence, each in ``[0, MAX_IRREP_ORDER]``, e.g. ``(0, 1, 2)``,
        at most ``MAX_COMPONENTS`` of them.  Order 0 contributes one dimension, order
        n >= 1 contributes two.

    Attributes
    ----------
    n_scalars : int
        Number of order-0 components, the leading columns.
    blocks : tuple of (n, lo, hi)
        Columns ``lo:hi`` of the order-n block, for every order n present.
    vector_blocks : tuple of (n, lo, hi)
        The blocks of the orders n >= 1.
    order_of_dim, partner, partner_sign : ndarray, shape (dim,)
        Per column: its order, the other column of its pair (itself for a
        scalar), and the sign with which that column enters a rotation.
    """

    def __init__(self, orders):
        if not len(orders):  # before _kept: np.asarray(()) is float64
            raise FeatureTypeError("feature type needs at least one component")
        _check_size(len(orders))
        orders = _kept(orders, np.int64, (None,), FeatureTypeError, "irrep orders")
        outside = orders[(orders < 0) | (orders > MAX_IRREP_ORDER)]
        if outside.size:
            raise FeatureTypeError(f"irrep order {outside[0]} outside [0, {MAX_IRREP_ORDER}]")
        self.orders = orders = tuple(sorted(orders.tolist()))
        self.component_dims = tuple(1 if n == 0 else 2 for n in orders)
        self.offsets = tuple(np.concatenate([[0], np.cumsum(self.component_dims)]).tolist())
        self.dim = self.offsets[-1]
        self.n_components = len(orders)
        self.max_order = orders[-1]
        self.n_scalars = m = orders.count(0)
        self.blocks = tuple(
            (n, self.offsets[bisect.bisect_left(orders, n)],
             self.offsets[bisect.bisect_right(orders, n)])
            for n in sorted(set(orders)))
        self.vector_blocks = tuple(b for b in self.blocks if b[0])
        pairs = np.arange(m, self.dim).reshape(-1, 2)
        self.order_of_dim = np.repeat(orders, self.component_dims)
        self.partner = np.concatenate([np.arange(m), pairs[:, ::-1].ravel()])
        self.partner_sign = np.concatenate([np.zeros(m), np.tile([-1.0, 1.0], len(pairs))])
        for a in (self.order_of_dim, self.partner, self.partner_sign):
            a.flags.writeable = False

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
        if not isinstance(text, str):
            raise FeatureTypeError(f"a feature type must be a string, got {text!r}")
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
                _check_size(len(inner) * mult)
                return inner * mult
            if tokens[pos].startswith("rho"):
                n = int(tokens[pos][3:])
                pos += 1
                _check_size(mult)
                return (n,) * mult
            raise FeatureTypeError(f"cannot parse feature type {text!r}")

        try:
            orders = parse_sum()
        except (MemoryError, OverflowError, ValueError):  # a huge or overlong number
            raise FeatureTypeError(f"feature type {text!r} is too large to build") from None
        if pos != len(tokens):
            raise FeatureTypeError(f"trailing tokens in feature type {text!r}")
        return cls(orders)


# ---------------------------------------------------------------------------
# Kernel matrices
# ---------------------------------------------------------------------------

def init_neighbor_kernel(in_type: FeatureType, out_type: FeatureType,
                         rng: np.random.Generator) -> np.ndarray:
    """Seeded ``K(0)`` of a neighbor kernel, shape (out.dim, in.dim).

    One uniform draw over the matrix, in [-s, s] with s = 1/sqrt(in.dim) on
    scalar-to-scalar entries and 1/sqrt(2 in.dim) on every entry that
    involves a pair.  That is the per-entry variance of a uniform draw over
    the harmonic basis of GEM-CNN with s = 1/sqrt(in.dim * coefficients per
    block), and it keeps pre-activation variance bounded across type sizes.
    """
    pair = (out_type.order_of_dim[:, None] > 0) | (in_type.order_of_dim[None, :] > 0)
    s = 1.0 / np.sqrt(in_type.dim * (1 + pair))
    return rng.uniform(-s, s)
