"""Gauge-equivariant neural layers: convolution, attention, bias, nonlinearity.

All layers consume a :class:`meshnet.tangent.EdgeGeometry` (directed edges
plus the two per-edge angles) and per-vertex coordinate features.  A
neighbor kernel is never evaluated at an edge angle.  The gauge constraint
gives
``K(theta) = rho_out(theta) K(0) rho_in(-theta)``, so the message from q to
p along an edge with angle theta and transport angle g is

    rho_out(theta) K(0) rho_in(g - theta) f_q:

one per-edge rotation of the gathered neighbor features, one dense matmul
by ``K(0)`` for the whole mesh, and one per-edge rotation of the result:
the fused ops ``transported_rows`` and ``turned_product``.  In the
order-major layout of :class:`~meshnet.representations.FeatureType` each
order-n block of pairs, read as complex numbers, is multiplied by
``exp(i n angle_e)``.  The constraint leaves ``K(0)`` free, so every
neighbor kernel's parameter is the dense matrix ``K(0)`` itself.
The gather by ``src`` and the scatter by ``dst`` read the plans of the
mesh's ``Edges``, and both rotations phase tables of the geometry, each
built once.  Attention's logits and weighted sum are fused ops too, so per
edge the tape keeps only the transported input, the keys and the values.

Equivariance ingredients:

* neighbor features are rotated into the receiving frame using the
  per-edge transport angle before any kernel touches them;
* self kernels (``K_self = rho_out(-g) K_self rho_in(g)``) map each order
  to itself, by a real matrix on the scalars and a complex one on each
  order's pairs (``commuting_matmul``);
* the bias shifts the scalars only: a constant pair would not turn with
  the gauge, and the kernels absorb a learned turn of the pairs;
* the nonlinearity gates vector components by their norm only.

Attention heads are stacked in one set of kernels.  Split into H heads, a
type gives head h the h-th of H equal chunks of every order block, and the
attention layer lays its queries, keys and values out head-major: head h's
columns are contiguous and order-major within the head.  A self kernel
commutes with every rotation, so a per-head projection of a neighbor
kernel's output is itself a neighbor kernel and adds nothing.

An ``additive`` bias mode (a plain vector added to all coordinates) is
included solely as a non-equivariant negative control for the harness.
"""

from __future__ import annotations

import collections

import numpy as np

from .autodiff import (
    Tensor,
    commuting_matmul,
    concat,
    gathered_dot,
    parameter,
    segment_softmax,
    segment_sum,
    take_cols,
    transported_rows,
    turned_product,
    weighted_segment_sum,
)
from .errors import ConfigError, EmptyNeighborhoodError, FeatureTypeError
from .representations import FeatureType, init_neighbor_kernel
from .tangent import EdgeGeometry

__all__ = [
    "GemConvLayer",
    "EmanAttentionLayer",
    "GaugeNonlinearity",
    "DenseLayer",
    "BIAS_MODES",
]

BIAS_MODES = ("scalar", "additive", "none")


def _heads(t: FeatureType, heads: int):
    """One head's share of ``t``, and the column of ``t`` at each head-major
    position (see the module docstring)."""
    if heads < 1 or any(k % heads for k in collections.Counter(t.orders).values()):
        raise ConfigError(f"heads = {heads} does not divide the multiplicities of {t}")
    cols = [np.arange(lo, hi).reshape(heads, -1) for _n, lo, hi in t.blocks]
    return FeatureType(t.orders[::heads]), np.concatenate(cols, axis=1).ravel()


class _SelfKernel:
    """A self kernel: a real matrix on the scalars, a complex one per order.

    ``blocks`` pairs the input and output columns of each order that both
    types hold, and ``coeffs`` holds each block's row-major m_out x m_in
    matrix in turn: reals on order 0, a pair ``(a, b)`` per entry on order
    n >= 1 (see ``commuting_matmul``), drawn in one uniform draw with the
    bounds of ``init_neighbor_kernel``.  Calling the kernel on features of
    ``in_type`` gives features of ``out_type``, laid out head-major for
    ``heads`` heads: head h's blocks, after head h - 1's, write its columns.
    """

    def __init__(self, in_type, out_type, rng, heads=1):
        self.in_type, self.out_type = in_type, out_type
        ins = {n: (lo, hi) for n, lo, hi in in_type.blocks}
        head = _heads(out_type, heads)[0]
        self.blocks = tuple((n, *ins[n], h * head.dim + lo, h * head.dim + hi)
                            for h in range(heads) for n, lo, hi in head.blocks if n in ins)
        pair = np.repeat([n > 0 for n, *_ in self.blocks],
                         [(hi - lo) * (out_hi - out_lo) // (1 + (n > 0))
                          for n, lo, hi, out_lo, out_hi in self.blocks])
        s = 1.0 / np.sqrt(in_type.dim * (1 + pair))
        self.coeffs = parameter(rng.uniform(-s, s))

    def __call__(self, x: Tensor) -> Tensor:
        return commuting_matmul(x, self.coeffs, self.blocks, self.out_type.dim)


class _Bias:
    """``scalar`` mode shifts each scalar by a learned amount, and no pair.

    A constant added to a pair would not turn with the gauge.  A learned turn
    of pair k by ``n * b_k`` commutes with every rotation, so the kernels that
    write the output absorb it (their output row k times ``exp(i n b_k)``).

    ``additive`` mode adds a raw vector to every coordinate instead --
    intentionally not gauge equivariant.
    """

    def __init__(self, out_type: FeatureType, mode: str, rng):
        if mode not in BIAS_MODES:
            raise ConfigError(f"unknown bias mode {mode!r}")
        self.mode = mode
        size = out_type.dim if mode == "additive" else out_type.n_scalars
        self.b = parameter(rng.uniform(-0.5, 0.5, size)) if mode != "none" else None
        self._zeros = np.zeros(out_type.dim - size)

    def apply(self, y: Tensor) -> Tensor:
        if self.b is None:
            return y
        return y + (concat([self.b, self._zeros]) if self._zeros.size else self.b)

    def parameters(self):
        return [] if self.b is None else [("bias", self.b)]


def _check_input(layer, x: Tensor, geom: EdgeGeometry, empty_ok: bool = False):
    want = (geom.edges.n_vertices, layer.in_type.dim)
    if x.shape != want:
        raise FeatureTypeError(f"layer expects features of shape {want}: {want[0]} vertices "
                               f"of type {layer.in_type}, got shape {x.shape}")
    if not empty_ok and (geom.edges.degrees == 0).any():
        raise EmptyNeighborhoodError(int(np.where(geom.edges.degrees == 0)[0][0]))


class GemConvLayer:
    """Anisotropic gauge-equivariant convolution.

    Output at p is ``K_self f_p`` plus the sum over neighbors q of
    ``K_neigh(theta_pq)`` applied to the transported neighbor feature,
    followed by the bias.  ``rng`` is required: it draws every parameter,
    so a seeded generator makes the layer reproducible.
    """

    def __init__(self, in_type: FeatureType, out_type: FeatureType,
                 bias: str = "scalar", *, rng: np.random.Generator):
        self.in_type, self.out_type = in_type, out_type
        self.self_kernel = _SelfKernel(in_type, out_type, rng)
        self.neigh_kernel = parameter(init_neighbor_kernel(in_type, out_type, rng))
        self.bias = _Bias(out_type, bias, rng)

    def forward(self, x: Tensor, geom: EdgeGeometry) -> Tensor:
        _check_input(self, x, geom)
        u = transported_rows(x, geom.edges.src_plan, geom.transport_phases,
                             self.in_type.vector_blocks)
        msg = turned_product(u, self.neigh_kernel, geom.theta_phases,
                             self.out_type.vector_blocks, (-1, self.out_type.dim))
        agg = segment_sum(msg, geom.edges.dst_plan, geom.edges.n_vertices)
        y = self.self_kernel(x) + agg
        return self.bias.apply(y)

    def parameters(self):
        return [("self_kernel", self.self_kernel.coeffs),
                ("neigh_kernel", self.neigh_kernel),
                *self.bias.parameters()]


class EmanAttentionLayer:
    """Attention-weighted gauge-equivariant aggregation with stacked heads.

    Per vertex, queries come from a self kernel, keys and values from
    neighbor kernels applied to transported neighbor features; attention
    weights are a softmax over the neighborhood of the scaled key-query
    inner products, and the output is the neighbor count times the
    attention-weighted value sum.  Attention logits are built from inner
    products of same-type features, so the weights are gauge-invariant
    scalars.

    Queries and keys of ``att_type`` and values of ``out_type`` are split
    into ``heads`` heads, head-major (see the module docstring): the rows of
    ``key_kernel`` and ``value_kernel`` and the outputs of the self kernels
    come in that order.  A head's logit sums its own query-key columns,
    scaled by ``1/sqrt(att_type.dim / heads)``, and its weights scale its own
    value columns.  With several heads one self kernel, ``out_kernel``, mixes
    their outputs, put back in the order of ``out_type`` by ``out_order``
    (the inverse of ``out_cols``);
    with one, the value kernel absorbs it.
    ``self_contribution`` adds each vertex's own key and value to its
    neighborhood (so the normalizer is ``N_p + 1``).  ``rng`` is required,
    as for :class:`GemConvLayer`.
    """

    def __init__(self, in_type: FeatureType, out_type: FeatureType,
                 att_type: FeatureType | None = None, bias: str = "scalar",
                 self_contribution: bool = False, heads: int = 1,
                 *, rng: np.random.Generator):
        self.in_type, self.out_type = in_type, out_type
        self.att_type = att = att_type if att_type is not None else out_type
        self.self_contribution = self_contribution
        self.heads = heads
        self.att_head, att_cols = _heads(att, heads)
        self.out_head, self.out_cols = _heads(out_type, heads)
        self.query_kernel = _SelfKernel(in_type, att, rng, heads)
        self.key_kernel = parameter(init_neighbor_kernel(in_type, att, rng)[att_cols])
        self.value_kernel = parameter(
            init_neighbor_kernel(in_type, out_type, rng)[self.out_cols])
        if self_contribution:
            self.self_key_kernel = _SelfKernel(in_type, att, rng, heads)
            self.self_value_kernel = _SelfKernel(in_type, out_type, rng, heads)
        if heads > 1:
            self.out_order = np.argsort(self.out_cols)
            self.out_kernel = _SelfKernel(out_type, out_type, rng)
        self.bias = _Bias(out_type, bias, rng)

    def _attend(self, x: Tensor, geom: EdgeGeometry):
        """The segment size times each head's weighted value sum, and the
        weights, one column per head.  With self contribution each vertex's
        own key and value are a segment entry ahead of the edges."""
        _check_input(self, x, geom, empty_ok=self.self_contribution)
        n, h, d, dv = geom.edges.n_vertices, self.heads, self.att_head.dim, self.out_head.dim
        u = transported_rows(x, geom.edges.src_plan, geom.transport_phases,
                             self.in_type.vector_blocks)
        K = turned_product(u, self.key_kernel, geom.theta_phases,
                           self.att_head.vector_blocks, (-1, h, d))
        V = turned_product(u, self.value_kernel, geom.theta_phases,
                           self.out_head.vector_blocks, (-1, h, dv))
        Q = self.query_kernel(x).reshape(-1, h, d)
        size = geom.edges.degrees[:, None] + float(self.self_contribution)
        seg = geom.edges.self_plan if self.self_contribution else geom.edges.dst_plan
        if self.self_contribution:
            K = concat([self.self_key_kernel(x).reshape(-1, h, d), K])
            V = concat([self.self_value_kernel(x).reshape(-1, h, dv), V])
        alpha = segment_softmax(gathered_dot(K, Q, seg, 1.0 / np.sqrt(d)), seg, n)
        out = weighted_segment_sum(V, alpha, seg, n).reshape(n, -1)
        return out * size, alpha

    def forward(self, x: Tensor, geom: EdgeGeometry) -> Tensor:
        out = self._attend(x, geom)[0]
        if self.heads > 1:
            out = self.out_kernel(take_cols(out, self.out_order))
        return self.bias.apply(out)

    def attention_coefficients(self, x: Tensor, geom: EdgeGeometry) -> np.ndarray:
        """Softmax weights, one row per head, aligned with the edge order.

        With self contribution, the first ``V`` entries of a row are the
        self weights and the remaining ``E`` follow edge order.
        """
        return self._attend(x, geom)[1].value.T

    def parameters(self):
        params = [("query_kernel", self.query_kernel.coeffs),
                  ("key_kernel", self.key_kernel),
                  ("value_kernel", self.value_kernel)]
        if self.self_contribution:
            params += [("self_key_kernel", self.self_key_kernel.coeffs),
                       ("self_value_kernel", self.self_value_kernel.coeffs)]
        if self.heads > 1:
            params.append(("out_kernel", self.out_kernel.coeffs))
        return params + self.bias.parameters()


class GaugeNonlinearity:
    """The scalar columns pass through ReLU; the pairs after them are norm-gated.

    A vector component f becomes ``f * sigmoid(|f| + c) / (|f| + 1e-6)``
    with one learnable offset c per component.  Only the norm enters the
    gate, so the map commutes with per-vertex rotations of the components.
    """

    EPS = 1e-6

    def __init__(self, ftype: FeatureType):
        self.ftype = ftype
        k = ftype.n_components - ftype.n_scalars
        self.c = parameter(np.ones(k)) if k else None

    def forward(self, x: Tensor) -> Tensor:
        m = self.ftype.n_scalars
        pieces = [take_cols(x, slice(m)).relu()] if m else []
        if self.c is not None:
            k = self.c.shape[0]
            vec = take_cols(x, slice(m, None)).reshape(-1, k, 2)
            nrm = ((vec * vec).sum(axis=2) + 1e-60).sqrt()
            gate = (nrm + self.c).sigmoid() / (nrm + self.EPS)
            pieces.append((vec * gate.reshape(-1, k, 1)).reshape(-1, 2 * k))
        return pieces[0] if len(pieces) == 1 else concat(pieces, axis=1)

    def parameters(self):
        return [] if self.c is None else [("gate_offset", self.c)]


class DenseLayer:
    """Plain affine map on scalar channels."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        s = 1.0 / np.sqrt(n_in)
        self.W = parameter(rng.uniform(-s, s, (n_in, n_out)))
        self.b = parameter(rng.uniform(-s, s, n_out))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.W + self.b

    def parameters(self):
        return [("W", self.W), ("b", self.b)]
