"""Property tests on drawn feature types: the layout algebra, the self-kernel
op against the dense oracle, and gauge and permutation equivariance of every
layer kind.

Hypothesis draws order lists (orders 0-3, unsorted, repeated); runs are
derandomized and bounded, so the suite stays deterministic and quick.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshnet.autodiff import Tensor, parameter
from meshnet.layers import (
    EdgeGeometry,
    EmanAttentionLayer,
    GaugeNonlinearity,
    GemConvLayer,
    _SelfKernel,
)
from meshnet.mesh import generate_icosphere
from meshnet.representations import FeatureType
from meshnet.tangent import build_frames, regauge
from meshnet.transforms import Permutation, apply_permutation

from oracles import regauge_coords, self_kernel_matrix
from test_autodiff import check_gradients

ORDERS = st.lists(st.integers(0, 3), min_size=1, max_size=6)
TYPES = ORDERS.map(FeatureType)
KINDS = st.sampled_from(["gem", "eman", "self_contribution", "heads2", "heads2_self"])
BIASES = st.sampled_from(["scalar", "none"])
SEEDS = st.integers(0, 2**32 - 1)
TOL = 1e-12


def _settings(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


def _mesh():
    base = generate_icosphere(1)
    radii = 1.0 + 0.3 * np.random.default_rng(0).uniform(-1.0, 1.0, base.n_vertices)
    return base.with_vertices(base.vertices * radii[:, None])


MESH = _mesh()
FRAMES = build_frames(MESH)
GEOM = EdgeGeometry.from_frames(FRAMES)


@_settings(100)
@given(ORDERS)
def test_orders_are_sorted_and_parse_round_trips(orders):
    t = FeatureType(orders)
    assert list(t.orders) == sorted(orders)
    assert FeatureType.parse(str(t)) == t
    assert t.dim == sum(1 if n == 0 else 2 for n in orders)
    assert t.n_scalars == orders.count(0)
    starts = [lo for _n, lo, _hi in t.vector_blocks]
    ends = [t.n_scalars] + [hi for _n, _lo, hi in t.vector_blocks]
    assert starts == ends[:-1] and ends[-1] == t.dim


@_settings(100)
@given(TYPES, TYPES, st.integers(1, 3))
def test_sum_commutes_and_multiples_stay_sorted(a, b, k):
    assert a + b == b + a
    assert (a + b).orders == tuple(sorted(a.orders + b.orders))
    assert (k * a).orders == tuple(sorted(a.orders * k))


@_settings(60)
@given(TYPES, TYPES, SEEDS)
@example(FeatureType([1]), FeatureType([0, 2]), 0)  # no shared order: all zero
def test_self_kernel_matches_oracle_matrix(tin, tout, seed):
    rng = np.random.default_rng(seed)
    kernel = _SelfKernel(tin, tout, rng)
    x = rng.standard_normal((7, tin.dim))
    want = x @ self_kernel_matrix(kernel).T
    npt.assert_allclose(kernel(Tensor(x)).value, want, rtol=0,
                        atol=1e-13 * max(1.0, np.abs(want).max()))


@_settings(20)
@given(TYPES, TYPES, SEEDS)
@example(FeatureType([1]), FeatureType([0, 2]), 0)
def test_self_kernel_gradients(tin, tout, seed):
    rng = np.random.default_rng(seed)
    kernel = _SelfKernel(tin, tout, rng)
    x = parameter(rng.standard_normal((5, tin.dim)))
    r = rng.standard_normal((5, tout.dim))
    check_gradients(lambda: (kernel(x) ** 2 * r).sum(), [x, kernel.coeffs], rng)


def _layer(kind, tin, tout, bias, rng):
    if kind == "gem":
        return GemConvLayer(tin, tout, bias=bias, rng=rng)
    if kind.startswith("heads2"):
        return EmanAttentionLayer(tin, 2 * tout, bias=bias, heads=2, rng=rng,
                                  self_contribution=kind == "heads2_self")
    return EmanAttentionLayer(tin, tout, bias=bias, rng=rng,
                              self_contribution=kind == "self_contribution")


def _assert_close(got, want):
    npt.assert_allclose(got, want, rtol=0, atol=TOL * max(1.0, np.abs(want).max()))


@_settings(30)
@given(TYPES, SEEDS)
def test_nonlinearity_commutes_with_gauge_turns(ftype, seed):
    rng = np.random.default_rng(seed)
    nl = GaugeNonlinearity(ftype)
    if nl.c is not None:
        nl.c.value[...] = rng.standard_normal(nl.c.shape)
    f = rng.standard_normal((MESH.n_vertices, ftype.dim))
    g = rng.uniform(-np.pi, np.pi, MESH.n_vertices)
    _assert_close(nl.forward(Tensor(regauge_coords(f, ftype, g))).value,
                  regauge_coords(nl.forward(Tensor(f)).value, ftype, g))


@_settings(30)
@given(KINDS, TYPES, TYPES, BIASES, SEEDS)
def test_layer_gauge_equivariance(kind, tin, tout, bias, seed):
    # features in turned gauges give the turned output: rho(-g) per vertex
    rng = np.random.default_rng(seed)
    layer = _layer(kind, tin, tout, bias, rng)
    f = rng.standard_normal((MESH.n_vertices, tin.dim))
    g = rng.uniform(-np.pi, np.pi, MESH.n_vertices)
    frames, geom = regauge(FRAMES, g)
    out = layer.forward(Tensor(f), GEOM).value
    turned = layer.forward(Tensor(regauge_coords(f, tin, g)),
                           EdgeGeometry.from_frames(frames, geom)).value
    _assert_close(turned, regauge_coords(out, layer.out_type, g))


@_settings(30)
@given(KINDS, TYPES, TYPES, BIASES, SEEDS)
def test_layer_permutation_equivariance(kind, tin, tout, bias, seed):
    # relabelled vertices keep their rings, so their frames: rows move along
    rng = np.random.default_rng(seed)
    layer = _layer(kind, tin, tout, bias, rng)
    f = rng.standard_normal((MESH.n_vertices, tin.dim))
    perm = Permutation(rng.permutation(MESH.n_vertices))
    moved = apply_permutation(MESH, perm)
    out = layer.forward(Tensor(f), GEOM).value
    relabelled = layer.forward(Tensor(perm.permute_rows(f)),
                               EdgeGeometry.from_frames(build_frames(moved))).value
    _assert_close(perm.unpermute_rows(relabelled), out)
