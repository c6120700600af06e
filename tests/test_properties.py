"""Property tests on drawn feature types: the layout algebra, the self-kernel
op against the dense oracle, and gauge and permutation equivariance of every
layer kind on drawn meshes and gauges.

Hypothesis draws order lists (orders 0-3, unsorted, repeated), meshes (open
grid patches with height noise, icospheres with radial jitter) and a gauge
angle per vertex; runs are derandomized and bounded, so the suite stays
deterministic and quick, and a failure shrinks to a small mesh.
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
from meshnet.mesh import generate_grid_patch, generate_icosphere
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


@st.composite
def _patches(draw):
    """A 3-5 x 3-5 grid patch: boundary fans, valences 2 to 6."""
    rows, cols = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    return generate_grid_patch(rows, cols, draw(st.floats(0.0, 0.5)), draw(SEEDS))


@st.composite
def _spheres(draw):
    """An icosphere at subdivision 0-1, each vertex moved along its ray."""
    base = generate_icosphere(draw(st.integers(0, 1)))
    jitter = draw(st.floats(0.0, 0.3)) * np.random.default_rng(draw(SEEDS)).uniform(
        -1.0, 1.0, base.n_vertices)
    return base.with_vertices(base.vertices * (1.0 + jitter)[:, None])


@st.composite
def _meshes_and_gauges(draw):
    """A mesh, its frames and edge geometry, and a gauge angle per vertex."""
    mesh = draw(st.one_of(_patches(), _spheres()))
    frames = build_frames(mesh)
    gauges = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=mesh.n_vertices,
                                    max_size=mesh.n_vertices)))
    return mesh, frames, EdgeGeometry.from_frames(frames), gauges


MESHES = _meshes_and_gauges()


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
    assert FeatureType(a.orders + b.orders) == FeatureType(b.orders + a.orders)
    assert FeatureType(a.orders + b.orders).orders == tuple(sorted(a.orders + b.orders))
    assert FeatureType(a.orders * k).orders == tuple(sorted(a.orders * k))


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

    def loss():
        y = kernel(x)
        return (y * y * r).sum()

    check_gradients(loss, [x, kernel.coeffs], rng)


def _layer(kind, tin, tout, bias, rng):
    if kind == "gem":
        return GemConvLayer(tin, tout, bias=bias, rng=rng)
    if kind.startswith("heads2"):
        return EmanAttentionLayer(tin, FeatureType(tout.orders * 2), bias=bias, heads=2,
                                  rng=rng, self_contribution=kind == "heads2_self")
    return EmanAttentionLayer(tin, tout, bias=bias, rng=rng,
                              self_contribution=kind == "self_contribution")


def _assert_close(got, want):
    npt.assert_allclose(got, want, rtol=0, atol=TOL * max(1.0, np.abs(want).max()))


@_settings(30)
@given(MESHES, TYPES, SEEDS)
def test_nonlinearity_commutes_with_gauge_turns(drawn, ftype, seed):
    mesh, _frames, _geom, g = drawn
    rng = np.random.default_rng(seed)
    nl = GaugeNonlinearity(ftype)
    if nl.c is not None:
        nl.c.value[...] = rng.standard_normal(nl.c.shape)
    f = rng.standard_normal((mesh.n_vertices, ftype.dim))
    _assert_close(nl.forward(Tensor(regauge_coords(f, ftype, g))).value,
                  regauge_coords(nl.forward(Tensor(f)).value, ftype, g))


@_settings(30)
@given(MESHES, KINDS, TYPES, TYPES, BIASES, SEEDS)
def test_layer_gauge_equivariance(drawn, kind, tin, tout, bias, seed):
    # features in turned gauges give the turned output: rho(-g) per vertex
    mesh, base_frames, base_geom, g = drawn
    rng = np.random.default_rng(seed)
    layer = _layer(kind, tin, tout, bias, rng)
    f = rng.standard_normal((mesh.n_vertices, tin.dim))
    frames, geom = regauge(base_frames, g)
    out = layer.forward(Tensor(f), base_geom).value
    turned = layer.forward(Tensor(regauge_coords(f, tin, g)),
                           EdgeGeometry.from_frames(frames, geom)).value
    _assert_close(turned, regauge_coords(out, layer.out_type, g))


@_settings(30)
@given(MESHES, KINDS, TYPES, TYPES, BIASES, SEEDS)
def test_layer_permutation_equivariance(drawn, kind, tin, tout, bias, seed):
    # relabelled vertices keep their rings, so their frames: rows move along
    mesh, _frames, geom, _gauges = drawn
    rng = np.random.default_rng(seed)
    layer = _layer(kind, tin, tout, bias, rng)
    f = rng.standard_normal((mesh.n_vertices, tin.dim))
    perm = Permutation(rng.permutation(mesh.n_vertices))
    moved = apply_permutation(mesh, perm)
    out = layer.forward(Tensor(f), geom).value
    relabelled = layer.forward(Tensor(perm.permute_rows(f)),
                               EdgeGeometry.from_frames(build_frames(moved))).value
    _assert_close(perm.unpermute_rows(relabelled), out)
