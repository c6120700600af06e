import numpy as np
import numpy.testing as npt
import pytest

from meshnet.autodiff import Tensor, parameter
from meshnet.features import feature_type_for
from meshnet.layers import BIAS_MODES, EdgeGeometry, EmanAttentionLayer, GemConvLayer
from meshnet.mesh import generate_icosphere
from meshnet.representations import FeatureType
from meshnet.tangent import build_frames, regauge

from oracles import (
    dense_eman_forward,
    dense_eman_self_forward,
    dense_gem_forward,
    dense_multihead_forward,
    random_test_mesh,
    regauge_coords,
)
from test_autodiff import check_gradients

ENTRY = feature_type_for("reltan")  # rho0+rho1, the RelTan input type
HIDDEN = FeatureType.parse("rho0+rho1+rho2")
FINAL = FeatureType.parse("3xrho0")
# (in, out, att): entry, hidden and final-layer shapes; the final layer
# attends in the hidden type while its values are scalars
SHAPES = [(ENTRY, HIDDEN, None), (HIDDEN, HIDDEN, None), (HIDDEN, FINAL, HIDDEN)]
TOL = 1e-12


def _geometry(rng):
    """Random mesh in randomly turned gauges, with its edge geometry."""
    mesh = random_test_mesh(rng)
    frames, td = regauge(build_frames(mesh),
                         rng.uniform(-np.pi, np.pi, mesh.n_vertices))
    return mesh, td, EdgeGeometry.from_frames(frames, td)


def _assert_oracle(layer, oracle, seed):
    rng = np.random.default_rng(seed)
    mesh, td, geom = _geometry(rng)
    f = rng.standard_normal((mesh.n_vertices, layer.in_type.dim))
    got = layer.forward(Tensor(f), geom).value
    want = oracle(layer, f, mesh, td)
    npt.assert_allclose(got, want, rtol=0, atol=TOL * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("bias", BIAS_MODES)
@pytest.mark.parametrize("shape", range(len(SHAPES)))
class TestDenseOracles:
    def test_gem(self, bias, shape):
        tin, tout, _att = SHAPES[shape]
        layer = GemConvLayer(tin, tout, bias=bias, rng=np.random.default_rng(shape))
        _assert_oracle(layer, dense_gem_forward, [10, shape])

    def test_eman(self, bias, shape):
        tin, tout, att = SHAPES[shape]
        layer = EmanAttentionLayer(tin, tout, att_type=att, bias=bias,
                                   rng=np.random.default_rng(shape))
        _assert_oracle(layer, dense_eman_forward, [20, shape])

    def test_eman_self_contribution(self, bias, shape):
        tin, tout, att = SHAPES[shape]
        layer = EmanAttentionLayer(tin, tout, att_type=att, bias=bias,
                                   self_contribution=True,
                                   rng=np.random.default_rng(shape))
        _assert_oracle(layer, dense_eman_self_forward, [30, shape])


@pytest.mark.parametrize("bias", BIAS_MODES)
def test_multihead_matches_oracle(bias):
    layer = EmanAttentionLayer(ENTRY, 2 * ENTRY, bias=bias, heads=2,
                               rng=np.random.default_rng(5))
    for seed in (40, 41):
        _assert_oracle(layer, dense_multihead_forward, seed)


@pytest.mark.parametrize("bias", ["scalar", "none"])
def test_multihead_is_gauge_equivariant(bias):
    # the output in turned gauges is rho(-g) times the output, checked
    # without the oracle, which shares the layer's layout
    rng = np.random.default_rng(7)
    layer = EmanAttentionLayer(HIDDEN, 2 * HIDDEN, bias=bias, heads=2, rng=rng)
    mesh = random_test_mesh(rng)
    frames = build_frames(mesh)
    g = rng.uniform(-np.pi, np.pi, mesh.n_vertices)
    frames2, td2 = regauge(frames, g)
    f = rng.standard_normal((mesh.n_vertices, HIDDEN.dim))
    out = layer.forward(Tensor(f), EdgeGeometry.from_frames(frames)).value
    out2 = layer.forward(Tensor(regauge_coords(f, HIDDEN, g)),
                         EdgeGeometry.from_frames(frames2, td2)).value
    npt.assert_allclose(out2, regauge_coords(out, layer.out_type, g), rtol=0,
                        atol=TOL * max(1.0, np.abs(out).max()))


@pytest.mark.parametrize("cls", [GemConvLayer, EmanAttentionLayer])
def test_whole_layer_gradients(cls):
    rng = np.random.default_rng(50)
    mesh = generate_icosphere(1)
    geom = EdgeGeometry.from_frames(build_frames(mesh))
    layer = cls(ENTRY, HIDDEN, rng=rng)
    x = parameter(rng.standard_normal((mesh.n_vertices, ENTRY.dim)))
    w = rng.standard_normal((mesh.n_vertices, HIDDEN.dim))

    def loss():
        return (layer.forward(x, geom) * w).sum()

    params = [t for _name, t in layer.parameters()] + [x]
    check_gradients(loss, params, rng)


@pytest.mark.parametrize("options", [{}, {"self_contribution": True}, {"heads": 2}])
def test_attention_coefficients(options):
    """Each head's weights form a softmax per neighborhood and are gauge invariant."""
    rng = np.random.default_rng(60)
    layer = EmanAttentionLayer(HIDDEN, 2 * HIDDEN, rng=rng, **options)
    mesh = random_test_mesh(rng)
    frames = build_frames(mesh)
    g = rng.uniform(-np.pi, np.pi, mesh.n_vertices)
    frames2, td2 = regauge(frames, g)
    f = rng.standard_normal((mesh.n_vertices, HIDDEN.dim))
    alpha = layer.attention_coefficients(Tensor(f), EdgeGeometry.from_frames(frames))
    seg = mesh.edge_dst
    if layer.self_contribution:
        seg = np.concatenate([np.arange(mesh.n_vertices), seg])
    assert alpha.shape == (layer.heads, seg.size)
    for row in alpha:
        npt.assert_allclose(np.bincount(seg, weights=row), 1.0, rtol=0, atol=TOL)
    alpha2 = layer.attention_coefficients(Tensor(regauge_coords(f, HIDDEN, g)),
                                          EdgeGeometry.from_frames(frames2, td2))
    npt.assert_allclose(alpha2, alpha, rtol=0, atol=TOL)


def test_identity_markers_see_backward():
    # a marker node built with the public constructor on a layer's input and
    # output (as the benchmark's tracer does) has its vjp called by backward,
    # the output's before the input's
    rng = np.random.default_rng(4)
    mesh, _td, geom = _geometry(rng)
    layer = EmanAttentionLayer(ENTRY, HIDDEN, rng=rng)
    seen = []

    def marker(x, side):
        def vjp(g):
            seen.append((side, g.shape))
            return (g,)
        return Tensor(x.value, True, (x,), vjp)

    x = marker(Tensor(rng.standard_normal((mesh.n_vertices, ENTRY.dim))), "in")
    marker(layer.forward(x, geom), "out").sum().backward()
    assert seen == [("out", (mesh.n_vertices, HIDDEN.dim)),
                    ("in", (mesh.n_vertices, ENTRY.dim))]
    assert all(np.any(p.grad != 0) for _n, p in layer.parameters())


def _turn_pairs(y, ftype, phase):
    """Rows of ``y``, of type ``ftype``, with pair k times ``phase[k]``."""
    m = ftype.n_scalars
    out = y.copy()
    out[:, m:] = (np.ascontiguousarray(y[:, m:]).view(np.complex128) * phase).view(np.float64)
    return out


def _fold_into_self_kernel(kernel, phase):
    """Row k of every order's complex matrix ``W_n`` times ``conj(phase[k])``."""
    m, k = kernel.out_type.n_scalars, 0
    for n, lo, hi, out_lo, out_hi in kernel.blocks:
        size = (hi - lo) * (out_hi - out_lo) // (1 + (n > 0))
        if n:
            w = kernel.coeffs.value[k:k + size].view(np.complex128)
            w = w.reshape((out_hi - out_lo) // 2, -1)  # a view: W_n, in place
            w *= phase[(out_lo - m) // 2:(out_hi - m) // 2, None].conj()
        k += size
    assert k == kernel.coeffs.shape[0]


# layer class and options, the K(0) parameters and the self kernels that
# write the output
ABSORBING = {
    "gem": (GemConvLayer, {}, ["neigh_kernel"], ["self_kernel"]),
    "eman": (EmanAttentionLayer, {}, ["value_kernel"], []),
    "self_contribution": (EmanAttentionLayer, {"self_contribution": True},
                          ["value_kernel"], ["self_value_kernel"]),
    "heads": (EmanAttentionLayer, {"heads": 2}, [], ["head_out"]),
}


@pytest.mark.parametrize("case", list(ABSORBING))
def test_kernels_absorb_a_turn_of_the_output_pairs(case):
    # a learned turn of each output pair commutes with every rotation, so
    # folding it into the kernels that write the output turns the output:
    # why the equivariant bias holds no angle for the pairs
    cls, options, neigh, selfs = ABSORBING[case]
    rng = np.random.default_rng(70)
    out_type = 2 * HIDDEN
    layer = cls(HIDDEN, out_type, rng=rng, **options)
    mesh, _td, geom = _geometry(rng)
    f = Tensor(rng.standard_normal((mesh.n_vertices, HIDDEN.dim)))
    m = out_type.n_scalars
    phase = np.exp(1j * np.array(out_type.orders[m:])
                   * rng.uniform(-np.pi, np.pi, out_type.n_components - m))
    before = layer.forward(f, geom).value
    want = _turn_pairs(before, out_type, phase)
    assert np.abs(want - before).max() > 0.1 * np.abs(before).max()
    for name in neigh:
        k0 = getattr(layer, name).value
        k0[...] = _turn_pairs(k0.T, out_type, phase).T
    for name in selfs:
        kernels = getattr(layer, name)
        for kernel in kernels if isinstance(kernels, list) else [kernels]:
            _fold_into_self_kernel(kernel, phase)
    got = layer.forward(f, geom).value
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
