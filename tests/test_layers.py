import re

import numpy as np
import numpy.testing as npt
import pytest

from meshnet import layers as layers_module
from meshnet.autodiff import Tensor, nll_loss, parameter
from meshnet.config import default_config, model_spec_from_config
from meshnet.datasets import segmentation_spheres
from meshnet.errors import ConfigError, FeatureTypeError
from meshnet.features import compute_features, feature_type_for
from meshnet.layers import (
    BIAS_MODES,
    EdgeGeometry,
    EmanAttentionLayer,
    GaugeNonlinearity,
    GemConvLayer,
    _SelfKernel,
)
from meshnet.mesh import generate_icosphere
from meshnet.model import build_model
from meshnet.representations import FeatureType, init_neighbor_kernel
from meshnet.tangent import build_frames, regauge

from oracles import (
    dense_eman_forward,
    dense_gem_forward,
    gauge_gate_pairs,
    random_test_mesh,
    regauge_coords,
    rep_block_diag,
    self_kernel_matrix,
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
        _assert_oracle(layer, dense_eman_forward, [30, shape])

    @pytest.mark.parametrize("self_contribution", [False, True])
    def test_eman_two_heads(self, bias, shape, self_contribution):
        # every multiplicity doubled, so that both types split into two heads
        tin, tout, att = SHAPES[shape]
        att = None if att is None else FeatureType(att.orders * 2)
        layer = EmanAttentionLayer(tin, FeatureType(tout.orders * 2), att_type=att,
                                   bias=bias, self_contribution=self_contribution, heads=2,
                                   rng=np.random.default_rng(shape))
        _assert_oracle(layer, dense_eman_forward, [35, shape])


@pytest.mark.parametrize("bias", BIAS_MODES)
def test_multihead_matches_oracle(bias):
    for heads in (1, 2):
        for self_contribution in (False, True):
            layer = EmanAttentionLayer(ENTRY, FeatureType(ENTRY.orders * 2), bias=bias,
                                       heads=heads, self_contribution=self_contribution,
                                       rng=np.random.default_rng(5))
            for seed in (40, 41):
                _assert_oracle(layer, dense_eman_forward, seed)


@pytest.mark.parametrize("bias", ["scalar", "none"])
def test_multihead_is_gauge_equivariant(bias):
    # the output in turned gauges is rho(-g) times the output, checked
    # without the oracle, which shares the layer's layout
    rng = np.random.default_rng(7)
    layer = EmanAttentionLayer(HIDDEN, FeatureType(HIDDEN.orders * 2), bias=bias, heads=2,
                               rng=rng)
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


# GEM and EMAN, then EMAN's self-contribution and two-head paths through the fused ops
LAYERS = pytest.mark.parametrize("cls, options", [
    (GemConvLayer, {}), (EmanAttentionLayer, {}),
    (EmanAttentionLayer, {"self_contribution": True}),
    (EmanAttentionLayer, {"heads": 2, "self_contribution": True}),
], ids=["GemConvLayer", "EmanAttentionLayer", "eman_self_contribution",
        "eman_two_heads_self_contribution"])


@LAYERS
def test_whole_layer_gradients(cls, options):
    # two heads need even multiplicities; the fused ops then see (rows, heads, dim)
    rng = np.random.default_rng(50)
    mesh = generate_icosphere(1)
    geom = EdgeGeometry.from_frames(build_frames(mesh))
    tout = FeatureType(HIDDEN.orders * 2) if options.get("heads") else HIDDEN
    layer = cls(ENTRY, tout, rng=rng, **options)
    x = parameter(rng.standard_normal((mesh.n_vertices, ENTRY.dim)))
    w = rng.standard_normal((mesh.n_vertices, tout.dim))

    def loss():
        return (layer.forward(x, geom) * w).sum()

    params = [t for _name, t in layer.parameters()] + [x]
    check_gradients(loss, params, rng)


def _edge_row_buffers(out, rows):
    """The distinct base buffers of at least ``rows`` rows that the tape ending in ``out``
    keeps alive: every node's value and every array its adjoint closes over."""
    buffers, seen, stack = {}, set(), [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        cells = (t._vjp.__closure__ or ()) if t._vjp else ()
        for a in [t.value] + [c.cell_contents for c in cells]:
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                if a.ndim and a.shape[0] >= rows:
                    buffers[id(a)] = a
        stack.extend(t._parents)
    return list(buffers.values())


@LAYERS
def test_tape_keeps_per_edge_only_the_input_keys_and_values(cls, options):
    # per edge the adjoints read only the transported input u and, in EMAN, the keys
    # K and values V (concatenated after the self entries with self contribution);
    # every other per-edge array on the tape has one column per head.  Measured on
    # ico2 at the default EMAN: 5.33 MiB of per-edge tape when each op of the chain
    # kept its own value, 1.80 MiB with the fused ops
    hidden = FeatureType.parse("16x(rho0+rho1+rho2)")
    geom = EdgeGeometry.from_frames(build_frames(generate_icosphere(2)))
    n, e = geom.edges.n_vertices, geom.edges.src.size
    layer = cls(hidden, hidden, rng=np.random.default_rng(0), **options)
    heads = options.get("heads", 1)
    x = parameter(np.random.default_rng(1).standard_normal((n, hidden.dim)))
    buffers = _edge_row_buffers(layer.forward(x, geom), e)
    wide = sorted((a.shape[0], a.size // a.shape[0]) for a in buffers
                  if a.size > heads * a.shape[0])
    want = [(e, hidden.dim)] * (2 if cls is GemConvLayer else 3)
    if options.get("self_contribution"):
        want += [(n + e, hidden.dim)] * 2  # the keys and values with the self entries
    mib = sum(a.nbytes for a in buffers) / 2**20
    assert wide == sorted(want), f"{mib:.2f} MiB of per-edge tape"


def test_training_step_records_one_node_per_model_op(monkeypatch):
    # each nonlinearity, attention's weights and value sum, dense layer and the loss
    # is one node on its inputs: the weights on the keys and queries, the sum on the
    # values and the weights.  Of the (V, target_dim) buffers the tape keeps only the
    # logits and the loss's exponentials (generic chains kept four)
    config = default_config()
    data = segmentation_spheres(1, 0, 1, seed=3)
    model = build_model(model_spec_from_config(config, target_dim=data.target_dim,
                                               task=data.task), 3)
    sample = data.train[0]
    frames = build_frames(sample.mesh)
    field = compute_features(config.model["features"], sample.mesh, frames,
                             config.model["reltan_powers"])
    calls, weights, sums = [], [], []

    def recorded(op, operands, log=calls):
        def call(x, *args):
            out = op(x, *args)
            log.append((out, (x,) + tuple(operands(*args))))
            return out
        return call

    nonlinearities = [model.entry_nl] + [nl for block in model.blocks for nl in block[1::2]]
    for nl in nonlinearities:
        nl.forward = recorded(nl.forward, lambda nl=nl: (nl.c,))
    for dense in (model.dense1, model.dense2):
        dense.forward = recorded(dense.forward, lambda dense=dense: (dense.W, dense.b))
    monkeypatch.setattr(layers_module, "attention_weights", recorded(
        layers_module.attention_weights, lambda q, plan, scale: (q,), weights))
    monkeypatch.setattr(layers_module, "weighted_segment_sum", recorded(
        layers_module.weighted_segment_sum, lambda w, plan, size: (w,), sums))
    logits = model.forward(field, EdgeGeometry.from_frames(frames), train=True,
                           rng=np.random.default_rng(0))
    loss = nll_loss(logits, sample.label)
    eman_layers = 2 + 2 * len(model.blocks)
    assert len(calls) == len(nonlinearities) + 2
    assert len(weights) == len(sums) == eman_layers
    for out, operands in calls + weights + sums + [(loss, (logits,))]:
        assert len(out._parents) == len(operands)
        assert all(p is q for p, q in zip(out._parents, operands))
    # each layer's value sum weighs its values by that layer's weights node
    assert all(s[1][1] is w[0] for w, s in zip(weights, sums))
    shape = logits.shape
    assert shape == (sample.mesh.n_vertices, data.target_dim)
    assert len([a for a in _edge_row_buffers(loss, shape[0]) if a.shape == shape]) == 2


@pytest.mark.parametrize("ftype", ["rho0+rho1", "3xrho0", "2xrho1+rho2", "2xrho0+rho1+rho3"])
def test_gauge_nonlinearity_matches_the_loop(ftype):
    # scalar-only, pair-only and mixed types, against a loop over the pairs
    ftype = FeatureType.parse(ftype)
    rng = np.random.default_rng(7)
    nl = GaugeNonlinearity(ftype)
    c = rng.standard_normal(0 if nl.c is None else nl.c.shape[0])
    if nl.c is not None:
        nl.c.value[:] = c
    x = rng.standard_normal((6, ftype.dim))
    npt.assert_allclose(nl.forward(Tensor(x)).value,
                        gauge_gate_pairs(x, c, ftype.n_scalars, nl.EPS), rtol=0, atol=TOL)


@pytest.mark.parametrize("ftype, shape", [("rho0+rho1", (4, 5)), ("rho0+rho1", (3,)),
                                          ("3xrho0", (4, 2))])
def test_gauge_nonlinearity_needs_its_type(ftype, shape):
    # a misshapen input ended in a bare ValueError from a reshape
    ftype = FeatureType.parse(ftype)
    with pytest.raises(FeatureTypeError, match=re.escape(
            f"nonlinearity expects features of type {ftype}, {ftype.dim} columns, "
            f"got shape {shape}")):
        GaugeNonlinearity(ftype).forward(Tensor(np.ones(shape)))


@pytest.mark.parametrize("cls, options", [(GemConvLayer, {}), (EmanAttentionLayer, {}),
                                          (EmanAttentionLayer, {"self_contribution": True})],
                         ids=["gem", "eman", "eman_self_contribution"])
@pytest.mark.parametrize("rows, cols", [(-1, 0), (1, 0), (0, 1)])
def test_features_need_one_row_per_vertex(cls, options, rows, cols):
    # unchecked, a row short gathered past the end, and a row over met numpy's
    # broadcasting or was dropped
    geom = EdgeGeometry.from_frames(build_frames(generate_icosphere(1)))
    layer = cls(ENTRY, HIDDEN, rng=np.random.default_rng(0), **options)
    n, d = geom.edges.n_vertices, ENTRY.dim
    with pytest.raises(FeatureTypeError, match=re.escape(
            f"features of shape ({n}, {d}): {n} vertices of type {ENTRY}, "
            f"got shape ({n + rows}, {d + cols})")):
        layer.forward(Tensor(np.ones((n + rows, d + cols))), geom)


@pytest.mark.parametrize("cls", [GemConvLayer, EmanAttentionLayer], ids=["gem", "eman"])
def test_unknown_bias_mode_rejected(cls):
    with pytest.raises(ConfigError, match="unknown bias mode 'bogus'"):
        cls(ENTRY, HIDDEN, bias="bogus", rng=np.random.default_rng(0))


@pytest.mark.parametrize("options", [{}, {"self_contribution": True}, {"heads": 2},
                                     {"heads": 2, "self_contribution": True}])
def test_attention_coefficients(options):
    """Each head's weights form a softmax per neighborhood and are gauge invariant."""
    rng = np.random.default_rng(60)
    layer = EmanAttentionLayer(HIDDEN, FeatureType(HIDDEN.orders * 2), rng=rng, **options)
    mesh = random_test_mesh(rng)
    frames = build_frames(mesh)
    g = rng.uniform(-np.pi, np.pi, mesh.n_vertices)
    frames2, td2 = regauge(frames, g)
    f = rng.standard_normal((mesh.n_vertices, HIDDEN.dim))
    alpha = layer.attention_coefficients(Tensor(f), EdgeGeometry.from_frames(frames))
    seg = mesh.edges.dst
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
    "heads": (EmanAttentionLayer, {"heads": 2}, [], ["out_kernel"]),
}


@pytest.mark.parametrize("case", list(ABSORBING))
def test_kernels_absorb_a_turn_of_the_output_pairs(case):
    # a learned turn of each output pair commutes with every rotation, so
    # folding it into the kernels that write the output turns the output:
    # why the equivariant bias holds no angle for the pairs
    cls, options, neigh, selfs = ABSORBING[case]
    rng = np.random.default_rng(70)
    out_type = FeatureType(HIDDEN.orders * 2)
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
        _fold_into_self_kernel(getattr(layer, name), phase)
    got = layer.forward(f, geom).value
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _coefficients(kernel, matrix):
    """The coefficients that give ``kernel`` the matrix ``matrix``: an
    order-n entry's 2x2 block ``[[a, b], [-b, a]]`` is the pair (a, b)."""
    parts = []
    for n, lo, hi, out_lo, out_hi in kernel.blocks:
        block = matrix[out_lo:out_hi, lo:hi]
        parts.append(np.stack([block[::2, ::2], block[::2, 1::2]], axis=-1) if n else block)
    return np.concatenate([p.ravel() for p in parts])


def _separate_heads_forward(kernels, f, geom, tin, att):
    """The attention of separate per-head projections, summed per head.

    ``kernels`` holds explicit matrices: the query self kernel and the key and
    value ``K(0)`` into the whole types, and per head the self kernels that
    project the query, each key and each value to the head type and map the
    head's output back.  A head's logits are scaled by 1/sqrt(head dim).
    """
    q, k0, v0, hq, hk, hv, ho = kernels
    edges = geom.edges
    keys = np.stack([rep_block_diag(att, th) @ k0 @ rep_block_diag(tin, g - th) @ f[s]
                     for s, th, g in zip(edges.src, geom.theta, geom.transport)])
    values = np.stack([rep_block_diag(att, th) @ v0 @ rep_block_diag(tin, g - th) @ f[s]
                       for s, th, g in zip(edges.src, geom.theta, geom.transport)])
    out = np.zeros((edges.n_vertices, v0.shape[0]))
    for p in range(edges.n_vertices):
        K, V = keys[edges.dst == p].T, values[edges.dst == p].T
        for wq, wk, wv, wo in zip(hq, hk, hv, ho):
            s = (wk @ K).T @ (wq @ q @ f[p]) / np.sqrt(wq.shape[0])
            alpha = np.exp(s - s.max()) / np.exp(s - s.max()).sum()
            out[p] += wo @ (K.shape[1] * (wv @ V @ alpha))
    return out


@pytest.mark.parametrize("bias", ["scalar", "none"])
def test_separate_head_projections_fold_into_stacked_kernels(bias):
    # a self kernel W commutes with every rotation, so a head's projection of
    # an edge key is W rho(theta) K(0) u = rho(theta) (W K(0)) u: the per-head
    # projections fold into rows of the stacked kernels, and the maps back
    # into the out kernel's columns
    rng = np.random.default_rng(80)
    out_type = FeatureType(HIDDEN.orders * 2)
    layer = EmanAttentionLayer(HIDDEN, out_type, bias=bias, heads=2, rng=rng)
    mesh, _td, geom = _geometry(rng)
    f = rng.standard_normal((mesh.n_vertices, HIDDEN.dim))
    selfs = [_SelfKernel(HIDDEN, out_type, rng)]
    selfs += [_SelfKernel(out_type, HIDDEN, rng) for _ in range(6)]
    selfs += [_SelfKernel(HIDDEN, out_type, rng) for _ in range(2)]
    for kernel in selfs:
        assert np.array_equal(_coefficients(kernel, self_kernel_matrix(kernel)),
                              kernel.coeffs.value)
    q, *heads = [self_kernel_matrix(k) for k in selfs]
    hq, hk, hv, ho = heads[0:2], heads[2:4], heads[4:6], heads[6:8]
    k0, v0 = (init_neighbor_kernel(HIDDEN, out_type, rng) for _ in range(2))
    want = _separate_heads_forward((q, k0, v0, hq, hk, hv, ho), f, geom, HIDDEN, out_type)
    want = layer.bias.apply(Tensor(want)).value

    mix = np.zeros((out_type.dim, out_type.dim))
    mix[:, layer.out_cols] = np.hstack(ho)
    layer.query_kernel.coeffs.value[...] = _coefficients(layer.query_kernel,
                                                         np.vstack([w @ q for w in hq]))
    layer.key_kernel.value[...] = np.vstack([w @ k0 for w in hk])
    layer.value_kernel.value[...] = np.vstack([w @ v0 for w in hv])
    layer.out_kernel.coeffs.value[...] = _coefficients(layer.out_kernel, mix)
    got = layer.forward(Tensor(f), geom).value
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
