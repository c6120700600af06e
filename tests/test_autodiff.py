import ctypes
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from meshnet.autodiff import (
    Adam,
    Tensor,
    commuting_matmul,
    concat,
    nll_loss,
    parameter,
    rotate_phase,
    segment_softmax,
    segment_sum,
    take_cols,
    take_rows,
)
from meshnet.config import default_config, model_spec_from_config, parse_config
from meshnet.datasets import segmentation_spheres
from meshnet.errors import AutodiffError, EmptyNeighborhoodError
from meshnet.features import GeometricFeatureField, compute_features
from meshnet.layers import EdgeGeometry
from meshnet.mesh import generate_icosphere
from meshnet.model import build_model
from meshnet.representations import FeatureType
from meshnet.tangent import build_frames
from oracles import isolated_vertex_geometry, rep_block_diag, scatter_add


def central_difference(make_loss, param, k, eps=1e-6):
    flat = param.value.ravel()
    old = flat[k]
    flat[k] = old + eps
    lp = make_loss().item()
    flat[k] = old - eps
    lm = make_loss().item()
    flat[k] = old
    return (lp - lm) / (2 * eps)


def check_gradients(make_loss, params, rng, samples=8, tol=1e-6):
    loss = make_loss()
    assert np.isfinite(loss.item())
    loss.backward()
    for p in params:
        g = p.grad.ravel()
        for k in rng.choice(p.value.size, size=min(samples, p.value.size),
                            replace=False):
            num = central_difference(make_loss, p, k)
            assert abs(num - g[k]) <= tol * max(1.0, abs(num)), (num, g[k])


# (n, in columns, out columns) of 2xrho0+rho1+rho2 -> rho0+2xrho1+rho3
_SHARED_BLOCKS = ((0, 0, 2, 0, 1), (1, 2, 4, 1, 5))


class TestBackwardBasics:
    def test_square(self):
        x = parameter(3.0)
        (x * x).backward()
        npt.assert_allclose(x.grad, 6.0)

    def test_softmax_shift_invariance_gradient(self):
        # loss built on a softmax is flat along the all-ones direction
        rng = np.random.default_rng(0)
        v = parameter(rng.standard_normal(6))
        c = rng.standard_normal(6)
        seg = np.zeros(6, dtype=int)
        (segment_softmax(v, seg, 1) * c).sum().backward()
        npt.assert_allclose(v.grad.sum(), 0.0, atol=1e-12)

    def test_unreached_parameters_keep_zero_grad(self):
        a, b = parameter(2.0), parameter(5.0)
        (a * 3.0).backward()
        npt.assert_allclose(a.grad, 3.0)
        npt.assert_allclose(b.grad, 0.0)

    def test_unrecorded_root_rejected(self):
        # a constant root would leave every gradient zero without a word
        for root in (Tensor(2.0), (Tensor(np.ones(3)) * 2.0).sum()):
            with pytest.raises(AutodiffError, match="train=True"):
                root.backward()

    def test_non_scalar_root_rejected(self):
        with pytest.raises(AutodiffError):
            (parameter(np.ones(3)) * 2).backward()

    def test_double_backward_rejected(self):
        x = parameter(2.0)
        loss = x * x
        loss.backward()
        with pytest.raises(AutodiffError):
            loss.backward()

    def test_grad_accumulates_across_roots(self):
        x = parameter(1.5)
        (x * 2).backward()
        (x * 3).backward()
        npt.assert_allclose(x.grad, 5.0)

    def test_shared_vjp_output_accumulates_per_parent(self):
        # the VJP of ``+`` hands one array to both parents; adding a later
        # contribution in place must not change the one queued for the other
        for combine in (lambda a, b: (a + b) + a, lambda a, b: a + (a + b)):
            p = parameter(np.ones(3))
            combine(p * 1.0, p * 1.0).sum().backward()
            assert np.array_equal(p.grad, np.full(3, 3.0))


class TestOperatorGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_elementwise_chain(self):
        rng = self.rng
        a = parameter(rng.standard_normal((4, 5)))
        b = parameter(rng.standard_normal(5))

        def loss():
            h = (a * b + 1.5 - b / 2.0).sigmoid() + (a.sigmoid() * 0.3).exp()
            return (h * h).mean()

        check_gradients(loss, [a, b], rng)

    def test_matmul_and_reductions(self):
        rng = self.rng
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 6)))

        def loss():
            h = (a @ b).relu().sum(axis=1)
            return (h * h).mean()

        check_gradients(loss, [a, b], rng)

    def test_sigmoid_sqrt_log(self):
        rng = self.rng
        a = parameter(np.abs(rng.standard_normal((5, 2))) + 0.5)

        def loss():
            return (a.sqrt().log().sigmoid()).sum()

        check_gradients(loss, [a], rng)

    def test_gather_scatter(self):
        rng = self.rng
        rows = rng.integers(0, 6, 10)
        seg = np.sort(rng.integers(0, 4, 10))
        # a permutation and a strict subset
        for cols in ([2, 0, 1], [2, 0]):
            x = parameter(rng.standard_normal((6, 3)))

            def loss():
                g = take_rows(x, rows)
                g = segment_sum(take_cols(g, cols), seg, 4)
                return (g * g).sum()

            check_gradients(loss, [x], rng)

    def test_take_rows_of_flattened(self):
        # the pick of nll_loss: entry (k, cols[k]) of a flattened matrix
        rng = self.rng
        x = parameter(rng.standard_normal((5, 4)))
        flat = np.arange(5) * 4 + rng.integers(0, 4, 5)

        def loss():
            h = take_rows(x.reshape(-1), flat)
            return (h * h).sum()

        check_gradients(loss, [x], rng)

    def test_concat_reshape_transpose(self):
        rng = self.rng
        a = parameter(rng.standard_normal((3, 2)))
        b = parameter(rng.standard_normal((3, 4)))

        def loss():
            h = concat([a, b], axis=1).T.reshape(3, 6)
            return (h * h).sum()

        check_gradients(loss, [a, b], rng)

    def test_segment_softmax(self):
        rng = self.rng
        s = parameter(rng.standard_normal(12))
        seg = np.sort(rng.integers(0, 3, 12))
        w = rng.standard_normal(12)

        def loss():
            return (segment_softmax(s, seg, 3) * w).sum()

        check_gradients(loss, [s], rng)

    def test_segment_softmax_rows_sum_to_one(self):
        rng = self.rng
        s = Tensor(rng.standard_normal(30) * 10)
        seg = np.sort(rng.integers(0, 7, 30))
        alpha = segment_softmax(s, seg, 7).value
        sums = np.zeros(7)
        np.add.at(sums, seg, alpha)
        present = np.unique(seg)
        npt.assert_allclose(sums[present], 1.0, atol=1e-12)

    def test_segment_softmax_of_columns(self):
        # each column is its own softmax, shifted by its own segment max: a
        # column far above the other would underflow a shared shift
        rng = self.rng
        s = rng.standard_normal((30, 3)) + [0.0, 1000.0, -1000.0]
        seg = rng.permutation(np.arange(30) % 7)
        alpha = segment_softmax(Tensor(s), seg, 7).value
        for j in range(3):
            npt.assert_array_equal(alpha[:, j], segment_softmax(Tensor(s[:, j]), seg, 7).value)

    def test_commuting_matmul(self):
        # 2xrho0+rho1+rho2 -> rho0+2xrho1+rho3: orders 0 and 1 are shared
        rng = self.rng
        x = parameter(rng.standard_normal((5, 6)))
        w = parameter(rng.standard_normal(2 + 4))
        r = rng.standard_normal((5, 7))

        def loss():
            y = commuting_matmul(x, w, _SHARED_BLOCKS, 7)
            return (y * y * r).sum()

        check_gradients(loss, [x, w], rng)

    def test_commuting_matmul_blocks_read_one_input(self):
        # 2xrho0+rho1 -> two heads of rho0+rho1, as a self kernel writes the
        # head-major queries: both heads read every input column
        rng = self.rng
        blocks = ((0, 0, 2, 0, 1), (1, 2, 4, 1, 3), (0, 0, 2, 3, 4), (1, 2, 4, 4, 6))
        x = parameter(rng.standard_normal((5, 4)))
        w = parameter(rng.standard_normal(8))
        r = rng.standard_normal((5, 6))

        def loss():
            y = commuting_matmul(x, w, blocks, 6)
            return (y * y * r).sum()

        check_gradients(loss, [x, w], rng)


class TestRotatePairs:
    """``rotate_phase`` turns the (x, y) pairs of every rho_n block."""

    ftype = FeatureType.parse("rho0+2xrho1+rho2")

    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.angles = self.rng.uniform(-np.pi, np.pi, 9)

    def test_gradient(self):
        rng = self.rng
        x = parameter(rng.standard_normal((9, self.ftype.dim)))
        w = rng.standard_normal((9, self.ftype.dim))

        def loss():
            y = rotate_phase(x, self.angles, self.ftype.vector_blocks)
            return (y * y * w).sum()

        check_gradients(loss, [x], rng, samples=20)

    def test_matches_block_rotation(self):
        # row e is rep_block_diag(angle_e) x_e, and the adjoint its transpose
        rng = self.rng
        x = parameter(rng.standard_normal((9, self.ftype.dim)))
        g = rng.standard_normal((9, self.ftype.dim))
        y = rotate_phase(x, self.angles, self.ftype.vector_blocks)
        (y * g).sum().backward()
        for e, angle in enumerate(self.angles):
            R = rep_block_diag(self.ftype, angle)
            npt.assert_allclose(y.value[e], R @ x.value[e], rtol=0, atol=1e-15)
            npt.assert_allclose(x.grad[e], R.T @ g[e], rtol=0, atol=1e-15)


    def test_turns_every_slice_of_a_row(self):
        # on (rows, heads, dim) the blocks index the last axis, and every
        # head of row e turns by angle e
        rng = self.rng
        x = parameter(rng.standard_normal((9, 2, self.ftype.dim)))
        y = rotate_phase(x, self.angles, self.ftype.vector_blocks).value
        for h in range(2):
            npt.assert_array_equal(
                y[:, h], rotate_phase(Tensor(x.value[:, h]), self.angles,
                                      self.ftype.vector_blocks).value)
        w = rng.standard_normal(x.shape)

        def loss():
            y = rotate_phase(x, self.angles, self.ftype.vector_blocks)
            return (y * y * w).sum()

        check_gradients(loss, [x], rng, samples=20)


class TestScattersMatchAddAt:
    """The plan scatters equal ``np.add.at`` bit for bit."""

    def setup_method(self):
        self.rng = np.random.default_rng(5)
        mesh = generate_icosphere(1)
        n = mesh.n_vertices
        # edges into the last vertex are dropped, so one segment is empty
        dst = mesh.edges.dst[mesh.edges.dst != n - 1]
        # self contributions ahead of the edges (the self-contribution
        # layout of the attention layer): the segments are unsorted; and an
        # empty index, where every segment is empty
        self.cases = [(dst, n), (np.concatenate([np.arange(n - 1), dst]), n),
                      (np.zeros(0, dtype=np.int64), n)]
        self.columns = [(7,), (0,), (3, 4)]

    def test_take_rows_adjoint(self):
        for idx, n in self.cases:
            for cols in ((),) + tuple(self.columns):
                x = parameter(self.rng.standard_normal((n,) + cols))
                g = self.rng.standard_normal((idx.size,) + cols)
                (take_rows(x, idx) * g).sum().backward()
                assert np.array_equal(x.grad, scatter_add(g, idx, n))

    def test_take_pairs_adjoint(self):
        # the (row, column) pick of nll_loss: 200 picks from a 3 x 4 array
        # through take_rows on the flattened array, negative indices
        # included; every entry is picked several times
        rows, cols = self.rng.integers(-3, 3, 200), self.rng.integers(-4, 4, 200)
        x = parameter(self.rng.standard_normal((3, 4)))
        g = self.rng.standard_normal(200)
        flat = np.ravel_multi_index((rows, cols), (3, 4), mode="wrap")
        (take_rows(x.reshape(-1), flat) * g).sum().backward()
        want = np.zeros((3, 4))
        np.add.at(want, (rows, cols), g)
        assert np.array_equal(x.grad, want)

    def test_segment_sum(self):
        for idx, n in self.cases:
            for cols in ((),) + tuple(self.columns):
                values = self.rng.standard_normal((idx.size,) + cols)
                out = segment_sum(Tensor(values), idx, n).value
                assert out.shape == (n,) + cols
                assert np.array_equal(out, scatter_add(values, idx, n))
                assert not out[n - 1].any()


class TestTakeColsIndices:
    def test_result_is_a_c_ordered_copy(self):
        x = parameter(np.arange(12.0).reshape(3, 4))
        for cols in ([3, 1], [2], [0, 1, 2], slice(None, None, -2)):
            y = take_cols(x, cols)
            assert y.value.flags.c_contiguous
            assert not np.shares_memory(y.value, x.value)
            assert np.array_equal(y.value, x.value[:, cols])

    def test_repeated_columns_rejected(self):
        x = parameter(np.ones((3, 4)))
        for cols in ([1, 1], [0, 2, 0], [3, -1]):
            with pytest.raises(AutodiffError):
                take_cols(x, cols)


class TestNll:
    def test_uniform_logits(self):
        loss = nll_loss(Tensor(np.zeros((5, 8))), np.arange(5) % 8)
        npt.assert_allclose(loss.item(), np.log(8.0), atol=1e-12)

    def test_dominant_logit_drives_loss_to_zero(self):
        logits = np.zeros((3, 4))
        logits[np.arange(3), [1, 2, 0]] = 60.0
        loss = nll_loss(Tensor(logits), np.array([1, 2, 0]))
        assert loss.item() < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((3, 4))
        targets = rng.integers(0, 4, 3)
        expect = 0.0
        for i in range(3):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            expect -= np.log(p[targets[i]])
        expect /= 3
        npt.assert_allclose(nll_loss(Tensor(logits), targets).item(), expect,
                            atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        logits = parameter(rng.standard_normal((4, 5)))
        targets = rng.integers(0, 5, 4)
        check_gradients(lambda: nll_loss(logits, targets), [logits], rng)

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = parameter(np.array([1.0, -2.0]))
        opt = Adam([p], lr=0.1)
        opt.step()
        npt.assert_array_equal(p.value, [1.0, -2.0])

    def test_single_step_hand_formula(self):
        p = parameter(np.array([0.0, 0.0]))
        opt = Adam([p], lr=0.05)
        g = np.array([0.5, -3.0])
        p.grad[:] = g
        opt.step()
        npt.assert_allclose(p.value, -0.05 * g / (np.abs(g) + 1e-8), rtol=1e-9)

    def test_constant_gradient_approaches_sign_update(self):
        p = parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        prev = p.value.copy()
        for _ in range(200):
            p.grad[:] = 0.37
            step_from = p.value.copy()
            opt.step()
        npt.assert_allclose(np.abs(p.value - step_from), 0.01, rtol=1e-6)
        assert p.value[0] < prev[0]

    def test_bias_correction_matches_reference(self):
        rng = np.random.default_rng(3)
        p = parameter(rng.standard_normal(4))
        ref = p.value.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        opt = Adam([p], lr=0.02)
        for t in range(1, 6):
            g = rng.standard_normal(4)
            p.grad[:] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            ref -= 0.02 * mhat / (np.sqrt(vhat) + 1e-8)
            p.grad[:] = 0.0
        npt.assert_allclose(p.value, ref, atol=1e-12)


def test_deterministic_loss_trajectory():
    def run():
        rng = np.random.default_rng(7)
        W = parameter(rng.standard_normal((6, 4)))
        opt = Adam([W], lr=0.01)
        X = rng.standard_normal((10, 6))
        y = rng.integers(0, 4, 10)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            loss = nll_loss(Tensor(X) @ W, y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        return losses

    assert run() == run()


WHOLE_MODELS = pytest.mark.parametrize("model, hidden", [
    ("kind = gem", "rho0+rho1+rho2"),
    ("kind = eman", "rho0+rho1+rho2"),
    ("self_contribution = true", "rho0+rho1+rho2"),
    ("heads = 2", "2x(rho0+rho1+rho2)"),  # two heads need even multiplicities
])


def _whole_model(model, hidden):
    """A one-block model with no dropout, and a sample with its features and geometry."""
    cfg = parse_config(f"[model]\n{model}\nhidden_type = {hidden}\ndense_hidden = 4\n"
                       "dropout = 0\n")
    sample = segmentation_spheres(1, 0, 1, seed=4).train[0]
    spec = dataclasses.replace(model_spec_from_config(cfg, target_dim=sample.mesh.n_vertices),
                               residual_blocks=1)
    frames = build_frames(sample.mesh)
    geom = EdgeGeometry.from_frames(frames)
    field = compute_features(cfg.model["features"], sample.mesh, frames,
                             cfg.model["reltan_powers"])
    return spec, sample, field, geom


@WHOLE_MODELS
def test_whole_model_gradients(model, hidden):
    # a coordinate of every parameter tensor, self-kernel coefficients
    # included, against central differences through the whole model
    spec, sample, field, geom = _whole_model(model, hidden)
    net = build_model(spec, seed=5)
    check_gradients(lambda: nll_loss(net.forward(field, geom, train=True), sample.label),
                    [t for _n, t in net.parameters()], np.random.default_rng(6), samples=1)


@WHOLE_MODELS
def test_eval_forward_records_no_tape(model, hidden):
    spec, sample, field, geom = _whole_model(model, hidden)
    net = build_model(spec, seed=5)
    logits = net.forward(field, geom)
    assert logits._parents == () and not logits.requires_grad
    recorded = net.forward(field, geom, train=True)
    assert recorded._parents and recorded.requires_grad
    assert logits.value.tobytes() == recorded.value.tobytes()
    with pytest.raises(AutodiffError, match="train=True"):
        nll_loss(logits, sample.label).backward()


def _step_grads(net, field, geom, target, between=lambda: None):
    """Gradients of one training step that runs ``between`` after its forward."""
    for _n, t in net.parameters():
        t.zero_grad()
    logits = net.forward(field, geom, train=True)
    between()
    nll_loss(logits, target).backward()
    return [t.grad.tobytes() for _n, t in net.parameters()]


@WHOLE_MODELS
def test_eval_forward_between_forward_and_backward_changes_no_gradient(model, hidden):
    spec, sample, field, geom = _whole_model(model, hidden)
    net, fresh = build_model(spec, seed=5), build_model(spec, seed=5)
    changed = _step_grads(net, field, geom, sample.label, lambda: net.forward(field, geom))
    assert changed == _step_grads(fresh, field, geom, sample.label)


@WHOLE_MODELS
def test_eval_forward_that_raises_restores_recording(model, hidden):
    spec, sample, field, geom = _whole_model(model, hidden)
    net, fresh = build_model(spec, seed=5), build_model(spec, seed=5)
    isolated = isolated_vertex_geometry()
    isolated_field = GeometricFeatureField(net.in_type, np.ones((3, net.in_type.dim)),
                                           isolated.frame_token)
    if spec.self_contribution:
        # these layers accept an empty neighbourhood: the last one raises
        # after it ran, as a layer without self contribution would
        forward = net.final.forward

        def final(x, g):
            y = forward(x, g)
            if g is isolated:
                raise EmptyNeighborhoodError(2)
            return y

        net.final.forward = final

    def raising_forward():
        with pytest.raises(EmptyNeighborhoodError):
            net.forward(isolated_field, isolated)

    raising_forward()
    assert _step_grads(net, field, geom, sample.label) == _step_grads(fresh, field, geom,
                                                                     sample.label)
    assert (_step_grads(net, field, geom, sample.label, raising_forward)
            == _step_grads(fresh, field, geom, sample.label))


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc mallopt")
def test_warm_training_step_reuses_tape_memory():
    # a warm step must find the memory the previous tape freed still mapped
    resource = pytest.importorskip("resource")
    config = default_config()
    data = segmentation_spheres(1, 0, 1, seed=3)
    spec = model_spec_from_config(config, target_dim=data.target_dim, task=data.task)
    model = build_model(spec, 3)
    sample = data.train[0]
    frames = build_frames(sample.mesh)
    geom = EdgeGeometry.from_frames(frames)
    field = compute_features(config.model["features"], sample.mesh, frames,
                             config.model["reltan_powers"])
    opt = Adam([t for _n, t in model.parameters()], lr=1e-3)
    rng = np.random.default_rng(3)

    def step():
        nll_loss(model.forward(field, geom, train=True, rng=rng), sample.label).backward()
        opt.step()
        opt.zero_grad()

    step()
    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500, faults


# (name, op, operand shapes, recorded): ``op`` takes Tensor operands; when
# ``recorded`` the result's parents are exactly those operands, otherwise the
# op is composed of recorded ops
RECORDING_CASES = [
    ("add", lambda a, b: a + b, [(4, 3), (4, 3)], True),
    ("add_broadcast", lambda a, b: a + b, [(4, 3), (3,)], True),
    ("add_array", lambda a: a + np.ones(3), [(4, 3)], True),
    ("neg", lambda a: -a, [(4, 3)], True),
    ("sub", lambda a, b: a - b, [(4, 3), (4, 3)], False),
    ("mul", lambda a, b: a * b, [(4, 3), (4, 3)], True),
    ("mul_array", lambda a: a * np.arange(3.0), [(4, 3)], True),
    ("truediv", lambda a, b: a / (b * b + 1.0), [(4, 3), (4, 3)], False),
    ("truediv_tensors", lambda a, b: a / b, [(4, 3), (4, 3)], True),
    ("truediv_scalar", lambda a: a / 2.0, [(4, 3)], False),
    ("matmul", lambda a, b: a @ b, [(4, 3), (3, 2)], True),
    ("matmul_array", lambda a: a @ np.ones((3, 2)), [(4, 3)], True),
    ("relu", lambda a: a.relu(), [(4, 3)], True),
    ("exp", lambda a: a.exp(), [(4, 3)], True),
    ("log", lambda a: (a * a + 1.0).log(), [(4, 3)], False),
    ("sqrt", lambda a: (a * a + 1.0).sqrt(), [(4, 3)], False),
    ("sigmoid", lambda a: a.sigmoid(), [(4, 3)], True),
    ("reshape", lambda a: a.reshape(3, 4), [(4, 3)], True),
    ("T", lambda a: a.T, [(4, 3)], True),
    ("sum", lambda a: a.sum(), [(4, 3)], True),
    ("sum_axis", lambda a: a.sum(axis=0, keepdims=True), [(4, 3)], True),
    ("mean", lambda a: a.mean(axis=1), [(4, 3)], False),
    ("concat", lambda a, b: concat([a, np.ones((1, 3)), b]), [(4, 3), (2, 3)], True),
    ("take_rows", lambda a: take_rows(a, [3, 0, 0, 2]), [(4, 3)], True),
    ("take_cols_gather", lambda a: take_cols(a, [2, 0]), [(4, 3)], True),
    ("take_cols_slice", lambda a: take_cols(a, slice(1, None)), [(4, 3)], True),
    ("take_rows_1d", lambda a: take_rows(a, [11, 0, 11, 5]), [(12,)], True),
    ("rotate_phase", lambda a: rotate_phase(a, np.ones(4), ((1, 1, 3),)), [(4, 3)], True),
    ("segment_sum", lambda a: segment_sum(a, [1, 0, 1, 1], 3), [(4, 3)], True),
    ("segment_softmax", lambda a: segment_softmax(a, [1, 0, 1, 1], 2), [(4,)], False),
    ("commuting_matmul", lambda a, w: commuting_matmul(a, w, _SHARED_BLOCKS, 7),
     [(4, 6), (6,)], True),
    ("commuting_scalars", lambda a, w: commuting_matmul(a, w, ((0, 0, 3, 0, 2),), 2),
     [(4, 3), (6,)], True),
    ("commuting_disjoint", lambda a, w: commuting_matmul(a, w, (), 2), [(4, 3), (0,)],
     True),
    ("nll_loss", lambda a: nll_loss(a, [2, 0, 1, 1]), [(4, 3)], False),
]


@pytest.mark.parametrize("name, op, shapes, recorded", RECORDING_CASES,
                         ids=[c[0] for c in RECORDING_CASES])
class TestRecordingRule:
    @staticmethod
    def _values(shapes):
        # mixed signs, so relu's zeros show their sign bit
        rng = np.random.default_rng(len(shapes))
        return [rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], s) for s in shapes]

    def test_constants_record_nothing(self, name, op, shapes, recorded):
        out = op(*[Tensor(v) for v in self._values(shapes)])
        assert out._parents == () and out._vjp is None
        assert not out.requires_grad

    @pytest.mark.parametrize("grads", ["all", "first"])
    def test_grad_operand_records_its_operands(self, name, op, shapes, recorded, grads):
        values = self._values(shapes)
        operands = [parameter(v) if grads == "all" or k == 0 else Tensor(v)
                    for k, v in enumerate(values)]
        out = op(*operands)
        const = op(*[Tensor(v) for v in values])
        assert out.requires_grad and out._vjp is not None
        if recorded:
            assert len(out._parents) == len(operands)
            assert all(p is q for p, q in zip(out._parents, operands))
        assert np.array_equal(out.value, const.value)
        assert np.array_equal(np.signbit(out.value), np.signbit(const.value))


@pytest.mark.parametrize("left", [np.array([2.0, 3.0, 5.0]), 2.0], ids=["ndarray", "float"])
@pytest.mark.parametrize("op", [
    lambda a, p: a * p,
    lambda a, p: a + p,
    lambda a, p: a - p,
    lambda a, p: a / p,
], ids=["mul", "add", "sub", "truediv"])
def test_array_or_scalar_on_the_left_raises(op, left):
    # a Tensor has no reflected operators, and numpy declines to take it
    with pytest.raises(TypeError):
        op(left, parameter(np.array([1.0, -1.0, 4.0])))
