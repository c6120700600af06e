import ctypes
import dataclasses
import re
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from meshnet import autodiff
from meshnet.autodiff import (
    Adam,
    Phases,
    ScatterPlan,
    Tensor,
    affine,
    attention_weights,
    commuting_matmul,
    concat,
    gauge_gate,
    nll_loss,
    parameter,
    segment_sum,
    transported_rows,
    turned_product,
    weighted_segment_sum,
)
from meshnet.config import default_config, model_spec_from_config, parse_config
from meshnet.datasets import dataset_from_config, segmentation_spheres
from meshnet.errors import AutodiffError, EmptyNeighborhoodError
from meshnet.features import GeometricFeatureField, compute_features
from meshnet.mesh import generate_icosphere
from meshnet.model import build_model
from meshnet.representations import FeatureType
from meshnet.tangent import EdgeGeometry, build_frames
from oracles import (
    adam_rebinding,
    affine_rows,
    attention_weights_gathered,
    attention_weights_loop,
    gauge_gate_chain,
    gauge_gate_pairs,
    isolated_vertex_geometry,
    nll_loss_rows,
    rep_block_diag,
    scatter_add,
    segment_softmax_loop,
    weighted_segment_sum_gathered,
)


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
        # loss built on a softmax is flat along the all-ones direction of the
        # logits: with one query, the keys' gradients sum to zero
        rng = np.random.default_rng(0)
        k = parameter(rng.standard_normal((6, 1, 3)))
        c = rng.standard_normal((6, 1))
        seg = ScatterPlan(np.zeros(6, dtype=int))
        (attention_weights(k, Tensor(rng.standard_normal((1, 1, 3))), seg, 0.5) * c
         ).sum().backward()
        npt.assert_allclose(k.grad.sum(axis=0), 0.0, atol=1e-12)

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
        # a parameter as its own root has no record to release: it accumulates again
        x.backward()
        x.backward()
        npt.assert_allclose(x.grad, 6.0)

    def test_root_sharing_a_walked_node_rejected(self):
        # the first backward released h's record; the second root is refused
        # before any gradient moves
        p = parameter(np.ones(3))
        h = p * 2.0
        first, second = h.sum(), (h * 3.0).sum()
        first.backward()
        with pytest.raises(AutodiffError, match="already ran through this graph"):
            second.backward()
        assert np.array_equal(p.grad, np.full(3, 2.0))

    def test_backward_releases_the_walked_tape(self):
        # the root is still referenced, yet a fused op's output value is freed
        x = parameter(np.random.default_rng(0).standard_normal((4, 3)))
        y = transported_rows(x, ScatterPlan([3, 0, 0, 2]), Phases(np.ones(4)), ((1, 1, 3),))
        value = weakref.ref(y.value)
        loss = (y * y).sum()
        del y
        loss.backward()
        assert value() is None
        assert loss._parents == ()

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

    @pytest.mark.parametrize("fused", [
        lambda u, w: transported_rows(u, ScatterPlan([3, 0, 0, 2]), Phases(np.ones(4)),
                                      ((1, 1, 3),)),
        lambda u, w: turned_product(u, w, Phases(np.ones(4)), ((1, 1, 3),), (-1, 3)),
    ], ids=["transported_rows", "turned_product"])
    def test_shared_vjp_output_reaches_an_in_place_adjoint(self, fused):
        # these adjoints turn their gradient in place: the other parent of the
        # ``+`` must still read the untouched array, in either operand order
        rng = np.random.default_rng(3)
        u, w, p = (rng.standard_normal(s) for s in ((4, 3), (3, 3), (4, 3)))
        r = rng.standard_normal((4, 3))

        def grads(combine):
            params = [parameter(v) for v in (u, w, p)]
            y = fused(*params[:2])
            (combine(y, params[2] * 1.0) * r).sum().backward()
            return [q.grad.tobytes() for q in params]

        alone = grads(lambda y, x: y)[:2] + [r.tobytes()]
        assert grads(lambda y, x: y + x) == alone
        assert grads(lambda y, x: x + y) == alone


class TestOperatorGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_elementwise_chain(self):
        rng = self.rng
        a = parameter(rng.standard_normal((4, 5)))
        b = parameter(rng.standard_normal(5))

        def loss():
            h = (a * b + 1.5 + b * -0.5).relu() * a + (a * 0.3).relu()
            return (h * h).mean()

        check_gradients(loss, [a, b], rng)

    def test_matmul_and_reductions(self):
        rng = self.rng
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 6)))
        c = parameter(rng.standard_normal(6))

        def loss():
            h = affine(a, b, c).relu().sum(axis=1)
            return (h * h).mean()

        check_gradients(loss, [a, b, c], rng)

    def test_sigmoid_sqrt_log(self):
        # the square root and sigmoid of the gate, then the log of the loss
        rng = self.rng
        a = parameter(rng.standard_normal((5, 6)))
        c = parameter(rng.standard_normal(2))
        check_gradients(lambda: nll_loss(gauge_gate(a, c, 2, 1e-6), [0, 5, 2, 3, 1]),
                        [a, c], rng)

    def test_gather_scatter(self):
        # the gather of transported_rows with no pair to turn, then a scatter
        rng = self.rng
        rows = ScatterPlan(rng.integers(0, 6, 10))
        seg = ScatterPlan(np.sort(rng.integers(0, 4, 10)))
        x = parameter(rng.standard_normal((6, 3)))

        def loss():
            g = segment_sum(transported_rows(x, rows, Phases(np.zeros(10)), ()), seg, 4)
            return (g * g).sum()

        check_gradients(loss, [x], rng)

    def test_concat_reshape_transpose(self):
        rng = self.rng
        a = parameter(rng.standard_normal((3, 2)))
        b = parameter(rng.standard_normal((3, 4)))

        # the transpose of the (3, 6) concatenation, as a scatter of its entries
        transposed = ScatterPlan(np.arange(18).reshape(6, 3).T.ravel())

        def loss():
            h = segment_sum(concat([a, b], axis=1).reshape(-1), transposed, 18).reshape(6, 3)
            return (h * h * np.arange(3.0)).sum()

        check_gradients(loss, [a, b], rng)

    def test_segment_softmax(self):
        # the attention weights' softmax within each segment, both operands' gradients
        rng = self.rng
        k = parameter(rng.standard_normal((12, 1, 2)))
        q = parameter(rng.standard_normal((3, 1, 2)))
        seg = ScatterPlan(np.sort(rng.integers(0, 3, 12)))
        w = rng.standard_normal((12, 1))

        def loss():
            return (attention_weights(k, q, seg, 0.5) * w).sum()

        check_gradients(loss, [k, q], rng)

    def test_segment_softmax_rows_sum_to_one(self):
        rng = self.rng
        seg = np.sort(rng.integers(0, 7, 30))
        alpha = attention_weights(Tensor(rng.standard_normal((30, 1, 4)) * 10),
                                  Tensor(rng.standard_normal((7, 1, 4))), ScatterPlan(seg),
                                  1.0).value[:, 0]
        sums = np.zeros(7)
        np.add.at(sums, seg, alpha)
        present = np.unique(seg)
        npt.assert_allclose(sums[present], 1.0, atol=1e-12)

    def test_segment_softmax_of_columns(self):
        # each head's column is its own softmax, shifted by its own segment max: a
        # column far above the other would underflow a shared shift
        rng = self.rng
        # logit s + offset of each head, as the dot of (s, 1) with (1, offset)
        s = rng.standard_normal((30, 3))
        k = np.stack([s, np.ones_like(s)], axis=-1)
        q = np.broadcast_to([[1.0, 0.0], [1.0, 1000.0], [1.0, -1000.0]], (7, 3, 2))
        seg = ScatterPlan(rng.permutation(np.arange(30) % 7))
        alpha = attention_weights(Tensor(k), Tensor(q), seg, 1.0).value
        for j in range(3):
            npt.assert_array_equal(alpha[:, j], attention_weights(
                Tensor(k[:, j:j + 1]), Tensor(q[:, j:j + 1]), seg, 1.0).value[:, 0])

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
    """``transported_rows`` and ``turned_product`` turn the (x, y) pairs of every
    rho_n block of row e by ``n * angle_e``."""

    ftype = FeatureType.parse("rho0+2xrho1+rho2")
    identity = ScatterPlan(np.arange(9))

    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.angles = Phases(self.rng.uniform(-np.pi, np.pi, 9))

    def test_gradient(self):
        rng = self.rng
        x = parameter(rng.standard_normal((9, self.ftype.dim)))
        w = rng.standard_normal((9, self.ftype.dim))

        def loss():
            y = transported_rows(x, self.identity, self.angles, self.ftype.vector_blocks)
            return (y * y * w).sum()

        check_gradients(loss, [x], rng, samples=20)

    def test_matches_block_rotation(self):
        # row e is rep_block_diag(angle_e) x_e, and the adjoint its transpose
        rng = self.rng
        x = parameter(rng.standard_normal((9, self.ftype.dim)))
        g = rng.standard_normal((9, self.ftype.dim))
        y = transported_rows(x, self.identity, self.angles, self.ftype.vector_blocks)
        (y * g).sum().backward()
        for e, angle in enumerate(self.angles.angle):
            R = rep_block_diag(self.ftype, angle)
            npt.assert_allclose(y.value[e], R @ x.value[e], rtol=0, atol=1e-15)
            npt.assert_allclose(x.grad[e], R.T @ g[e], rtol=0, atol=1e-15)

    def test_turns_every_slice_of_a_row(self):
        # turned_product on (rows, heads, dim): the blocks index the last axis,
        # and every head of row e turns by angle e
        rng = self.rng
        u = parameter(rng.standard_normal((9, 4)))
        w = parameter(rng.standard_normal((2 * self.ftype.dim, 4)))
        blocks, shape = self.ftype.vector_blocks, (-1, 2, self.ftype.dim)
        y = turned_product(u, w, self.angles, blocks, shape).value
        product = (u.value @ w.value.T).reshape(shape)
        for h in range(2):
            npt.assert_array_equal(y[:, h], transported_rows(
                Tensor(product[:, h]), self.identity, self.angles, blocks).value)
        r = rng.standard_normal(y.shape)

        def loss():
            y = turned_product(u, w, self.angles, blocks, shape)
            return (y * y * r).sum()

        check_gradients(loss, [u, w], rng, samples=20)


_PLAN, _PHASES = ScatterPlan([2, 0, 1, 1, 4, 0, 2]), Phases(np.arange(7.0))
_SIZE = np.array([[2.0], [2.0], [2.0], [0.0], [1.0], [0.0]])  # the segments' sizes


class TestFusedOps:
    """Each fused op equals the chain of generic ops it stands for, bit for bit,
    in its value and in every gradient.  Where the chain gathered rows ``_PLAN.idx``
    of an operand, the reference gathers them with numpy into a leaf of its own and
    scatters that leaf's gradient back with ``np.add.at``."""

    def setup_method(self):
        self.rng = np.random.default_rng(13)

    def _same(self, fused, chain, operands, gathered=()):
        runs = []
        for op, gather in ((fused, ()), (chain, gathered)):
            params = [parameter(v[_PLAN.idx] if k in gather else v)
                      for k, v in enumerate(operands)]
            y = op(*params)
            (y * y).sum().backward()
            grads = [scatter_add(p.grad, _PLAN.idx, v.shape[0]) if k in gather else p.grad
                     for k, (p, v) in enumerate(zip(params, operands))]
            runs.append([y.value.tobytes()] + [g.tobytes() for g in grads])
        assert runs[0] == runs[1]

    def test_transported_rows_is_a_gather_then_a_turn(self):
        blocks, angles = ((1, 1, 3), (2, 3, 5)), Phases(self.rng.uniform(-np.pi, np.pi, 7))
        self._same(lambda x: transported_rows(x, _PLAN, angles, blocks),
                   lambda x: transported_rows(x, ScatterPlan(np.arange(7)), angles, blocks),
                   [self.rng.standard_normal((5, 5))], gathered=(0,))

    def test_gathered_dot(self):
        # attention_weights' dot of the keys with the queries gathered by _PLAN, through the
        # softmax, against one dot per edge and head; query rows 3 (gathered by no edge) and
        # 4 (by one edge alone in its segment, so of weight 1) get no gradient
        k = parameter(self.rng.standard_normal((7, 2, 3)))
        q = parameter(self.rng.standard_normal((5, 2, 3)))
        y = attention_weights(k, q, _PLAN, 0.5)
        npt.assert_allclose(y.value, attention_weights_loop(k.value, q.value, _PLAN.idx, 5, 0.5),
                            rtol=0, atol=1e-12)
        (y * y).sum().backward()
        assert not q.grad[3:].any() and q.grad[:3].all()

    def test_weighted_segment_sum(self):
        self._same(lambda v, a: weighted_segment_sum(v, a, _PLAN, _SIZE),
                   lambda v, a: segment_sum(v * a.reshape(-1, 2, 1), _PLAN, 6).reshape(6, -1)
                   * _SIZE,
                   [self.rng.standard_normal((7, 2, 3)), self.rng.standard_normal((7, 2))])

    @pytest.mark.parametrize("op, shapes", [
        (lambda x: transported_rows(x, _PLAN, _PHASES, ((1, 1, 5),)), [(5, 5)]),
        (lambda u, w: turned_product(u, w, _PHASES, ((2, 1, 3),), (-1, 2, 3)),
         [(7, 4), (6, 4)]),
        (lambda k, q: attention_weights(k, q, _PLAN, 0.5), [(7, 2, 3), (5, 2, 3)]),
        (lambda v, a: weighted_segment_sum(v, a, _PLAN, _SIZE), [(7, 2, 3), (7, 2)]),
    ], ids=["transported_rows", "turned_product", "gathered_dot", "weighted_segment_sum"])
    def test_gradient(self, op, shapes):
        rng = self.rng
        params = [parameter(rng.standard_normal(s)) for s in shapes]
        r = rng.standard_normal(op(*params).shape)

        def loss():
            y = op(*params)
            return (y * y * r).sum()

        check_gradients(loss, params, rng, samples=12)

    def test_out_of_range_gather_rejected(self):
        # unchecked, numpy would raise a bare IndexError or wrap -1 to the last row
        x = parameter(np.ones((4, 3)))
        with pytest.raises(AutodiffError, match="gather index 4 is outside the 4 rows"):
            transported_rows(x, ScatterPlan([0, 4]), Phases(np.zeros(2)), ((1, 1, 3),))
        with pytest.raises(AutodiffError, match="gather index 4 is outside the 4 rows"):
            attention_weights(parameter(np.ones((2, 1, 3))), x.reshape(4, 1, 3),
                              ScatterPlan([0, 4]), 1.0)


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


class TestInPlaceOps:
    """The ops that write into memory they own give the bits of their previous formulas
    (tests/oracles.py), which made a fresh array at every step: the value, and the VJP of
    a gradient that holds -0.0 entries, so the sign of every zero is compared too."""

    def setup_method(self):
        self.rng = np.random.default_rng(38)

    def _grad(self, shape):
        g = self.rng.standard_normal(shape)
        g.reshape(-1)[::5] = -0.0
        return g

    def _same(self, y, reference):
        value, vjp = reference
        g = self._grad(value.shape)
        assert _bits([y.value]) == _bits([value])
        assert _bits(y._vjp(g.copy())) == _bits(vjp(g.copy()))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gauge_gate(self, m):
        # -0.0 and 0.0 scalars, a zero pair (its norm is 1e-30), and offsets of both
        # signs, so the sigmoid takes both of its branches
        x = self.rng.standard_normal((7, m + 6)) * 2.0
        x[:3, :m] = [[-0.0], [0.0], [-1.0]]
        x[1, m:m + 2] = 0.0
        x[4, m + 2:m + 4] = [-0.0, 1e-200]
        c = np.array([-1.5, 0.25, -0.75])
        self._same(gauge_gate(parameter(x), parameter(c), m, 1e-6),
                   gauge_gate_chain(x, c, m, 1e-6))

    @pytest.mark.parametrize("shape, k", [((4, 7), 1), ((4, 8), 3), ((8,), 3)],
                             ids=["one_offset_for_three_pairs", "odd_pair_columns", "one_row"])
    def test_gauge_gate_of_misshapen_operands_rejected(self, shape, k):
        # the strided pair views would broadcast one offset over three pairs, where the
        # (n, k, 2) reshape refused it with a bare ValueError
        with pytest.raises(AutodiffError, match=r"gate of 1 scalars and pairs \(\d,\) got"):
            gauge_gate(parameter(np.ones(shape)), parameter(np.ones(k)), 1, 1e-6)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_weights(self, heads):
        k = self.rng.standard_normal((7, heads, 3))
        q = self.rng.standard_normal((5, heads, 3))
        k[2] = -0.0
        self._same(attention_weights(parameter(k), parameter(q), _PLAN, 0.5),
                   attention_weights_gathered(k, q, _PLAN.idx, 5, 0.5))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_weighted_segment_sum(self, heads):
        v = self.rng.standard_normal((7, heads, 3))
        w = self.rng.standard_normal((7, heads))
        w[3] = -0.0
        self._same(weighted_segment_sum(parameter(v), parameter(w), _PLAN, _SIZE),
                   weighted_segment_sum_gathered(v, w, _PLAN.idx, _SIZE))

    def test_turn_in_column_order(self):
        # the turn multiplies each block in place in column order: the bits of the
        # block times its phases, on (rows, heads, dim) as on (rows, dim)
        v = self.rng.standard_normal((7, 2, 5))
        turned = autodiff._turn(v.copy(), _PHASES, ((1, 1, 3), (2, 3, 5)), conj=True)
        for n, lo, hi in ((1, 1, 3), (2, 3, 5)):
            want = v[..., lo:hi].view(np.complex128) * _PHASES[n].conj().reshape(-1, 1, 1)
            assert turned[..., lo:hi].tobytes() == want.view(np.float64).tobytes()
        assert turned[..., 0].tobytes() == v[..., 0].tobytes()

    def test_adam_updates_its_moments_in_place(self):
        shapes = [(3, 4), (5,)]
        start = [self.rng.standard_normal(s) for s in shapes]
        grads = [[self._grad(s) for s in shapes] for _ in range(5)]
        grads[1][1][:] = 0.0
        params = [parameter(p) for p in start]
        opt = Adam(params, lr=0.01)
        moments = opt.m + opt.v
        for step in grads:
            for p, g in zip(params, step):
                p.grad[...] = g
            opt.step()
        assert all(a is b for a, b in zip(opt.m + opt.v, moments))
        values, m, v = adam_rebinding(start, grads, 0.01)
        assert _bits([p.value for p in params]) == _bits(values)
        assert _bits(opt.m + opt.v) == _bits(m + v)


# (name, op, reference, operand shapes): the one-node ops of the model, with the
# loops of tests/oracles.py; the gate's offsets are the second operand, and
# segment_softmax is attention_weights of one-wide keys with a unit query
_SEGMENTS = np.array([2, 0, 2, 2, 4, 0, 2, 0])
_UNIT_QUERY = Tensor(np.ones((5, 1, 1)))
MODEL_OPS = [
    ("gauge_gate", lambda x, c: gauge_gate(x, c, 2, 1e-6),
     lambda x, c: gauge_gate_pairs(x, c, 2, 1e-6), [(6, 8), (3,)]),
    ("gauge_gate_pairs", lambda x, c: gauge_gate(x, c, 0, 1e-6),
     lambda x, c: gauge_gate_pairs(x, c, 0, 1e-6), [(6, 4), (2,)]),
    ("segment_softmax",
     lambda s: attention_weights(s, _UNIT_QUERY, ScatterPlan(_SEGMENTS), 1.0),
     lambda s: segment_softmax_loop(s[..., 0], _SEGMENTS, 5), [(8, 1, 1)]),
    ("attention_weights", lambda k, q: attention_weights(k, q, ScatterPlan(_SEGMENTS), 0.5),
     lambda k, q: attention_weights_loop(k, q, _SEGMENTS, 5, 0.5), [(8, 1, 3), (5, 1, 3)]),
    ("attention_weights_heads",
     lambda k, q: attention_weights(k, q, ScatterPlan(_SEGMENTS), 10.0),
     lambda k, q: attention_weights_loop(k, q, _SEGMENTS, 5, 10.0), [(8, 3, 2), (5, 3, 2)]),
    ("nll_loss", lambda a: nll_loss(a, [2, 0, 1, 1, 0]),
     lambda a: nll_loss_rows(a, [2, 0, 1, 1, 0]), [(5, 3)]),
    ("nll_loss_one_row", lambda a: nll_loss(a * 5.0, [1]),
     lambda a: nll_loss_rows(a * 5.0, [1]), [(1, 4)]),
    ("affine", affine, affine_rows, [(5, 3), (3, 4), (4,)]),
]


@pytest.mark.parametrize("name, op, reference, shapes", MODEL_OPS,
                         ids=[c[0] for c in MODEL_OPS])
class TestModelOps:
    """Each op the model records as one node, against a loop, and its gradient."""

    def test_matches_the_loop(self, name, op, reference, shapes):
        rng = np.random.default_rng(21)
        values = [rng.standard_normal(s) for s in shapes]
        npt.assert_allclose(op(*map(Tensor, values)).value, reference(*values),
                            rtol=0, atol=1e-12)

    def test_gradient(self, name, op, reference, shapes):
        rng = np.random.default_rng(22)
        params = [parameter(rng.standard_normal(s)) for s in shapes]
        r = rng.standard_normal(op(*params).shape)

        def loss():
            y = op(*params)
            return (y * y * r).sum()

        check_gradients(loss, params, rng, samples=12)


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
        # the row gather, now transported_rows with no pair to turn: its adjoint
        # scatters
        for idx, n in self.cases:
            for cols in ((),) + tuple(self.columns):
                x = parameter(self.rng.standard_normal((n,) + cols))
                g = self.rng.standard_normal((idx.size,) + cols)
                y = transported_rows(x, ScatterPlan(idx), Phases(np.zeros(idx.size)), ())
                (y * g).sum().backward()
                assert np.array_equal(x.grad, scatter_add(g, idx, n))

    def test_take_pairs_adjoint(self):
        # the (row, column) pick of nll_loss, now inside its one node: the gradient
        # is each row's softmax over n, less 1/n at its target, added with np.add.at
        cols = self.rng.integers(0, 4, 200)
        x = parameter(self.rng.standard_normal((200, 4)))
        nll_loss(x, cols).backward()
        e = np.exp(x.value)
        want = e / e.sum(axis=1, keepdims=True) / 200
        np.add.at(want, (np.arange(200), cols), -1.0 / 200)
        npt.assert_allclose(x.grad, want, rtol=0, atol=1e-15)

    def test_segment_sum(self):
        for idx, n in self.cases:
            for cols in ((),) + tuple(self.columns):
                values = self.rng.standard_normal((idx.size,) + cols)
                out = segment_sum(Tensor(values), ScatterPlan(idx), n).value
                assert out.shape == (n,) + cols
                assert np.array_equal(out, scatter_add(values, idx, n))
                assert not out[n - 1].any()


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
        cases = [([0, 3], "out of range"), ([-1, 0], "out of range"), ([0, 1, 2], "does not match"),
                 # truncated to [0, 1] and scored
                 ([0.5, 1.9], "integer targets"), ([True, False], "integer targets")]
        for targets, match in cases:
            with pytest.raises(AutodiffError, match=match):
                nll_loss(Tensor(np.zeros((2, 3))), np.array(targets))
        # ended in a bare ValueError
        with pytest.raises(AutodiffError, match="2-D logits"):
            nll_loss(Tensor(np.zeros((2, 3, 1))), np.array([0, 1]))
        # numpy's bare ValueError from the minimum of no targets
        with pytest.raises(AutodiffError, match="empty batch"):
            nll_loss(Tensor(np.zeros((0, 3))), np.zeros(0, int))


class TestAdam:
    @pytest.mark.parametrize("lr, match", [
        (np.nan, "lr must be in (0, inf), got nan"),
        (-0.01, "lr must be in (0, inf), got -0.01"),
        (0.0, "lr must be in (0, inf), got 0.0"),
        (np.inf, "lr must be in (0, inf), got inf"),
        ("0.01", "lr must hold reals, got <U4"),
    ], ids=["nan", "negative", "zero", "infinite", "string"])
    def test_bad_learning_rate_rejected(self, lr, match):
        # nan made every parameter nan after one step, a negative rate ascended
        # the loss, and the string failed only at step()
        with pytest.raises(AutodiffError, match=re.escape(match)):
            Adam([parameter(np.ones(2))], lr)

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
        W, b = parameter(rng.standard_normal((6, 4))), parameter(np.zeros(4))
        opt = Adam([W, b], lr=0.01)
        X = rng.standard_normal((10, 6))
        y = rng.integers(0, 4, 10)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            loss = nll_loss(affine(Tensor(X), W, b), y)
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
                                           isolated.frames)
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


@pytest.mark.parametrize("model", [
    "",
    "[model]\nheads = 2\nself_contribution = true\n",
    "[model]\nkind = gem\n",
    "[run]\ntask = classification\n",
], ids=["eman", "heads2_self", "gem", "classification"])
def test_in_place_adjoints_are_alias_safe(monkeypatch, model):
    # the fused adjoints write into the g they were given: a backward in which every
    # VJP gets a private copy of its g must give every parameter gradient bit for bit
    cfg = parse_config(model + "[data]\nsubdivisions = 1\ntrain_meshes = 2\ntest_meshes = 1\n")
    data = dataset_from_config(cfg)
    spec = model_spec_from_config(cfg, target_dim=data.target_dim, task=data.task)
    sample = data.train[0]
    frames = build_frames(sample.mesh)
    geom = EdgeGeometry.from_frames(frames)
    field = compute_features(cfg.model["features"], sample.mesh, frames,
                             cfg.model["reltan_powers"])

    def grads():
        net = build_model(spec, seed=5)
        logits = net.forward(field, geom, train=True, rng=np.random.default_rng(2))
        nll_loss(logits, sample.label).backward()
        return [t.grad.tobytes() for _n, t in net.parameters()]

    given = grads()
    node, copied = autodiff._node, []

    def copying_node(value, parents, vjp):
        def private(g):
            copied.append(g.shape)
            return vjp(g.copy())
        return node(value, parents, private)

    monkeypatch.setattr(autodiff, "_node", copying_node)
    assert grads() == given
    assert len(copied) > 20


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
    ("mul", lambda a, b: a * b, [(4, 3), (4, 3)], True),
    ("mul_array", lambda a: a * np.arange(3.0), [(4, 3)], True),
    ("relu", lambda a: a.relu(), [(4, 3)], True),
    ("reshape", lambda a: a.reshape(3, 4), [(4, 3)], True),
    ("sum", lambda a: a.sum(), [(4, 3)], True),
    ("sum_axis", lambda a: a.sum(axis=0, keepdims=True), [(4, 3)], True),
    ("mean", lambda a: a.mean(axis=1), [(4, 3)], False),
    ("concat", lambda a, b: concat([a, np.ones((1, 3)), b]), [(4, 3), (2, 3)], True),
    ("transported_rows", lambda a: transported_rows(a, ScatterPlan([3, 0, 0, 2]),
                                                    Phases(np.ones(4)), ((1, 1, 3),)),
     [(4, 3)], True),
    ("turned_product", lambda u, w: turned_product(u, w, Phases(np.ones(4)), ((1, 1, 3),),
                                                   (-1, 3)),
     [(4, 2), (3, 2)], True),
    # attention_weights under the two ops it absorbed: the dot of the keys with the
    # gathered queries, and with a constant unit query the segment softmax of the keys
    ("gathered_dot", lambda k, q: attention_weights(k, q, ScatterPlan([1, 0, 1, 1]), 0.5),
     [(4, 2, 3), (2, 2, 3)], True),
    ("segment_softmax", lambda a: attention_weights(a, Tensor(np.ones((2, 1, 1))),
                                                    ScatterPlan([1, 0, 1, 1]), 1.0),
     [(4, 1, 1)], False),
    ("weighted_segment_sum",
     lambda v, w: weighted_segment_sum(v, w, ScatterPlan([1, 0, 1, 1]), np.ones((3, 1))),
     [(4, 2, 3), (4, 2)], True),
    ("segment_sum", lambda a: segment_sum(a, ScatterPlan([1, 0, 1, 1]), 3), [(4, 3)], True),
    ("commuting_matmul", lambda a, w: commuting_matmul(a, w, _SHARED_BLOCKS, 7),
     [(4, 6), (6,)], True),
    ("commuting_scalars", lambda a, w: commuting_matmul(a, w, ((0, 0, 3, 0, 2),), 2),
     [(4, 3), (6,)], True),
    ("commuting_disjoint", lambda a, w: commuting_matmul(a, w, (), 2), [(4, 3), (0,)],
     True),
    ("nll_loss", lambda a: nll_loss(a, [2, 0, 1, 1]), [(4, 3)], True),
    ("affine", affine, [(4, 3), (3, 2), (2,)], True),
    ("gauge_gate", lambda x, c: gauge_gate(x, c, 1, 1e-6), [(4, 5), (2,)], True),
    ("gauge_gate_pairs", lambda x, c: gauge_gate(x, c, 0, 1e-6), [(4, 4), (2,)], True),
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
