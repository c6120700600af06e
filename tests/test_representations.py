import numpy as np
import numpy.testing as npt
import pytest

from meshnet.autodiff import Tensor
from meshnet.errors import FeatureTypeError
from meshnet.layers import _SelfKernel
from meshnet.representations import MAX_COMPONENTS, FeatureType, init_neighbor_kernel

from oracles import (
    BasisElement,
    HarmonicKernel,
    assemble_kernel,
    coefficient_count,
    coefficient_map,
    constraint_residual,
    kernel_basis,
    rep_block_diag,
    rho_matrix,
)


class TestFeatureType:
    def test_dimensions(self):
        t = FeatureType([0, 1, 2])
        assert t.dim == 5
        assert t.offsets == (0, 1, 3, 5)

    def test_parse_roundtrip(self):
        for text in ["rho0", "3xrho0", "rho0+rho1", "16x(rho0+rho1+rho2)",
                     "4xrho0+rho1+3xrho2", "2x(rho0+2xrho1)"]:
            t = FeatureType.parse(text)
            assert FeatureType.parse(str(t)) == t

    def test_paper_example_dimension(self):
        # 4 scalars + one 2d + three 2d components
        t = FeatureType.parse("4xrho0+rho1+3xrho2")
        assert t.dim == 4 * 1 + 1 * 2 + 3 * 2

    def test_block_offsets_strictly_increasing(self):
        t = FeatureType.parse("16x(rho0+rho1+rho2)")
        assert all(b > a for a, b in zip(t.offsets, t.offsets[1:]))

    def test_algebra(self):
        assert FeatureType([1, 0]) == FeatureType([0, 1])
        assert len({FeatureType((1, 0)), FeatureType((0, 1))}) == 1
        assert FeatureType([1, 0]).orders == (0, 1)
        assert FeatureType(FeatureType([0]).orders * 3) == FeatureType([0, 0, 0])

    def test_rejects_bad_input(self):
        with pytest.raises(FeatureTypeError):
            FeatureType([])
        with pytest.raises(FeatureTypeError):
            FeatureType([-1])
        with pytest.raises(FeatureTypeError):
            FeatureType([9])
        for text in ("rho0+bogus", "(rho0", "+rho0", "rho0)"):
            with pytest.raises(FeatureTypeError):
                FeatureType.parse(text)

    def test_component_bound(self):
        # 10^6 scalars took about 2 s and 92 MiB to build before the bound
        assert FeatureType.parse(f"{MAX_COMPONENTS}xrho0").n_components == MAX_COMPONENTS
        for text in ("1000000x(rho0)", "1000000xrho1", f"2x({MAX_COMPONENTS}xrho0)",
                     f"{MAX_COMPONENTS}xrho0+rho1"):
            with pytest.raises(FeatureTypeError, match=f"at most {MAX_COMPONENTS} components"):
                FeatureType.parse(text)
        with pytest.raises(FeatureTypeError, match=f"at most {MAX_COMPONENTS} components"):
            FeatureType([0] * (MAX_COMPONENTS + 1))


class TestRhoMatrix:
    def test_trivial(self):
        npt.assert_array_equal(rho_matrix(0, 1.234), [[1.0]])

    def test_order_one_quarter_turn(self):
        npt.assert_allclose(rho_matrix(1, np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    def test_order_two_eighth_turn(self):
        npt.assert_allclose(rho_matrix(2, np.pi / 4), [[0, -1], [1, 0]], atol=1e-15)

    def test_orthogonality(self):
        rng = np.random.default_rng(0)
        for n in range(4):
            g = rng.uniform(-np.pi, np.pi)
            R = rho_matrix(n, g)
            npt.assert_allclose(R.T, rho_matrix(n, -g), atol=1e-15)
            npt.assert_allclose(R.T @ R, np.eye(R.shape[0]), atol=1e-15)


class TestBlockDiag:
    def test_identity_at_zero(self):
        npt.assert_allclose(rep_block_diag(FeatureType([0, 1]), 0.0), np.eye(3))

    def test_mixed_quarter_turn(self):
        M = rep_block_diag(FeatureType([0, 1]), np.pi / 2)
        expect = np.zeros((3, 3))
        expect[0, 0] = 1
        expect[1:, 1:] = [[0, -1], [1, 0]]
        npt.assert_allclose(M, expect, atol=1e-15)

    def test_inverse_of_composite(self):
        t = FeatureType.parse("4xrho0+rho1+3xrho2")
        assert t.dim == 12
        g = 0.817
        npt.assert_allclose(rep_block_diag(t, g) @ rep_block_diag(t, -g),
                            np.eye(12), atol=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(1)
        t = FeatureType.parse("2x(rho0+rho1+rho2+rho3)")
        for _ in range(20):
            g1, g2 = rng.uniform(-np.pi, np.pi, 2)
            npt.assert_allclose(
                rep_block_diag(t, g1) @ rep_block_diag(t, g2),
                rep_block_diag(t, g1 + g2), atol=1e-12)


class TestKernelBasis:
    def test_scalar_to_scalar(self):
        basis = kernel_basis(0, 0, "neigh")
        assert len(basis) == 1
        npt.assert_array_equal(basis[0](0.7), [[1.0]])
        npt.assert_array_equal(basis[0](-2.0), [[1.0]])

    def test_scalar_to_vector_at_zero(self):
        basis = kernel_basis(0, 1, "neigh")
        assert len(basis) == 2
        npt.assert_allclose(basis[0](0.0), [[1], [0]], atol=1e-15)
        npt.assert_allclose(basis[1](0.0), [[0], [-1]], atol=1e-15)

    def test_vector_to_scalar(self):
        basis = kernel_basis(2, 0, "neigh")
        th = 0.4
        npt.assert_allclose(basis[0](th), [[np.cos(2 * th), np.sin(2 * th)]],
                            atol=1e-15)
        npt.assert_allclose(basis[1](th), [[np.sin(2 * th), -np.cos(2 * th)]],
                            atol=1e-15)

    def test_vector_pair_count_and_constraint(self):
        rng = np.random.default_rng(2)
        basis = kernel_basis(1, 2, "neigh")
        assert len(basis) == 4
        for elem in basis:
            for _ in range(50):
                th, g = rng.uniform(-np.pi, np.pi, 2)
                lhs = elem(th - g)
                rhs = rho_matrix(2, -g) @ elem(th) @ rho_matrix(1, g)
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_self_kind(self):
        assert len(kernel_basis(0, 0, "self")) == 1
        b = kernel_basis(2, 2, "self")
        npt.assert_array_equal(b[0](0.0), np.eye(2))
        npt.assert_array_equal(b[1](0.0), [[0, 1], [-1, 0]])
        # no solutions between distinct orders
        assert kernel_basis(0, 1, "self") == ()
        assert kernel_basis(2, 1, "self") == ()

    def test_batched_angle_evaluation(self):
        basis = kernel_basis(1, 1, "neigh")
        thetas = np.linspace(-3, 3, 7)
        out = basis[2](thetas)
        assert out.shape == (7, 2, 2)
        npt.assert_allclose(out[3], basis[2](thetas[3]))


class TestCoefficientCount:
    def test_hand_counted(self):
        tin = FeatureType([0, 1])
        tout = FeatureType([0, 1, 2])
        # (0->0):1 (1->0):2 (0->1):2 (1->1):4 (0->2):2 (1->2):4
        assert coefficient_count(tin, tout, "neigh") == 15
        assert coefficient_count(tin, tin, "self") == 3

    def test_kernel_rejects_wrong_count(self):
        tin = FeatureType([0, 1])
        with pytest.raises(FeatureTypeError):
            HarmonicKernel(tin, tin, "neigh", np.zeros(2))


def _entrywise_oracle(kernel, theta):
    """Assemble by writing every basis formula out longhand."""
    tin, tout = kernel.in_type, kernel.out_type
    K = np.zeros((tout.dim, tin.dim))
    pos = 0
    for i, m in enumerate(tout.orders):
        for j, n in enumerate(tin.orders):
            ro, co = tout.offsets[i], tin.offsets[j]
            c = kernel.coefficients
            if kernel.kind == "self":
                if n == 0 and m == 0:
                    K[ro, co] += c[pos]; pos += 1
                elif n == m:
                    K[ro:ro+2, co:co+2] += c[pos] * np.eye(2)
                    K[ro:ro+2, co:co+2] += c[pos+1] * np.array([[0, 1], [-1, 0]])
                    pos += 2
                continue
            if n == 0 and m == 0:
                K[ro, co] += c[pos]; pos += 1
            elif m == 0:
                cn, sn = np.cos(n * theta), np.sin(n * theta)
                K[ro, co:co+2] += c[pos] * np.array([cn, sn])
                K[ro, co:co+2] += c[pos+1] * np.array([sn, -cn])
                pos += 2
            elif n == 0:
                cm, sm = np.cos(m * theta), np.sin(m * theta)
                K[ro:ro+2, co] += c[pos] * np.array([cm, sm])
                K[ro:ro+2, co] += c[pos+1] * np.array([sm, -cm])
                pos += 2
            else:
                cm_, sm_ = np.cos((m - n) * theta), np.sin((m - n) * theta)
                cp, sp = np.cos((m + n) * theta), np.sin((m + n) * theta)
                mats = [np.array([[cm_, -sm_], [sm_, cm_]]),
                        np.array([[sm_, cm_], [-cm_, sm_]]),
                        np.array([[cp, sp], [sp, -cp]]),
                        np.array([[-sp, cp], [cp, sp]])]
                for M in mats:
                    K[ro:ro+2, co:co+2] += c[pos] * M
                    pos += 1
    return K


class TestAssembleKernel:
    def test_zero_coefficients(self):
        tin, tout = FeatureType([0, 1]), FeatureType([1, 2])
        k = HarmonicKernel(tin, tout, "neigh")
        npt.assert_array_equal(assemble_kernel(k, 0.3), np.zeros((4, 3)))

    def test_scalar_constant(self):
        t = FeatureType([0])
        k = HarmonicKernel(t, t, "neigh", [2.5])
        for th in [-1.0, 0.0, 2.2]:
            npt.assert_array_equal(assemble_kernel(k, th), [[2.5]])

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(3)
        tin = FeatureType([0, 1])
        tout = FeatureType([0, 1, 2])
        for kind in ("neigh", "self"):
            k = HarmonicKernel(
                tin if kind == "neigh" else tout,
                tout, kind,
                rng.standard_normal(
                    coefficient_count(tin if kind == "neigh" else tout, tout, kind)),
            )
            for th in rng.uniform(-np.pi, np.pi, 5):
                npt.assert_allclose(assemble_kernel(k, th),
                                    _entrywise_oracle(k, th), atol=1e-14)


class TestConstraintResidual:
    def test_zero_gauge_is_exact(self):
        rng = np.random.default_rng(4)
        tin, tout = FeatureType([0, 1]), FeatureType([1, 2])
        k = HarmonicKernel(tin, tout, "neigh",
                           rng.standard_normal(coefficient_count(tin, tout, "neigh")))
        assert constraint_residual(k, 0.37, 0.0) == 0.0

    def test_random_kernels_satisfy_constraint(self):
        rng = np.random.default_rng(5)
        for n in range(3):
            for m in range(3):
                for kind in ("neigh", "self"):
                    tin, tout = FeatureType([n]), FeatureType([m])
                    k = HarmonicKernel(
                        tin, tout, kind,
                        rng.standard_normal(coefficient_count(tin, tout, kind)))
                    for _ in range(20):
                        th, g = rng.uniform(-np.pi, np.pi, 2)
                        assert constraint_residual(k, th, g) <= 1e-10

    def test_corrupted_basis_violates_constraint(self):
        # flip one sign in a vector-to-vector solution; the residual of the
        # corrupted matrix family must be macroscopic for generic gauges
        rng = np.random.default_rng(6)
        good = kernel_basis(1, 2, "neigh")[0]
        entries = list(good.entries)
        r, c, kind, h, sign = entries[0]
        entries[0] = (r, c, kind, h, -sign)
        bad = BasisElement(good.out_dim, good.in_dim, tuple(entries))
        worst = 0.0
        for _ in range(50):
            th, g = rng.uniform(-np.pi, np.pi, 2)
            lhs = bad(th - g)
            rhs = rho_matrix(2, -g) @ bad(th) @ rho_matrix(1, g)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        assert worst > 1e-3


class TestMatrixMap:
    def test_reproduces_assembly(self):
        # K(theta) = rho_out(theta) K(0) rho_in(-theta), the identity the
        # layers evaluate every neighbor kernel through; the layers' self
        # kernel op on the identity is the harmonic assembly at any angle
        rng = np.random.default_rng(7)
        tin = FeatureType.parse("rho0+rho1+rho2")
        tout = FeatureType.parse("2xrho0+rho1")
        k = HarmonicKernel(tin, tout, "neigh",
                           rng.standard_normal(coefficient_count(tin, tout, "neigh")))
        K0 = (coefficient_map(tin, tout, "neigh") @ k.coefficients).reshape(
            tout.dim, tin.dim)
        for th in rng.uniform(-np.pi, np.pi, 4):
            npt.assert_allclose(
                rep_block_diag(tout, th) @ K0 @ rep_block_diag(tin, -th),
                assemble_kernel(k, th), atol=1e-13)
        for src in (tin, tout, FeatureType.parse("rho1+2xrho0+rho1")):
            k = HarmonicKernel(src, tout, "self",
                               rng.standard_normal(coefficient_count(src, tout, "self")))
            kernel = _SelfKernel(src, tout, rng)
            kernel.coeffs.value[...] = k.coefficients
            K = kernel(Tensor(np.eye(src.dim))).value.T
            npt.assert_array_equal(K, assemble_kernel(k, rng.uniform(-np.pi, np.pi)))

    def test_neighbor_map_is_square_and_invertible(self):
        # K(0) is free: the harmonic coefficients are one coordinate system on it
        for text in ["rho0+rho1", "2xrho0+rho1", "rho0+rho1+rho2+rho3"]:
            tin = FeatureType.parse(text)
            tout = FeatureType.parse("rho0+rho1+rho2")
            smat = coefficient_map(tin, tout, "neigh").toarray()
            assert smat.shape == (tout.dim * tin.dim,) * 2
            assert np.linalg.matrix_rank(smat) == smat.shape[0]


class TestInitialization:
    def test_bounded_preactivation_variance(self):
        # a random kernel applied to unit-variance features keeps outputs
        # within a sane band across type sizes
        rng = np.random.default_rng(8)
        for text in ["rho0+rho1", "8x(rho0+rho1+rho2)", "16x(rho0+rho1+rho2)"]:
            t = FeatureType.parse(text)
            x = rng.standard_normal((200, t.dim))
            y = x @ init_neighbor_kernel(t, t, rng).T
            ratio = y.std() / x.std()
            assert 0.05 < ratio < 5.0, (text, ratio)


def _block_walk_init(in_type, out_type, rng):
    """The per-block reference of a self kernel: one uniform draw per
    (out, in) component pair, over its harmonic coefficients."""
    pieces = [np.zeros(0)]
    for m in out_type.orders:
        for n in in_type.orders:
            nb = len(kernel_basis(n, m, "self"))
            if nb:
                s = 1.0 / np.sqrt(in_type.dim * nb)
                pieces.append(rng.uniform(-s, s, size=nb))
    return np.concatenate(pieces)


def _block_walk_bounds(in_type, out_type):
    """Per entry of a neighbor ``K(0)``: 1/sqrt(in.dim) on a scalar-to-scalar
    block, 1/sqrt(2 in.dim) on every other block."""
    S = np.empty((out_type.dim, in_type.dim))
    for i, m in enumerate(out_type.orders):
        for j, n in enumerate(in_type.orders):
            ro, co = out_type.offsets[i], in_type.offsets[j]
            S[ro:ro + (2 if m else 1), co:co + (2 if n else 1)] = (
                1.0 / np.sqrt(in_type.dim * (1 if m == n == 0 else 2)))
    return S


@pytest.mark.parametrize("tin, tout, kind", [
    ("16x(rho0+rho1+rho2)", "16x(rho0+rho1+rho2)", "neigh"),
    ("16x(rho0+rho1+rho2)", "16x(rho0+rho1+rho2)", "self"),
    ("rho0+rho1", "16x(rho0+rho1+rho2)", "neigh"),
    ("16x(rho0+rho1+rho2)", "16xrho0", "self"),
    ("rho1+rho2", "2xrho0", "self"),
])
def test_init_matches_block_walk(tin, tout, kind):
    tin, tout = FeatureType.parse(tin), FeatureType.parse(tout)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    if kind == "self":
        got = _SelfKernel(tin, tout, rng).coeffs.value
        want = _block_walk_init(tin, tout, ref_rng)
        assert got.shape == (coefficient_count(tin, tout, kind),)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return
    S = _block_walk_bounds(tin, tout)
    got = init_neighbor_kernel(tin, tout, rng)
    assert np.array_equal(got, ref_rng.uniform(-S, S))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (np.abs(got) <= S).all()
    # each entry has the variance of the harmonic draw: coefficient k of a
    # block with nb of them is uniform in +-1/sqrt(in.dim * nb), and the
    # oracle map sums them into K(0)
    counts = [len(kernel_basis(n, m, kind)) for m in tout.orders for n in tin.orders]
    harmonic = coefficient_map(tin, tout, kind).power(2) @ (
        1.0 / (tin.dim * np.repeat(counts, counts)))
    npt.assert_allclose(harmonic, np.ravel(S) ** 2, rtol=1e-14)
    # and per block kind, the drawn entries have that variance: (K/S)^2 has
    # mean 1/3 and variance 4/45 for a uniform draw
    z2 = (got / S) ** 2
    vo, vi = tout.order_of_dim[:, None] > 0, tin.order_of_dim[None, :] > 0
    for mask in (vo & vi, vo ^ vi, ~(vo | vi)):
        assert abs(z2[mask].mean() - 1 / 3) <= 4 * np.sqrt(4 / 45 / mask.sum())
