import re

import numpy as np
import numpy.testing as npt
import pytest

from meshnet.errors import (
    FeatureTypeError,
    FrameBindingError,
    NonFiniteFeatureError,
    ZeroDistanceError,
)
from meshnet.features import (
    GeometricFeatureField,
    compute_features,
    feature_type_for,
    get_features,
    reltan_features,
    reltan_vectors,
    xyz_features,
)
from meshnet.mesh import Mesh, generate_icosphere
from meshnet.representations import FeatureType
from meshnet.tangent import FrameField, build_frames, regauge
from meshnet.transforms import AmbientTransform, apply_ambient, random_rotation

from oracles import random_test_mesh, regauge_coords, reltan_scaling_statistics


def flat_frames(mesh):
    V = mesh.n_vertices
    return FrameField(mesh, np.tile([0.0, 0, 1], (V, 1)),
                      np.tile([1.0, 0, 0], (V, 1)), np.tile([0.0, 1, 0], (V, 1)))


def line_mesh(*points):
    """Degenerate helper: vertices on a line with trusted ring structure."""
    verts = np.asarray(points, dtype=float)
    faces = [[0, 1, 2]]
    return Mesh(verts, faces)


class TestRelTan:
    def test_symmetric_neighbors_cancel(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        faces = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]]
        mesh = Mesh(verts, faces)
        fr = flat_frames(mesh)
        for r in [-2.0, 0.5, 1.0, 3.0]:
            v = reltan_vectors(fr, r)
            npt.assert_allclose(v[0], 0.0, atol=1e-14)

    def test_collinear_two_neighbor_hand_value(self):
        # center with neighbors at distances 1 and 2 along +x, r=1:
        # each weight bracket inverts to N_p = 2, prefactor 2^{-3/2}
        mesh = line_mesh([0, 0, 0], [1, 0, 0], [2, 0, 0])
        fr = flat_frames(mesh)
        v = reltan_vectors(fr, 1.0)
        npt.assert_allclose(v[0], [np.sqrt(2), 0, 0], atol=1e-14)

    def test_collinear_generic_power_against_formula(self):
        mesh = line_mesh([0, 0, 0], [1, 0, 0], [2, 0, 0])
        fr = flat_frames(mesh)
        r = 0.5
        v = reltan_vectors(fr, r)
        # direct formula: sum_q unit(q-p) * (sum_q' d_q'^{r-1}) / d_q^{r-1}
        d = np.array([1.0, 2.0])
        wsum = (d ** (r - 1)).sum()
        expect = sum(np.array([1.0, 0, 0]) * wsum / (dq ** (r - 1)) for dq in d)
        npt.assert_allclose(v[0], 2 ** -1.5 * expect, atol=1e-14)

    def test_scaling_invariance(self):
        mesh = line_mesh([0, 0, 0], [1, 0, 0], [2, 0, 0])
        scaled = mesh.with_vertices(3.0 * mesh.vertices)
        fr, fr3 = flat_frames(mesh), flat_frames(scaled)
        npt.assert_allclose(reltan_vectors(fr, 0.7),
                            reltan_vectors(fr3, 0.7), atol=1e-14)

    def test_r_equals_one_ignores_distances(self):
        # stretching a single neighbor (holding direction) changes nothing
        mesh = line_mesh([0, 0, 0], [1, 0, 0], [2, 0, 0])
        stretched = line_mesh([0, 0, 0], [1, 0, 0], [5, 0, 0])
        npt.assert_allclose(
            reltan_vectors(flat_frames(mesh), 1.0)[0],
            reltan_vectors(flat_frames(stretched), 1.0)[0],
            atol=1e-14)

    def test_equivariance_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            for r in [0.5, 0.7]:
                v = reltan_vectors(fr, r)
                scale = max(np.abs(v).max(), 1e-12)
                R = random_rotation(rng)
                x = rng.uniform(-10, 10, 3)
                lam = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
                rot = mesh.with_vertices(mesh.vertices @ R.T)
                npt.assert_allclose(reltan_vectors(build_frames(rot), r),
                                    v @ R.T, atol=1e-10 * scale)
                tra = mesh.with_vertices(mesh.vertices + x)
                npt.assert_allclose(reltan_vectors(build_frames(tra), r),
                                    v, atol=1e-10 * scale)
                sca = mesh.with_vertices(lam * mesh.vertices)
                npt.assert_allclose(reltan_vectors(build_frames(sca), r),
                                    v, atol=1e-10 * scale)

    def test_field_layout_and_gauge_covariance(self):
        rng = np.random.default_rng(10)
        mesh = generate_icosphere(1)
        fr = build_frames(mesh)
        field = reltan_features(fr, (0.5, 0.7))
        # order-major: both zero scalar slots, then one pair per power
        assert field.ftype == FeatureType([0, 1, 0, 1])
        assert field.ftype.orders == (0, 0, 1, 1)
        npt.assert_array_equal(field.values[:, :2], 0.0)
        for k, r in enumerate((0.5, 0.7)):
            v3 = reltan_vectors(fr, r)
            npt.assert_array_equal(field.values[:, 2 + 2 * k],
                                   np.einsum("ij,ij->i", v3, fr.e1))
            npt.assert_array_equal(field.values[:, 3 + 2 * k],
                                   np.einsum("ij,ij->i", v3, fr.e2))
        g = rng.uniform(-np.pi, np.pi, mesh.n_vertices)
        fr2, _td2 = regauge(fr, g)
        field2 = reltan_features(fr2, (0.5, 0.7))
        npt.assert_allclose(field2.values,
                            regauge_coords(field.values, field.ftype, g),
                            atol=1e-10)

    @pytest.mark.parametrize("power", [1e308, -1e308, 2000.0])
    def test_non_finite_summary_rejected(self, power):
        # |q-p|^(power-1) overflows to inf or underflows to 0 (then 0/0)
        mesh = generate_icosphere(1)
        mesh = mesh.with_vertices(mesh.vertices * 3.0)
        with pytest.raises(NonFiniteFeatureError, match=re.escape(f"relative power {power}")):
            reltan_features(build_frames(mesh), (0.7, power))

    def test_coincident_vertices_rejected(self):
        mesh = line_mesh([0, 0, 0], [0, 0, 0], [2, 0, 0])
        with pytest.raises(ZeroDistanceError):
            reltan_vectors(flat_frames(mesh), 0.7)


class TestGet:
    def test_axis_aligned_projection(self):
        mesh = line_mesh([2, 3, 5], [3, 3, 5], [4, 3, 5])
        field = get_features(flat_frames(mesh))
        assert field.ftype == FeatureType([0, 1])
        npt.assert_allclose(field.values[0], [5, 2, 3])

    def test_origin_vertex_is_zero(self):
        mesh = line_mesh([0, 0, 0], [1, 0, 0], [2, 0, 0])
        field = get_features(flat_frames(mesh))
        npt.assert_allclose(field.values[0], 0.0, atol=1e-15)

    def test_translation_shifts_by_projected_offset(self):
        rng = np.random.default_rng(11)
        mesh = random_test_mesh(rng)
        fr = build_frames(mesh)
        w = get_features(fr).values
        x = rng.uniform(-5, 5, 3)
        moved = mesh.with_vertices(mesh.vertices + x)
        fr2 = build_frames(moved)
        w2 = get_features(fr2).values
        shift = np.stack([fr.normals @ x, fr.e1 @ x, fr.e2 @ x], axis=1)
        npt.assert_allclose(w2, w + shift, atol=1e-10)

    def test_gauge_covariance(self):
        rng = np.random.default_rng(12)
        mesh = generate_icosphere(1)
        fr = build_frames(mesh)
        field = get_features(fr)
        g = rng.uniform(-np.pi, np.pi, mesh.n_vertices)
        fr2, _td2 = regauge(fr, g)
        field2 = get_features(fr2)
        npt.assert_allclose(field2.values,
                            regauge_coords(field.values, field.ftype, g),
                            atol=1e-10)


class TestXyz:
    def test_values_are_coordinates(self):
        mesh = line_mesh([1, 2, 3], [2, 2, 3], [3, 2, 3])
        fr = flat_frames(mesh)  # a line has no normals to build frames from
        field = xyz_features(fr)
        assert field.ftype == FeatureType([0, 0, 0]) and field.frame_token == fr.token
        npt.assert_array_equal(field.values[0], [1, 2, 3])

    def test_regauge_leaves_values_unchanged(self):
        mesh = generate_icosphere(0)
        fr = build_frames(mesh)
        a = xyz_features(fr).values
        fr2, _td2 = regauge(fr, np.full(mesh.n_vertices, 0.9))
        b = xyz_features(fr2).values
        npt.assert_array_equal(a, b)

    def test_rotation_changes_values(self):
        rng = np.random.default_rng(13)
        mesh = generate_icosphere(0)
        R = random_rotation(rng)
        rotated = mesh.with_vertices(mesh.vertices @ R.T)
        a = xyz_features(build_frames(mesh)).values
        b = xyz_features(build_frames(rotated)).values
        assert np.abs(a - b).max() > 0.1
        npt.assert_allclose(b, a @ R.T, atol=1e-12)


class TestDispatch:
    def test_families(self):
        mesh = generate_icosphere(0)
        fr = build_frames(mesh)
        assert compute_features("xyz", mesh, fr).ftype.dim == 3
        assert compute_features("get", mesh, fr).ftype.dim == 3
        assert compute_features("reltan", mesh, fr, (0.5, 0.7)).ftype.dim == 6
        assert feature_type_for("reltan", (0.5, 0.7)).orders == (0, 0, 1, 1)
        for lookup in (lambda family: compute_features(family, mesh, fr), feature_type_for):
            with pytest.raises(FeatureTypeError, match="unknown feature family 'laplacian'"):
                lookup("laplacian")

    @pytest.mark.parametrize("family", ["reltan", "get", "xyz"])
    def test_frames_of_another_mesh_are_refused(self, family):
        mesh = generate_icosphere(1)
        frames = build_frames(mesh)
        # a moved copy has as many vertices, and the next subdivision more
        moved = apply_ambient(mesh, AmbientTransform(translation=np.array([1.0, 2.0, 3.0])))
        for other in (moved, generate_icosphere(2)):
            with pytest.raises(FrameBindingError, match="frames built on another mesh"):
                compute_features(family, other, frames)
        assert compute_features(family, mesh, frames).frame_token == frames.token

    def test_field_shape_validation(self):
        with pytest.raises(FeatureTypeError, match="does not match"):
            GeometricFeatureField(FeatureType([0, 1]), np.zeros((4, 2)), 0)



class TestScalingStatistics:
    def test_unnormalized_cubic_growth(self):
        a = reltan_scaling_statistics(4, 20000, rng_seed=0)
        b = reltan_scaling_statistics(8, 20000, rng_seed=1)
        ratio = b["unnormalized_mean_square"] / a["unnormalized_mean_square"]
        assert 6.0 < ratio < 10.0

    def test_normalized_stays_flat(self):
        a = reltan_scaling_statistics(4, 20000, rng_seed=2)
        b = reltan_scaling_statistics(8, 20000, rng_seed=3)
        ratio = b["normalized_mean_square"] / a["normalized_mean_square"]
        assert 0.75 < ratio < 1.25

    def test_point_mass_small_case(self):
        # degree 2, unit radii, r=1: E|v|^2 = (2 + 2 E<u1,u2>) / 2^3 * 2^2 = 1
        out = reltan_scaling_statistics(2, 200000, rng_seed=4,
                                        relative_power=1.0, radial="unit")
        npt.assert_allclose(out["normalized_mean_square"], 1.0, rtol=0.05)

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            reltan_scaling_statistics(1, 10)
