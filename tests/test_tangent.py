import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.transform import Rotation

from meshnet.errors import (
    AmbiguousTransportError,
    DegenerateNormalError,
    FrameBindingError,
    FrameConstructionError,
    TransformError,
    UndefinedLogMapError,
)
from meshnet.features import reltan_features
from meshnet import tangent
from meshnet.mesh import Mesh, generate_grid_patch, generate_icosphere, vertex_normals
from meshnet.tangent import EdgeGeometry, FrameField, _edge_projection, build_frames, regauge
from meshnet.transforms import random_rotation

from oracles import (
    log_map,
    neighbor_rings,
    random_test_mesh,
    tangent_projector,
    theta_angle,
    transport_angle,
    wrap_angle,
)


def fan_mesh():
    """Flat open disk: center 0 with four neighbors in the z=0 plane."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]]
    return Mesh(verts, faces)


class TestProjector:
    def test_axis_aligned(self):
        npt.assert_allclose(tangent_projector([0, 0, 1]) @ [3, 4, 5], [3, 4, 0])

    def test_annihilates_normal(self):
        n = np.array([0.6, 0.0, 0.8])
        npt.assert_allclose(tangent_projector(n) @ n, 0.0, atol=1e-15)

    def test_matches_direct_formula(self):
        n = np.ones(3) / np.sqrt(3)
        v = np.array([0.3, -1.2, 2.0])
        npt.assert_allclose(tangent_projector(n) @ v, v - np.dot(n, v) * n,
                            atol=1e-14)

    def test_idempotent(self):
        n = np.array([0.6, 0.0, 0.8])
        P = tangent_projector(n)
        npt.assert_allclose(P @ P, P, atol=1e-15)


class TestLogMap:
    def test_already_tangential(self):
        npt.assert_allclose(log_map([0, 0, 0], [1, 0, 0], np.array([0, 0, 1.0])),
                            [1, 0, 0])

    def test_norm_preserving_projection(self):
        out = log_map([0, 0, 0], [1, 0, 1], np.array([0, 0, 1.0]))
        npt.assert_allclose(out, [np.sqrt(2), 0, 0], atol=1e-15)

    def test_undefined_along_normal(self):
        with pytest.raises(UndefinedLogMapError):
            log_map([0, 0, 0], [0, 0, 2], np.array([0, 0, 1.0]))

    def test_norm_preservation_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = rng.standard_normal((2, 3))
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            try:
                v = log_map(p, q, n)
            except UndefinedLogMapError:
                continue
            npt.assert_allclose(np.linalg.norm(v), np.linalg.norm(q - p),
                                rtol=1e-12)


class TestFrames:
    def test_first_neighbor_reference(self):
        mesh = fan_mesh()
        fr = build_frames(mesh)
        # ring at 0 starts at the smallest neighbor index, along +x
        npt.assert_allclose(fr.e1[0], [1, 0, 0], atol=1e-15)
        npt.assert_allclose(fr.e2[0], [0, 1, 0], atol=1e-15)

    def test_e1_is_first_defined_log_map(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            for p, ring in enumerate(neighbor_rings(mesh)):
                for q in ring:
                    try:
                        v = log_map(mesh.vertices[p], mesh.vertices[q], fr.normals[p])
                    except UndefinedLogMapError:
                        continue
                    npt.assert_allclose(fr.e1[p], v / np.linalg.norm(v), rtol=0, atol=1e-14)
                    break

    def test_first_neighbor_on_the_normal_is_skipped(self):
        verts = [[0, 0, 0], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, 0, 1]]
        mesh = Mesh(verts, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]])
        assert neighbor_rings(mesh)[0][0] == 1  # open fan: starts at the head, on the normal
        fr = build_frames(mesh)
        npt.assert_allclose(fr.normals[0], [0, 0, 1], atol=1e-15)
        with pytest.raises(UndefinedLogMapError):
            log_map(mesh.vertices[0], mesh.vertices[1], fr.normals[0])
        npt.assert_allclose(fr.e1[0], [1, 0, 0], atol=1e-15)

    def test_folded_strip_has_no_normal(self):
        # two coplanar triangles of equal area and opposite orientation: the
        # normals cancel at vertices 0 and 2, and the first is named
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, -1, 0]], [[0, 1, 2], [0, 2, 3]])
        with pytest.raises(DegenerateNormalError) as info:
            build_frames(mesh)
        assert info.value.vertex == 0

    def test_orthonormal_and_oriented(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            npt.assert_allclose(np.einsum("ij,ij->i", fr.e1, fr.e2), 0, atol=1e-10)
            npt.assert_allclose(np.einsum("ij,ij->i", fr.e1, fr.normals), 0, atol=1e-10)
            npt.assert_allclose(np.einsum("ij,ij->i", fr.e2, fr.normals), 0, atol=1e-10)
            npt.assert_allclose(np.cross(fr.e1, fr.e2), fr.normals, atol=1e-10)

    def test_frames_need_one_row_per_vertex(self):
        mesh = generate_icosphere(1)
        fr = build_frames(mesh)
        for cut in (lambda a: a[:5], lambda a: a[:, :2], lambda a: np.vstack([a, a[:1]])):
            with pytest.raises(FrameBindingError, match=re.escape("normals must have shape (42, 3)")):
                FrameField(mesh, cut(fr.normals), cut(fr.e1), cut(fr.e2))
        with pytest.raises(FrameBindingError):  # one wrong array is enough
            FrameField(mesh, fr.normals, fr.e1, fr.e2[:-1])
        # only shapes are checked: non-finite values reach what reads them
        broken = FrameField(mesh, fr.normals, fr.e1 * np.nan, fr.e2)
        assert np.isnan(broken.e1).all()

    def test_frames_keep_read_only_copies(self):
        mesh = generate_icosphere(1)
        fr = build_frames(mesh)
        given = [np.asfortranarray(fr.normals), np.array(fr.e1), np.array(fr.e2)]
        kept = FrameField(mesh, *given)
        for a, b in zip(given, (kept.normals, kept.e1, kept.e2)):
            assert a.flags.writeable and not b.flags.writeable
            assert b.flags.c_contiguous and not np.shares_memory(a, b)
        # arrays it refuses are left as they were handed in
        with pytest.raises(FrameBindingError):
            FrameField(mesh, given[0][:5], given[1], given[2])
        assert all(a.flags.writeable for a in given)


class TestThetaAngle:
    def setup_method(self):
        self.p = np.zeros(3)
        self.n = np.array([0.0, 0.0, 1.0])
        self.e1 = np.array([1.0, 0.0, 0.0])
        self.e2 = np.array([0.0, 1.0, 0.0])

    def test_along_e1(self):
        assert theta_angle(self.p, [2, 0, 0], self.e1, self.e2, self.n) == 0.0

    def test_along_e2(self):
        npt.assert_allclose(
            theta_angle(self.p, [0, 3, 0], self.e1, self.e2, self.n), np.pi / 2)

    def test_thirty_degrees_with_normal_offset(self):
        q = [np.cos(np.pi / 6), np.sin(np.pi / 6), 0.7]
        got = theta_angle(self.p, q, self.e1, self.e2, self.n)
        # oracle: atan2 of the explicit tangent-plane projections
        w = np.asarray(q) - self.n * np.dot(self.n, q)
        expect = np.arctan2(self.e2 @ w, self.e1 @ w)
        npt.assert_allclose(got, expect, atol=1e-15)
        npt.assert_allclose(got, np.pi / 6, atol=1e-12)


class TestTransportAngle:
    def test_coplanar_identical_frames(self):
        mesh = fan_mesh()
        e1 = np.tile([1.0, 0, 0], (5, 1))
        e2 = np.tile([0.0, 1, 0], (5, 1))
        n = np.tile([0.0, 0, 1], (5, 1))
        fr = FrameField(mesh, n, e1, e2)
        assert abs(transport_angle(0, 1, fr)) < 1e-15

    def test_coplanar_rotated_frame_change_of_basis(self):
        # regauging the source frame by phi shifts the angle by +phi,
        # matching the explicit 2x2 change-of-basis computation
        mesh = fan_mesh()
        n = np.tile([0.0, 0, 1], (5, 1))
        e1 = np.tile([1.0, 0, 0], (5, 1))
        e2 = np.tile([0.0, 1, 0], (5, 1))
        base = FrameField(mesh, n, e1, e2)
        phi = 0.8
        e1r, e2r = e1.copy(), e2.copy()
        e1r[1] = [np.cos(phi), np.sin(phi), 0]
        e2r[1] = [-np.sin(phi), np.cos(phi), 0]
        rotated = FrameField(mesh, n, e1r, e2r)
        got = transport_angle(0, 1, rotated)
        # oracle: coordinates of the rotated first axis in the target basis
        expect = np.arctan2(e1r[1] @ e2[0], e1r[1] @ e1[0])
        npt.assert_allclose(got, expect, atol=1e-15)
        npt.assert_allclose(wrap_angle(got - phi), 0.0, atol=1e-12)

    def test_against_scipy_rotation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            e = int(rng.integers(0, mesh.n_edges))
            p, q = int(mesh.edges.dst[e]), int(mesh.edges.src[e])
            nq, npv = fr.normals[q], fr.normals[p]
            axis = np.cross(nq, npv)
            angle = np.arctan2(np.linalg.norm(axis), np.dot(nq, npv))
            R = Rotation.from_rotvec(axis / np.linalg.norm(axis) * angle).as_matrix()
            re1 = R @ fr.e1[q]
            expect = np.arctan2(re1 @ fr.e2[p], re1 @ fr.e1[p])
            npt.assert_allclose(transport_angle(p, q, fr), expect, atol=1e-10)

    def test_transport_coherence(self):
        # rotating source coordinates by the transport angle reproduces the
        # explicit 3D transport of the tangent vector
        rng = np.random.default_rng(22)
        mesh = generate_icosphere(1)
        fr = build_frames(mesh)
        td = EdgeGeometry.from_frames(fr)
        for e in rng.integers(0, mesh.n_edges, size=10):
            p, q = int(mesh.edges.dst[e]), int(mesh.edges.src[e])
            v = np.cross(fr.normals[q], rng.standard_normal(3))
            coords_q = np.array([v @ fr.e1[q], v @ fr.e2[q]])
            nq, npv = fr.normals[q], fr.normals[p]
            axis = np.cross(nq, npv)
            angle = np.arctan2(np.linalg.norm(axis), nq @ npv)
            R = Rotation.from_rotvec(axis / np.linalg.norm(axis) * angle).as_matrix()
            expect = np.array([(R @ v) @ fr.e1[p], (R @ v) @ fr.e2[p]])
            g = td.transport[e]
            rot = np.array([[np.cos(g), -np.sin(g)], [np.sin(g), np.cos(g)]])
            npt.assert_allclose(rot @ coords_q, expect, atol=1e-12)

    def test_antipodal_normals_rejected(self):
        mesh = fan_mesh()
        n = np.tile([0.0, 0, 1], (5, 1))
        n[1] = [0, 0, -1]
        e1 = np.tile([1.0, 0, 0], (5, 1))
        e2 = np.cross(n, e1)
        fr = FrameField(mesh, n, e1, e2)
        with pytest.raises(AmbiguousTransportError):
            transport_angle(0, 1, fr)
        # the array path names the first such edge: on ico1, 12 -> 0 once n_12 = -n_0
        fr = build_frames(generate_icosphere(1))
        n = np.array(fr.normals)
        n[12] = -n[0]
        with pytest.raises(AmbiguousTransportError) as info:
            EdgeGeometry.from_frames(FrameField(fr.mesh, n, fr.e1, fr.e2))
        assert (info.value.p, info.value.q) == (0, 12)


class TestTransportReflection:
    """``from_frames`` reflects q's e1 across the plane orthogonal to
    ``n_q + n_p``; the Rodrigues rotation of the oracle is the reference."""

    def test_every_edge_matches_the_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            regauged, _geom = regauge(fr, rng.uniform(-np.pi, np.pi, mesh.n_vertices))
            for frames in (fr, regauged):
                td = EdgeGeometry.from_frames(frames)
                want = [transport_angle(int(p), int(q), frames)
                        for p, q in zip(mesh.edges.dst, mesh.edges.src)]
                npt.assert_allclose(wrap_angle(td.transport - want), 0.0, atol=1e-12)

    def test_equal_normals_keep_the_first_axis(self):
        # a flat patch: every normal is +z and m . e1q is exactly zero
        mesh = generate_grid_patch(5, 6, 0.0)
        fr, geom = regauge(build_frames(mesh), np.linspace(-3.0, 3.0, mesh.n_vertices))
        assert np.array_equal(fr.normals, np.tile([0.0, 0, 1], (mesh.n_vertices, 1)))
        e1q, p = fr.e1[mesh.edges.src], mesh.edges.dst
        want = np.arctan2(np.einsum("ij,ij->i", e1q, fr.e2[p]),
                          np.einsum("ij,ij->i", e1q, fr.e1[p]))
        assert np.array_equal(geom.transport, want)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 2e-8])
    def test_near_antipodal_normals(self, gap):
        # the rim normals of a fan tilt until 1 + n_q . n_p = gap at its centre;
        # every vertex gets a drawn gauge, and a drawn rotation moves the fan
        # off the axes so that 1 + n_q . n_p carries rounding
        rng = np.random.default_rng(42)
        fan = fan_mesh()
        a, phi = np.arccos(gap - 1.0), rng.uniform(-np.pi, np.pi, 5)
        n = np.stack([np.sin(a) * np.cos(phi), np.sin(a) * np.sin(phi),
                      np.full(5, np.cos(a))], axis=1)
        n[0] = [0, 0, 1]
        e1 = np.cross(n, rng.standard_normal((5, 3)))
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        R = random_rotation(rng)
        n, e1, mesh = n @ R.T, e1 @ R.T, fan.with_vertices(fan.vertices @ R.T)
        fr = FrameField(mesh, n, e1, np.cross(n, e1))
        c = np.einsum("ij,ij->i", n[mesh.edges.src], n[mesh.edges.dst])
        npt.assert_allclose((1.0 + c).min(), gap, rtol=1e-6)
        td = EdgeGeometry.from_frames(fr)
        want = [transport_angle(int(p), int(q), fr)
                for p, q in zip(mesh.edges.dst, mesh.edges.src)]
        npt.assert_allclose(wrap_angle(td.transport - want), 0.0, atol=1e-11)


class TestGaugeShiftLaw:
    def test_shift_law(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            td = EdgeGeometry.from_frames(fr)
            g = rng.uniform(-np.pi, np.pi, mesh.n_vertices)
            _fr2, td2 = regauge(fr, g)
            src, dst = mesh.edges.src, mesh.edges.dst
            npt.assert_allclose(
                wrap_angle(td2.theta - (td.theta - g[dst])), 0.0, atol=1e-9)
            npt.assert_allclose(
                wrap_angle(td2.transport - (td.transport - g[dst] + g[src])),
                0.0, atol=1e-9)

    def test_regauge_identity(self):
        mesh = generate_icosphere(0)
        fr = build_frames(mesh)
        fr2, _td2 = regauge(fr, np.zeros(mesh.n_vertices))
        npt.assert_array_equal(fr2.e1, fr.e1)
        npt.assert_allclose(fr2.e2, fr.e2, atol=1e-16)

    def test_regauge_quarter_turn(self):
        mesh = generate_icosphere(0)
        fr = build_frames(mesh)
        g = np.zeros(mesh.n_vertices)
        g[3] = np.pi / 2
        fr2, _td2 = regauge(fr, g)
        npt.assert_allclose(fr2.e1[3], fr.e2[3], atol=1e-15)
        npt.assert_allclose(fr2.e2[3], -fr.e1[3], atol=1e-15)

    def test_regauged_geometry_binds_to_its_frames(self):
        fr = build_frames(generate_icosphere(0))
        fr2, geom2 = regauge(fr, np.full(fr.mesh.n_vertices, 0.4))
        assert geom2.frames is fr2
        assert EdgeGeometry.from_frames(fr2, geom2) is geom2
        with pytest.raises(FrameBindingError):
            EdgeGeometry.from_frames(fr, geom2)

    @pytest.mark.parametrize("angles", [
        np.zeros(11),  # ended in numpy's broadcasting ValueError
        np.zeros((12, 1)),
        np.r_[np.nan, np.zeros(11)],  # gave NaN frames
        np.r_[np.zeros(11), np.inf],
    ])
    def test_regauge_needs_one_finite_angle_per_vertex(self, angles):
        fr = build_frames(generate_icosphere(0))  # 12 vertices
        match = ("regauge needs 12 finite angles" if angles.shape == (12,)
                 else re.escape("regauge angles must have shape (12,)"))
        with pytest.raises(TransformError, match=match):
            regauge(fr, angles)


class TestEdgeProjection:
    """A frame field projects its mesh's edge offsets once, for the frames,
    the angles and the relative-tangent features alike."""

    def test_regauged_frames_share_the_projection(self):
        fr = build_frames(generate_icosphere(1))
        fr2, _geom2 = regauge(fr, np.full(fr.mesh.n_vertices, 0.3))
        assert fr2._projection is fr._projection
        assert not any(a.flags.writeable for a in fr._projection)

    def test_hand_built_frames_project_on_first_use(self):
        mesh = fan_mesh()
        n = np.tile([0.0, 0, 1], (5, 1))
        fr = FrameField(mesh, n, np.tile([1.0, 0, 0], (5, 1)), np.tile([0.0, 1, 0], (5, 1)))
        assert "_projection" not in vars(fr)
        geom = EdgeGeometry.from_frames(fr)
        assert "_projection" in vars(fr)
        npt.assert_allclose(geom.theta[:mesh.edges.degrees[0]],
                            [0, np.pi / 2, np.pi, -np.pi / 2], atol=1e-15)

    def test_stored_projection_matches_a_fresh_one(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            mesh = random_test_mesh(rng)
            fr = build_frames(mesh)
            regauged, _geom = regauge(fr, rng.uniform(-np.pi, np.pi, mesh.n_vertices))
            for frames in (fr, regauged):
                fresh = FrameField(mesh, frames.normals, frames.e1, frames.e2)
                for a, b in zip(frames._projection, _edge_projection(mesh, frames.normals)):
                    assert np.array_equal(a, b)
                got, want = EdgeGeometry.from_frames(frames), EdgeGeometry.from_frames(fresh)
                assert np.array_equal(got.theta, want.theta)
                assert np.array_equal(got.transport, want.transport)
                assert np.array_equal(reltan_features(frames, (0.5, 0.7)).values,
                                      reltan_features(fresh, (0.5, 0.7)).values)

    def test_undefined_log_map_rejected(self):
        # the neighbor 1 -> 0 lies on the normal at 0 in both frame fields
        verts = [[0, 0, 0], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, 0, 1]]
        mesh = Mesh(verts, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]])
        fr = build_frames(mesh)
        hand = FrameField(mesh, fr.normals, fr.e1, fr.e2)
        for frames in (fr, hand):
            with pytest.raises(UndefinedLogMapError) as info:
                EdgeGeometry.from_frames(frames)
            assert (info.value.p, info.value.q) == (0, 1)

    def test_no_defined_neighbor_rejected(self, monkeypatch):
        # every neighbor of vertex 1 lies along the normal it is given
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
        normals = np.tile([0.0, 0, 1], (3, 1))
        normals[1] = [1, 0, 0]
        monkeypatch.setattr(tangent, "vertex_normals", lambda _mesh: normals)
        with pytest.raises(FrameConstructionError) as info:
            build_frames(mesh)
        assert info.value.vertex == 1


class TestAmbientCompatibility:
    def test_rotation_translation_scaling_leave_angles_fixed(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            mesh = random_test_mesh(rng)
            td = EdgeGeometry.from_frames(build_frames(mesh))
            R = random_rotation(rng)
            lam = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            x = rng.uniform(-10, 10, 3)
            moved = mesh.with_vertices(lam * mesh.vertices @ R.T + x)
            td2 = EdgeGeometry.from_frames(build_frames(moved))
            npt.assert_allclose(wrap_angle(td2.theta - td.theta), 0, atol=1e-9)
            npt.assert_allclose(wrap_angle(td2.transport - td.transport), 0,
                                atol=1e-9)
