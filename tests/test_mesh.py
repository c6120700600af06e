import os
import re
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnet.errors import (
    DegenerateFaceError,
    DegreeError,
    IndexRangeError,
    MeshNetError,
    MeshParseError,
    MeshValidationError,
    NonFiniteVertexError,
    NonManifoldError,
    NonManifoldVertexError,
    OrientationError,
)
from meshnet.harness import mesh_pipeline
from meshnet.mesh import (
    Mesh,
    face_geometry,
    generate_grid_patch,
    generate_icosphere,
    load_mesh,
    save_mesh,
    vertex_normals,
)
from meshnet.transforms import Permutation, apply_permutation, random_rotation

from oracles import random_test_mesh, reference_rings


MINIMAL_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def test_load_minimal_off(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(MINIMAL_OFF)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert mesh.degrees.tolist() == [2, 2, 2]


def test_load_off_index_out_of_range(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
    with pytest.raises(MeshParseError, match="bad.off:6: face index 5 "):
        load_mesh(path)


def test_load_obj_index_out_of_range(tmp_path):
    # the index as written, counted from 1, once every vertex record is read
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n")
    with pytest.raises(MeshParseError, match="bad.obj:4: face index 5 "):
        load_mesh(path)


def test_load_off_bad_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("NOPE\n3 1 0\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


TETRA_VERTICES = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.mark.parametrize("text, line", [
    # a counts line without its edge count
    ("OFF\n4 2\n" + TETRA_VERTICES + "3 0 1 2\n3 0 2 3\n", 2),
    # trailing tokens on the last face
    ("OFF\n4 2 0\n" + TETRA_VERTICES + "3 0 1 2\n3 0 3 1 5 5\n", 8),
    # trailing tokens on an earlier face
    ("OFF\n4 2 0\n" + TETRA_VERTICES + "3 0 1 2 9\n3 0 2 3\n", 7),
], ids=["no_edge_count", "trailing_on_last_face", "trailing_on_earlier_face"])
def test_load_off_malformed_line_named(tmp_path, text, line):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshParseError, match=f"bad.off:{line}:"):
        load_mesh(path)


def test_load_obj_relative_face_indices(tmp_path):
    path = tmp_path / "rel.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf -4 -3 -2\nf 1 -2 -1\n")
    mesh = load_mesh(path)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_load_obj_zero_index_rejected(tmp_path):
    path = tmp_path / "zero.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(MeshParseError, match="zero.obj:4:"):
        load_mesh(path)


@pytest.mark.parametrize("name, data, where", [
    ("coord.obj", b"v 0 0 0\nv 1 0x 0\nv 0 1 0\nf 1 2 3\n", "coord.obj:2:"),
    ("latin1.off", b"OFF\n3 1 0\n0 0 0\n1 0 0 # caf\xe9\n0 1 0\n3 0 1 2\n",
     "latin1.off:4:"),
    # integers beyond int64 convert in Python, then overflow the index array
    ("face.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
     "face.off:6:"),
    ("count.off", b"OFF\n30000000000000000000 1 0\n0 0 0\n", "count.off:2:"),
    # counts that fit int64 but whose sum does not
    ("sum.off", b"OFF\n9223372036854775807 9223372036854775807 0\n0 0 0\n",
     "sum.off: OFF counts on line 2"),
    ("face.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n", "face.obj:4:"),
], ids=["obj_non_numeric_coordinate", "non_utf8_bytes", "off_face_beyond_int64",
        "off_count_beyond_int64", "off_counts_sum_beyond_int64", "obj_face_beyond_int64"])
def test_load_bad_content_named(tmp_path, name, data, where):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(MeshParseError, match=where):
        load_mesh(path)


TETRA_OFF = "OFF\n4 4 0\n" + TETRA_VERTICES + "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
TETRA_OBJ = ("".join(f"v {line}\n" for line in TETRA_VERTICES.splitlines())
             + "f 1 3 2\nf 1 2 4\nf -4 4 -2\nf 2 3 4\n")
BAD_TOKENS = ["x", "nan", "inf", "-1", "99999999999999999999", "1e300"]


@st.composite
def _mutated(draw):
    """A valid tetrahedron file, truncated, with two tokens swapped, or with a
    token replaced."""
    suffix, text = draw(st.sampled_from([(".off", TETRA_OFF), (".obj", TETRA_OBJ)]))
    pieces = re.split(r"(\s+)", text)  # tokens at even positions
    tokens = range(0, len(pieces), 2)
    how = draw(st.sampled_from(["truncate", "swap", "replace"]))
    if how == "truncate":
        return suffix, text[:draw(st.integers(0, len(text) - 1))]
    i = draw(st.sampled_from(tokens))
    if how == "swap":
        j = draw(st.sampled_from(tokens))
        pieces[i], pieces[j] = pieces[j], pieces[i]
    else:
        pieces[i] = draw(st.sampled_from(BAD_TOKENS))
    return suffix, "".join(pieces)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_mutated())
def test_mutated_files_load_or_raise_a_named_error(mutated):
    # a mesh that loads gives finite input features of every family, or a
    # named error
    suffix, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m" + suffix)
        with open(path, "w") as fh:
            fh.write(text)
        try:
            mesh = load_mesh(path)
        except MeshNetError:
            return
    assert np.isfinite(mesh.vertices).all()
    for family in ("reltan", "get", "xyz"):
        try:
            _frames, _geom, field = mesh_pipeline(mesh, family)
        except MeshNetError:
            continue
        assert np.isfinite(field.values).all()


def test_load_missing_file(tmp_path):
    with pytest.raises(MeshParseError, match="absent.off"):
        load_mesh(tmp_path / "absent.off")


def test_save_unknown_format_writes_nothing(tmp_path):
    path = tmp_path / "mesh.ply"
    with pytest.raises(MeshParseError, match="ply"):
        save_mesh(generate_icosphere(0), path)
    assert not path.exists()


def test_icosahedron_off_degrees(tmp_path):
    # every icosahedron vertex touches exactly five edges
    path = tmp_path / "ico.off"
    save_mesh(generate_icosphere(0), path)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 12 and mesh.n_faces == 20
    assert set(mesh.degrees.tolist()) == {5}


def test_obj_roundtrip_ignores_decorations(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(
        "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\n"
        "usemtl none\nf 1/1/1 2/1/1 3/1/1\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_vertices == 3 and mesh.n_faces == 1
    out = tmp_path / "tri2.obj"
    save_mesh(mesh, out)
    again = load_mesh(out)
    npt.assert_array_equal(mesh.faces, again.faces)
    npt.assert_array_equal(mesh.vertices, again.vertices)


def test_off_save_load_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    mesh = random_test_mesh(rng)
    path = tmp_path / "mesh.off"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert np.array_equal(mesh.vertices, again.vertices)
    assert np.array_equal(mesh.faces, again.faces)


class TestValidation:
    def test_degenerate_face(self):
        with pytest.raises(DegenerateFaceError):
            Mesh(np.eye(3), [[0, 1, 1]])

    def test_non_manifold_edge(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
        faces = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]  # edge 0-1 in three faces
        with pytest.raises(NonManifoldError) as info:
            Mesh(verts, faces)
        # three faces on one edge also repeat a direction; the count wins
        assert type(info.value) is NonManifoldError
        assert info.value.edge == (0, 1)
        assert "edge (0, 1) is shared by 3 faces" in str(info.value)

    def test_inconsistent_orientation(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        faces = [[0, 1, 2], [1, 3, 2], [0, 1, 3]]  # 0->1 traversed twice
        with pytest.raises(OrientationError, match=r"directed edge \(0, 1\) "):
            Mesh(verts, faces)

    def test_bowtie_vertex_rejected(self):
        # two triangles that share only vertex 0: two open fans there
        verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]
        with pytest.raises(NonManifoldVertexError) as info:
            Mesh(verts, [[0, 1, 2], [0, 3, 4]])
        assert info.value.vertex == 0

    def test_two_closed_fans_at_a_vertex_rejected(self):
        # two closed tetrahedra glued at vertex 0
        tet = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1],
                 [-1, 0, 0], [0, -1, 0], [-1, -1, -1]]
        faces = np.concatenate([tet, np.where(tet == 0, 0, tet + 3)])
        with pytest.raises(NonManifoldVertexError) as info:
            Mesh(verts, faces)
        assert info.value.vertex == 0

    def test_range_and_degenerate_errors_name_the_face(self):
        verts = np.eye(3)
        with pytest.raises(IndexRangeError, match="face 1 references vertex 3"):
            Mesh(verts, [[0, 1, 2], [0, 3, 2]])
        with pytest.raises(DegenerateFaceError, match="face 1 "):
            Mesh(verts, [[0, 1, 2], [2, 1, 2]])

    def test_non_finite_vertex_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            verts = np.eye(3)
            verts[1, 2] = bad
            with pytest.raises(NonFiniteVertexError) as info:
                Mesh(verts, [[0, 1, 2]])
            assert info.value.vertex == 1
        ico = generate_icosphere(1)
        verts = ico.vertices.copy()
        verts[7, 0] = np.nan
        with pytest.raises(NonFiniteVertexError):
            ico.with_vertices(verts)

    def test_derived_meshes_check_only_new_input(self, monkeypatch):
        mesh = generate_icosphere(1)

        def walk(_self):
            raise AssertionError("faces walked again")

        monkeypatch.setattr(Mesh, "_validate_faces", walk)
        moved = mesh.with_vertices(2.0 * mesh.vertices)
        assert moved.edge_src is mesh.edge_src and moved.faces is mesh.faces
        perm = Permutation(np.random.default_rng(0).permutation(mesh.n_vertices))
        permuted = apply_permutation(mesh, perm)
        npt.assert_array_equal(permuted.vertices, perm.permute_rows(mesh.vertices))
        for p, ring in enumerate(mesh.neighbors):
            npt.assert_array_equal(permuted.neighbors[perm.forward[p]], perm.forward[ring])
        verts = mesh.vertices.copy()
        verts[5, 1] = np.inf
        with pytest.raises(NonFiniteVertexError):
            mesh.with_vertices(verts)
        with pytest.raises(NonFiniteVertexError):
            mesh._derived(verts, perm.forward)  # the relabelling branch
        with pytest.raises(ValueError):
            mesh.with_vertices(mesh.vertices[:-1])
        for size in (mesh.n_vertices - 1, mesh.n_vertices + 1):
            with pytest.raises(MeshValidationError, match=str(size)):
                apply_permutation(mesh, Permutation(np.arange(size)))

    def test_isolated_vertex_rejected(self):
        verts = [[0, 0, 0], [5, 5, 5], [1, 0, 0], [0, 1, 0]]
        with pytest.raises(DegreeError) as info:
            Mesh(verts, [[0, 2, 3]])
        assert info.value.vertex == 1


class TestFaceGeometry:
    def test_axis_aligned_right_triangle(self):
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        fg = face_geometry(mesh)
        npt.assert_allclose(fg.normals[0], [0, 0, 1], atol=1e-15)
        npt.assert_allclose(fg.areas[0], 0.5)

    def test_reversed_winding_flips_normal(self):
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
        fg = face_geometry(mesh)
        npt.assert_allclose(fg.normals[0], [0, 0, -1], atol=1e-15)

    def test_area_scales_quadratically(self):
        mesh = Mesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
        npt.assert_allclose(face_geometry(mesh).areas[0], 2.0)

    def test_zero_area_face(self):
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
        with pytest.raises(DegenerateFaceError):
            face_geometry(mesh)

    def test_overflowing_face(self):
        # finite coordinates whose cross product overflows
        mesh = Mesh([[0, 0, 0], [1e300, 0, 0], [0, 1e300, 0]], [[0, 1, 2]])
        with pytest.raises(DegenerateFaceError, match="face 0 .* area is not finite"):
            face_geometry(mesh)


class TestVertexNormals:
    def test_flat_fan(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        faces = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]]
        normals = vertex_normals(Mesh(verts, faces))
        npt.assert_allclose(normals, np.tile([0, 0, 1.0], (5, 1)), atol=1e-15)

    def test_single_triangle_matches_face_normal(self):
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 0.5, 0.5]], [[0, 1, 2]])
        fg = face_geometry(mesh)
        normals = vertex_normals(mesh, fg)
        for p in range(3):
            npt.assert_allclose(normals[p], fg.normals[0], atol=1e-15)

    def test_cube_corner_against_incidence_oracle(self):
        mesh = _cube()
        fg = face_geometry(mesh)
        normals = vertex_normals(mesh, fg)
        # oracle: accumulate area * normal over the incident faces directly
        for p in [0, 6]:
            acc = np.zeros(3)
            for fi, face in enumerate(mesh.faces):
                if p in face:
                    acc += fg.areas[fi] * fg.normals[fi]
            npt.assert_allclose(normals[p], acc / np.linalg.norm(acc), atol=1e-14)


def _cube():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
             [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    faces = [[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
             [0, 1, 5], [0, 5, 4], [2, 3, 7], [2, 7, 6],
             [0, 4, 7], [0, 7, 3], [1, 2, 6], [1, 6, 5]]
    return Mesh(verts, faces)


class TestGenerators:
    def test_icosphere_counts(self):
        for sub, (v, f) in [(0, (12, 20)), (1, (42, 80)), (2, (162, 320))]:
            mesh = generate_icosphere(sub)
            assert (mesh.n_vertices, mesh.n_faces) == (v, f)

    def test_icosphere_on_unit_sphere(self):
        mesh = generate_icosphere(2)
        npt.assert_allclose(np.linalg.norm(mesh.vertices, axis=1), 1.0, atol=1e-12)

    def test_grid_patch_minimal(self):
        mesh = generate_grid_patch(2, 2, 0.0, 0)
        assert mesh.n_vertices == 4 and mesh.n_faces == 2
        npt.assert_allclose(mesh.vertices[:, 2], 0.0)

    def test_grid_patch_deterministic(self):
        a = generate_grid_patch(4, 5, 0.3, 7)
        b = generate_grid_patch(4, 5, 0.3, 7)
        npt.assert_array_equal(a.vertices, b.vertices)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_icosphere(-1)
        with pytest.raises(ValueError):
            generate_grid_patch(1, 5)


class TestInvariants:
    def test_total_area_rigid_invariance(self):
        rng = np.random.default_rng(11)
        mesh = random_test_mesh(rng)
        total = face_geometry(mesh).areas.sum()
        R = random_rotation(rng)
        moved = mesh.with_vertices(mesh.vertices @ R.T + rng.uniform(-5, 5, 3))
        npt.assert_allclose(face_geometry(moved).areas.sum(), total, rtol=1e-10)

    def test_normals_rotate_with_mesh(self):
        rng = np.random.default_rng(12)
        mesh = random_test_mesh(rng)
        R = random_rotation(rng)
        rotated = mesh.with_vertices(mesh.vertices @ R.T)
        npt.assert_allclose(
            vertex_normals(rotated), vertex_normals(mesh) @ R.T, atol=1e-12
        )

    def test_rings_do_not_depend_on_face_order(self):
        rng = np.random.default_rng(3)
        for mesh in (generate_icosphere(2), generate_grid_patch(4, 5, 0.2, 1)):
            shuffled = Mesh(mesh.vertices, _shuffled_faces(mesh.faces, rng))
            for a, b in zip(mesh.neighbors, shuffled.neighbors):
                npt.assert_array_equal(a, b)

    def test_neighbor_rings_are_cyclic_fans(self):
        mesh = generate_icosphere(1)
        # consecutive ring entries must share a face with the center
        face_set = {frozenset(f) for f in mesh.faces.tolist()}
        for p in range(mesh.n_vertices):
            ring = mesh.neighbors[p].tolist()
            for a, b in zip(ring, ring[1:] + ring[:1]):
                assert frozenset((p, a, b)) in face_set


def _shuffled_faces(faces, rng):
    """The faces in random order, each rolled, which keeps its orientation."""
    return np.take_along_axis(
        faces[rng.permutation(len(faces))],
        (np.arange(3) + rng.integers(0, 3, (len(faces), 1))) % 3, axis=1)


def _relabelled_faces(faces, rng):
    return rng.permutation(np.max(faces) + 1)[faces]


_TET = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
_BOWTIE = np.array([[0, 1, 2], [0, 3, 4]])

# Faces that each put two or more fans at some vertex
NON_MANIFOLD_VERTICES = {
    "bowtie": _BOWTIE,
    "two_closed_fans": np.concatenate([_TET, np.where(_TET == 0, 0, _TET + 3)]),
    "closed_and_open_fan": np.concatenate([_TET, [[0, 4, 5]]]),
    "two_bowties": np.concatenate([_BOWTIE, _BOWTIE + 5]),
    "bowtie_strip": np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 0]]),
}


class TestRings:
    """The array ring construction against the dict walk in ``oracles``."""

    def test_rings_match_reference_walk(self):
        rng = np.random.default_rng(21)
        meshes = [generate_icosphere(k) for k in range(5)]
        meshes += [generate_grid_patch(2, 2), generate_grid_patch(4, 5, 0.2, 1),
                   generate_grid_patch(7, 3)]
        meshes += [random_test_mesh(rng, 2) for _ in range(6)]
        for mesh in meshes + [Mesh(m.vertices, _shuffled_faces(m.faces, rng))
                              for m in meshes]:
            rings = reference_rings(mesh.faces, mesh.n_vertices)
            assert len(mesh.neighbors) == len(rings)
            for got, want in zip(mesh.neighbors, rings):
                assert np.array_equal(got, want)
            assert np.array_equal(mesh.degrees, [len(r) for r in rings])
            assert np.array_equal(mesh.edge_src, np.concatenate(rings))

    @pytest.mark.parametrize("name", sorted(NON_MANIFOLD_VERTICES))
    def test_non_manifold_vertex_named_as_reference(self, name):
        rng = np.random.default_rng(22)
        faces = NON_MANIFOLD_VERTICES[name]
        for k in range(8):
            if k:
                faces = _shuffled_faces(_relabelled_faces(faces, rng), rng)
            verts = rng.standard_normal((np.max(faces) + 1, 3))
            with pytest.raises(NonManifoldVertexError) as want:
                reference_rings(faces, len(verts))
            with pytest.raises(NonManifoldVertexError) as got:
                Mesh(verts, faces)
            assert got.value.vertex == want.value.vertex

    def test_relabelled_rings_follow_the_relabelling(self):
        rng = np.random.default_rng(23)
        for mesh in (generate_icosphere(2), generate_grid_patch(4, 6, 0.2, 3),
                     random_test_mesh(rng)):
            perm = Permutation(rng.permutation(mesh.n_vertices))
            permuted = apply_permutation(mesh, perm)
            for p, ring in enumerate(mesh.neighbors):
                assert np.array_equal(permuted.neighbors[perm.forward[p]],
                                      perm.forward[ring])
            assert np.array_equal(permuted.degrees, perm.permute_rows(mesh.degrees))
            assert np.array_equal(permuted.edge_src, np.concatenate(permuted.neighbors))
            assert np.array_equal(permuted.edge_dst,
                                  np.repeat(np.arange(mesh.n_vertices), permuted.degrees))
