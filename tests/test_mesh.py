import os
import re
import tempfile
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnet import mesh as mesh_module
from meshnet.errors import (
    DegenerateFaceError,
    DegreeError,
    FeatureTypeError,
    FrameBindingError,
    IndexRangeError,
    MeshNetError,
    MeshParseError,
    MeshValidationError,
    NonFiniteVertexError,
    NonManifoldError,
    NonManifoldVertexError,
    OrientationError,
    TransformError,
)
from meshnet.features import GeometricFeatureField
from meshnet.harness import mesh_pipeline
from meshnet.mesh import (
    Edges,
    Mesh,
    face_geometry,
    generate_grid_patch,
    generate_icosphere,
    load_mesh,
    save_mesh,
    vertex_normals,
)
from meshnet.model import ModelSpec
from meshnet.representations import FeatureType
from meshnet.tangent import EdgeGeometry, FrameField, build_frames, regauge
from meshnet.transforms import (
    AmbientTransform,
    Permutation,
    apply_permutation,
    random_rotation,
    random_transform_suite,
)

from oracles import (
    neighbor_rings,
    random_test_mesh,
    reference_grid_faces,
    reference_parse_off,
    reference_rings,
    reference_subdivide,
)


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
    assert mesh.edges.degrees.tolist() == [2, 2, 2]


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


TETRA_FACES = "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
TETRA_OFF = "OFF\n4 4 0\n" + TETRA_VERTICES + TETRA_FACES
TETRA_OBJ = ("".join(f"v {line}\n" for line in TETRA_VERTICES.splitlines())
             + "f 1 3 2\nf 1 2 4\nf -4 4 -2\nf 2 3 4\n")
BAD_TOKENS = ["x", "nan", "inf", "-1", "99999999999999999999", "1e300"]


@st.composite
def _mutated(draw, files=((".off", TETRA_OFF), (".obj", TETRA_OBJ))):
    """A valid tetrahedron file, truncated, with two tokens swapped, or with a
    token replaced."""
    suffix, text = draw(st.sampled_from(files))
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
            _geom, field = mesh_pipeline(ModelSpec(features=family), build_frames(mesh))
        except MeshNetError:
            continue
        assert np.isfinite(field.values).all()


def _outcome(read, path):
    """The bytes of the arrays ``read(path)`` returns (a mesh's vertices and
    faces), or the class and message of the meshnet error it raises."""
    try:
        out = read(path)
    except MeshNetError as exc:
        return type(exc), str(exc)
    arrays = (out.vertices, out.faces) if isinstance(out, Mesh) else out
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _assert_off_reads_as_reference(path):
    """The OFF reader, and ``load_mesh`` built on it, agree bit for bit with
    the token-by-token reference, or raise its error with its message."""
    assert _outcome(mesh_module._parse_off, path) == _outcome(reference_parse_off, path)
    expected = _outcome(lambda p: Mesh(*reference_parse_off(p)), path)
    assert _outcome(load_mesh, path) == expected
    return expected


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_mutated(files=[(".off", TETRA_OFF)]))
def test_mutated_off_reads_as_token_reference(mutated):
    _suffix, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.off")
        with open(path, "w") as fh:
            fh.write(text)
        _assert_off_reads_as_reference(path)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+3", "1e400", "-0", "nan", "2.5"])
def test_off_token_reads_as_reference_everywhere(tmp_path, token):
    # Python's float and int take 1_0 and the Arabic-Indic 3, loadtxt does not
    pieces = re.split(r"(\s+)", TETRA_OFF)  # tokens at even positions
    for i in range(0, len(pieces), 2):
        path = tmp_path / f"t{i}.off"
        path.write_bytes("".join(pieces[:i] + [token] + pieces[i + 1:]).encode("utf-8"))
        _assert_off_reads_as_reference(path)


def _each_line(block, suffix):
    return "".join(line + suffix + "\n" for line in block.splitlines())


@pytest.mark.parametrize("text, error", [
    ("OFF\n4 4 0\n" + _each_line(TETRA_VERTICES, " 0") + TETRA_FACES,
     "m.off:3: expected an OFF line 'x y z', got '0 0 0 0'"),
    ("OFF\n4 4 0\n" + TETRA_VERTICES + _each_line(TETRA_FACES, " 1"),
     "m.off:7: expected an OFF line '3 a b c', got '3 0 2 1 1'"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2.5\n",
     "m.off:6: expected an OFF line '3 a b c', got '3 0 1 2.5'"),
    (TETRA_OFF.replace("\n", "\r\n"), None),
    (TETRA_OFF.replace(" ", "\t"), None),
    (_each_line(TETRA_OFF, " # note"), None),
    (TETRA_OFF.replace("OFF\n", "OFF "), None),
], ids=["four_token_vertex_lines", "five_token_face_lines", "float_face_index",
        "crlf", "tabs", "trailing_comments", "counts_on_the_keyword_line"])
def test_off_lines_read_as_reference(tmp_path, text, error):
    path = tmp_path / "m.off"
    path.write_bytes(text.encode("utf-8"))
    outcome = _assert_off_reads_as_reference(path)
    if error is None:
        plain = tmp_path / "plain.off"
        plain.write_text(TETRA_OFF)
        assert outcome == _outcome(load_mesh, plain)
    else:
        assert outcome[0] is MeshParseError and outcome[1].endswith(error)


@pytest.mark.parametrize("text", ["OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "OFF\n0 0 0\n"],
                         ids=["no_faces", "no_vertices"])
def test_off_empty_blocks_read_without_warnings(tmp_path, text):
    path = tmp_path / "m.off"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_off_reads_as_reference(path)
        vertices, faces = mesh_module._parse_off(path)
    assert faces.shape == (0, 3) and vertices.shape == (text.count("\n") - 2, 3)


def test_load_off_without_vertices_rejected(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("OFF\n0 0 0\n")
    with pytest.raises(MeshValidationError, match="at least one vertex"):
        load_mesh(path)


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
    assert set(mesh.edges.degrees.tolist()) == {5}


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
        assert moved.edges is mesh.edges and moved.faces is mesh.faces
        perm = Permutation(np.random.default_rng(0).permutation(mesh.n_vertices))
        permuted = apply_permutation(mesh, perm)
        npt.assert_array_equal(permuted.vertices, perm.permute_rows(mesh.vertices))
        permuted_rings = neighbor_rings(permuted)
        for p, ring in enumerate(neighbor_rings(mesh)):
            npt.assert_array_equal(permuted_rings[perm.forward[p]], perm.forward[ring])
        verts = mesh.vertices.copy()
        verts[5, 1] = np.inf
        with pytest.raises(NonFiniteVertexError):
            mesh.with_vertices(verts)
        with pytest.raises(NonFiniteVertexError):
            mesh._derived(verts, perm.forward)  # the relabelling branch
        with pytest.raises(MeshValidationError, match=re.escape(f"shape ({mesh.n_vertices}, 3)")):
            mesh.with_vertices(mesh.vertices[:-1])
        for size in (mesh.n_vertices - 1, mesh.n_vertices + 1):
            with pytest.raises(MeshValidationError, match=str(size)):
                apply_permutation(mesh, Permutation(np.arange(size)))

    def test_isolated_vertex_rejected(self):
        verts = [[0, 0, 0], [5, 5, 5], [1, 0, 0], [0, 1, 0]]
        with pytest.raises(DegreeError) as info:
            Mesh(verts, [[0, 2, 3]])
        assert info.value.vertex == 1

    @pytest.mark.parametrize("verts, faces, what", [
        (np.zeros((3, 2)), [[0, 1, 2]], "vertex array"),
        (np.eye(3), [[0, 1, 2, 0]], "face array"),
        (np.eye(3), [0, 1, 2], "face array"),
    ])
    def test_array_shapes_rejected(self, verts, faces, what):
        with pytest.raises(MeshValidationError, match=f"{what} must have shape"):
            Mesh(verts, faces)

    @pytest.mark.parametrize("make, match", [
        (lambda: AmbientTransform(rotation=2.0 * np.eye(3)), "orthogonal"),
        (lambda: AmbientTransform(rotation=np.eye(2)), "orthogonal"),
        (lambda: AmbientTransform(rotation=np.diag([1.0, 1.0, -1.0])), "determinant"),
        (lambda: AmbientTransform(scale=0.0), "positive"),
        (lambda: AmbientTransform(scale=np.nan), "positive"),
        # each of these was accepted, to fail later as non-finite vertices or a bare
        # broadcasting ValueError
        (lambda: AmbientTransform(rotation=np.diag([np.nan, 1.0, 1.0])), "finite"),
        (lambda: AmbientTransform(rotation=np.full((3, 3), np.nan)), "finite"),
        (lambda: AmbientTransform(translation=np.zeros(2)), "translation must have shape"),
        (lambda: AmbientTransform(translation=[0.0, np.nan, 0.0]), "translation must be 3"),
        (lambda: AmbientTransform(translation=[np.inf, 0.0, 0.0]), "translation must be 3"),
        (lambda: AmbientTransform(scale=np.inf), "finite"),
        (lambda: Permutation(np.array([0, 0, 2])), "not a permutation"),
        (lambda: Permutation(np.array([1, 2, 3])), "not a permutation"),
    ])
    def test_transform_outside_its_group_rejected(self, make, match):
        with pytest.raises(TransformError, match=match):
            make()

    def test_transforms_keep_read_only_copies(self):
        # each transform checks its arrays once: a later write to the caller's
        # array left a stale inverse, or a singular rotation after the check
        f, R, x = np.arange(5), random_rotation(np.random.default_rng(0)), np.ones(3)
        perm, ambient = Permutation(f), AmbientTransform(rotation=R, translation=x)
        f[[0, 1]] = f[[1, 0]]
        R[0], x[0] = 0.0, np.nan
        npt.assert_array_equal(perm.unpermute_rows(perm.permute_rows(np.arange(5))),
                               np.arange(5))
        npt.assert_allclose(ambient.rotation @ ambient.rotation.T, np.eye(3), atol=1e-12)
        assert np.isfinite(ambient.translation).all()
        for a in (perm.forward, perm.inverse, ambient.rotation, ambient.translation):
            assert not a.flags.writeable

    @pytest.mark.parametrize("make, error, match", [
        # float indices were truncated: faces + 0.9 built the mesh of the faces
        (lambda: Mesh(np.eye(3), [[0.9, 1.9, 2.9]]), MeshValidationError,
         "face array must hold integers, got float64"),
        (lambda: Edges([0.5, 1.5], [1, 0], 2), MeshValidationError, "edge src must hold integers"),
        (lambda: Edges([1, 0], [0.0, 1.0], 2), MeshValidationError, "edge dst must hold integers"),
        (lambda: Permutation(np.arange(12) + 0.5), TransformError,
         "permutation must hold integers"),
        (lambda: Permutation([True, False]), TransformError,
         "permutation must hold integers, got bool"),
        # these ended in a bare IndexError or ValueError
        (lambda: Permutation(np.array([[0, 1]])), TransformError,
         re.escape("permutation must have shape (any,), got (1, 2)")),
        (lambda: Mesh(np.eye(3), [[0, 1, 2], [0, 1]]), MeshValidationError,
         "face array must be a rectangular array"),
        (lambda: Mesh([["x", "y", "z"]] * 3, [[0, 1, 2]]), MeshValidationError,
         "vertex array must hold reals"),
        (lambda: EdgeGeometry(Edges([1, 0], [0, 1], 2), [[0.3], [1.2, 0.1]], [0.1, 0.4]),
         MeshValidationError, "theta must be a rectangular array"),
        (lambda: FrameField(generate_icosphere(0), *[np.full((12, 3), "x")] * 3), FrameBindingError,
         "normals must hold reals"),
        (lambda: regauge(build_frames(generate_icosphere(0)), ["x"] * 12), TransformError,
         "regauge angles must hold reals"),
        (lambda: GeometricFeatureField(FeatureType([0]), [[0.0], [1.0, 2.0]], None),
         FeatureTypeError, "feature array of type rho0 must be a rectangular array"),
        (lambda: AmbientTransform(rotation=np.full((3, 3), "x")), TransformError,
         "rotation must hold reals"),
        (lambda: AmbientTransform(translation=[0.0, [1.0], 2.0]), TransformError,
         "translation must be a rectangular array"),
        # a caller's number is an array of shape (), read by the same helper.  The
        # float and string vertex counts were kept as 2, the bool as 1
        (lambda: Edges([1, 0], [0, 1], 2.7), MeshValidationError,
         "vertex count must hold integers, got float64"),
        (lambda: Edges([1, 0], [0, 1], "2"), MeshValidationError,
         "vertex count must hold integers, got <U1"),
        (lambda: Edges([1, 0], [0, 1], True), MeshValidationError,
         "vertex count must hold integers, got bool"),
        # ended in a bare ValueError from np.bincount
        (lambda: Edges(np.zeros(0, int), np.zeros(0, int), -1), MeshValidationError,
         "vertex count must be >= 0, got -1"),
        # the string and the list ended in a bare TypeError; the bool was kept as the scale
        (lambda: AmbientTransform(scale="2"), TransformError, "scale must hold reals, got <U1"),
        (lambda: AmbientTransform(scale=[2.0]), TransformError,
         re.escape("scale must have shape (), got (1,)")),
        (lambda: AmbientTransform(scale=True), TransformError, "scale must hold reals, got bool"),
        # built rho0+rho1, rho1 and rho1
        (lambda: FeatureType([0.5, 1.7]), FeatureTypeError,
         "irrep orders must hold integers, got float64"),
        (lambda: FeatureType(["1"]), FeatureTypeError, "irrep orders must hold integers, got <U1"),
        (lambda: FeatureType([True]), FeatureTypeError, "irrep orders must hold integers, got bool"),
        # a bare TypeError twice, then ico1
        (lambda: generate_icosphere(2.5), MeshValidationError,
         "subdivisions must hold integers, got float64"),
        (lambda: generate_icosphere("1"), MeshValidationError,
         "subdivisions must hold integers, got <U1"),
        (lambda: generate_icosphere(True), MeshValidationError,
         "subdivisions must hold integers, got bool"),
        # a bare TypeError
        (lambda: generate_grid_patch(3.5, 3), MeshValidationError,
         "grid size must hold integers, got float64"),
    ], ids=["float_faces", "float_edge_src", "float_edge_dst", "float_permutation",
            "bool_permutation", "two_dimensional_permutation", "ragged_faces", "string_vertices",
            "ragged_theta", "string_frames", "string_gauge_angles", "ragged_features",
            "string_rotation", "ragged_translation",
            "float_edge_count", "string_edge_count", "bool_edge_count", "negative_edge_count",
            "string_scale", "list_scale", "bool_scale", "float_orders", "string_orders",
            "bool_orders", "float_subdivisions", "string_subdivisions", "bool_subdivisions",
            "float_grid_size"])
    def test_arrays_of_the_wrong_kind_rejected(self, make, error, match):
        # every constructor that keeps a caller's array or number refuses these alike,
        # by its own named error
        with pytest.raises(error, match=match):
            make()

    def test_numbers_of_the_right_kind_read_as_python_scalars(self):
        edges = Edges([1, 0], [0, 1], np.int64(2))
        assert type(edges.n_vertices) is int and edges.n_vertices == 2
        for scale in (2, np.int64(2), np.float64(2.0)):
            t = AmbientTransform(scale=scale)
            assert type(t.scale) is float and t.scale == 2.0
        t = FeatureType(np.array([1, 0], dtype=np.int32))
        assert t == FeatureType([0, 1]) and all(type(n) is int for n in t.orders)
        assert generate_icosphere(np.int64(1)).vertices.tobytes() == \
            generate_icosphere(1).vertices.tobytes()
        assert generate_grid_patch(np.int64(3), np.uint8(4)).faces.tobytes() == \
            generate_grid_patch(3, 4).faces.tobytes()

    @pytest.mark.parametrize("make, match", [
        (lambda: generate_icosphere(np.uint64(2**64 - 1)),
         "subdivisions must fit in int64, got 18446744073709551615"),
        (lambda: Edges([0], [0], np.uint64(2**63)),
         "vertex count must fit in int64, got 9223372036854775808"),
        (lambda: Edges(np.array([0, 2**64 - 1], dtype=np.uint64), [0, 0], 3),
         "edge src must fit in int64, got 18446744073709551615"),
        (lambda: generate_grid_patch(3, np.uint64(2**64 - 2)),
         "grid size must fit in int64, got 18446744073709551614"),
    ], ids=["subdivisions", "edge_count", "edge_src", "grid_size"])
    def test_unsigned_numbers_too_large_for_int64_rejected(self, make, match):
        # cast unchecked, they wrapped to -1, -2**63 and -2: values the caller never passed
        with pytest.raises(MeshValidationError, match=re.escape(match)):
            make()

    @pytest.mark.parametrize("numbers, match", [
        # a bare TypeError from rng.uniform
        ({"n_vertices": 2.5}, "vertex count must hold integers, got float64"),
        ({"n_vertices": -1}, "got -1, 1.0, 0.5 and 2.0"),
        # a RuntimeWarning from log, then a bare OverflowError
        ({"scale_min": -1}, "got 4, 1.0, -1.0 and 2.0"),
        ({"scale_min": 3.0}, "0 < scale_min <= scale_max < inf"),
        ({"scale_max": np.inf}, "0 < scale_min <= scale_max < inf"),
        ({"scale_max": "2"}, "scale_max must hold reals"),
        # a bare OverflowError
        ({"translation_range": np.nan}, "0 <= 2 translation_range < inf"),
        ({"translation_range": 1e308}, "0 <= 2 translation_range < inf"),
        ({"translation_range": -1.0}, "0 <= 2 translation_range < inf"),
    ], ids=["float_vertex_count", "negative_vertex_count", "negative_scale_min",
            "reversed_scales", "infinite_scale_max", "string_scale_max", "nan_translation_range",
            "overflowing_translation_range", "negative_translation_range"])
    def test_transform_suite_numbers_checked(self, numbers, match):
        kwargs = {"n_vertices": 4, "translation_range": 1.0, "scale_min": 0.5, "scale_max": 2.0}
        with pytest.raises(TransformError, match=re.escape(match)):
            random_transform_suite(rng=np.random.default_rng(0), **{**kwargs, **numbers})

    def test_mesh_without_vertices_rejected(self):
        no_faces = np.zeros((0, 3), dtype=np.int64)
        with pytest.raises(MeshValidationError, match="at least one vertex") as info:
            Mesh(np.zeros((0, 3)), no_faces)
        assert not isinstance(info.value, DegreeError)
        # vertices without faces are isolated: each has degree 0
        with pytest.raises(DegreeError):
            Mesh(np.eye(3), no_faces)


class TestFaceGeometry:
    def test_axis_aligned_right_triangle(self):
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        normals, areas = face_geometry(mesh)
        npt.assert_allclose(normals[0], [0, 0, 1], atol=1e-15)
        npt.assert_allclose(areas[0], 0.5)
        assert not (normals.flags.writeable or areas.flags.writeable)

    def test_reversed_winding_flips_normal(self):
        mesh = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
        npt.assert_allclose(face_geometry(mesh)[0][0], [0, 0, -1], atol=1e-15)

    def test_area_scales_quadratically(self):
        mesh = Mesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
        npt.assert_allclose(face_geometry(mesh)[1][0], 2.0)

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
        normals = vertex_normals(mesh)
        for p in range(3):
            npt.assert_allclose(normals[p], face_geometry(mesh)[0][0], atol=1e-15)

    def test_cube_corner_against_incidence_oracle(self):
        mesh = _cube()
        face_normals, areas = face_geometry(mesh)
        normals = vertex_normals(mesh)
        # oracle: accumulate area * normal over the incident faces directly
        for p in [0, 6]:
            acc = np.zeros(3)
            for fi, face in enumerate(mesh.faces):
                if p in face:
                    acc += areas[fi] * face_normals[fi]
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

    def test_generators_match_the_loop_references(self):
        rng = np.random.default_rng(24)
        for mesh in [generate_icosphere(k) for k in range(4)] + [generate_grid_patch(4, 6)]:
            for faces in (mesh.faces, _shuffled_faces(mesh.faces, rng)):
                got = mesh_module._subdivide_midpoint(mesh.vertices, faces)
                want = reference_subdivide(mesh.vertices, faces)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        for rows, cols in [(2, 2), (2, 5), (6, 3), (7, 7)]:
            npt.assert_array_equal(generate_grid_patch(rows, cols).faces,
                                   reference_grid_faces(rows, cols))

    def test_parameter_validation(self):
        with pytest.raises(MeshValidationError, match="subdivisions"):
            generate_icosphere(-1)
        with pytest.raises(MeshValidationError, match="rows and cols"):
            generate_grid_patch(1, 5)


class TestInvariants:
    def test_total_area_rigid_invariance(self):
        rng = np.random.default_rng(11)
        mesh = random_test_mesh(rng)
        total = face_geometry(mesh)[1].sum()
        R = random_rotation(rng)
        moved = mesh.with_vertices(mesh.vertices @ R.T + rng.uniform(-5, 5, 3))
        npt.assert_allclose(face_geometry(moved)[1].sum(), total, rtol=1e-10)

    def test_normals_rotate_with_mesh(self):
        rng = np.random.default_rng(12)
        mesh = random_test_mesh(rng)
        R = random_rotation(rng)
        rotated = mesh.with_vertices(mesh.vertices @ R.T)
        npt.assert_allclose(
            vertex_normals(rotated), vertex_normals(mesh) @ R.T, atol=1e-12
        )

    def test_mesh_keeps_read_only_copies_of_its_arrays(self):
        # the caller's arrays stay its own: writable, unshared, in any order
        ico = generate_icosphere(1)
        v, f, v2 = np.asfortranarray(ico.vertices), np.array(ico.faces), ico.vertices * 2.0
        mesh = Mesh(v, f)
        moved = mesh.with_vertices(v2)
        for given, kept in ((v, mesh.vertices), (f, mesh.faces), (v2, moved.vertices)):
            assert given.flags.writeable and not kept.flags.writeable
            assert kept.flags.c_contiguous and not np.shares_memory(given, kept)
            npt.assert_array_equal(kept, given)

    def test_rings_do_not_depend_on_face_order(self):
        rng = np.random.default_rng(3)
        for mesh in (generate_icosphere(2), generate_grid_patch(4, 5, 0.2, 1)):
            shuffled = Mesh(mesh.vertices, _shuffled_faces(mesh.faces, rng))
            for a, b in zip(neighbor_rings(mesh), neighbor_rings(shuffled)):
                npt.assert_array_equal(a, b)

    def test_neighbor_rings_are_cyclic_fans(self):
        mesh = generate_icosphere(1)
        # consecutive ring entries must share a face with the center
        face_set = {frozenset(f) for f in mesh.faces.tolist()}
        for p, ring in enumerate(neighbor_rings(mesh)):
            ring = ring.tolist()
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
            got_rings = neighbor_rings(mesh)
            assert len(got_rings) == len(rings)
            for got, want in zip(got_rings, rings):
                assert np.array_equal(got, want)
            assert np.array_equal(mesh.edges.degrees, [len(r) for r in rings])
            assert np.array_equal(mesh.edges.src, np.concatenate(rings))

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
            permuted_rings = neighbor_rings(permuted)
            for p, ring in enumerate(neighbor_rings(mesh)):
                assert np.array_equal(permuted_rings[perm.forward[p]], perm.forward[ring])
            assert np.array_equal(permuted.edges.degrees, perm.permute_rows(mesh.edges.degrees))
            assert np.array_equal(permuted.edges.dst,
                                  np.repeat(np.arange(mesh.n_vertices), permuted.edges.degrees))
