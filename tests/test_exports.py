"""Every exported name exists, so a deletion cannot leave a dangling export."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshnet
from meshnet import datasets, features, harness
from meshnet.autodiff import Adam, Tensor
from meshnet.errors import UndefinedLogMapError

MODULES = sorted(m.name for m in pkgutil.iter_modules(meshnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"meshnet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_exist():
    tree = ast.parse(Path(meshnet.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"meshnet.{node.module}")
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, node.module


RETIRED = ("EquivariantKernel", "assemble_kernel", "constraint_residual",
           "kernel_basis", "BasisElement", "coefficient_count")


@pytest.mark.parametrize("module", ["meshnet", "meshnet.representations"])
def test_harmonic_basis_names_are_retired(module):
    # neighbor kernels are learned as K(0); the harmonic basis is a test oracle
    module = importlib.import_module(module)
    assert not [n for n in RETIRED if hasattr(module, n)]


# references that moved to tests/oracles.py, and names that nothing called,
# by the module that held them
MOVED_OR_DELETED = {
    "meshnet.tangent": ("wrap_angle", "tangent_projector", "log_map", "theta_angle",
                        "transport_angle"),
    "meshnet.representations": ("rho_matrix", "rep_block_diag"),
    "meshnet.features": ("reltan_scaling_statistics",),
    "meshnet.mesh": ("FaceGeometry",),
    "meshnet.autodiff": ("take_pairs",),
    # every harness pass is mesh_pipeline then one list forward
    "meshnet.harness": ("model_logits",),
}


@pytest.mark.parametrize("module", sorted(MOVED_OR_DELETED))
def test_moved_and_deleted_names_are_retired(module):
    names = MOVED_OR_DELETED[module]
    for owner in (importlib.import_module(module), meshnet):
        assert not [n for n in names if hasattr(owner, n)], owner.__name__


def test_deleted_members_and_parameters_stay_deleted():
    mesh = meshnet.generate_icosphere(0)
    geom = meshnet.EdgeGeometry.from_frames(meshnet.build_frames(mesh))
    model = meshnet.build_model(meshnet.ModelSpec(hidden_type="rho0", final_type="rho0",
                                                  residual_blocks=0))
    field = meshnet.compute_features("reltan", mesh, meshnet.build_frames(mesh))
    deleted = [
        # connectivity has one owner, ``Edges``: mesh.edges and geom.edges
        (mesh, ("neighbors", "edge_slice", "edge_src", "edge_dst", "degrees",
                "edge_offsets")),
        (geom, ("src", "dst", "n_vertices", "degrees", "src_plan", "dst_plan", "self_plan")),
        # checkpoints are named .npz records, read and written by the harness alone
        (model, ("flat_parameters", "load_flat_parameters")),
        (field, ("n_vertices",)),
    ]
    for owner, names in deleted:
        assert not [n for n in names if hasattr(owner, n)], type(owner).__name__
    assert list(inspect.signature(meshnet.vertex_normals).parameters) == ["mesh"]
    # Adam's constants are fixed, not keywords
    assert list(inspect.signature(Adam).parameters) == ["params", "lr"]
    q = inspect.signature(UndefinedLogMapError).parameters["q"]
    assert q.default is inspect.Parameter.empty
    # a public call takes only what its caller sets: evaluate reads the
    # checkpoint train wrote, a load checks the hash, the extension names the
    # format, and the generators take [data]'s values
    required = {
        harness.train: ["cfg"],
        harness.evaluate: ["cfg", "checkpoint"],
        harness.load_checkpoint: ["model", "path", "expect_hash"],
        meshnet.load_mesh: ["path"],
        meshnet.save_mesh: ["mesh", "path"],
        datasets.classification_shapes: ["n_train", "n_test", "subdivisions",
                                         "bump_amplitude", "noise", "seed"],
        datasets.eqgap_meshes: ["n", "seed", "subdivisions"],
    }
    for fn, names in required.items():
        params = inspect.signature(fn).parameters
        assert list(params) == names, fn.__name__
        assert all(p.default is p.empty for p in params.values()), fn.__name__
    # a FrameField is the one handle on its mesh: what reads the mesh takes the
    # frames alone, and compute_features keeps its mesh only to refuse a mismatch
    frames_only = {
        features.reltan_vectors: ["frames", "power"],
        features.reltan_features: ["frames", "powers"],
        features.get_features: ["frames"],
        features.xyz_features: ["frames"],
        features.compute_features: ["family", "mesh", "frames", "powers"],
        harness.mesh_pipeline: ["spec", "frames", "geom"],
        harness.transformed_logits: ["model", "prepared", "family", "suites"],
    }
    for fn, names in frames_only.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
    # segmentation_spheres keeps the defaults the benchmark omits, [data]'s and [run]'s
    cfg = meshnet.default_config()
    params = inspect.signature(datasets.segmentation_spheres).parameters
    assert {k: p.default for k, p in params.items() if p.default is not p.empty} == {
        "bump_amplitude": cfg.data["bump_amplitude"], "noise": cfg.data["noise"],
        "seed": cfg.run["seed"]}
    # a layer draws its parameters from the caller's generator, never an unseeded one
    t = meshnet.FeatureType([0, 1])
    for layer in (meshnet.GemConvLayer, meshnet.EmanAttentionLayer):
        with pytest.raises(TypeError, match="rng"):
            layer(t, t)
    # the tape keeps the ops the model records: the Tensor on the left, no powers,
    # .T for the one transpose, and reshape by separate sizes
    assert not [n for n in ("__radd__", "__rmul__", "__rsub__", "__rtruediv__", "__pow__",
                            "transpose") if hasattr(Tensor, n)]
    # a feature type is built from its orders: no sums or multiples of types
    assert not [n for n in ("__add__", "__mul__", "__rmul__")
                if hasattr(meshnet.FeatureType, n)]
    with pytest.raises(TypeError):
        2 * meshnet.FeatureType([0])
    x = Tensor(np.ones(3))
    for left in (np.ones(3), 2.0):
        with pytest.raises(TypeError):
            left + x
        with pytest.raises(TypeError):
            left * x
    # the model divides and multiplies matrices between Tensors only
    t = Tensor(np.ones((4, 3)))
    with pytest.raises(TypeError):
        t / 2.0
    with pytest.raises(TypeError):
        t @ np.ones((3, 2))
    with pytest.raises(TypeError):
        x.reshape((3, 1))


def test_package_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(meshnet.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import meshnet, meshnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["[]"]
