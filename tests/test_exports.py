"""Every exported name exists, so a deletion cannot leave a dangling export."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import meshnet
from meshnet.autodiff import Adam
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


def test_package_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(meshnet.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import meshnet, meshnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["[]"]
