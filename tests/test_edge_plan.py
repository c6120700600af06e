"""The edge plan of an ``EdgeGeometry``: scatter plans and phase tables.

Plan scatters must equal ``np.add.at`` bit for bit on any index, the plan
must be built lazily and at most once per geometry, and ``degrees`` is
counted from ``dst`` rather than passed in.
"""

import functools
import inspect

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnet.autodiff import (
    Phases,
    ScatterPlan,
    Tensor,
    nll_loss,
    parameter,
    rotate_phase,
    segment_sum,
    take_rows,
)
from meshnet.features import compute_features
from meshnet.layers import EmanAttentionLayer
from meshnet.mesh import generate_icosphere
from meshnet.model import ModelSpec, build_model
from meshnet.representations import FeatureType
from meshnet.tangent import EdgeGeometry, build_frames, regauge
from meshnet.transforms import (
    AmbientTransform,
    Permutation,
    apply_ambient,
    apply_permutation,
    random_rotation,
)

from oracles import scatter_add

PARTS = ("src_plan", "dst_plan", "self_plan", "theta_phases", "transport_phases",
         "degrees")
# values with signed zeros, small enough that no sum overflows
VALUES = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e3, 1e3))
HIDDEN = FeatureType.parse(ModelSpec().hidden_type)


def _built(geom):
    return [p for p in PARTS if p in vars(geom)]


def _settings(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


@_settings(300)
@given(st.data())
def test_plan_scatters_match_add_at_bytewise(data):
    # repeats, unsorted entries, rows no entry names, and the empty index
    n = data.draw(st.integers(1, 7))
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=25)), dtype=np.int64)
    cols = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    size = idx.size * int(np.prod(cols))
    values = np.array(data.draw(st.lists(VALUES, min_size=size, max_size=size)),
                      dtype=np.float64).reshape((idx.size,) + cols)
    want = scatter_add(values, idx, n)
    plan = ScatterPlan(idx)
    assert plan.add(values, n).tobytes() == want.tobytes()
    for seg in (idx, plan):
        assert segment_sum(Tensor(values), seg, n).value.tobytes() == want.tobytes()
        x = parameter(np.zeros((n,) + cols))
        (take_rows(x, seg) * values).sum().backward()
        assert x.grad.tobytes() == want.tobytes()
    top = np.full((n,) + cols, -np.inf)
    np.maximum.at(top, idx, values)
    assert plan.max(values, n).tobytes() == top.tobytes()


def test_plan_passes_touch_each_row_once():
    idx = np.array([4, 0, 4, 2, 0, 4])
    rows = [r if isinstance(r, np.ndarray) else np.arange(r.stop)
            for r, _pos in ScatterPlan(idx).passes]
    assert [r.tolist() for r in rows] == [[0, 2, 4], [0, 4], [4]]
    # rows 0..r-1 become a slice
    assert isinstance(ScatterPlan([1, 0, 1]).passes[0][0], slice)


def test_negative_scatter_index_rejected():
    x = parameter(np.ones(3))
    y = take_rows(x, [-1, 2])
    with pytest.raises(IndexError):
        y.sum().backward()


# -- degrees --------------------------------------------------------------------

def _pair_geometry():
    # vertices 0 and 1 exchange an edge
    return EdgeGeometry(src=[1, 0], dst=[0, 1], theta=[0.3, -1.2],
                        transport=[0.1, 0.4], n_vertices=2, frame_token=-1)


def test_degrees_are_counted_from_dst():
    assert "degrees" not in inspect.signature(EdgeGeometry).parameters
    geom = _pair_geometry()
    assert geom.degrees.dtype == np.int64
    assert geom.degrees.tolist() == [1, 1]
    mesh = generate_icosphere(2)
    assert np.array_equal(EdgeGeometry.from_frames(build_frames(mesh)).degrees,
                          mesh.degrees)


def test_every_vertex_with_an_edge_is_accepted():
    t = FeatureType.parse("rho0+rho1")
    layer = EmanAttentionLayer(t, t, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2, t.dim))
    out = layer.forward(Tensor(x), _pair_geometry()).value
    assert np.isfinite(out).all()
    # one neighbor each: the weight is 1 and the output the one value message
    alpha = layer.attention_coefficients(Tensor(x), _pair_geometry())
    npt.assert_array_equal(alpha, 1.0)


# -- plan lifetime ------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Every scatter plan's passes and every phase table built, as they are built."""
    log = []
    build_passes = ScatterPlan.passes.func

    def passes(plan):
        log.append(("passes", plan))
        return build_passes(plan)

    prop = functools.cached_property(passes)
    prop.__set_name__(ScatterPlan, "passes")
    monkeypatch.setattr(ScatterPlan, "passes", prop)
    fill = Phases.__missing__

    def missing(table, n):
        log.append(("phases", table, n))
        return fill(table, n)

    monkeypatch.setattr(Phases, "__missing__", missing)
    return log


def _mesh():
    mesh = generate_icosphere(1)
    radii = 1.0 + 0.3 * np.random.default_rng(0).uniform(-1.0, 1.0, mesh.n_vertices)
    return mesh.with_vertices(mesh.vertices * radii[:, None])


def test_geometry_builders_build_no_plan(builds):
    mesh = _mesh()
    frames = build_frames(mesh)
    geoms = [EdgeGeometry.from_frames(frames)]
    geoms.append(regauge(frames, np.linspace(-3.0, 3.0, mesh.n_vertices))[1])
    moved = apply_ambient(mesh, AmbientTransform(random_rotation(np.random.default_rng(2)),
                                                 np.ones(3), 1.5))
    geoms.append(EdgeGeometry.from_frames(build_frames(moved)))
    assert [_built(g) for g in geoms] == [[], [], []]
    assert builds == []


def _model(kind, self_contribution):
    spec = ModelSpec(target_dim=3, kind=kind, hidden_type="2x(rho0+rho1+rho2)",
                     final_type="2xrho0", dense_hidden=4,
                     self_contribution=self_contribution, residual_blocks=1)
    return build_model(spec, seed=1)


def _step(model, mesh, frames, geom):
    field = compute_features("reltan", mesh, frames)
    logits = model.forward(field, geom)  # no dropout, so a permutation commutes
    loss = nll_loss(logits, np.arange(mesh.n_vertices) % 3)
    loss.backward()
    return logits.value


@pytest.mark.parametrize("kind, self_contribution, parts", [
    ("gem", False, {"src_plan", "dst_plan"}),
    ("eman", False, {"src_plan", "dst_plan"}),
    ("eman", True, {"src_plan", "dst_plan", "self_plan"}),
])
def test_forward_backward_builds_each_part_once(builds, kind, self_contribution, parts):
    mesh = _mesh()
    frames = build_frames(mesh)
    geom = EdgeGeometry.from_frames(frames)
    model = _model(kind, self_contribution)
    for _ in range(2):  # the second step builds nothing new
        _step(model, mesh, frames, geom)
    plans = {name: getattr(geom, name) for name in parts}
    built = [entry[1] for entry in builds if entry[0] == "passes"]
    assert set(_built(geom)) == parts | {"degrees", "theta_phases", "transport_phases"}
    for name, plan in plans.items():
        assert sum(p is plan for p in built) == 1, name
    # a plan made for the op, one a step: the (row, column) pick of nll_loss
    others = [p for p in built if not any(p is q for q in plans.values())]
    assert len(others) == 2
    tables = [entry[1:] for entry in builds if entry[0] == "phases"]
    orders = sorted(n for n in set(HIDDEN.orders) if n)
    for table in (geom.theta_phases, geom.transport_phases):
        assert sorted(n for t, n in tables if t is table) == orders
    assert len(tables) == 2 * len(orders)


def test_permuted_geometry_holds_its_own_plan():
    mesh = _mesh()
    frames = build_frames(mesh)
    geom = EdgeGeometry.from_frames(frames)
    model = _model("eman", True)
    base = _step(model, mesh, frames, geom)
    perm = Permutation(np.random.default_rng(3).permutation(mesh.n_vertices))
    permuted = apply_permutation(mesh, perm)
    frames_p = build_frames(permuted)
    geom_p = EdgeGeometry.from_frames(frames_p)
    assert _built(geom_p) == []
    moved = _step(model, permuted, frames_p, geom_p)
    for name in PARTS:
        assert getattr(geom_p, name) is not getattr(geom, name), name
    assert geom_p.src_plan.idx is geom_p.src and geom_p.dst_plan.idx is geom_p.dst
    npt.assert_allclose(moved, perm.permute_rows(base), rtol=0, atol=1e-12)


@pytest.mark.parametrize("ftype", [FeatureType([n, n]) for n in sorted(set(HIDDEN.orders))]
                         + [HIDDEN], ids=str)
def test_rotate_phase_from_phases_equals_raw_angles(ftype):
    rng = np.random.default_rng(ftype.dim)
    angles = rng.uniform(-np.pi, np.pi, 9)
    x0, w = rng.standard_normal((2, 9, 2, ftype.dim))
    cached = Phases(angles)
    results = []
    for angle in (angles, cached, cached):  # raw, filled on first use, reused
        x = parameter(x0)
        y = rotate_phase(x, angle, ftype.vector_blocks)
        (y * w).sum().backward()
        results.append((y.value.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1] == results[2]
