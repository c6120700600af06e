"""The edge plan: scatter plans of a mesh's ``Edges``, phase tables of an
``EdgeGeometry``.

Plan scatters must equal ``np.add.at`` bit for bit on any index.  Each part
is built lazily and at most once: a scatter plan once per ``Edges``, which
the base, regauged and moved geometries of one mesh share and a relabelled
mesh builds anew, and a phase table once per geometry.  ``degrees`` is
counted from ``dst`` rather than passed in.  Hand-built edges and angles are
checked once, on construction, and every array is read-only.
"""

import functools
import inspect
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnet.autodiff import (
    Phases,
    ScatterPlan,
    Tensor,
    attention_weights,
    nll_loss,
    parameter,
    segment_sum,
    transported_rows,
    weighted_segment_sum,
)
from meshnet.datasets import segmentation_spheres
from meshnet.errors import AutodiffError, MeshValidationError
from meshnet.features import compute_features
from meshnet.layers import EmanAttentionLayer
from meshnet.mesh import Edges, generate_icosphere
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

PLANS = ("src_plan", "dst_plan", "self_plan")  # of the Edges
PHASES = ("theta_phases", "transport_phases")  # of the EdgeGeometry
# values with signed zeros, small enough that no sum overflows
VALUES = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e3, 1e3))
HIDDEN = FeatureType.parse(ModelSpec().hidden_type)


def _built(geom):
    return ([p for p in PLANS if p in vars(geom.edges)]
            + [p for p in PHASES if p in vars(geom)])


def _gather(x, idx):
    """Rows ``idx`` of ``x``: ``transported_rows`` with no pair to turn."""
    plan = idx if isinstance(idx, ScatterPlan) else ScatterPlan(idx)
    return transported_rows(x, plan, Phases(np.zeros(plan.idx.size)), ())


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
    assert segment_sum(Tensor(values), plan, n).value.tobytes() == want.tobytes()
    x = parameter(np.zeros((n,) + cols))
    (_gather(x, plan) * values).sum().backward()
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
    # a negative gather index wrapped around and was caught only by the
    # backward scatter; an index past the rows ended in a bare IndexError
    x = parameter(np.ones(3))
    for idx, bad in (([-1, 2], -1), ([0, 3], 3)):
        with pytest.raises(AutodiffError, match=f"gather index {bad} is outside the 3 rows"):
            _gather(x, idx)
        with pytest.raises(AutodiffError, match=f"scatter index {bad} is outside the 3 rows"):
            segment_sum(parameter(np.ones((2, 1))), ScatterPlan(idx), 3)
        # the attention weights' segments are the query rows: one gather check covers both
        with pytest.raises(AutodiffError, match=f"gather index {bad} is outside the 3 rows"):
            attention_weights(parameter(np.ones((2, 1, 1))), parameter(np.ones((3, 1, 1))),
                              ScatterPlan(idx), 1.0)
    # a cached plan checks each use against that use's row count
    plan = ScatterPlan([0, 2])
    _gather(x, plan)
    with pytest.raises(AutodiffError, match="gather index 2 is outside the 2 rows 0..1"):
        _gather(parameter(np.ones(2)), plan)


@pytest.mark.parametrize("op, shapes, what", [
    (lambda x, plan: segment_sum(x[0], plan, 2), [(5, 2)], "scatter"),
    (lambda x, plan: weighted_segment_sum(x[0], x[1], plan, np.ones((2, 1))),
     [(5, 2, 3), (5, 2)], "scatter"),
    (lambda x, plan: attention_weights(x[0], x[1], plan, 1.0), [(2, 1, 3), (2, 1, 3)],
     "gather"),
], ids=["segment_sum", "weighted_segment_sum", "attention_weights"])
def test_scatter_of_misshapen_rows_rejected(op, shapes, what):
    # five rows by three indices summed rows 0-2 and dropped rows 3-4; two
    # keys by three indices ended in a bare ValueError, and one would broadcast
    x = [parameter(np.ones(s)) for s in shapes]
    with pytest.raises(AutodiffError, match=re.escape(
            f"a {what} by 3 indices got shape {shapes[0]}")):
        op(x, ScatterPlan([0, 1, 1]))


@pytest.mark.parametrize("op, shapes, error", [
    (lambda x, plan: weighted_segment_sum(x[0], x[1], plan, np.ones((3, 1))),
     [(5, 2, 3), (1, 2)], "weights (1, 2) do not fit values (5, 2, 3)"),
    (lambda x, plan: weighted_segment_sum(x[0], x[1], plan, np.ones((3, 1))),
     [(5, 2, 3), (5, 1)], "weights (5, 1) do not fit values (5, 2, 3)"),
    (lambda x, plan: attention_weights(x[0], x[1], plan, 1.0), [(5, 2, 3), (3, 1, 3)],
     "queries (3, 1, 3) do not fit keys (5, 2, 3)"),
    (lambda x, plan: attention_weights(x[0], x[1], plan, 1.0), [(5, 2, 3), (3, 2, 1)],
     "queries (3, 2, 1) do not fit keys (5, 2, 3)"),
], ids=["one_weight_row", "one_weight_head", "one_query_head", "one_query_column"])
def test_operands_that_would_broadcast_rejected(op, shapes, error):
    # a weight array of one row, or a query array of one head, was broadcast
    # across the values' rows or the keys' heads: a (3, 6) sum came out
    x = [parameter(np.ones(s)) for s in shapes]
    with pytest.raises(AutodiffError, match=re.escape(error)):
        op(x, ScatterPlan([0, 1, 1, 2, 2]))


@pytest.mark.parametrize("idx", [[0.5, 1.0], [0.0, 1.0], [True, False], ["0", "1"]])
def test_non_integer_index_rejected(idx):
    # a float index ended in a bare IndexError in a gather and was taken as is
    # by a scatter; a boolean one would mask.  Every gather and scatter reads
    # its index through a plan
    with pytest.raises(AutodiffError, match="an index must hold integers"):
        ScatterPlan(np.array(idx))


def test_index_is_read_as_a_checked_copy():
    # a uint64 index past int64 was cast to -1, a row the caller never named; and
    # a later write to the caller's index got past the plan's bounds
    with pytest.raises(AutodiffError, match="an index must fit in int64, got 18446744073709551615"):
        ScatterPlan(np.array([2**64 - 1], dtype=np.uint64))
    idx = np.array([0, 2])
    plan = ScatterPlan(idx)
    idx[1] = 7
    npt.assert_array_equal(_gather(parameter(np.arange(3.0)), plan).value, [0.0, 2.0])


def test_unsigned_index_is_taken_as_signed():
    # uint64 rows times columns plus a column made a float index in the max
    x = parameter(np.arange(6.0).reshape(2, 3))
    plan = ScatterPlan(np.array([0, 1, 1], dtype=np.uint64))
    k = _gather(x, plan).reshape(3, 3, 1)
    npt.assert_array_equal(
        attention_weights(k, parameter(np.ones((2, 3, 1))), plan, 1.0).value[0], 1.0)


# -- hand-built edges and angles ---------------------------------------------------

def _pair_edges():
    # vertices 0 and 1 exchange an edge
    return Edges(src=[1, 0], dst=[0, 1], n_vertices=2)


def _pair_geometry():
    return EdgeGeometry(_pair_edges(), theta=[0.3, -1.2], transport=[0.1, 0.4])


def test_degrees_are_counted_from_dst():
    assert "degrees" not in inspect.signature(Edges).parameters
    edges = _pair_edges()
    assert edges.degrees.dtype == np.int64
    assert edges.degrees.tolist() == [1, 1]
    mesh = generate_icosphere(2)
    assert EdgeGeometry.from_frames(build_frames(mesh)).edges is mesh.edges


@pytest.mark.parametrize("make", [
    lambda: Edges(src=[-1, 0], dst=[0, 1], n_vertices=2),
    lambda: Edges(src=[1, 0], dst=[0, 2], n_vertices=2),
    lambda: Edges(src=[1, 0, 1], dst=[0, 1], n_vertices=2),
    lambda: Edges(src=[[1, 0]], dst=[[0, 1]], n_vertices=2),
    lambda: EdgeGeometry(_pair_edges(), theta=[0.3], transport=[0.1, 0.4]),
    lambda: EdgeGeometry(_pair_edges(), theta=[0.3, -1.2], transport=[[0.1, 0.4]]),
], ids=["negative_src", "dst_past_last_vertex", "src_longer_than_dst", "two_dimensional",
        "one_theta_for_two_edges", "transport_not_one_per_edge"])
def test_bad_hand_built_geometry_rejected(make):
    # unchecked, a negative src gathers x[-1], a longer src runs GEM and one
    # theta is broadcast to every edge
    with pytest.raises(MeshValidationError):
        make()


def test_edges_and_angles_are_read_only():
    theta = np.array([0.3, -1.2])
    hand_built = EdgeGeometry(_pair_edges(), theta, [0.1, 0.4])
    assert not np.shares_memory(hand_built.theta, theta)
    for geom in (hand_built, EdgeGeometry.from_frames(build_frames(_mesh()))):
        edges = geom.edges
        for a in (geom.theta, geom.transport, edges.src, edges.dst, edges.degrees):
            with pytest.raises(ValueError, match="read-only"):
                a[:] += 1


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
    """Every ``Edges``, scatter plan's passes and phase table built, as they are built."""
    log = []
    init_edges = Edges.__init__

    def edges(self, *args, **kwargs):
        init_edges(self, *args, **kwargs)
        log.append(("edges", self))

    monkeypatch.setattr(Edges, "__init__", edges)
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
    assert builds == [("edges", mesh.edges)]
    assert all(g.edges is mesh.edges for g in geoms)


def _model(kind, self_contribution):
    spec = ModelSpec(target_dim=3, kind=kind, hidden_type="2x(rho0+rho1+rho2)",
                     final_type="2xrho0", dense_hidden=4, dropout=0.0,
                     self_contribution=self_contribution, residual_blocks=1)
    return build_model(spec, seed=1)


def _step(model, mesh, frames, geom):
    field = compute_features("reltan", mesh, frames)
    logits = model.forward(field, geom, train=True)  # no dropout, so a permutation commutes
    loss = nll_loss(logits, np.arange(mesh.n_vertices) % 3)
    loss.backward()
    return logits.value


@pytest.mark.parametrize("kind, self_contribution, parts", [
    ("gem", False, {"src_plan", "dst_plan"}),
    ("eman", False, {"src_plan", "dst_plan"}),
    ("eman", True, {"src_plan", "self_plan"}),
])
def test_forward_backward_builds_each_part_once(builds, kind, self_contribution, parts):
    mesh = _mesh()
    frames = build_frames(mesh)
    geom = EdgeGeometry.from_frames(frames)
    model = _model(kind, self_contribution)
    for _ in range(2):  # the second step builds nothing new
        _step(model, mesh, frames, geom)
    plans = {name: getattr(geom.edges, name) for name in parts}
    built = [entry[1] for entry in builds if entry[0] == "passes"]
    assert set(_built(geom)) == parts | set(PHASES)
    for name, plan in plans.items():
        assert sum(p is plan for p in built) == 1, name
    # and no plan made for an op: nll_loss picks its targets with numpy
    assert [p for p in built if not any(p is q for q in plans.values())] == []
    tables = [entry[1:] for entry in builds if entry[0] == "phases"]
    orders = sorted(n for n in set(HIDDEN.orders) if n)
    for table in (geom.theta_phases, geom.transport_phases):
        assert sorted(n for t, n in tables if t is table) == orders
    assert len(tables) == 2 * len(orders)


def test_permuted_geometry_holds_its_own_plan(builds):
    mesh = _mesh()
    frames = build_frames(mesh)
    regauged, geom_g = regauge(frames, np.linspace(-3.0, 3.0, mesh.n_vertices))
    moved = apply_ambient(mesh, AmbientTransform(random_rotation(np.random.default_rng(2)),
                                                 np.ones(3), 1.5))
    frames_m = build_frames(moved)
    # the base, gauge and ambient geometries of one mesh
    runs = [(mesh, frames, EdgeGeometry.from_frames(frames)), (mesh, regauged, geom_g),
            (moved, frames_m, EdgeGeometry.from_frames(frames_m))]
    model = _model("eman", False)
    base = [_step(model, *run) for run in runs][0]
    perm = Permutation(np.random.default_rng(3).permutation(mesh.n_vertices))
    permuted = apply_permutation(mesh, perm)
    frames_p = build_frames(permuted)
    geom_p = EdgeGeometry.from_frames(frames_p)
    assert _built(geom_p) == []
    relabelled = _step(model, permuted, frames_p, geom_p)
    assert [entry[1] for entry in builds if entry[0] == "edges"] == [mesh.edges, permuted.edges]
    assert all(geom.edges is mesh.edges for _m, _f, geom in runs)
    # each plan's passes once per Edges, and no other plan
    built = [entry[1] for entry in builds if entry[0] == "passes"]
    for edges in (mesh.edges, permuted.edges):
        for name in ("src_plan", "dst_plan"):
            assert sum(p is getattr(edges, name) for p in built) == 1, name
    assert len(built) == 2 * 2
    for name in PLANS:
        assert getattr(geom_p.edges, name) is not getattr(mesh.edges, name), name
    for name in PHASES:
        assert getattr(geom_p, name) is not getattr(runs[0][2], name), name
    assert geom_p.edges.src_plan.idx is permuted.edges.src
    assert geom_p.edges.dst_plan.idx is permuted.edges.dst
    npt.assert_allclose(relabelled, perm.permute_rows(base), rtol=0, atol=1e-12)


def test_dataset_samples_share_one_edges():
    data = segmentation_spheres(2, 1, subdivisions=1, seed=0)
    meshes = [s.mesh for s in data.train + data.test]
    assert meshes[0].vertices.tobytes() != meshes[1].vertices.tobytes()
    assert all(m.edges is meshes[0].edges for m in meshes)


@pytest.mark.parametrize("ftype", [FeatureType([n, n]) for n in sorted(set(HIDDEN.orders))]
                         + [HIDDEN], ids=str)
def test_rotate_phase_from_phases_equals_raw_angles(ftype):
    rng = np.random.default_rng(ftype.dim)
    angles = rng.uniform(-np.pi, np.pi, 9)
    x0, w = rng.standard_normal((2, 9, 2, ftype.dim))
    raw = x0.copy()
    for n, lo, hi in ftype.vector_blocks:
        block = raw[..., lo:hi].view(np.complex128)
        block *= np.exp(1j * n * angles)[:, None, None]
    cached = Phases(angles)
    results = []
    for angle in (Phases(angles), cached, cached):  # made for one op, filled on first use, reused
        x = parameter(x0)
        y = transported_rows(x, ScatterPlan(np.arange(9)), angle, ftype.vector_blocks)
        (y * w).sum().backward()
        results.append((y.value.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == raw.tobytes()
