"""Tests of the benchmark itself: statistics, tracing, checks and tiny runs.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from meshnet.config import model_spec_from_config
from meshnet.model import build_model
from meshnet.tangent import FrameField

import bench
import run
import workloads
from reference import NOMINAL_S, Reference, scaled
from tracing import NULL, Span, Tracer, instrumented, model_layers, self_times, uncovered_per_op
from conftest import BENCH_DIR, ROOT

TINY = {
    "train_ico3": {"subdivisions": 1, "n_meshes": 2},
    "eqgap_small": {"n_meshes": 4},
    "ingest_ico4": {"subdivisions": 2, "n_suites": 2},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tail percentile -----------------------------------------------------------

@pytest.mark.parametrize("n_ops, expected", [(22, 50), (62, 80), (75, 85), (400, 95), (5, 50)])
def test_tail_percentile_leaves_ten_ops_beyond(n_ops, expected):
    assert bench.tail_percentile(n_ops) == expected


def test_declared_run_length_leaves_ten_ops_beyond_each_tail():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for cls in (workloads.TrainIco3, workloads.EqgapSmall, workloads.IngestIco4):
        n_ops = seconds / cls.nominal_op_s
        assert n_ops * (100 - bench.tail_percentile(n_ops)) / 100 >= bench.TAIL_BEYOND


def test_tail_stat_reports_value_and_samples_beyond():
    times = [float(t) for t in range(1, 23)]
    value, beyond = bench.tail_stat(times, 50)
    assert value == 11.5 and beyond == 11
    value, beyond = bench.tail_stat(times[::-1], 80)
    assert value == pytest.approx(17.8) and beyond == 5


# -- spans -------------------------------------------------------------------------

def test_self_time_excludes_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.op(0):                      # 0 .. 10
        clock.now = 1.0
        with tracer.span("a"):              # 1 .. 4
            clock.now = 2.0
            with tracer.span("a.inner"):    # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with tracer.span("b"):              # 6 .. 7
            clock.now = 7.0
        clock.now = 10.0
    names = [s.name for s in tracer.spans]
    selfs = dict(zip(names, self_times(tracer.spans)))
    assert selfs == {"op": 6.0, "a": 2.0, "a.inner": 1.0, "b": 1.0}
    assert [s.op for s in tracer.spans] == [0, 0, 0, 0]
    assert tracer.spans[names.index("a.inner")].parent == names.index("a")
    # leaves a.inner and b cover 2 of the op's 10 seconds
    assert uncovered_per_op(tracer.spans) == {0: 8.0}


def test_overlapping_children_are_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        parent = len(tracer.spans) - 1
        clock.now = 5.0
    tracer.spans += [Span("x", 1.0, 3.0, parent, None), Span("y", 2.0, 4.0, parent, None)]
    assert self_times(tracer.spans)[0] == 2.0


# -- failure counting ----------------------------------------------------------------

class FlakyWorkload:
    """Every third op fails its check and every fifth raises."""

    def __init__(self):
        self.n = 0

    def op(self, tracer):
        self.n += 1
        if self.n % 5 == 0:
            raise RuntimeError("op raised")

    def check(self):
        return ["bad output"] if self.n % 3 == 0 else []


def test_timed_loop_counts_failed_and_raising_ops():
    wl = FlakyWorkload()
    loop = bench.timed_loop(wl, NULL, 0.05, 0)
    n = len(loop.wall)
    assert n == wl.n == len(loop.cpu) == len(loop.busy) and n > 15
    assert loop.failed == sum(1 for i in range(1, n + 1) if i % 3 == 0 or i % 5 == 0)
    assert len(loop.problems) == 5 and "bad output" in loop.problems
    assert any("RuntimeError" in p for p in loop.problems)
    assert loop.elapsed >= sum(loop.wall)
    assert all(b >= c for b, c in zip(loop.busy, loop.cpu))


def test_reference_runs_after_each_op_and_scales_by_its_mean():
    loop = bench.timed_loop(FlakyWorkload(), NULL, 0.05, 0, Reference())
    assert len(loop.passes) == len(loop.wall) and all(loop.passes)
    assert scaled(3.0, [NOMINAL_S, 2 * NOMINAL_S, 6 * NOMINAL_S], 1.0) == pytest.approx(1.0)
    assert scaled(3.0, [4 * NOMINAL_S], 0.5) == pytest.approx(1.5)


# -- marker-based backward spans ---------------------------------------------------

@pytest.fixture(scope="module")
def tiny_train():
    wl = workloads.TrainIco3(seed=3, **TINY["train_ico3"])
    wl.setup(NULL)
    return wl


def test_marker_bwd_spans_add_up_to_backward(tiny_train):
    tracer = Tracer()
    with instrumented(tiny_train.model, tracer):
        with tracer.op(0):
            tiny_train.op(tracer)
    spans = tracer.spans
    back = next(i for i, s in enumerate(spans) if s.name == "autodiff.backward")
    layer_bwd = [s for s in spans if s.parent == back]
    assert len(layer_bwd) == len(model_layers(tiny_train.model))
    assert all(s.name.endswith(".bwd") for s in layer_bwd)
    ordered = sorted((s.start, s.end) for s in layer_bwd)
    assert all(a[1] <= b[0] for a, b in zip(ordered, ordered[1:]))  # disjoint
    duration = spans[back].end - spans[back].start
    summed = sum(s.end - s.start for s in layer_bwd)
    assert summed + self_times(spans)[back] == pytest.approx(duration, abs=1e-12)
    assert summed > 0.5 * duration


def test_instrumentation_is_identity_and_removed(tiny_train):
    model = tiny_train.model
    field, geom, _target = tiny_train.batches[0]
    plain = model.forward(field, geom).value
    with instrumented(model, Tracer()):
        traced = model.forward(field, geom).value
    assert np.array_equal(plain, traced)
    assert all("forward" not in vars(layer) for _n, layer in model_layers(model))


# -- negative controls: each output check can fail ---------------------------------

def test_train_check_fails_on_nan_frame():
    wl = workloads.TrainIco3(seed=4, **TINY["train_ico3"])
    wl.setup(NULL)
    assert wl.check() == []
    mesh = workloads.segmentation_spheres(1, 0, wl.subdivisions, seed=wl.seed).train[0].mesh
    frames = workloads.build_frames(mesh)
    broken = FrameField(mesh, frames.normals, frames.e1 * np.nan, frames.e2)
    _f, geom, field = workloads.geometry(mesh, NULL, broken)
    wl.batches = [(field, geom, wl.batches[0][2])]
    with np.errstate(invalid="ignore"):
        wl.op(NULL)
    assert any("loss is nan" in p for p in wl.check())


def test_eqgap_check_fails_with_additive_bias():
    wl = workloads.EqgapSmall(seed=5, **TINY["eqgap_small"])
    wl.setup(NULL)
    assert wl.check() == []
    spec = model_spec_from_config(workloads.CONFIG)
    spec.bias = "additive"
    wl.model = build_model(spec, 5)
    wl.op(NULL)
    assert any(p.startswith("gauge gap") for p in wl.check())


def test_ingest_check_fails_on_perturbed_frame(tmp_path):
    wl = workloads.IngestIco4(6, str(tmp_path), **TINY["ingest_ico4"])
    wl.setup(NULL)
    assert wl.check() == []
    suite, frames, fields = wl.last
    f = frames[0]
    bent = FrameField(f.mesh, f.normals, f.e1 * (1.0 + 1e-6), f.e2)
    wl.last = (suite, (bent,) + frames[1:], fields)
    assert any("orthonormal" in p for p in wl.check())
    swapped = (fields[0], fields[1], fields[2], fields[0])  # regauged replaced by base
    wl.last = (suite, frames, swapped)
    assert any("regauged" in p for p in wl.check())


# -- tiny runs of every workload ---------------------------------------------------

def _finite_metrics(result, names):
    assert set(result["metrics"]) == set(names)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_runs_agree_apart_from_timings(name, tmp_path):
    runs = [bench.measure(name, 7, 0.3, False, str(tmp_path), TINY[name], setup_reps=2)
            for _ in range(2)]
    for result, details, _report in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        _finite_metrics(result, bench.END_TO_END)
        assert details["checks"]["setup_deterministic"]
        assert len(details["setup_runs"]) == 2
        assert all(r["cpu_s"] > 0 for r in details["setup_runs"])
        assert details["host"]["reference_passes"] >= result["attempted"]
        assert all(r["passes_s"] for r in details["setup_runs"])
        assert details["op_tail"]["samples"] == result["attempted"]
    (_r1, d1, _), (_r2, d2, _) = runs
    assert d1["provenance"] == d2["provenance"]
    if name != "train_ico3" or d1["outputs"]["losses_hashed"] == d2["outputs"]["losses_hashed"]:
        assert d1["outputs"] == d2["outputs"]
    assert os.listdir(tmp_path) == []  # the work directory is removed


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, _details, report = bench.measure(
        name, 8, 0.6, True, str(tmp_path), TINY[name], setup_reps=1,
        probe_subdivisions=(0, 1))
    assert result["correct"]
    _finite_metrics(result, bench.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.uncovered_s"] >= 0.0
    assert report["spans"] and report["op_times_s"]["traced"]
    if name == "train_ico3":
        assert metrics["autodiff.tape_nodes"] > 0 and metrics["autodiff.backward_peak_mib"] > 0
        assert all(metrics[f"layers.{l}.bwd_s"] > 0 for l in ("entry", "final", "nonlin", "dense"))
    if name == "ingest_ico4":
        assert metrics["mesh.load_s"] > 0 and metrics["layers.entry.fwd_s"] == 0.0


# -- declared metrics and the entry point --------------------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_entry_point_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_ico4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
