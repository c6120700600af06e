"""The benchmark's runner: set-up, timed loops, metrics and provenance.

``run.py`` pins the BLAS threads and then calls :func:`measure`.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy
from meshnet.config import config_hash, default_config
from meshnet.harness import build_id

import workloads
from reference import Reference, scaled
from tracing import NULL, Tracer, instrumented, totals_per_op, uncovered_per_op

SETUP_REPS = 3
# CPU time spent on the reference kernel: this share of each op's, and a
# fixed amount before and after each set-up.  An op is scaled by the passes
# of the ops within REFERENCE_WINDOW of it: a few seconds of passes, short
# against the host's slow drifts and long against its fast flips.
REFERENCE_SHARE = 0.05
SETUP_REFERENCE_S = 0.1
REFERENCE_WINDOW = 5
TAIL_BEYOND = 10

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "passed_frac": "fraction",
}

_LAYERS = ("entry", "block0.conv0", "block0.conv1", "block1.conv0", "block1.conv1",
           "block2.conv0", "block2.conv1", "final", "nonlin", "dense")
_PROBE_EDGES = (960, 3840, 15360)
PER_LAYER = {
    **{f"layers.{layer}.{d}_s": "s" for layer in _LAYERS for d in ("fwd", "bwd")},
    "autodiff.nll_loss_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.adam_step_s": "s",
    "autodiff.tape_nodes": "count",
    "model.forward_peak_mib": "MiB",
    "autodiff.backward_peak_mib": "MiB",
    "model.build_s": "s",
    "model.forward_s": "s",
    "mesh.load_s": "s",
    "tangent.build_frames_s": "s",
    "tangent.regauge_s": "s",
    "layers.edge_geometry_s": "s",
    "features.compute_s": "s",
    "transforms.apply_ambient_s": "s",
    "transforms.apply_permutation_s": "s",
    **{f"layers.{k}.fwd_bwd_s.e{e}": "s" for k in ("eman", "gem") for e in _PROBE_EDGES},
    "layers.eman_gem_ratio": "ratio",
    "layers.eman.edge_scaling": "ratio",
    "layers.gem.edge_scaling": "ratio",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def tail_percentile(n_ops, beyond=TAIL_BEYOND):
    """Highest multiple of 5 percent leaving ``beyond`` of ``n_ops`` above it.

    Never below the median: with fewer than ``2 * beyond`` ops the tail is
    reported at the 50th percentile and its sample count shows the shortfall.
    """
    p = int(100.0 * (1.0 - beyond / n_ops) // 5 * 5) if n_ops > 0 else 0
    return max(50, min(p, 95))


def tail_stat(times, percentile):
    """(value at ``percentile``, number of samples strictly above it)."""
    value = float(np.percentile(times, percentile))
    return value, int(sum(t > value for t in times))


class Loop:
    """Per-op measurements of one timed loop.

    ``wall`` and ``cpu`` are each op's wall and CPU seconds, ``busy`` its CPU
    seconds with its output check, and ``passes`` the CPU seconds of the
    reference passes run after it (empty when the loop ran without one).
    """

    def __init__(self):
        self.wall, self.cpu, self.busy, self.passes = [], [], [], []
        self.failed, self.problems, self.elapsed = 0, [], 0.0


def timed_loop(workload, tracer, seconds, first_op, reference=None):
    """Run ops until ``seconds`` of wall time have passed; returns a :class:`Loop`.

    With a ``reference``, its kernel runs after each op for a share of the
    op's CPU time.
    """
    loop = Loop()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op_id = first_op + len(loop.wall)
        with tracer.op(op_id):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                workload.op(tracer)
                raised = None
            except Exception:  # an op that raises counts as failed; keep measuring
                raised = traceback.format_exc()
            loop.wall.append(time.perf_counter() - t0)
            loop.cpu.append(time.process_time() - c0)
        found = [raised] if raised else workload.check()
        loop.busy.append(time.process_time() - c0)
        if found:
            loop.failed += 1
            if len(loop.problems) < 5:
                loop.problems.append(found[0])
                print(f"op {op_id} failed: {found[0]}", file=sys.stderr)
        if reference is not None:
            loop.passes.append(reference.run_for(REFERENCE_SHARE * loop.busy[-1]))
    loop.elapsed = time.perf_counter() - start
    return loop


def per_layer_metrics(tracer, measured):
    """Median over traced ops of each span's per-op time, plus measured values.

    A span that occurs only in set-up (``model.build``, and the geometry
    spans of train_ico3) is reported as the median over set-up runs.  A
    span the workload never enters reads 0.
    """
    totals = totals_per_op(tracer.spans)
    ops = [op for op in totals if isinstance(op, int)]
    setups = [op for op in totals if isinstance(op, str)]
    out = {}
    for name in PER_LAYER:
        if name in measured:
            out[name] = measured[name]
            continue
        span = name[:-2]
        group = ops if any(span in totals[op] for op in ops) else setups
        values = [totals[op].get(span, 0.0) for op in group]
        out[name] = statistics.median(values) if values else 0.0
    uncovered = uncovered_per_op(tracer.spans)
    out["trace.uncovered_s"] = statistics.median(uncovered[op] for op in ops)
    return out


def measure(name, seed, seconds, trace, out_dir, sizes=None, setup_reps=SETUP_REPS,
            probe_subdivisions=(2, 3, 4)):
    """One benchmark run; returns (result line, details line, full report)."""
    tracer = Tracer() if trace else NULL
    reference = None if trace else Reference()
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    report = {}
    try:
        workload, setups, deterministic = set_up(name, seed, workdir, sizes or {},
                                                 tracer, setup_reps, reference)
        if trace:
            values, loops = traced_run(workload, tracer, seed, seconds,
                                       probe_subdivisions, report)
        else:
            values, loops = untraced_run(workload, seconds, setups, reference, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.wall) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    details = {
        "provenance": provenance(name, seed, seconds, trace),
        "attempted": attempted,
        "setup_runs": setups,
        "checks": {"setup_deterministic": deterministic,
                   "problems": [p for loop in loops for p in loop.problems]},
        "outputs": workload.outputs(),
    }
    for key in ("op_tail", "host"):
        if key in report:
            details[key] = report[key]
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    report.update(details, result=result)
    return result, details, report


def set_up(name, seed, workdir, sizes, tracer, reps, reference=None):
    """Set the workload up ``reps`` times, with ``reference`` passes around each.

    Returns the last set-up; per set-up its wall and CPU seconds and the
    passes just before and after it; and whether every set-up's warm-up op
    gave the same output.
    """
    setups, fingerprints, workload = [], [], None
    for k in range(reps):
        workload = None  # release the previous set-up before building the next
        gc.collect()
        before = reference.run_for(SETUP_REFERENCE_S) if reference is not None else []
        if setups:
            setups[-1]["passes_s"] += before
        with tracer.op(f"setup{k}"):
            c0, t0 = time.process_time(), time.perf_counter()
            workload = make_workload(name, seed, workdir, sizes)
            workload.setup(tracer)
            setups.append({"wall_s": time.perf_counter() - t0,
                           "cpu_s": time.process_time() - c0, "passes_s": before})
        fingerprints.append(workload.fingerprint())
    if reference is not None:
        setups[-1]["passes_s"] += reference.run_for(SETUP_REFERENCE_S)
    return workload, setups, all(f == fingerprints[0] for f in fingerprints)


def untraced_run(workload, seconds, setups, reference, report):
    """End-to-end metrics; every time is CPU seconds scaled by the reference.

    The benchmark is single-threaded, so CPU seconds are the time it ran;
    see ``reference.py`` for the scaling.
    """
    loop = timed_loop(workload, NULL, seconds, 0, reference)
    near = [[t for group in loop.passes[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
             for t in group] for i in range(len(loop.cpu))]
    k = workload.host_exponent
    op_s = [scaled(c, n, k) for c, n in zip(loop.cpu, near)]
    busy_s = [scaled(c, n, k) for c, n in zip(loop.busy, near)]
    p = tail_percentile(seconds / workload.nominal_op_s)
    tail, beyond = tail_stat(op_s, p)
    report["op_tail"] = {"percentile": p, "samples": len(op_s), "beyond": beyond}
    passes = [t for group in loop.passes for t in group]
    report["host"] = {
        "op_wall_p50_s": statistics.median(loop.wall),
        "op_cpu_p50_s": statistics.median(loop.cpu),
        "reference_passes": len(passes),
        "reference_mean_s": statistics.fmean(passes),
    }
    report["op_times_s"] = {"wall": loop.wall, "cpu": loop.cpu, "passes": loop.passes}
    values = {
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": tail,
        "ops_per_s": len(op_s) / sum(busy_s),
        "setup_s": statistics.median(scaled(s["cpu_s"], s["passes_s"], k) for s in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": (len(op_s) - loop.failed) / len(op_s),
    }
    return values, [loop]


def traced_run(workload, tracer, seed, seconds, probe_subdivisions, report):
    """Half the time untraced, half traced, then the memory pass and the probe.

    Spans are wall-clock intervals, so the overhead compares wall times.
    """
    plain = timed_loop(workload, NULL, seconds / 2, 0)
    model = workload.model
    with instrumented(model, tracer) if model else contextlib.nullcontext():
        traced = timed_loop(workload, tracer, seconds / 2, len(plain.wall))
    measured = workload.memory_pass() if model else {}
    measured.update(workloads.layer_costs(seed, probe_subdivisions))
    measured["trace.overhead_s"] = (statistics.median(traced.wall)
                                    - statistics.median(plain.wall))
    report["op_times_s"] = {"untraced": plain.wall, "traced": traced.wall}
    report["spans"] = [s.as_dict() for s in tracer.spans]
    return per_layer_metrics(tracer, measured), [plain, traced]


def make_workload(name, seed, workdir, sizes):
    if name == "train_ico3":
        return workloads.TrainIco3(seed, **sizes)
    if name == "eqgap_small":
        return workloads.EqgapSmall(seed, **sizes)
    return workloads.IngestIco4(seed, workdir, **sizes)


def provenance(name, seed, seconds, trace):
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "build_id": build_id(), "config_hash": config_hash(default_config()),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(threads) if threads else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
