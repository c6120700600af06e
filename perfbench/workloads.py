"""The three benchmark workloads, their output checks and the layer-cost probe.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Meshes, transform suites, model initialisation
and dropout all come from the workload seed, and the package is driven only
through its public calls.  ``setup`` builds everything an op needs and runs
one warm-up op; ``op`` does one unit of work; ``check`` inspects the outputs
of the op that just ran and returns a list of problems (empty when correct).
``nominal_op_s`` is the op's scaled time measured when the benchmark was
added; it fixes each workload's tail percentile for a run length.
``host_exponent`` is how strongly the workload's CPU time follows the
reference kernel's (see ``reference.py``).  Each is the value, in steps of
0.1, that gave the smallest worst quartile spread of the op time metrics
over three sets of runs made when the benchmark was added, one of them in
a stretch where the host's speed swung widely.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
import tracemalloc

import numpy as np

from meshnet.autodiff import Adam, Tensor, nll_loss
from meshnet.config import default_config, model_spec_from_config
from meshnet.datasets import eqgap_meshes, segmentation_spheres
from meshnet.features import compute_features
from meshnet.layers import EdgeGeometry, EmanAttentionLayer, GemConvLayer
from meshnet.mesh import generate_icosphere, load_mesh, save_mesh
from meshnet.model import build_model
from meshnet.representations import FeatureType
from meshnet.tangent import build_frames, regauge
from meshnet.transforms import apply_ambient, apply_permutation, random_transform_suite

from tracing import NULL, tape_nodes

CONFIG = default_config()
MIB = 1024.0 * 1024.0

# Equivariance gaps are logit MSEs; float noise is ~1e-24 and an
# equivariance defect (additive bias, raw coordinates) is above 1e-6.
GAP_NOISE = 1e-16
FRAME_TOL = 1e-10
FEATURE_TOL = 1e-9
LOSSES_HASHED = 8


def geometry(mesh, tracer, frames=None, transport=None):
    """Frames, edge geometry and input features: the model's pre-processing."""
    if frames is None:
        with tracer.span("tangent.build_frames"):
            frames = build_frames(mesh)
    with tracer.span("layers.edge_geometry"):
        geom = EdgeGeometry.from_frames(frames, transport)
    with tracer.span("features.compute"):
        field = compute_features(CONFIG.model["features"], mesh, frames,
                                 CONFIG.model["reltan_powers"])
    return frames, geom, field


def transform_suites(n_vertices, count, rng):
    tr = CONFIG.transforms
    return [random_transform_suite(n_vertices, rng, tr["translation_range"],
                                   tr["scale_min"], tr["scale_max"])
            for _ in range(count)]


# -- output checks -------------------------------------------------------------

def frame_problems(frames, tol=FRAME_TOL):
    """Problems unless every (e1, e2, n) is a positively oriented orthonormal basis."""
    n, e1, e2 = frames.normals, frames.e1, frames.e2
    err = max(
        np.abs(np.einsum("ij,ij->i", a, b) - target).max()
        for a, b, target in ((n, n, 1.0), (e1, e1, 1.0), (e2, e2, 1.0),
                             (n, e1, 0.0), (n, e2, 0.0), (e1, e2, 0.0),
                             (np.cross(e1, e2), n, 1.0))
    )
    return [] if err <= tol else [f"frames not orthonormal: error {err:.3g}"]


def match_problems(label, got, want, tol=FEATURE_TOL):
    """Problems unless ``got`` equals ``want`` up to ``tol`` times its scale."""
    err = float(np.abs(got - want).max())
    scale = max(1.0, float(np.abs(want).max()))
    return [] if err <= tol * scale else [f"{label} features differ by {err:.3g}"]


def regauged_values(field, angles):
    """Coordinates of ``field`` in frames turned by ``angles``.

    A gauge turn by g rotates each rho_n component by -n * g.
    """
    t = field.ftype
    phase = -np.asarray(angles)[:, None] * t.order_of_dim[None, :]
    return (field.values * np.cos(phase)
            + field.values[:, t.partner] * np.sin(phase) * t.partner_sign)


def gap_problems(gaps, base_logits, noise=GAP_NOISE):
    """Problems unless every family's gap is at float-noise level."""
    limit = noise * max(1.0, float(np.mean(base_logits ** 2)))
    return [f"{family} gap {gap:.3g}" for family, gap in gaps.items()
            if not gap <= limit]


def _mse(a, b):
    return float(np.mean((a - b) ** 2))


# -- workloads -----------------------------------------------------------------

class TrainIco3:
    """One op is one training step on a bumpy segmentation icosphere.

    Forward, NLL, backward and Adam on the CLI's default EMAN model, cycling
    over a few meshes whose geometry is built once in setup, so the
    geometry caches stay warm and the layers and the tape do the work.
    """

    nominal_op_s = 1.59
    host_exponent = 0.3

    def __init__(self, seed, subdivisions=3, n_meshes=3):
        self.seed, self.subdivisions, self.n_meshes = seed, subdivisions, n_meshes
        self.model = None

    def setup(self, tracer):
        with tracer.span("datasets.generate"):
            data = segmentation_spheres(self.n_meshes, 0, self.subdivisions,
                                        CONFIG.data["bump_amplitude"],
                                        CONFIG.data["noise"], self.seed)
        spec = model_spec_from_config(CONFIG, target_dim=data.target_dim,
                                      task=data.task)
        with tracer.span("model.build"):
            self.model = build_model(spec, self.seed)
        self.batches = []
        for sample in data.train:
            _frames, geom, field = geometry(sample.mesh, tracer)
            self.batches.append((field, geom, np.asarray(sample.label)))
        self.opt = Adam([t for _n, t in self.model.parameters()],
                        lr=CONFIG.training["learning_rate"])
        self.dropout_rng = np.random.default_rng([self.seed, 2])
        self.losses = []
        self.op(tracer)

    def op(self, tracer):
        field, geom, target = self.batches[len(self.losses) % len(self.batches)]
        with tracer.span("model.forward"):
            logits = self.model.forward(field, geom, train=True, rng=self.dropout_rng)
        with tracer.span("autodiff.nll_loss"):
            loss = nll_loss(logits, target)
        tracer.backward(loss)
        with tracer.span("autodiff.adam_step"):
            self.opt.step()
            self.opt.zero_grad()
        self.losses.append(loss.item())

    def check(self):
        loss = self.losses[-1]
        problems = [] if np.isfinite(loss) else [f"loss is {loss}"]
        for name, t in self.model.parameters():
            if not np.isfinite(t.value).all():
                problems.append(f"parameter {name} is not finite")
                break
        return problems

    def fingerprint(self):
        return list(self.losses)

    def outputs(self):
        hashed = np.asarray(self.losses[1:1 + LOSSES_HASHED], dtype="<f8")
        return {"loss_trajectory_sha256": hashlib.sha256(hashed.tobytes()).hexdigest(),
                "losses_hashed": int(hashed.size)}

    def memory_pass(self):
        """tracemalloc peaks of one forward and one backward, and the tape size."""
        field, geom, target = self.batches[0]
        tracemalloc.start()
        try:
            logits = self.model.forward(field, geom, train=True, rng=self.dropout_rng)
            forward_peak = tracemalloc.get_traced_memory()[1]
            loss = nll_loss(logits, target)
            nodes = tape_nodes(loss)
            tracemalloc.reset_peak()
            loss.backward()
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.opt.zero_grad()
        return {"model.forward_peak_mib": forward_peak / MIB,
                "autodiff.backward_peak_mib": backward_peak / MIB,
                "autodiff.tape_nodes": nodes}


class EqgapSmall:
    """One op is one pair of meshes from the CLI's eqgap mesh set.

    Each mesh (a bumpy subdivision-1 icosphere or a 6x7 grid patch) runs
    the base forward plus the gauge, rot_tr_scale and perm families.  The
    forward is forward-only on tiny meshes whose geometry is new on every
    op, so per-op tape overhead and cold geometry caches dominate.  An op
    is a pair because the two mesh kinds take different times: the median
    of a half-and-half mixture of two modes falls in the gap between them
    and jumps from run to run.
    """

    nominal_op_s = 0.35
    host_exponent = 0.5

    def __init__(self, seed, n_meshes=CONFIG.data["n_meshes"]):
        self.seed, self.n_meshes = seed, n_meshes
        self.model = None

    def setup(self, tracer):
        with tracer.span("datasets.generate"):
            self.meshes = eqgap_meshes(self.n_meshes, self.seed,
                                       CONFIG.data["subdivisions"])
            rng = np.random.default_rng([self.seed, 1])
            self.suites = [transform_suites(m.n_vertices, 1, rng)[0]
                           for m in self.meshes]
        with tracer.span("model.build"):
            self.model = build_model(model_spec_from_config(CONFIG), self.seed)
        self.results = []  # (gaps, base logits) per mesh
        self.op(tracer)

    def _forward(self, geom, field, tracer):
        with tracer.span("model.forward"):
            return self.model.forward(field, geom).value

    def _mesh_gaps(self, mesh, suite, tracer):
        frames, geom, field = geometry(mesh, tracer)
        base = self._forward(geom, field, tracer)
        with tracer.span("tangent.regauge"):
            frames_g, transport_g = regauge(frames, suite.gauge)
        _f, geom_g, field_g = geometry(mesh, tracer, frames_g, transport_g)
        gauge = self._forward(geom_g, field_g, tracer)
        with tracer.span("transforms.apply_ambient"):
            moved = apply_ambient(mesh, suite.ambient)
        _f, geom_a, field_a = geometry(moved, tracer)
        ambient = self._forward(geom_a, field_a, tracer)
        with tracer.span("transforms.apply_permutation"):
            permuted = apply_permutation(mesh, suite.perm)
        _f, geom_p, field_p = geometry(permuted, tracer)
        perm = suite.perm.unpermute_rows(self._forward(geom_p, field_p, tracer))
        gaps = {"gauge": _mse(gauge, base), "rot_tr_scale": _mse(ambient, base),
                "perm": _mse(perm, base)}
        return gaps, base

    def op(self, tracer):
        k = 2 * (len(self.results) // 2 % (len(self.meshes) // 2))
        for mesh, suite in zip(self.meshes[k:k + 2], self.suites[k:k + 2]):
            self.results.append(self._mesh_gaps(mesh, suite, tracer))

    def check(self):
        return [p for gaps, base in self.results[-2:] for p in gap_problems(gaps, base)]

    def fingerprint(self):
        return [gaps for gaps, _base in self.results]

    def outputs(self):
        """Largest gap per family over the first pass through the mesh set."""
        first = [gaps for gaps, _base in self.results[:len(self.meshes)]]
        return {"meshes_compared": len(first),
                "max_gap": {f: max(g[f] for g in first) for f in first[0]}}

    def memory_pass(self):
        """tracemalloc peak of one base forward, and its tape size."""
        _frames, geom, field = geometry(self.meshes[0], NULL)
        tracemalloc.start()
        try:
            logits = self.model.forward(field, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"model.forward_peak_mib": peak / MIB,
                "autodiff.tape_nodes": tape_nodes(logits)}


class IngestIco4:
    """One op ingests a subdivision-4 icosphere from an OFF file.

    It loads the file and builds frames, transport and features for the
    mesh, for an ambient-transformed copy, for a permuted copy and for a
    regauged frame field.  No model is involved.
    """

    nominal_op_s = 0.46
    host_exponent = 1.1
    model = None

    def __init__(self, seed, workdir, subdivisions=4, n_suites=8):
        self.seed, self.workdir = seed, workdir
        self.subdivisions, self.n_suites = subdivisions, n_suites

    def setup(self, tracer):
        rng = np.random.default_rng([self.seed, 0])
        with tracer.span("datasets.generate"):
            sphere = generate_icosphere(self.subdivisions)
            bumps = CONFIG.data["bump_amplitude"] * rng.uniform(-1.0, 1.0, sphere.n_vertices)
            self.path = os.path.join(self.workdir, f"ingest-{self.seed}.off")
            save_mesh(sphere.with_vertices(sphere.vertices * (1.0 + bumps)[:, None]),
                      self.path)
            self.suites = transform_suites(sphere.n_vertices, self.n_suites, rng)
        self.n_ops = 0
        self.op(tracer)

    def op(self, tracer):
        suite = self.suites[self.n_ops % len(self.suites)]
        with tracer.span("mesh.load"):
            mesh = load_mesh(self.path)
        frames, _g, field = geometry(mesh, tracer)
        with tracer.span("transforms.apply_ambient"):
            moved = apply_ambient(mesh, suite.ambient)
        frames_a, _g, field_a = geometry(moved, tracer)
        with tracer.span("transforms.apply_permutation"):
            permuted = apply_permutation(mesh, suite.perm)
        frames_p, _g, field_p = geometry(permuted, tracer)
        with tracer.span("tangent.regauge"):
            frames_g, transport_g = regauge(frames, suite.gauge)
        _f, _g, field_g = geometry(mesh, tracer, frames_g, transport_g)
        self.n_ops += 1
        self.last = (suite, (frames, frames_a, frames_p, frames_g),
                     (field, field_a, field_p, field_g))

    def check(self):
        suite, all_frames, fields = self.last
        base, ambient, permuted, regauged = (f.values for f in fields)
        problems = [p for frames in all_frames for p in frame_problems(frames)]
        if not all(np.isfinite(v).all() for v in (base, ambient, permuted, regauged)):
            problems.append("features are not finite")
        problems += match_problems("ambient", ambient, base)
        problems += match_problems("permuted", permuted, suite.perm.permute_rows(base))
        problems += match_problems("regauged", regauged,
                                   regauged_values(fields[0], suite.gauge))
        return problems

    def fingerprint(self):
        return [f.values.tobytes() for f in self.last[2]]

    def outputs(self):
        values = self.last[2][0].values
        return {"n_vertices": int(values.shape[0]),
                "base_features_sha256": hashlib.sha256(values.tobytes()).hexdigest()}


# -- the paper's cost claims -----------------------------------------------------

def layer_costs(seed, subdivisions=(2, 3, 4), reps=3):
    """Forward+backward seconds of one hidden-type EMAN and GEM layer per size.

    EMAN (arXiv 2205.10662) claims equivariance at a cost above the GEM
    convolution it builds on, and both should scale linearly in the edges.
    Returns per-size medians, the EMAN/GEM ratio at the largest size and,
    per kind, the time growth divided by the edge growth from the smallest
    to the largest size.
    """
    hidden = FeatureType.parse(CONFIG.model["hidden_type"])
    rng = np.random.default_rng([seed, 3])
    times, edges = {}, []
    for sub in subdivisions:
        mesh = generate_icosphere(sub)
        geom = EdgeGeometry.from_frames(build_frames(mesh))
        x = rng.standard_normal((mesh.n_vertices, hidden.dim))
        edges.append(mesh.n_edges)
        for kind, cls in (("eman", EmanAttentionLayer), ("gem", GemConvLayer)):
            layer = cls(hidden, hidden, rng=rng)
            samples = []
            for _ in range(reps + 1):  # the first is a warm-up
                t0 = time.perf_counter()
                y = layer.forward(Tensor(x), geom)
                (y * y).sum().backward()
                samples.append(time.perf_counter() - t0)
            times[kind, mesh.n_edges] = statistics.median(samples[1:])
    out = {f"layers.{kind}.fwd_bwd_s.e{e}": t for (kind, e), t in times.items()}
    small, large = edges[0], edges[-1]
    out["layers.eman_gem_ratio"] = times["eman", large] / times["gem", large]
    for kind in ("eman", "gem"):
        out[f"layers.{kind}.edge_scaling"] = (
            (times[kind, large] / times[kind, small]) / (large / small))
    return out
