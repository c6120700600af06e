"""Reverse-mode differentiation over dense numpy buffers, plus Adam.

Minimal tape: every ``Tensor`` remembers its parents and a vector-Jacobian
closure; ``backward()`` on a scalar root walks the graph once in reverse
topological order.  The op set is exactly what the model records: ``+`` and
``*`` with the Tensor on the left (numpy broadcasting), ``reshape(*shape)``,
the elementwise relu, sum and mean, concatenation, segment sums, the
order-by-order product ``commuting_matmul`` of a self kernel, the fused
message ops (below), and one node per model op: ``attention_weights``, the
value sum ``weighted_segment_sum``, the gate ``gauge_gate``, ``nll_loss``
and the dense head's ``affine``; no higher-order derivatives.  Tensor x
Tensor ``*`` and ``sum`` serve the benchmark's per-layer probe, which runs
``(y * y).sum().backward()`` on a layer's output.  A Tensor has no
reflected operators and ``__array_ufunc__ = None``, so ``2.0 * t`` and
``ndarray + t`` raise ``TypeError`` rather than record; it has no ``-``,
``/`` or ``@``.

Recording rule: every op computes its forward value once and returns it
through ``_node``, which records the op (its Tensor operands, in order, and
the closure) only while recording is on and some operand requires a gradient.
``Model.forward`` records only with ``train=True``, so eval forwards keep no tape.
Memory rule: ``Tensor.backward`` alone owns the tape's memory.  The arrays a VJP
returns share no memory, except one array given to two parents (``+``): ``reshape``
and ``concat`` return views of ``g``, ``sum`` a copy, ``gauge_gate`` its ``g``, the
value gradient of ``weighted_segment_sum`` its gathered ``g``, ``nll_loss`` the
exponentials it kept, each turned into the gradient in place, and every other VJP
fresh arrays.  So a VJP owns its ``g`` and may write it.  Row gathers use ``np.take``.

Scatters (the adjoints of the gathers, the forwards of ``segment_sum``,
``weighted_segment_sum`` and ``attention_weights``) go through a ``ScatterPlan``
that the caller keeps.  Sorted once, stably, it adds ``g[pos_j]`` to
``out[rows_j]`` in pass j, from zeros, so each row adds its entries in
ascending k, as ``np.add.at`` does: the results are bit-identical to it.  Its
segment max is one 1-D ``np.maximum.at``: a max does not depend on order, and
on one narrow column that is faster.  Both refuse an array without one row per
index.

Per-edge rotations are phases: ``_turn`` multiplies each order-n block of
pair columns, read as complex128, by ``exp(i n angle_e)`` in place, from a
``Phases`` table that the geometry keeps.  The fused ops
``transported_rows`` and ``turned_product``, and the model ops, keep only what
their adjoints read; each runs the numpy operations of the generic chain it
replaces, in order, and its adjoint rounds as the chain's did, bit for bit.
A self kernel uses the same view: ``commuting_matmul`` multiplies each
order's block by one matrix, real on the scalars and complex on the pairs.

Allocator policy: importing this module (and so ``meshnet``) sets two
process-wide glibc malloc thresholds, ``M_MMAP_THRESHOLD`` to 32 MiB and
``M_TRIM_THRESHOLD`` to 1 GiB; see ``_keep_freed_memory_mapped``.  A
training step frees its whole tape at the end of backward, and with glibc's
default thresholds that memory went back to the kernel and was page-faulted
in again by the next step: a median of 42-46k minor faults (about 170 MB)
per warm step of the default model at E=3840, against a median of 0 and at
most 220 with these thresholds.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools

import numpy as np

from .errors import AutodiffError, _kept

__all__ = [
    "Tensor",
    "parameter",
    "concat",
    "commuting_matmul",
    "segment_sum",
    "nll_loss",
    "affine",
    "gauge_gate",
    "Adam",
]


def _keep_freed_memory_mapped():
    """Let freed tape memory stay mapped for reuse by the next step.

    glibc serves blocks above ``M_MMAP_THRESHOLD`` with their own mmap and
    returns the top of the heap to the kernel once more than
    ``M_TRIM_THRESHOLD`` of it is free.  By default both follow the largest
    block freed so far (trim at twice it, about 10 MiB for a default model),
    far below the hundreds of MiB a tape frees at once, so every step
    unmapped its tape and faulted it back in.  This sets the mmap threshold
    to 32 MiB, its 64-bit maximum, and the trim threshold to 1 GiB, for the
    whole process.  Where the C library has no ``mallopt`` (macOS, Windows)
    nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory_mapped()


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


class ScatterPlan:
    """An index ``idx`` for gathers and scatter-adds.  Pass j, built on first use, holds
    the rows with more than j entries (a slice if ``0..r-1``) and the position of each
    one's j-th.  Its least and greatest index, found once, check every use in O(1)."""

    def __init__(self, idx):
        self.idx = _kept(idx, np.int64, (None,), AutodiffError, "an index")
        self._bounds = (self.idx.min(), self.idx.max()) if self.idx.size else (0, -1)

    def check(self, n, what, v=None):
        """Raise AutodiffError unless each index names one of n rows (and v has one per index)."""
        if v is not None and v.shape[:1] != self.idx.shape:
            raise AutodiffError(f"a {what} by {self.idx.size} indices got shape {v.shape}")
        lo, hi = self._bounds
        if lo < 0 or hi >= n:
            raise AutodiffError(f"{what} index {lo if lo < 0 else hi} is outside "
                                f"the {n} rows 0..{n - 1}")

    @functools.cached_property
    def passes(self):
        order = np.argsort(self.idx, kind="stable")
        rows = self.idx[order]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        rank = np.arange(rows.size) - np.repeat(starts, np.diff(starts, append=rows.size))
        by_rank = np.argsort(rank, kind="stable")
        cuts = np.searchsorted(rank[by_rank], np.arange(1, rank.max(initial=0) + 1))
        return tuple((slice(r.size) if (r := rows[k]).size and r[-1] == r.size - 1 else r,
                      order[k]) for k in np.split(by_rank, cuts))

    def take(self, a):
        """Rows ``idx`` of ``a``: the bits of ``a[idx]``, gathered by ``np.take``."""
        return np.take(a, self.idx, axis=0)

    def add(self, g, n):
        """Row k of ``g`` summed into row ``idx[k]`` of an n-row zero array."""
        self.check(n, "scatter", g)
        out = np.zeros((n,) + g.shape[1:])
        for rows, pos in self.passes:
            out[rows] += np.take(g, pos, axis=0)
        return out

    def max(self, v, n):
        """Each column's max within each of n rows (``-inf`` where empty)."""
        self.check(n, "scatter", v)
        c = int(np.prod(v.shape[1:]))
        flat = self.idx if c == 1 else (self.idx[:, None] * c + np.arange(c)).ravel()
        m = np.full(n * c, -np.inf)
        np.maximum.at(m, flat, v.reshape(-1))
        return m.reshape((n,) + v.shape[1:])


class Phases(dict):
    """Angles per row and, by order n, their phases ``exp(i n angle)`` once used."""

    def __init__(self, angle):
        self.angle = np.asarray(angle, dtype=np.float64)

    def __missing__(self, n):
        self[n] = np.exp(1j * n * self.angle)
        return self[n]


def _val(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


_recording = contextvars.ContextVar("recording", default=True)
_RELEASED = object()  # the VJP slot of a node that backward has walked


@contextlib.contextmanager
def _recording_as(flag):
    """Record the block's ops only if ``flag``; the caller's mode comes back after."""
    token = _recording.set(flag)
    try:
        yield
    finally:
        _recording.reset(token)


def _node(value, parents, vjp):
    """A tape node if recording and some parent requires a gradient, else a constant."""
    parents = tuple(parents)
    if _recording.get() and any(p.requires_grad for p in parents):
        return Tensor(value, True, parents, vjp)
    return Tensor(value)


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")
    # numpy declines ``ndarray op Tensor``; with no reflected operator it is a TypeError
    __array_ufunc__ = None

    def __init__(self, value, requires_grad=False, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.value) if requires_grad and vjp is None else None
        self._parents = parents
        self._vjp = vjp

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def item(self):
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, grad={self.requires_grad})"

    def backward(self):
        """Populate ``grad`` on every reachable parameter, and release the tape.

        The root must be scalar and recorded.  Each parent's gradient array is
        held by it alone (an array one VJP returns twice is copied for the second
        parent), and later ones are summed in place.  A walked node drops its
        parents and VJP, so each value dies after its last reader; a backward
        that reaches such a node is refused before any VJP runs.  A parameter
        used as its own root has no record to release, and accumulates again.
        """
        if self.value.size != 1:
            raise AutodiffError(f"backward needs a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            raise AutodiffError("backward needs a recorded root: Model.forward(train=True)")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            elif node._vjp is _RELEASED:
                raise AutodiffError("backward already ran through this graph (no double backward)")
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen and p.requires_grad:
                        stack.append((p, False))
        grads = {id(self): np.ones_like(self.value)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node))
            if node._vjp is None:  # a leaf: its grad was allocated when it was built
                node.grad += g
                continue
            given = set()
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    grads[id(parent)] = pg.copy() if id(pg) in given else pg
                    given.add(id(pg))
            node._parents, node._vjp = (), _RELEASED

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        parents = [p for p in (self, other) if isinstance(p, Tensor)]
        return _node(self.value + _val(other), parents,
                     lambda g: tuple(_unbroadcast(g, p.value.shape) for p in parents))

    def __mul__(self, other):
        a, b = self.value, _val(other)
        parents = [p for p in (self, other) if isinstance(p, Tensor)]

        return _node(a * b, parents, lambda g: tuple(
            _unbroadcast(g * v, p.value.shape) for p, v in zip(parents, (b, a))))

    # -- elementwise ----------------------------------------------------------

    def relu(self):
        a = self.value
        mask = (a > 0).astype(a.dtype)
        return _node(a * mask, (self,), lambda g: (g * mask,))

    # -- shape ---------------------------------------------------------------

    def reshape(self, *shape):
        a = self.value
        return _node(a.reshape(shape), (self,), lambda g: (g.reshape(a.shape),))

    def sum(self, axis=None, keepdims=False):
        a = self.value

        def vjp(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, a.shape).copy(),)

        return _node(a.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def parameter(value) -> Tensor:
    """Leaf tensor tracked by the optimizer (grad buffer preallocated)."""
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------

def concat(tensors, axis=0) -> Tensor:
    vals = [_val(t) for t in tensors]
    splits = np.cumsum([v.shape[axis] for v in vals])[:-1]

    def vjp(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p for t, p in zip(tensors, pieces) if isinstance(t, Tensor))

    return _node(np.concatenate(vals, axis=axis),
                 (t for t in tensors if isinstance(t, Tensor)), vjp)


def _turn(v, phases, blocks, conj=False):
    """``v`` turned in place: each order-n block of pairs of row e, read as complex128,
    times its ``Phases`` entry ``exp(i n angle_e)``, or the conjugate."""
    row = (-1,) + (1,) * (v.ndim - 1)
    for n, lo, hi in blocks:
        block, phase = v[..., lo:hi].view(np.complex128), phases[n].reshape(row)
        np.multiply(block, phase.conj() if conj else phase, out=block, order="F")
    return v


def transported_rows(x: Tensor, plan: ScatterPlan, phases: Phases, blocks) -> Tensor:
    """Rows ``plan.idx`` of ``x``, row e turned by its phase; the adjoint turns back and
    scatter-adds."""
    n = x.value.shape[0]
    plan.check(n, "gather")
    return _node(_turn(plan.take(x.value), phases, blocks), (x,),
                 lambda g: (plan.add(_turn(g, phases, blocks, True), n),))


def turned_product(u: Tensor, w: Tensor, phases: Phases, blocks, shape) -> Tensor:
    """``(u @ w.T).reshape(shape)``, row e turned by its phase (see ``_turn``)."""
    def vjp(g):
        g = _turn(g, phases, blocks, True).reshape(-1, w.value.shape[0])
        return g @ w.value, (u.value.T @ g).T

    return _node(_turn((u.value @ w.value.T).reshape(shape), phases, blocks), (u, w), vjp)


def attention_weights(k: Tensor, q: Tensor, plan: ScatterPlan, scale: float) -> Tensor:
    """Softmax within each segment ``plan.idx`` of ``scale`` times the dot of ``k[e, h]`` with
    ``q[plan.idx[e]]``, a segment per row of ``q``, each column shifted by its segment max.
    The node keeps the exponentials ``e`` and their segment sums ``s``; the adjoint runs the
    softmax's, ``(g / s + scatter(-g e / s^2)) e``, then the dot's, gathering ``s`` and ``q``."""
    if q.value.shape[1:] != k.value.shape[1:]:
        raise AutodiffError(f"queries {q.value.shape} do not fit keys {k.value.shape}")
    n = q.value.shape[0]
    plan.check(n, "gather", k.value)
    logits = np.multiply(qk := plan.take(q.value), k.value, out=qk).sum(axis=-1) * scale
    e = np.exp(logits - plan.take(plan.max(logits, n)))
    s = plan.add(e, n)

    def vjp(g):
        si = plan.take(s)
        g = (g / si + plan.take(plan.add(-g * e / (si * si), n))) * e
        g = np.expand_dims(g * scale, -1)
        return np.multiply(gk := plan.take(q.value), g, out=gk), plan.add(g * k.value, n)

    return _node(e / plan.take(s), (k, q), vjp)


def weighted_segment_sum(v: Tensor, w: Tensor, plan: ScatterPlan, size) -> Tensor:
    """Rows of ``v``, each last-axis slice ``v[e, h]`` times ``w[e, h]``, summed into
    segments ``plan.idx``, one flat row per segment times its entry of the (n, 1) column
    ``size``; the weighted rows and the unscaled sums are not kept."""
    if w.value.shape != v.value.shape[:2]:
        raise AutodiffError(f"weights {w.value.shape} do not fit values {v.value.shape}")
    n = size.shape[0]
    w3 = w.value[..., None]

    def vjp(g):
        g *= size
        g = plan.take(g.reshape((n,) + v.value.shape[1:]))
        gw = _unbroadcast(g * v.value, w3.shape).reshape(w.value.shape)
        return np.multiply(g, w3, out=g), gw

    return _node(plan.add(v.value * w3, n).reshape(n, -1) * size, (v, w), vjp)


def commuting_matmul(x: Tensor, w: Tensor, blocks, out_dim: int, in_cols=None) -> Tensor:
    """``x`` times a matrix that commutes with every rotation, order by order.

    Each ``(n, lo, hi, out_lo, out_hi)`` of ``blocks`` maps the order-n
    columns ``lo:hi`` to the output columns ``out_lo:out_hi``; other output
    columns are zero, and blocks may read the same input columns.  With
    ``in_cols``, input column j is column ``in_cols[j]`` of ``x``.  ``w``
    holds each block's (m_out, m_in) matrix ``W_n`` in turn, row-major:
    reals for n = 0, pairs ``(a, b)`` read as ``a + ib`` for n >= 1.  On
    complex128 views of the pairs the block is ``X_n @ conj(W_n).T``
    (``[[a, b], [-b, a]]`` multiplies by ``a - ib``), and its adjoint
    ``gW_n = gY_n^H @ X_n`` and ``gX_n = gY_n @ W_n``, summed over the
    blocks that read ``X_n``.
    """
    def cols(a, c, t):
        return np.ascontiguousarray(a[:, c]).view(t)

    parts, k = [], 0
    for n, lo, hi, out_lo, out_hi in blocks:
        t, m_in = (np.complex128, (hi - lo) // 2) if n else (np.float64, hi - lo)
        sw = slice(k, k + m_in * (out_hi - out_lo))
        k = sw.stop
        parts.append((t, slice(lo, hi) if in_cols is None else in_cols[lo:hi],
                      slice(out_lo, out_hi), sw, w.value[sw].view(t).reshape(-1, m_in)))
    y = np.zeros((x.value.shape[0], out_dim))
    for t, cin, cout, _sw, W in parts:
        y[:, cout] = (cols(x.value, cin, t) @ W.conj().T).view(np.float64)

    def vjp(g):
        gx, gw = np.zeros_like(x.value), np.zeros_like(w.value)
        for t, cin, cout, sw, W in parts:
            G = cols(g, cout, t)
            gx[:, cin] += (G @ W).view(np.float64)
            gw[sw] = (G.conj().T @ cols(x.value, cin, t)).ravel().view(np.float64)
        return gx, gw

    return _node(y, (x, w), vjp)


def segment_sum(x: Tensor, plan: ScatterPlan, n_segments: int) -> Tensor:
    """Sum rows of ``x`` into their segment ``plan.idx``; adjoint gathers."""
    return _node(plan.add(x.value, n_segments), (x,), lambda g: (plan.take(g),))


def nll_loss(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under 2-D logits' row softmax;
    the node keeps the shifted exponentials ``e`` and their row sums ``s``, and its
    adjoint turns ``e`` in place into ``(g / n / s) e``, less ``g / n`` at each target."""
    targets = np.asarray(targets)
    if logits.value.ndim != 2 or targets.dtype.kind not in "iu":
        raise AutodiffError(f"nll_loss needs 2-D logits and integer targets, got logits of "
                            f"shape {logits.value.shape} and targets of {targets.dtype}")
    nrows, ncols = logits.value.shape
    if targets.shape != (nrows,):
        raise AutodiffError(f"targets shape {targets.shape} does not match {nrows} rows")
    if not nrows:
        raise AutodiffError("nll_loss needs at least one row, got an empty batch")
    if targets.min() < 0 or targets.max() >= ncols:
        raise AutodiffError(f"target index out of range for {ncols} classes")
    pick = (np.arange(nrows), targets.astype(np.int64))
    m = logits.value.max(axis=1)
    e = np.exp(logits.value - m[:, None])
    s = e.sum(axis=1)
    scale = 1.0 / nrows

    def vjp(g):
        g = g * scale
        e[...] *= (g / s)[:, None]
        e[pick] -= g
        return (e,)

    return _node((np.log(s) + m - logits.value[pick]).sum() * scale, (logits,), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``; the adjoint reads ``x`` and ``w``, and keeps no output."""
    y = x.value @ w.value
    y += b.value
    return _node(y, (x, w, b), lambda g: (g @ w.value.T, x.value.T @ g, g.sum(axis=0)))


def gauge_gate(x: Tensor, c: Tensor, m: int, eps: float) -> Tensor:
    """ReLU of the first ``m`` columns of ``x``; each pair f_j after them, read as the strided
    columns ``[m::2]`` and ``[m+1::2]``, times ``sigmoid(|f_j| + c_j) / (|f_j| + eps)``,
    ``|f_j| = sqrt(f_j . f_j + 1e-60)``, kept with the sigmoids.  The adjoint writes into
    ``g``: as in the chain it replaced, the pair gradient adds ``g gate``, then twice the
    norm's term, and with scalars the zero-padded parts are summed (-0.0 becomes 0.0)."""
    xv, cols = x.value, (np.s_[:, m::2], np.s_[:, m + 1::2])
    if xv.ndim != 2 or xv.shape[1] != m + 2 * c.value.size:
        raise AutodiffError(f"gate of {m} scalars and pairs {c.value.shape} got {xv.shape}")
    pairs = [xv[j] for j in cols]
    nrm = np.sqrt(pairs[0] * pairs[0] + pairs[1] * pairs[1] + 1e-60)
    a = nrm + c.value
    ea = np.exp(-np.abs(a))
    sig = np.where(a >= 0, 1.0 / (1.0 + ea), ea / (1.0 + ea))

    def parts():  # the scalars' ReLU mask, |f| + eps and the gate
        d = nrm + eps
        return (xv[:, :m] > 0).astype(np.float64), d, sig / d

    def vjp(g):
        mask, d, gate = parts()
        gp = [g[j] for j in cols]
        g_gate = gp[0] * pairs[0] + gp[1] * pairs[1]
        g_a = g_gate / d * sig * (1.0 - sig)
        h = (-g_gate * sig / (d * d) + g_a) * 0.5 / nrm
        g[:, :m] *= mask
        for gj, xj in zip(gp, pairs):
            g_sq = h * xj
            gj *= gate
            gj += g_sq
            gj += g_sq
        if m:
            g += 0.0
        return g, g_a.sum(axis=0)

    mask, _d, gate = parts()
    out = np.empty_like(xv)
    for j, f in zip((np.s_[:, :m],) + cols, (mask, gate, gate)):
        np.multiply(xv[j], f, out=out[j])
    return _node(out, (x, c), vjp)


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, at the usual ``_BETA1``, ``_BETA2`` and ``_EPS``, its moments
    updated in place; the learning rate ``lr`` is a real in (0, inf), else an AutodiffError."""

    def __init__(self, params, lr):
        if not 0 < (lr := _kept(lr, np.float64, (), AutodiffError, "lr")) < np.inf:
            raise AutodiffError(f"lr must be in (0, inf), got {lr}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        for p, m, v in zip(self.params, self.m, self.v):
            m *= _BETA1
            m += (1 - _BETA1) * p.grad
            v *= _BETA2
            v += (1 - _BETA2) * p.grad * p.grad
            mhat = m / (1 - _BETA1 ** self.step_count)
            vhat = v / (1 - _BETA2 ** self.step_count)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + _EPS)
