"""Reverse-mode differentiation over dense numpy buffers, plus Adam.

Minimal tape: every ``Tensor`` remembers its parents and a vector-Jacobian
closure; ``backward()`` on a scalar root walks the graph once in reverse
topological order.  The op set is exactly what the model records: ``+``,
``-`` and ``*`` with the Tensor on the left (numpy broadcasting), ``/`` and
``@`` between Tensors, negation, ``reshape(*shape)``,
gather/scatter, segment sums, the order-by-order product
``commuting_matmul`` of a self kernel, the fused message and attention ops
(below), the elementwise relu, exp, log, sqrt and sigmoid, sum and mean,
concatenation; no higher-order derivatives.  A Tensor has no reflected
operators and ``__array_ufunc__ = None``, so ``2.0 * t`` and ``ndarray + t``
raise ``TypeError`` rather than record, and so do ``t / 2.0`` and
``t @ ndarray``.

Recording rule: every op computes its forward value once and returns it
through ``_node``, which records the op (its Tensor operands, in order, and
the closure) only while recording is on and some operand requires a gradient.
``Model.forward`` records only with ``train=True``, so eval forwards keep no tape.
Memory rule: ``Tensor.backward`` alone owns the tape's memory.  The arrays a VJP
returns share no memory, except one array given to two parents (``+``): ``reshape``
and ``concat`` return views of ``g``, ``sum`` a copy, and every other VJP fresh
arrays.  So a VJP owns its ``g``, and the fused message adjoints turn it in place.

Scatters (the adjoint of ``take_rows``, the forward of ``segment_sum``) go
through a ``ScatterPlan``, kept by the caller or made for the op.  Sorted
once, stably, it adds ``g[pos_j]`` to ``out[rows_j]`` in pass j, from zeros,
so each row adds its entries in ascending k, as ``np.add.at`` does: the
results are bit-identical to it.  Its segment max is one 1-D
``np.maximum.at``: a max does not depend on order, and on one narrow column
that is faster.  ``take_cols`` is no scatter: its adjoint fills a zero block.

Per-edge rotations are phases: ``_turn`` multiplies each order-n block of
pair columns, read as complex128, by ``exp(i n angle_e)`` in place, from a
``Phases`` table that the geometry keeps.  The fused ops
``transported_rows``, ``turned_product``, ``gathered_dot`` and
``weighted_segment_sum`` keep only what their adjoints read; each runs the
numpy operations of the generic chain it replaces, in order, bit for bit.
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
    "take_rows",
    "take_cols",
    "commuting_matmul",
    "segment_sum",
    "segment_softmax",
    "nll_loss",
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

    def check(self, n, what):
        """Raise AutodiffError unless every index names one of ``n`` rows."""
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

    def add(self, g, n):
        """Row k of ``g`` summed into row ``idx[k]`` of an n-row zero array."""
        self.check(n, "scatter")
        out = np.zeros((n,) + g.shape[1:])
        for rows, pos in self.passes:
            out[rows] += g[pos]
        return out

    def max(self, v, n):
        """Each column's max within each of n rows (``-inf`` where empty)."""
        self.check(n, "scatter")
        c = int(np.prod(v.shape[1:]))
        flat = self.idx if c == 1 else (self.idx[:, None] * c + np.arange(c)).ravel()
        m = np.full(n * c, -np.inf)
        np.maximum.at(m, flat, v.reshape(-1))
        return m.reshape((n,) + v.shape[1:])


def _plan(idx):
    return idx if isinstance(idx, ScatterPlan) else ScatterPlan(idx)


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

    def __neg__(self):
        return _node(-self.value, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))

    def __mul__(self, other):
        a, b = self.value, _val(other)
        parents = [p for p in (self, other) if isinstance(p, Tensor)]

        def vjp(g):
            out = [_unbroadcast(g * b, a.shape)]
            if isinstance(other, Tensor):
                out.append(_unbroadcast(g * a, b.shape))
            return tuple(out)

        return _node(a * b, parents, vjp)

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        a, b = self.value, other.value
        return _node(a / b, (self, other),
                     lambda g: (_unbroadcast(g / b, a.shape),
                                _unbroadcast(-g * a / (b * b), b.shape)))

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        a, b = self.value, other.value
        return _node(a @ b, (self, other), lambda g: (g @ b.T, a.T @ g))

    # -- elementwise ----------------------------------------------------------

    def relu(self):
        a = self.value
        mask = (a > 0).astype(a.dtype)
        return _node(a * mask, (self,), lambda g: (g * mask,))

    def exp(self):
        out = np.exp(self.value)
        return _node(out, (self,), lambda g: (g * out,))

    def log(self):
        a = self.value
        return _node(np.log(a), (self,), lambda g: (g / a,))

    def sqrt(self):
        out = np.sqrt(self.value)
        return _node(out, (self,), lambda g: (g * 0.5 / out,))

    def sigmoid(self):
        a = self.value
        e = np.exp(-np.abs(a))
        out = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return _node(out, (self,), lambda g: (g * out * (1.0 - out),))

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


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather along axis 0; adjoint scatter-adds."""
    plan, n = _plan(idx), x.value.shape[0]
    plan.check(n, "gather")
    return _node(x.value[plan.idx], (x,), lambda g: (plan.add(g, n),))


def take_cols(x: Tensor, cols) -> Tensor:
    """Distinct columns of ``x`` (an index list or a slice), gathered with
    ``np.take``.

    ``np.take`` is C-ordered where ``x[:, idx]`` is not.  The adjoint writes
    ``g`` into a zero block.  Only an index list is checked for repeats; a
    slice has none.
    """
    checked = not isinstance(cols, slice)
    cols = np.arange(x.value.shape[1])[cols]
    if checked and np.unique(cols).size < cols.size:
        raise AutodiffError("take_cols needs distinct columns")

    def vjp(g):
        gx = np.zeros_like(x.value)
        gx[:, cols] = g
        return (gx,)

    return _node(np.take(x.value, cols, axis=1), (x,), vjp)


def _turn(v, phases, blocks, conj=False):
    """``v`` turned in place: each order-n block of pairs of row e, read as complex128,
    times its ``Phases`` entry ``exp(i n angle_e)``, or the conjugate."""
    row = (-1,) + (1,) * (v.ndim - 1)
    for n, lo, hi in blocks:
        block = v[..., lo:hi].view(np.complex128)
        block *= (phases[n].conj() if conj else phases[n]).reshape(row)
    return v


def transported_rows(x: Tensor, plan: ScatterPlan, phases: Phases, blocks) -> Tensor:
    """Rows ``plan.idx`` of ``x``, row e turned by its phase; the adjoint turns back and
    scatter-adds."""
    n = x.value.shape[0]
    plan.check(n, "gather")
    return _node(_turn(x.value[plan.idx], phases, blocks), (x,),
                 lambda g: (plan.add(_turn(g, phases, blocks, True), n),))


def turned_product(u: Tensor, w: Tensor, phases: Phases, blocks, shape) -> Tensor:
    """``(u @ w.T).reshape(shape)``, row e turned by its phase (see ``_turn``)."""
    def vjp(g):
        g = _turn(g, phases, blocks, True).reshape(-1, w.value.shape[0])
        return g @ w.value, (u.value.T @ g).T

    return _node(_turn((u.value @ w.value.T).reshape(shape), phases, blocks), (u, w), vjp)


def gathered_dot(k: Tensor, q: Tensor, plan: ScatterPlan, scale: float) -> Tensor:
    """``scale`` times the dot of ``k[e, h]`` with ``q[plan.idx[e], h]`` over the last
    axis; the adjoint gathers the rows of ``q`` again rather than keep them."""
    n = q.value.shape[0]
    plan.check(n, "gather")

    def vjp(g):
        g = np.expand_dims(g * scale, -1)
        return g * q.value[plan.idx], plan.add(g * k.value, n)

    return _node((k.value * q.value[plan.idx]).sum(axis=-1) * scale, (k, q), vjp)


def weighted_segment_sum(v: Tensor, w: Tensor, plan: ScatterPlan, n_segments: int) -> Tensor:
    """Rows of ``v``, each last-axis slice ``v[e, h]`` times ``w[e, h]``, summed into
    segments ``plan.idx``; the weighted rows are not kept."""
    w3 = w.value[..., None]

    def vjp(g):
        g = g[plan.idx]
        return g * w3, _unbroadcast(g * v.value, w3.shape).reshape(w.value.shape)

    return _node(plan.add(v.value * w3, n_segments), (v, w), vjp)


def commuting_matmul(x: Tensor, w: Tensor, blocks, out_dim: int) -> Tensor:
    """``x`` times a matrix that commutes with every rotation, order by order.

    Each ``(n, lo, hi, out_lo, out_hi)`` of ``blocks`` maps the order-n
    columns ``lo:hi`` to the output columns ``out_lo:out_hi``; other output
    columns are zero, and blocks may read the same input columns.  ``w``
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
        parts.append((t, slice(lo, hi), slice(out_lo, out_hi), sw,
                      w.value[sw].view(t).reshape(-1, m_in)))
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


def segment_sum(x: Tensor, segments, n_segments: int) -> Tensor:
    """Sum rows of ``x`` into their segment; adjoint gathers."""
    plan = _plan(segments)
    return _node(plan.add(x.value, n_segments), (x,), lambda g: (g[plan.idx],))


def segment_softmax(logits: Tensor, segments, n_segments: int) -> Tensor:
    """Softmax of each column within each segment, shifted by the segment max."""
    plan = _plan(segments)
    shift = plan.max(logits.value, n_segments)[plan.idx]  # gradient-transparent
    e = (logits - shift).exp()
    return e / take_rows(segment_sum(e, plan, n_segments), plan)


def nll_loss(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under 2-D logits' row softmax."""
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
    m = logits.value.max(axis=1)  # detached shift
    z = logits - m[:, None]
    lse = z.exp().sum(axis=1).log() + m
    picked = take_rows(logits.reshape(-1), np.arange(nrows) * ncols + targets.astype(np.int64))
    return (lse - picked).mean()


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, at the usual ``_BETA1``, ``_BETA2`` and ``_EPS``; the
    learning rate ``lr`` is a real number in (0, inf), else an AutodiffError."""

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
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = _BETA1 * self.m[i] + (1 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1 - _BETA2) * g * g
            mhat = self.m[i] / (1 - _BETA1 ** self.step_count)
            vhat = self.v[i] / (1 - _BETA2 ** self.step_count)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + _EPS)
