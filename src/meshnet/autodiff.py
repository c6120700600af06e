"""Reverse-mode differentiation over dense numpy buffers, plus Adam.

Minimal tape: every ``Tensor`` remembers its parents and a vector-Jacobian
closure; ``backward()`` on a scalar root walks the graph once in reverse
topological order.  The op set is exactly what the model records: ``+``,
``-``, ``*`` and ``/`` with the Tensor on the left (numpy broadcasting),
negation, matmul, ``.T``, ``reshape(*shape)``, gather/scatter, segment sums,
the per-edge phase rotation ``rotate_phase``, the order-by-order product
``commuting_matmul`` of a self kernel, the elementwise relu, exp, log, sqrt
and sigmoid, sum and mean, concatenation; no higher-order derivatives.  A
Tensor has no reflected operators and ``__array_ufunc__ = None``, so
``2.0 * t`` and ``ndarray + t`` raise ``TypeError`` rather than record.

Recording rule: every op computes its forward value once and returns it
through ``_node``, which records the op (its Tensor operands, in order, and
the closure) only while recording is on and some operand requires a gradient.
``Model.forward`` records only with ``train=True``, so eval forwards keep no tape.

Scatters (the adjoint of ``take_rows``, the forward of ``segment_sum``) go
through a ``ScatterPlan``, kept by the caller or made for the op.  Sorted
once, stably, it adds ``g[pos_j]`` to ``out[rows_j]`` in pass j, from zeros,
so each row adds its entries in ascending k, as ``np.add.at`` does: the
results are bit-identical to it.  Its segment max is one 1-D
``np.maximum.at``: a max does not depend on order, and on one narrow column
that is faster.  ``take_cols`` is no scatter: its adjoint fills a zero block.

Per-edge rotations are phases: ``rotate_phase`` reads each order-n block of
pair columns as complex128 and multiplies row e by ``exp(i n angle_e)``,
from a ``Phases`` table that the caller keeps or that lives for the op.  Its
adjoint is the same product with the conjugate phase.  A self kernel is
applied in the same view: ``commuting_matmul`` multiplies each order's
block by one matrix, real on the scalars and complex on the pairs.

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

from .errors import AutodiffError

__all__ = [
    "Tensor",
    "parameter",
    "concat",
    "take_rows",
    "take_cols",
    "rotate_phase",
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
    """An index ``idx`` for scatter-adds.  Pass j, built on first use, holds the rows with
    more than j entries (a slice if ``0..r-1``) and the position of each one's j-th."""

    def __init__(self, idx):
        self.idx = np.asarray(idx)

    @functools.cached_property
    def passes(self):
        order = np.argsort(self.idx, kind="stable")
        rows = self.idx[order]
        if rows.size and rows[0] < 0:
            raise IndexError(f"scatter index {rows[0]} is negative")
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        rank = np.arange(rows.size) - np.repeat(starts, np.diff(starts, append=rows.size))
        by_rank = np.argsort(rank, kind="stable")
        cuts = np.searchsorted(rank[by_rank], np.arange(1, rank.max(initial=0) + 1))
        return tuple((slice(r.size) if (r := rows[k]).size and r[-1] == r.size - 1 else r,
                      order[k]) for k in np.split(by_rank, cuts))

    def add(self, g, n):
        """Row k of ``g`` summed into row ``idx[k]`` of an n-row zero array."""
        out = np.zeros((n,) + g.shape[1:])
        for rows, pos in self.passes:
            out[rows] += g[pos]
        return out

    def max(self, v, n):
        """Each column's max within each of n rows (``-inf`` where empty)."""
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
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp", "_spent")
    # numpy declines ``ndarray op Tensor``; with no reflected operator it is a TypeError
    __array_ufunc__ = None

    def __init__(self, value, requires_grad=False, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.value) if requires_grad and vjp is None else None
        self._parents = parents
        self._vjp = vjp
        self._spent = False

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
        """Populate ``grad`` on every reachable parameter.

        The root must be scalar and recorded; a second backward through the
        same root is rejected (no double backward).  Every recorded node's
        VJP returns one array per parent, so each node reached in reverse
        topological order holds its gradient.
        """
        if self.value.size != 1:
            raise AutodiffError(f"backward needs a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            raise AutodiffError("backward needs a recorded root: Model.forward(train=True)")
        if self._spent:
            raise AutodiffError("backward already ran through this root; "
                                "higher-order gradients are not supported")
        self._spent = True
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen and p.requires_grad:
                        stack.append((p, False))
        grads = {id(self): np.ones_like(self.value)}
        for node in reversed(topo):
            g = grads.pop(id(node))
            if node._vjp is None:  # a leaf: its grad was allocated when it was built
                node.grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad:
                    continue
                # out of place: a VJP may hand one array to several parents
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

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
            return self * (1.0 / np.asarray(other, dtype=np.float64))
        a, b = self.value, other.value
        return _node(a / b, (self, other),
                     lambda g: (_unbroadcast(g / b, a.shape),
                                _unbroadcast(-g * a / (b * b), b.shape)))

    def __matmul__(self, other):
        a, b = self.value, _val(other)
        parents = [p for p in (self, other) if isinstance(p, Tensor)]

        def vjp(g):
            out = [g @ b.T]
            if isinstance(other, Tensor):
                out.append(a.T @ g)
            return tuple(out)

        return _node(a @ b, parents, vjp)

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
        out = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                       np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
        return _node(out, (self,), lambda g: (g * out * (1.0 - out),))

    # -- shape ---------------------------------------------------------------

    def reshape(self, *shape):
        a = self.value
        return _node(a.reshape(shape), (self,), lambda g: (g.reshape(a.shape),))

    @property
    def T(self):
        return _node(self.value.T, (self,), lambda g: (g.T,))

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


def rotate_phase(x: Tensor, angle, blocks) -> Tensor:
    """Turn the 2-dimensional components of row e of ``x`` by ``n * angle[e]``.

    Each ``(n, lo, hi)`` of ``blocks`` names the columns ``lo:hi`` of the last
    axis that hold order-n pairs.  Read as complex128, a pair is ``x + iy``,
    and row e of the block is multiplied by ``exp(i n angle[e])``.  The
    rotation is orthogonal, so the adjoint is the product with the conjugate.
    ``angle`` is the angles or their ``Phases``.
    """
    row = (-1,) + (1,) * (x.ndim - 1)
    phases = angle if isinstance(angle, Phases) else Phases(angle)

    def turn(v, conj):
        out = v.copy()
        for n, lo, hi in blocks:
            block = out[..., lo:hi].view(np.complex128)
            block *= (phases[n].conj() if conj else phases[n]).reshape(row)
        return out

    return _node(turn(x.value, False), (x,), lambda g: (turn(g, True),))


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
    """Mean negative log-likelihood of integer targets under row softmax."""
    targets = np.asarray(targets, dtype=np.int64)
    nrows, ncols = logits.value.shape
    if targets.shape != (nrows,):
        raise ValueError(f"targets shape {targets.shape} does not match {nrows} rows")
    if targets.min() < 0 or targets.max() >= ncols:
        raise IndexError(f"target index out of range for {ncols} classes")
    m = logits.value.max(axis=1)  # detached shift
    z = logits - m[:, None]
    lse = z.exp().sum(axis=1).log() + m
    picked = take_rows(logits.reshape(-1), np.arange(nrows) * ncols + targets)
    return (lse - picked).mean()


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, at the usual ``_BETA1``, ``_BETA2`` and ``_EPS``."""

    def __init__(self, params, lr):
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
