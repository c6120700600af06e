"""Reverse-mode differentiation over dense numpy buffers, plus Adam.

Minimal tape: every ``Tensor`` remembers its parents and a vector-Jacobian
closure; ``backward()`` on a scalar root walks the graph once in reverse
topological order.  The op set is exactly what the mesh layers need
(matmul, gather/scatter, segment sums, the per-edge phase rotation
``rotate_phase``, the order-by-order product ``commuting_matmul`` of a self
kernel, the elementwise relu, exp, log, sqrt and sigmoid, reductions,
concatenation); no higher-order derivatives.

Recording rule: every op computes its forward value once and returns it
through ``_node``, which records the op (its Tensor operands, in order, and
the closure) only when some operand requires a gradient, and otherwise
returns a constant with no parents.  A no-grad mode is one more check there.

Scatters (the adjoint of ``take_rows``, the forward of ``segment_sum``) are
products with a sparse 0/1 incidence matrix.  Its rows list their entries
in index order, so every sum is accumulated in the same order as
``np.add.at`` would, and the results are bit-identical to it.  ``take_cols``
is no scatter: its columns are distinct, and its adjoint fills a zero block.

Per-edge rotations are phases: ``rotate_phase`` reads each order-n block of
pair columns as complex128 and multiplies row e by ``exp(i n angle_e)``,
computed from the angles on every call, so no table outlives the op.  Its
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

import ctypes

import numpy as np
import scipy.sparse as sp

from .errors import AutodiffError

__all__ = [
    "Tensor",
    "parameter",
    "concat",
    "take_rows",
    "take_cols",
    "take_pairs",
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


def _scatter_rows(g, idx, n):
    """Sum row k of ``g`` into row ``idx[k]`` of an n-row zero array.

    A product with the n x len(idx) incidence matrix, whose row i lists the
    k with ``idx[k] == i`` in ascending order (a stable sort), so each row
    adds its entries in the order ``np.add.at`` does.
    """
    order = np.argsort(idx, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n), out=indptr[1:])
    incidence = sp.csr_matrix((np.ones(idx.size), order, indptr),
                              shape=(n, idx.size))
    out = incidence @ g.reshape(idx.size, int(np.prod(g.shape[1:])))
    return out.reshape((n,) + g.shape[1:])


def _val(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(value, parents, vjp):
    """An op's result: a tape node if a parent requires a gradient, else a constant."""
    parents = tuple(parents)
    if any(p.requires_grad for p in parents):
        return Tensor(value, True, parents, vjp)
    return Tensor(value)


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp", "_spent")
    # numpy defers ``ndarray op Tensor`` to the Tensor's reflected operator
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

        The root must be scalar; a second backward through the same root is
        rejected (no double backward).
        """
        if self.value.size != 1:
            raise AutodiffError(f"backward needs a scalar root, got shape {self.shape}")
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
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.value)
                node.grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad or pg is None:
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

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.value, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self.value, _val(other)
        parents = [p for p in (self, other) if isinstance(p, Tensor)]

        def vjp(g):
            out = [_unbroadcast(g * b, a.shape)]
            if isinstance(other, Tensor):
                out.append(_unbroadcast(g * a, b.shape))
            return tuple(out)

        return _node(a * b, parents, vjp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            return self * (1.0 / np.asarray(other, dtype=np.float64))
        a, b = self.value, other.value
        return _node(a / b, (self, other),
                     lambda g: (_unbroadcast(g / b, a.shape),
                                _unbroadcast(-g * a / (b * b), b.shape)))

    def __rtruediv__(self, other):
        a, c = self.value, np.asarray(other, dtype=np.float64)
        return _node(c / a, (self,),
                     lambda g: (_unbroadcast(-g * c / (a * a), a.shape),))

    def __pow__(self, n):
        if not isinstance(n, (int, float)):
            raise TypeError("only scalar exponents supported")
        a = self.value
        return _node(a ** n, (self,), lambda g: (g * n * a ** (n - 1),))

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
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        a = self.value
        return _node(a.reshape(shape), (self,), lambda g: (g.reshape(a.shape),))

    def transpose(self, axes=None):
        inv = None if axes is None else np.argsort(axes)
        return _node(self.value.transpose(axes), (self,),
                     lambda g: (g.transpose(inv),))

    @property
    def T(self):
        return self.transpose()

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
    idx = np.asarray(idx)
    n = x.value.shape[0]
    return _node(x.value[idx], (x,), lambda g: (_scatter_rows(g, idx, n),))


def take_cols(x: Tensor, cols) -> Tensor:
    """Distinct columns of ``x`` (an index list or a slice), gathered with
    ``np.take``.

    ``np.take`` is C-ordered where ``x[:, idx]`` is not.  The adjoint writes
    ``g`` into a zero block.
    """
    cols = np.arange(x.value.shape[1])[cols]
    if np.unique(cols).size < cols.size:
        raise AutodiffError("take_cols needs distinct columns")

    def vjp(g):
        gx = np.zeros_like(x.value)
        gx[:, cols] = g
        return (gx,)

    return _node(np.take(x.value, cols, axis=1), (x,), vjp)


def take_pairs(x: Tensor, rows, cols) -> Tensor:
    rows, cols = np.asarray(rows), np.asarray(cols)

    def vjp(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, (rows, cols), g)
        return (gx,)

    return _node(x.value[rows, cols], (x,), vjp)


def rotate_phase(x: Tensor, angle, blocks) -> Tensor:
    """Turn the 2-dimensional components of row e of ``x`` by ``n * angle[e]``.

    Each ``(n, lo, hi)`` of ``blocks`` names the columns ``lo:hi`` that hold
    order-n pairs.  Read as complex128, a pair is ``x + iy``, and row e of
    the block is multiplied by ``exp(i n angle[e])``.  The rotation is
    orthogonal, so the adjoint is the same product with the conjugate phase.
    """
    phases = [(lo, hi, np.exp(1j * n * angle)[:, None]) for n, lo, hi in blocks]

    def turn(v, conj):
        out = v.copy()
        for lo, hi, u in phases:
            block = out[:, lo:hi].view(np.complex128)
            block *= u.conj() if conj else u
        return out

    return _node(turn(x.value, False), (x,), lambda g: (turn(g, True),))


def commuting_matmul(x: Tensor, w: Tensor, blocks, out_dim: int) -> Tensor:
    """``x`` times a matrix that commutes with every rotation, order by order.

    Each ``(n, lo, hi, out_lo, out_hi)`` of ``blocks`` maps the order-n
    columns ``lo:hi`` to the output columns ``out_lo:out_hi``; other output
    columns are zero.  ``w`` holds each block's (m_out, m_in) matrix ``W_n``
    in turn, row-major: reals for n = 0, pairs ``(a, b)`` read as ``a + ib``
    for n >= 1.  On complex128 views of the pairs the block is
    ``X_n @ conj(W_n).T`` (``[[a, b], [-b, a]]`` multiplies by ``a - ib``),
    and its adjoint ``gX_n = gY_n @ W_n``, ``gW_n = gY_n^H @ X_n``.
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
            gx[:, cin] = (G @ W).view(np.float64)
            gw[sw] = (G.conj().T @ cols(x.value, cin, t)).ravel().view(np.float64)
        return gx, gw

    return _node(y, (x, w), vjp)


def segment_sum(x: Tensor, segments, n_segments: int) -> Tensor:
    """Sum rows of ``x`` into their segment; adjoint gathers."""
    segments = np.asarray(segments)
    return _node(_scatter_rows(x.value, segments, n_segments), (x,),
                 lambda g: (g[segments],))


def segment_softmax(logits: Tensor, segments, n_segments: int) -> Tensor:
    """Softmax within each segment (numerically shifted by the segment max)."""
    segments = np.asarray(segments)
    m = np.full(n_segments, -np.inf)
    np.maximum.at(m, segments, logits.value)
    shifted = logits - m[segments]  # constant shift, gradient-transparent
    e = shifted.exp()
    denom = segment_sum(e, segments, n_segments)
    return e / take_rows(denom, segments)


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
    picked = take_pairs(logits, np.arange(nrows), targets)
    return (lse - picked).mean()


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.step_count)
            vhat = self.v[i] / (1 - b2 ** self.step_count)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
