"""In-memory span tracing for the benchmark, recorded from outside the package.

A span records name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends.  The traced run times each
layer's forward by wrapping the layer object's public ``forward``; its
backward is timed with identity marker nodes built by the public ``Tensor``
constructor, one on the layer's input and one on its output.  Reverse-mode
differentiation reaches the output marker when the layer's backward starts
and the input marker when it ends, so the interval between the two marker
callbacks is the layer's ``bwd`` span.

The untraced run uses :data:`NULL`, whose hooks cost one call each.
"""

from __future__ import annotations

import contextlib
import time

from meshnet.autodiff import Tensor


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name, self.start, self.end = name, start, end
        self.parent, self.op = parent, op

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


class NullTracer:
    """Tracer that records nothing; used for every end-to-end measurement."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def op(self, op_id):
        return self._null

    def backward(self, loss):
        loss.backward()


NULL = NullTracer()


class Tracer(NullTracer):
    """Records spans, including marker-timed backward spans of layers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.current_op = None
        self._stack = []
        self._marks = {}  # call id -> {"in"/"out": time}
        self._calls = []  # (call id, layer name)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        s = Span(name, self.clock(), None, parent, self.current_op)
        self.spans.append(s)
        self._stack.append(index)
        try:
            yield index
        finally:
            s.end = self.clock()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        previous = self.current_op
        self.current_op = op_id
        self._calls.clear()  # forward-only ops never reach backward()
        try:
            with self.span("op"):
                yield
        finally:
            self.current_op = previous

    def backward(self, loss):
        """``loss.backward()`` inside a span, plus one span per marked layer."""
        self._marks.clear()
        with self.span("autodiff.backward") as parent:
            loss.backward()
        for call, name in self._calls:
            marks = self._marks.get(call, {})
            if "out" in marks and "in" in marks:
                self.spans.append(Span(name + ".bwd", marks["out"], marks["in"],
                                       parent, self.current_op))
        self._calls.clear()

    # -- layer instrumentation -------------------------------------------

    def _marker(self, x: Tensor, call: int, side: str) -> Tensor:
        marks = self._marks
        clock = self.clock

        def vjp(g):
            marks.setdefault(call, {})[side] = clock()
            return (g,)

        return Tensor(x.value, True, (x,), vjp)

    def wrap_forward(self, name, forward):
        """Layer ``forward`` with a ``fwd`` span and backward markers."""

        def traced(x, *args):
            call = len(self._calls)
            self._calls.append((call, name))
            x = self._marker(x, call, "in")
            with self.span(name + ".fwd"):
                out = forward(x, *args)
            return self._marker(out, call, "out")

        return traced


def model_layers(model):
    """(metric name, layer object) for every layer the model calls.

    The seven gauge nonlinearities share the name ``layers.nonlin`` and the
    two affine layers of the head share ``layers.dense``.
    """
    out = [("layers.entry", model.entry), ("layers.nonlin", model.entry_nl)]
    for bi, (conv0, nl0, conv1, nl1) in enumerate(model.blocks):
        out += [(f"layers.block{bi}.conv0", conv0), ("layers.nonlin", nl0),
                (f"layers.block{bi}.conv1", conv1), ("layers.nonlin", nl1)]
    out += [("layers.final", model.final),
            ("layers.dense", model.dense1), ("layers.dense", model.dense2)]
    return out


@contextlib.contextmanager
def instrumented(model, tracer: Tracer):
    """Shadow each layer's ``forward`` with a traced one for the block."""
    layers = model_layers(model)
    for name, layer in layers:
        layer.forward = tracer.wrap_forward(name, layer.forward)
    try:
        yield
    finally:
        for _name, layer in layers:
            del layer.forward


def tape_nodes(root: Tensor) -> int:
    """Number of tensors reachable from ``root`` through the tape.

    Reads the tape's private parent links; the package has no public walk.
    """
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


# -- analysis ------------------------------------------------------------------

def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i]) for i, s in enumerate(spans)]


def uncovered_per_op(spans):
    """{op: part of the op span's time that no leaf span covers}."""
    has_child = {s.parent for s in spans if s.parent is not None}
    leaves, roots = {}, {}
    for i, s in enumerate(spans):
        if s.name == "op":
            roots[s.op] = s.end - s.start
        elif i not in has_child:
            leaves.setdefault(s.op, []).append((s.start, s.end))
    return {op: dur - _covered(leaves.get(op, [])) for op, dur in roots.items()}


def totals_per_op(spans):
    """{op: {span name: summed duration}} over every span but the op span."""
    out = {}
    for s in spans:
        if s.name != "op":
            per = out.setdefault(s.op, {})
            per[s.name] = per.get(s.name, 0.0) + (s.end - s.start)
    return out
