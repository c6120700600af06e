"""A fixed reference kernel that gauges how fast the host ran during a run.

The benchmark shares a host with other guests.  Time they take from it
shows in wall time but not in CPU time, so the benchmark times its work in
CPU seconds.  CPU time still moves with the host: on the 2-CPU Xeon VM the
benchmark was defined on, this kernel takes about 7.7 ms in some passes and
about 4.5 ms in others, the state switching within milliseconds, and the
share of fast passes drifts over seconds and minutes.  Op times follow that
share: the same op took from 0.31 s to 0.50 s of CPU within one run.

So the benchmark spends a fixed share of its CPU time on this kernel,
spread over the run between ops and set-ups, and scales each CPU time by
:data:`NOMINAL_S` over the mean of the passes run near it, to a power that
is measured per workload: the result reads as the time on a host where one
pass takes :data:`NOMINAL_S`.  The kernel
mixes the kinds of work the workloads do: gathers, scatters and reductions
over edge-sized arrays, small dense products, a sort, and the Python-level
object churn of an autodiff tape.  It does not touch meshnet, so no change
to the package can move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# CPU seconds of one pass on the 2-CPU Xeon VM the benchmark was defined
# on, averaged over its fast and slow states.
NOMINAL_S = 0.0070

N_VERTICES = 2562
N_EDGES = 15360


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((N_EDGES, 3))
        self.src = rng.integers(0, N_VERTICES, N_EDGES)
        self.dst = rng.integers(0, N_VERTICES, N_EDGES)
        self.w = rng.standard_normal((3, 3))
        # Work in preallocated buffers, so that the kernel's time does not
        # depend on the state the workload has left the allocator in.
        self.gathered = np.empty((N_EDGES, 3))
        self.moved = np.empty((N_EDGES, 3))
        self.norms = np.empty(N_EDGES)
        self.acc = np.empty((N_VERTICES, 3))
        self.run_for(0.0)  # warm-up

    def _work(self):
        self.acc.fill(0.0)
        for _ in range(3):
            np.take(self.x, self.src, axis=0, out=self.gathered)
            np.matmul(self.gathered, self.w, out=self.moved)
            np.add.at(self.acc, self.dst, self.moved)
            np.einsum("ij,ij->i", self.moved, self.moved, out=self.norms)
            self.norms.sort()
        for k in range(6000):
            node = {"parents": (k,), "value": k % 7}
            del node

    def run_for(self, cpu_s):
        """Run passes until they have taken ``cpu_s`` CPU seconds, at least one.

        Returns the CPU seconds of each pass.  The collector is off, so a
        pass does not pay for the workload's garbage.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            passes = []
            while not passes or sum(passes) < cpu_s:
                c0 = time.process_time()
                self._work()
                passes.append(time.process_time() - c0)
            return passes
        finally:
            if enabled:
                gc.enable()


def scaled(cpu_s, passes, exponent):
    """``cpu_s`` on a host where one pass takes :data:`NOMINAL_S`.

    ``exponent`` is how strongly the work follows the kernel: its time
    grows as the mean pass time to that power.  Scales by the mean pass,
    not the median: an op's time is summed over the fast and slow states
    the host went through, in the share the passes saw.
    """
    return cpu_s * (NOMINAL_S / statistics.fmean(passes)) ** exponent
