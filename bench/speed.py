"""Machine-speed reference for the untraced runs.

On a shared virtual machine each vCPU switches, often several times a second,
between a fast state and one about 40% slower (most likely as the host core's
other hyperthread falls busy or idle), and the share of time spent slow
drifts with the host's load over minutes. Every command's time carries that
drift, so run medians taken minutes apart disagree by up to a third, on user
CPU time as much as on wall time.

The benchmark therefore pins each command to known CPUs and, while it runs,
times a short fixed kernel every SAMPLE_INTERVAL_S on the command's first CPU,
from a thread of the benchmark process. It measures the kernel in thread CPU
time, which leaves out any time the thread waits for the command to yield
the CPU. The run's times are scaled to a nominal machine speed by

    factor = nominal time / (kernel time, averaged over the run's commands
                             with each command's wall time as its weight).

A scaled time is the time the command would have taken on a machine where the
kernel takes its nominal time. The kernel is benchmark code, the same on every
commit, so the factor cancels the machine's state but not a change in the
program. The sampling thread takes about 2% of the command's CPU, on every
commit alike. Samples taken beside a running command are about 15% slower
than alone (the command evicts the kernel's cache lines); the nominal times
are those of such samples.

Kinds of work slow down by different amounts in the slow state: float
formatting by about 1.9x, interpreted integer arithmetic by about 1.5x and
numpy array passes by about 1.3x. So each workload names the kernel closest
to the work that dominates it. The "format" kernel is float formatting alone,
like the CSV writer that takes about 90% of a large `analyze`. The "mixed"
kernel does all three kinds; it serves the other workloads and the import
timings.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

SAMPLE_INTERVAL_S = 0.05

_VALUES = [i * 1.2345678901e-3 for i in range(2000)]
_ARRAY = np.linspace(0.0, 1.0, 12_500)


def _format_kernel():
    ",".join(format(v, ".9g") for v in _VALUES)


def _mixed_kernel():
    ",".join(format(v, ".9g") for v in _VALUES[:1000])
    total = 0
    for k in range(2500):
        total += k * k
    a = _ARRAY
    for _ in range(5):
        a = np.cumsum(np.sqrt(a * 0.5 + 1.0))


# name -> (kernel, its time beside a running command in the fast state of a
# 2.1 GHz Xeon vCPU)
KERNELS = {"format": (_format_kernel, 0.00075), "mixed": (_mixed_kernel, 0.00105)}


def nominal_seconds(kernel: str) -> float:
    return KERNELS[kernel][1]


def _timed(run_kernel) -> float:
    """CPU time of one kernel run in this thread, which leaves out any time
    the thread waited for its CPU."""
    start = time.thread_time()
    run_kernel()
    return time.thread_time() - start


def cpus() -> list:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu_set):
    """Run the body, and any child it starts, on `cpu_set` only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_set)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Sampler:
    """Times `kernel` on `cpu` when the `with` body starts and then every
    SAMPLE_INTERVAL_S until it ends, from a thread of this process, while the
    body runs a command there."""

    def __init__(self, cpu, kernel: str):
        self.cpu, self.run_kernel = cpu, KERNELS[kernel][0]
        self.times = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while True:
            self.times.append(_timed(self.run_kernel))
            if self._done.wait(SAMPLE_INTERVAL_S):
                break

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()

    def mean_seconds(self) -> float:
        return statistics.fmean(self.times)
