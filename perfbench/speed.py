"""Host-speed probes: a fixed kernel, timed around and during timed calls.

On a shared host each CPU's speed swings by up to 2x, CPU by CPU, in phases
that last from a second to minutes, longer than a run.  The harness scales
each timed call's wall time by ``REFERENCE_S`` over the kernel's time on
the call's CPUs while it ran.  A scaled time is therefore the call's time in
seconds at the reference host speed: the phases cancel, and a change to
lapbs still shows in full, because the kernel calls nothing from lapbs.

* A serial call is bracketed: the kernel runs in-process, on the same CPU,
  just before and just after the call (``probe``, ``scaled``).
* A pooled call lasts seconds while the CPUs switch speed many times, so a
  ``Sampler`` process pinned to each pool CPU times the kernel every
  ``INTERVAL_S`` in CPU seconds while the call runs (``Sampler.running``),
  and ``Sampler.scaled`` averages what they saw during the call.  The
  samplers take a few percent of each CPU.

The kernel mixes the two kinds of work lapbs does: interpreted scalar
loops with small numpy calls (fem1d load vectors, erf), and a complex
sparse LU (fem2d, cn).  A much smaller kernel fits in the CPU's caches and
slows less than lapbs does in a slow phase.

    python3 perfbench/speed.py CPU   # one sampler; stops at EOF on stdin
"""

import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

# Median kernel time on a 2-CPU Xeon VM in its fast phase.  It only sets the
# scale of the reported figures; any constant would do, as long as it never
# changes between the commits being compared.
REFERENCE_S = 0.040
INTERVAL_S = 0.5           # sampler sleep between kernel runs

_RNG = np.random.default_rng(20030101)
_XS = _RNG.uniform(0.0, 3.0, 8000).tolist()
_V = _RNG.uniform(size=5)
_N = 64
_T = diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_S = diags([-1.0, -1.0], [-1, 1], shape=(_N, _N))
_A = ((kron(identity(_N), _T) + kron(_S, identity(_N))) * (1.0 + 0.3j)).tocsc()
_B = np.ones(_N * _N, dtype=complex)


def kernel():
    total = 0.0
    for x in _XS:
        total += math.exp(-x * x) / (1.0 + x)
        total += float(_V @ (_V * x))
    total += float(splu(_A).solve(_B).real.sum())
    return total


def probe():
    """Seconds the kernel takes now, on this process's CPU."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(wall_s, before_s, after_s):
    """``wall_s`` at the reference speed, from the probes around it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))


def _sample_until_eof(cpu):
    """Sampler process: pinned to ``cpu``, time the kernel until stdin
    closes, then print [(perf_counter at the end, CPU seconds)] as JSON.
    CPU time, because a pool worker shares the CPU."""
    os.sched_setaffinity(0, {cpu})
    kernel()
    print("ready", flush=True)
    samples = []
    while True:
        c0 = time.process_time()
        kernel()
        c1 = time.process_time()
        samples.append((time.perf_counter(), c1 - c0))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    print(json.dumps(samples))


class Sampler:
    """One sampler process per CPU in ``cpus`` for the length of a ``with``
    block, sampling only inside ``running()``; after the block, ``scaled``
    converts wall times measured inside it."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.samples = {}
        self._procs = []

    def __enter__(self):
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                self._procs.append(proc)
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed sampler on CPU {cpu} "
                                       "did not start")
                proc.send_signal(signal.SIGSTOP)
        except BaseException:
            self._stop()
            raise
        return self

    @contextmanager
    def running(self):
        """Sample while the block runs; the samplers are stopped outside
        it, so they take no CPU from the rest of the run."""
        for proc in self._procs:
            proc.send_signal(signal.SIGCONT)
        try:
            yield
        finally:
            for proc in self._procs:
                proc.send_signal(signal.SIGSTOP)

    def __exit__(self, *exc):
        self._stop()
        return False

    def _stop(self):
        """Stop every sampler and wait for it; keep what each printed."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGCONT)
            proc.stdin.close()
        try:
            for cpu, proc in zip(self.cpus, self._procs):
                out = proc.stdout.read()
                if proc.wait(timeout=30) != 0:
                    raise RuntimeError(f"speed sampler on CPU {cpu} exited "
                                       f"with {proc.returncode}")
                self.samples[cpu] = json.loads(out)
        finally:
            for proc in self._procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def scaled(self, wall_s, start, end):
        """``wall_s``, measured from ``start`` to ``end`` (perf_counter)
        inside ``running()``, at the reference speed.  A call shorter than the sampling interval
        counts the samples up to one interval either side of it, or else
        the nearest one."""
        means = []
        for cpu in self.cpus:
            samples = self.samples[cpu]
            near = ([s for t, s in samples if start <= t <= end]
                    or [s for t, s in samples
                        if start - INTERVAL_S <= t <= end + INTERVAL_S]
                    or [min(samples, key=lambda ts: abs(ts[0] - end))[1]])
            means.append(statistics.fmean(near))
        return wall_s * REFERENCE_S / statistics.fmean(means)


if __name__ == "__main__":
    _sample_until_eof(int(sys.argv[1]))
