"""Fan-out of the per-z elliptic solves across worker processes.

Each contour node is a solve at one shift z of the problem's pencil.
The N nodes are split into four contiguous groups (4, 4, 4, 3 for
N = 15), fixed by the contour alone: a 2D group is solved by
``fem2d.solve_shifts``, a 1D group node by node.  The groups are dealt
out in contiguous chunks: the caller solves the first and a forked
worker each other one, so nothing forks at one worker.  Each writes its
rows in place into one buffer shared with the workers, by the call's own
solve, a closure over the read-only pencil that a worker inherits through
the fork; so the ensemble is bit-identical for any worker count, and a
worker sends back only a short message through its own pipe.  A worker
that dies or stalls has its chunk solved by the caller; the first node
error propagates, in node order, and the rest of its chunk is not run.

The nodes are solved with one BLAS thread per process.  numpy's and
scipy's bundled OpenBLAS each start one thread per CPU, so W workers
would oversubscribe the CPUs, and even one process factors more slowly
with them.  Setting the environment is too late once numpy is loaded,
so each loaded OpenBLAS is set to one thread through ctypes while the
nodes run and set back to its old count afterwards.  Without a known
BLAS the solves run unchanged, and ``lapbs.parallel`` logs it once.
"""

import ctypes
import functools
import logging
import math
import mmap
import os
import pickle
import select
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy

from . import fem1d, fem2d
from .inversion import TransformEnsemble

__all__ = ["SpeedupRow", "ProblemSpec", "solve_ensemble"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpeedupRow:
    """One timed ensemble; a speedup is the ratio of two rows' wall times."""

    workers: int   # the processes that ran: 3 asked over 4 groups run as 2
    wall_time: float


_KINDS = {"put1d": fem1d.Market1D, "basket2d": fem2d.Basket2D}


@dataclass(frozen=True)
class ProblemSpec:
    """Description of one pricing problem.

    ``kind`` is "put1d" (a Market1D, ``right_bc`` "dirichlet0" or
    "transparent") or "basket2d" (a Basket2D, ``edges`` an EdgeSpec,
    default ``EdgeSpec()``).
    """

    kind: str
    market: object
    m: int
    right_bc: str = "dirichlet0"
    edges: object = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; "
                             f"choose from {tuple(_KINDS)}")
        if self.right_bc not in fem1d.RIGHT_BCS:
            raise ValueError(f"unknown right_bc {self.right_bc!r}; "
                             f"choose from {fem1d.RIGHT_BCS}")
        market = _KINDS[self.kind]
        if not isinstance(self.market, market):
            raise ValueError(f"{self.kind} needs a {market.__name__}, "
                             f"not a {type(self.market).__name__}")
        if self.kind == "basket2d" and self.right_bc != "dirichlet0":
            raise ValueError("basket2d takes its boundary from edges, "
                             f"not right_bc={self.right_bc!r}")
        if self.kind == "put1d" and self.edges is not None:
            raise ValueError("put1d takes its right end from right_bc, "
                             "not edges")
        if not isinstance(self.edges, (type(None), fem2d.EdgeSpec)):
            raise ValueError(f"edges must be an EdgeSpec, got {self.edges!r}")
        self.mesh()   # checks m as the mesh does

    def mesh(self):
        if self.kind == "put1d":
            return fem1d.Mesh1D(self.market.L, self.m)
        return fem2d.Mesh2D(self.market.L1, self.market.L2, self.m, self.m)

    def pencil(self):
        """The z-independent pieces, built once per problem."""
        if self.kind == "put1d":
            return fem1d.pencil(self.mesh(), self.market, self.right_bc)
        return fem2d.pencil(self.mesh(), self.market,
                            self.edges or fem2d.EdgeSpec())


# (package, its bundled-library directory, library glob, symbol suffix)
# of each OpenBLAS the wheels ship; numpy's is the 64-bit-integer build
_OPENBLAS = ((np, "numpy.libs", "libscipy_openblas64_*.so", "64_"),
             (scipy, "scipy.libs", "libscipy_openblas*.so", ""))
_BLAS = None


def _loaded_blas():
    """(set_num_threads, get_num_threads) of each loaded OpenBLAS, looked
    up on the first call: ``import lapbs`` does none of this work."""
    global _BLAS
    if _BLAS is None:
        import glob

        _BLAS = []
        for package, libs, pattern, suffix in _OPENBLAS:
            site = os.path.dirname(os.path.dirname(package.__file__))
            name = "scipy_openblas_%s_num_threads" + suffix
            for path in glob.glob(os.path.join(site, libs, pattern)):
                try:   # RTLD_NOLOAD: only a library already loaded
                    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                    setter = getattr(lib, name % "set")
                    getter = getattr(lib, name % "get")
                except (OSError, AttributeError):
                    continue
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                _BLAS.append((setter, getter))
        if not _BLAS:
            _LOG.info("no known BLAS loaded; node solves use its own threads")
    return _BLAS


@contextmanager
def _one_blas_thread():
    """Each loaded OpenBLAS at one thread inside, its old count after."""
    blas = _loaded_blas()
    old = [get() for _, get in blas]
    for set_threads, _ in blas:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(blas, old):
            set_threads(count)


_GROUPS = 4   # contiguous node groups, whatever the worker count


def _solve_groups(pencil, zs, rows, groups):
    """Rows lo..hi-1 of each (lo, hi) in ``groups``, written in place into
    ``rows``, by solvers looked up at call time; only 2D has ``expand``."""
    for lo, hi in groups:
        if pencil.expand is None:
            for j in range(lo, hi):
                rows[j] = fem1d.solve(pencil.at(zs[j]))
        else:
            for j, x in enumerate(fem2d.solve_shifts(pencil, zs[lo:hi]), lo):
                rows[j] = pencil.expand @ x


# the caller's wait for its workers: _PATIENCE times its own chunk's wall
# time, plus _FLOOR_S.  On 2 CPUs, at 2 to 8 workers, a 2D worker's chunk
# took up to 2.4 times the caller's and ended up to 0.10 s after it.
_PATIENCE = 10.0
_FLOOR_S = 2.0


def _run_pool(chunks, solve):
    """Solve ``chunks[0]`` in the caller and each other chunk in a forked
    worker, which pickles back None, or (error, traceback) for its first
    failing node.  Once every worker is reaped, the caller solves each chunk
    whose worker sent nothing whole in time (it died or stalled, or its
    error does not pickle).  The first node error, in node order, is raised."""
    kids, poll = {}, select.poll()   # read end -> pid, last chunk first
    try:
        # later nodes lie farther apart and take more Krylov steps: fork first
        for chunk in reversed(chunks[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:   # the worker: it leaves only through _exit
                try:
                    solve(chunk)
                    os.write(write, pickle.dumps(None))
                except Exception as err:
                    trace = traceback.format_exc()
                    os.write(write, pickle.dumps((err, trace)))
                finally:   # the caller reads the pipe, not the exit status
                    os._exit(0)
            os.close(write)
            kids[read] = pid
            poll.register(read, select.POLLIN)
        start = time.perf_counter()
        solve(chunks[0])
        now = time.perf_counter()
        deadline = now + _PATIENCE * (now - start) + _FLOOR_S
        got, left = dict.fromkeys(kids, b""), len(kids)   # messages so far
        while left and (wait := deadline - time.perf_counter()) > 0:
            for read, _ in poll.poll(1e3 * wait):   # each read returns at once
                part = os.read(read, 1 << 16)
                got[read] += part
                if not part:   # end of file
                    poll.unregister(read)
                    left -= 1
    finally:   # no worker outlives the call, whatever it sent
        for read, pid in kids.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for chunk, read in zip(chunks[1:], reversed(kids)):
        try:
            failure = pickle.loads(got[read])
        except Exception:   # none, cut short, or an error that does not load
            _LOG.warning("pool worker for nodes %d-%d sent no result; the "
                         "caller solves them", chunk[0][0], chunk[-1][1] - 1)
            solve(chunk)
            continue
        if failure:
            err, trace = failure
            raise err from RuntimeError(f"in the worker:\n{trace}")


def solve_ensemble(spec, contour, workers=1):
    """Solve the contour's nodes, fanning out over ``workers``.

    Returns (TransformEnsemble, SpeedupRow).  Timing covers only the
    elliptic solves, not the pencil build or the inversion sum.  The
    row's ``workers`` is the number of processes that ran, one per chunk
    of groups.
    """
    fem1d._require_count("workers", workers, 1, "worker")
    cuts = [-(-contour.n * g // _GROUPS) for g in range(_GROUPS + 1)]
    groups = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    size = math.ceil(len(groups) / workers)
    chunks = [groups[i:i + size] for i in range(0, len(groups), size)]
    shape = (contour.n, len(spec.mesh()))   # one row per node
    if len(chunks) == 1:   # nothing forks
        rows = np.empty(shape, complex)
    else:   # in memory the forked workers share with the caller
        shared = mmap.mmap(-1, math.prod(shape) * np.dtype(complex).itemsize)
        rows = np.frombuffer(shared, complex).reshape(shape)
    ensemble = TransformEnsemble(contour, rows)   # values is rows, uncopied
    zs = ensemble.z.tolist()   # numpy's scalars round apart
    solve = functools.partial(_solve_groups, spec.pencil(), zs, rows)

    start = time.perf_counter()
    with _one_blas_thread():
        _run_pool(chunks, solve)
    wall = time.perf_counter() - start
    return ensemble, SpeedupRow(workers=len(chunks), wall_time=wall)
