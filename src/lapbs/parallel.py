"""Fan-out of the per-z elliptic solves across worker processes.

Each contour node is a solve at one shift z of the problem's pencil.
The N nodes are split into four contiguous groups (4, 4, 4, 3 for
N = 15), fixed by the contour alone; a 2D group, Dirichlet or
transparent, is solved with one LU and Krylov (``fem2d.solve_shifts``),
a 1D group node by node.  Workers share nothing but the read-only pencil,
inherited through the fork.  The pool's ordered ``map`` deals the
groups out in contiguous chunks, one worker per chunk, and returns the
rows in node order, so the ensemble is bit-identical for any worker
count.  A pool that loses a worker is rebuilt once; the first error a
node raises propagates, and the rest of its chunk is not run.

The nodes are solved with one BLAS thread per process.  numpy's and
scipy's bundled OpenBLAS each start one thread per CPU, so W workers
would oversubscribe the CPUs, and even one process factors more slowly
with them.  Setting the environment is too late once numpy is loaded,
so each loaded OpenBLAS is set to one thread through ctypes while the
nodes run and set back to its old count afterwards; the libraries are
looked up on the first solve.  Without a known BLAS the solves run
unchanged, and the ``lapbs.parallel`` logger says so once.
"""

import ctypes
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np
import scipy

from . import fem1d, fem2d
from .contour import quadrature_nodes
from .inversion import TransformEnsemble

__all__ = ["SpeedupRow", "ProblemSpec", "solve_ensemble"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpeedupRow:
    workers: int
    wall_time: float
    speedup: float


_KINDS = {"put1d": fem1d.Market1D, "basket2d": fem2d.Basket2D}
_RIGHT_BCS = ("dirichlet0", "transparent")


@dataclass(frozen=True)
class ProblemSpec:
    """Picklable description of one pricing problem.

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
        if self.right_bc not in _RIGHT_BCS:
            raise ValueError(f"unknown right_bc {self.right_bc!r}; "
                             f"choose from {_RIGHT_BCS}")
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

    def mesh(self):
        if self.kind == "put1d":
            return fem1d.Mesh1D(self.market.L, self.m)
        return fem2d.Mesh2D(self.market.L1, self.market.L2, self.m, self.m)

    def pencil(self):
        """The z-independent pieces, built once per problem."""
        mk = self.market
        if self.kind == "put1d":
            left = lambda z: fem1d.left_dirichlet_transform(z, mk.strike, mk.r)
            right = None if self.right_bc == "transparent" else (lambda z: 0.0)
            return fem1d.pencil(self.mesh(), mk, fem1d.BoundarySpec(left, right))
        return fem2d.pencil(self.mesh(), mk, self.edges or fem2d.EdgeSpec())


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


_WORKER_STATE = {}   # set before the solves; forked workers inherit it
_GROUPS = 4          # contiguous node groups, whatever the worker count


def _solve_group(zs):
    """The rows at the shifts ``zs``, by solvers looked up at call time."""
    pencil = _WORKER_STATE["pencil"]
    if _WORKER_STATE["spec"].kind == "put1d":
        return [fem1d.solve(pencil.at(z)) for z in zs]
    return fem2d.solve_shifts(pencil, zs)


def _run_pool(groups, workers):
    """One forked worker per chunk; a pool that breaks is rebuilt once."""
    # imported here, not at the top: the executor machinery adds tens
    # of ms to ``import lapbs``, which in-process runs never use
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    chunk = math.ceil(len(groups) / workers)
    for attempt in range(2):
        try:
            with ProcessPoolExecutor(max_workers=math.ceil(len(groups) / chunk),
                                     mp_context=get_context("fork")) as pool:
                return list(pool.map(_solve_group, groups, chunksize=chunk))
        except BrokenProcessPool as err:
            # a worker died (OOM kill, signal): one fresh pool may succeed
            if attempt == 1:
                raise
            _LOG.warning("worker pool broke (%s); retrying once", err)


def solve_ensemble(spec, contour, workers=1, baseline_time=None):
    """Solve the contour's nodes, fanning out over ``workers``.

    Returns (TransformEnsemble, SpeedupRow).  Timing covers only the
    elliptic solves, not the pencil build or the inversion sum.
    ``baseline_time`` is the 1-worker wall time used for the speedup
    column; by definition speedup(1 worker) = 1.
    """
    fem1d._require_count("workers", workers, 1, "worker")
    zs = quadrature_nodes(contour)[0].tolist()   # numpy's scalars round apart
    cuts = [-(-len(zs) * g // _GROUPS) for g in range(_GROUPS + 1)]
    groups = [zs[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    _WORKER_STATE.update(spec=spec, pencil=spec.pencil())

    start = time.perf_counter()
    with _one_blas_thread():
        if workers == 1:
            rows = [_solve_group(g) for g in groups]
        else:
            rows = _run_pool(groups, workers)
    wall = time.perf_counter() - start

    ensemble = TransformEnsemble(contour,
                                 np.array([row for g in rows for row in g]))
    speedup = 1.0 if workers == 1 else (
        baseline_time / wall if baseline_time else float("nan"))
    return ensemble, SpeedupRow(workers=workers, wall_time=wall,
                                speedup=speedup)
