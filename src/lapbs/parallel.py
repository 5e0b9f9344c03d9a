"""Fan-out of the per-z elliptic solves across worker processes.

Each contour node is an independent solve at one shift z of the
problem's pencil, so workers share nothing but that read-only pencil,
inherited through the fork.  Node j goes to chunk j mod W, one chunk
per worker; the result rows are placed by node index, making the
assembled ensemble bit-identical for any worker count.  A pool that
loses a worker is rebuilt once; any error a node raises propagates.

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

    def solve(self, system):
        """One node's solve, looked up in its module at call time."""
        if self.kind == "put1d":
            return fem1d.solve(system)
        return fem2d.solve2d(system)


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


_WORKER_STATE = {}


def _init_worker(spec, pencil, zs):
    _WORKER_STATE.update(spec=spec, pencil=pencil, zs=zs)


def _run_nodes(node_ids):
    spec, pencil, zs = (_WORKER_STATE[k] for k in ("spec", "pencil", "zs"))
    return [(j, spec.solve(pencil.at(zs[j]))) for j in node_ids]


def _run_pool(spec, pencil, zs, assignments):
    """One forked worker per chunk; a pool that breaks is rebuilt once."""
    # imported here, not at the top: the executor machinery adds tens
    # of ms to ``import lapbs``, which in-process runs never use
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    for attempt in range(2):
        try:
            with ProcessPoolExecutor(max_workers=len(assignments),
                                     mp_context=get_context("fork"),
                                     initializer=_init_worker,
                                     initargs=(spec, pencil, zs)) as pool:
                return list(pool.map(_run_nodes, assignments))
        except BrokenProcessPool as err:
            # a worker died (OOM kill, signal): one fresh pool may succeed
            if attempt == 1:
                raise
            _LOG.warning("worker pool broke (%s); retrying once", err)


def solve_ensemble(spec, contour, workers=1, baseline_time=None):
    """Solve the conjugate-half nodes, fanning out over ``workers``.

    Returns (TransformEnsemble, SpeedupRow).  Timing covers only the
    elliptic solves, not the pencil build or the inversion sum.
    ``baseline_time`` is the 1-worker wall time used for the speedup
    column; by definition speedup(1 worker) = 1.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    half = [q for q in quadrature_nodes(contour) if q.j >= 0]
    zs = [q.z for q in half]
    pencil = spec.pencil()

    n = len(half)
    assignments = [list(range(w, n, workers)) for w in range(workers)]
    assignments = [a for a in assignments if a]

    results = [None] * n
    start = time.perf_counter()
    with _one_blas_thread():
        if workers == 1:
            _init_worker(spec, pencil, zs)
            chunks = [_run_nodes(a) for a in assignments]
        else:
            chunks = _run_pool(spec, pencil, zs, assignments)
    wall = time.perf_counter() - start

    for chunk in chunks:
        for j, vals in chunk:
            results[j] = vals
    missing = [j for j, v in enumerate(results) if v is None]
    if missing:
        raise RuntimeError(f"nodes never solved: {missing}")
    ensemble = TransformEnsemble(contour, half, np.array(results))
    speedup = 1.0 if workers == 1 else (
        baseline_time / wall if baseline_time else float("nan"))
    return ensemble, SpeedupRow(workers=workers, wall_time=wall,
                                speedup=speedup)
