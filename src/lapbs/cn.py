"""Crank-Nicolson time marching on the same P1 spatial discretizations.

Used for the Table-1 comparison run and for building the basket reference
solution.  Both methods run on one :class:`~lapbs.fem1d.Pencil`: a march
factors S + (2/dt)*M, the pencil at the real shift z = 2/dt, once, and
each step applies (2/dt)*M - S and back-solves, so the two methods
discretize the identical operator.  The marches price the put problems
only: the payoff is the initial data, the 1D ends hold K*exp(-r*t) at
x = 0 and 0 at x = L, and the 2D edges are ``EdgeSpec()``'s (zero flux at
the axes, 0 at the far edges).  The 1D march runs on the interior nodes,
with both end values in row 1's right side.  It factors the step matrix
once by LAPACK's tridiagonal LU (``dgttrf``).  With no row swap, the
signed diagonal S with s[i+1]/s[i] = A[i,i+1]/A[i+1,i] turns that LU into
L (D S^-1) L^T S, so each step is one ``dpttrs`` back-solve for y = S x
(no division on its dependency chain); otherwise, or if S leaves 1e+-150,
each step is the pivoted ``dgttrs``.  The initial projection is one
``dgtsv`` call by ``fem1d._gtsv``, as each Laplace node's solve is.  In 2D
the march runs in the pencil's unknowns and returns ``expand`` of the
result; its one LU is the step matrix's, by ``fem2d.factor``, and the
projection is solved by scipy's conjugate gradients (``cg``)
preconditioned with M's diagonal D: a P1 mass matrix scaled by D has
its eigenvalues in [1/2, 2] on any triangulation (Wathen, IMA J. Numer.
Anal. 7, 1987).
"""

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrs
from scipy.sparse import diags
from scipy.sparse.linalg import cg

from . import fem1d, fem2d

__all__ = ["MarchConfig", "march1d", "march2d"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class MarchConfig:
    steps: int

    def __post_init__(self):
        fem1d._require_count("steps", self.steps, 1, "step")


@np.errstate(all="ignore")   # the result is checked once, at the end
def march1d(mesh, market, config):
    """theta = 1/2 two-level scheme for the put on the interior nodes; the
    end values, K*exp(-r*t) at x = 0 and 0 at x = L, enter row 1's right
    side.  ValueError if the march gives a non-finite price."""
    p = fem1d.pencil(mesh, market)
    dt = market.maturity / config.steps
    lhs, rhs = p.S + (2.0 / dt) * p.M, (2.0 / dt) * p.M - p.S
    t = np.arange(config.steps + 1) * dt
    ends = market.strike * np.exp(-market.r * t)
    edge = rhs[2, 0] * ends[:-1] - lhs[2, 0] * ends[1:]
    a = lhs[:, 1:-1]   # the interior bands, in the pencil's layout
    if len(a[1]) > 1:
        *lu, ipiv, info = dgttrf(a[2, :-1], a[1], a[0, 1:])
    else:   # m = 2: the wrappers need n >= 2, or dpttrs an e of length 1
        lu, ipiv, info = [np.zeros(1), a[1]], np.ones(1), 0
    if info:
        raise np.linalg.LinAlgError(f"singular step matrix at row {info}")
    # s within 1e+-150 keeps y = S x and B S^-1 far from overflow/underflow
    s = np.cumprod(np.r_[1.0, a[0, 1:] / a[2, :-1]])
    swapped = np.any(ipiv != np.arange(1, len(s) + 1))
    why = ("row swap" if swapped else "scaling out of range"
           if not np.all((1e-150 < abs(s)) & (abs(s) < 1e150)) else None)
    _LOG.debug("march1d steps by %s", f"dgttrs ({why})" if why else "dpttrs")
    step = (partial(dgttrs, *lu, ipiv, overwrite_b=True) if why else
            partial(dpttrs, lu[1] / s, lu[0], overwrite_b=True))
    s = np.ones_like(s) if why else s
    # L2-projected initial data, free of the kink-interpolation overshoot
    # on coarse meshes; M's row n-1 is made an identity row
    proj = p.M.copy()
    proj[1, -1] = 1.0
    # fem1d._residual of B S^-1 into two rows made once: they take turns as
    # a step's right side, which the step overwrites with y, and as its y
    bands = rhs[:, 1:-1] / s
    up, main, low = bands[0, 1:], bands[1], bands[2, :-1]
    part = np.empty(len(up))
    rows = np.array([np.empty_like(s), s * fem1d._gtsv(proj, p.load)[1:-1]])
    views = [(y, y[:-1], y[1:]) for y in rows]
    for n in range(config.steps):
        (b, b_lo, b_hi), (y, y_lo, y_hi) = views[n % 2], views[1 - n % 2]
        np.multiply(main, y, out=b)
        b_lo += np.multiply(up, y_hi, out=part)
        b_hi += np.multiply(low, y_lo, out=part)
        b[0] += edge[n]
        step(b)
    if not np.isfinite(b).all():
        raise ValueError(f"march1d gave non-finite prices at maturity="
                         f"{market.maturity!r}, steps={config.steps}")
    return np.r_[ends[-1], b / s, 0.0]


def march2d(mesh, basket, config):
    """Crank-Nicolson for the basket put on the triangulated grid."""
    p = fem2d.pencil(mesh, basket, fem2d.EdgeSpec())
    dt = basket.maturity / config.steps
    on_pattern = lambda data: type(p.M)((data, p.M.indices, p.M.indptr),
                                        shape=p.M.shape)
    u = _project(p.M, p.load)   # L2-projected initial data, as in 1D
    lu = fem2d.factor(on_pattern(p.S.data + (2.0 / dt) * p.M.data))
    rhs_op = on_pattern((2.0 / dt) * p.M.data - p.S.data)
    for _ in range(config.steps):
        u = lu.solve(rhs_op @ u)
    return p.expand @ u


def _project(mass, b):
    """u with mass @ u = b, by scipy's CG preconditioned with D^-1 from
    D^-1 b, to ||r|| <= 1e-14 ||b|| or for 100 steps; RuntimeError unless
    the true residual ||mass @ u - b|| is at most 1e-12 ||b||."""
    d_inv = diags(1.0 / mass.diagonal())
    u, _ = cg(mass, b, x0=d_inv @ b, rtol=1e-14, maxiter=100, M=d_inv)
    res, tol = np.linalg.norm(mass @ u - b), 1e-12 * np.linalg.norm(b)
    if not res <= tol:   # a NaN fails too
        raise RuntimeError(f"mass projection residual {res:g} > {tol:g}")
    return u
