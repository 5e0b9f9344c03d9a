"""Crank-Nicolson time marching on the same P1 spatial discretizations.

Used for the Table-1 comparison run and for building the basket reference
solution.  Both methods run on one :class:`~lapbs.fem1d.Pencil`: a march
factors S + (2/dt)*M, the pencil at the real shift z = 2/dt, once, and
each step applies (2/dt)*M - S and back-solves, so the two methods
discretize the identical operator.  The marches price the put problems
only: the payoff is the initial data, the 1D ends hold K*exp(-r*t) at
x = 0 and 0 at x = L, and the 2D edges are ``EdgeSpec()``'s (zero flux at
the axes, 0 at the far edges).  In 1D the step matrix's row 0 is made an
identity row, where the pencil has its x = 0 equation, and each step
writes both end values into the right side; the factor is LAPACK's
tridiagonal LU (``dgttrf``/``dgttrs``), and the initial projection is one
``dgtsv`` call by ``fem1d._gtsv``, as each Laplace node's solve is.  In 2D
the march runs in the pencil's unknowns and returns ``expand`` of the
result; its one LU is the step matrix's, by ``fem2d.factor``, and the
projection is solved by conjugate gradients preconditioned with M's
diagonal D: a P1 mass matrix scaled by D has its eigenvalues in [1/2, 2]
on any triangulation (Wathen, IMA J. Numer. Anal. 7, 1987).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import fem1d, fem2d

__all__ = ["MarchConfig", "march1d", "march2d"]


@dataclass(frozen=True)
class MarchConfig:
    steps: int

    def __post_init__(self):
        fem1d._require_count("steps", self.steps, 1, "step")


def march1d(mesh, market, config):
    """theta = 1/2 two-level scheme for the put; each step sets the end
    values, K*exp(-r*t) at x = 0 and 0 at x = L."""
    p = fem1d.pencil(mesh, market)
    dt = market.maturity / config.steps
    lhs = p.S + (2.0 / dt) * p.M
    lhs[1, 0] = 1.0   # the exact boundary value, not the x = 0 equation
    # the tridiagonal LU once (lower, main, upper band); each step back-solves
    *lu, info = dgttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
    if info:
        raise np.linalg.LinAlgError(f"singular step matrix at row {info}")
    rhs_op = (2.0 / dt) * p.M - p.S

    # L2-projected initial data: consistent with the Galerkin space and
    # free of the kink-interpolation overshoot on coarse meshes; M's row 0
    # and the load give u[0] = K, and its row n-1 is made an identity row
    proj = p.M.copy()
    proj[1, -1] = 1.0
    u = fem1d._gtsv(proj, p.load)
    # fem1d._residual into two rows made once: they take turns as a step's
    # right side, which dgttrs overwrites with its solution, and as its u
    up, main, low = rhs_op[0, 1:], rhs_op[1], rhs_op[2, :-1]
    part, rows = np.empty(len(up)), np.array([p.load, u])
    views = [(x, x[:-1], x[1:]) for x in rows]
    for n in range(config.steps):
        (b, b_lo, b_hi), (u, u_lo, u_hi) = views[n % 2], views[1 - n % 2]
        np.multiply(main, u, out=b)
        b_lo += np.multiply(up, u_hi, out=part)
        b_hi += np.multiply(low, u_lo, out=part)
        b[0] = market.strike * np.exp(-market.r * ((n + 1) * dt))
        b[-1] = 0.0
        dgttrs(*lu, b, overwrite_b=True)
    return b.copy()


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
    """u with mass @ u = b, by Jacobi-preconditioned CG from D^-1 b, to
    ||r|| <= 1e-14 ||b|| or for 100 steps; RuntimeError unless the true
    residual ||mass @ u - b|| is at most 1e-12 ||b||."""
    d, tol = mass.diagonal(), 1e-14 * np.linalg.norm(b)
    u, r = b / d, b - mass @ (b / d)
    p, rz = r / d, r @ (r / d)
    for _ in range(100):
        if not np.linalg.norm(r) > tol:   # a NaN stops too
            break
        q = mass @ p
        alpha = rz / (p @ q)
        u, r = u + alpha * p, r - alpha * q
        rz, last = r @ (r / d), rz
        p = r / d + (rz / last) * p
    res = np.linalg.norm(mass @ u - b)
    if not res <= 100 * tol:
        raise RuntimeError(f"mass projection residual {res:g} > {100*tol:g}")
    return u
