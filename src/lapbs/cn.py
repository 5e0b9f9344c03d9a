"""Crank-Nicolson time marching on the same P1 spatial discretizations.

Used for the Table-1 comparison run and for building the basket reference
solution.  Both methods run on one :class:`~lapbs.fem1d.Pencil`: a march
factors S + (2/dt)*M, the pencil at the real shift z = 2/dt, once, and
each step applies (2/dt)*M - S and back-solves, so the two methods
discretize the identical operator.  The marches price the put problems
only: the payoff is the initial data, the 1D ends hold K*exp(-r*t) at
x = 0 and 0 at x = L, and the 2D edges are ``EdgeSpec()``'s (zero flux at
the axes, 0 at the far edges).  In 1D the Dirichlet rows are eliminated
in the pencil, and each step pins the end values; the factor is LAPACK's
tridiagonal LU (``dgttrf``/``dgttrs``), and the initial projection is one
``dgtsv`` call by ``fem1d._gtsv``, as each Laplace node's solve is.  In 2D
the march runs in the pencil's own unknowns, which leave out the far-edge
nodes and, for swap-symmetric data, fold each node (i, j), i < j, onto its
mirror (j, i), and returns ``expand`` of the result; both LUs, the projection
and then the step matrix, come from ``fem2d.factor``, as the Laplace
nodes' do, and the first is freed before the second is made.
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
    """theta = 1/2 two-level scheme for the put; the end values are
    pinned each step."""
    ends = lambda t: (market.strike * np.exp(-market.r * t), 0.0)
    p = fem1d.pencil(mesh, market)
    dt = market.maturity / config.steps
    lhs = p.S + (2.0 / dt) * p.M
    # the tridiagonal LU once (lower, main, upper band); each step back-solves
    *lu, info = dgttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
    if info:
        raise np.linalg.LinAlgError(f"singular step matrix at row {info}")
    rhs_op = (2.0 / dt) * p.M - p.S

    # L2-projected initial data: consistent with the Galerkin space and
    # free of the kink-interpolation overshoot on coarse meshes
    proj = p.M.copy()
    proj[1, p.fixed] = 1.0
    b = p.load.copy()
    b[p.fixed] = ends(0.0)
    u = fem1d._gtsv(proj, b)
    for n in range(config.steps):
        b = fem1d._residual(rhs_op, u)
        b[p.fixed] = ends((n + 1) * dt)
        u = dgttrs(*lu, b)[0]
    return u


def march2d(mesh, basket, config):
    """Crank-Nicolson for the basket put on the triangulated grid."""
    p = fem2d.pencil(mesh, basket, fem2d.EdgeSpec())
    dt = basket.maturity / config.steps
    # L2-projected initial data, matching the 1D march; M's LU is freed
    # here, so two LUs are never alive at once
    u = fem2d.factor(p.M).solve(p.load)
    lu = fem2d.factor(p.S + (2.0 / dt) * p.M)
    rhs_op = ((2.0 / dt) * p.M - p.S).tocsr()
    for _ in range(config.steps):
        u = lu.solve(rhs_op @ u)
    return p.expand @ u
