"""Crank-Nicolson time marching on the same P1 spatial discretizations.

Used for the Table-1 comparison run and for building the basket reference
solution.  Both methods run on one :class:`~lapbs.fem1d.Pencil`: a march
factors S + (2/dt)*M, the pencil at the real shift z = 2/dt, once, and
each step applies (2/dt)*M - S and back-solves, so the two methods
discretize the identical operator.  The Dirichlet rows (and, in 2D,
their columns) are eliminated in the pencil; each step pins the
time-domain boundary values.  In 1D the factor is LAPACK's tridiagonal
LU (``dgttrf``/``dgttrs``).  Both 2D LUs, the step matrix and the
projection, come from ``fem2d.factor``, the symmetric minimum-degree LU
of the Laplace nodes.  The transparent (Robin) condition is defined only
in the transform domain, so ``march2d`` rejects a transparent edge.
"""

from dataclasses import astuple, dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse import csc_matrix

from . import fem1d, fem2d

__all__ = ["MarchConfig", "march1d", "march2d"]


@dataclass(frozen=True)
class MarchConfig:
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def march1d(mesh, market, config, u0=None, kink=None,
            left_value=None, right_value=None):
    """theta = 1/2 two-level scheme; Dirichlet data imposed each step.

    ``left_value``/``right_value`` are time-domain boundary data t -> value;
    defaults are the put problem's K*exp(-r*t) and 0.
    """
    if left_value is None:
        left_value = lambda t: market.strike * np.exp(-market.r * t)
    if right_value is None:
        right_value = lambda t: 0.0
    both_ends = fem1d.BoundarySpec(left=lambda z: 0.0, right=lambda z: 0.0)
    p = fem1d.pencil(mesh, market, both_ends, u0=u0, kink=kink)
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
    b[p.fixed] = left_value(0.0), right_value(0.0)
    u = solve_banded((1, 1), proj, b)
    for n in range(config.steps):
        t_next = (n + 1) * dt
        b = fem1d._residual(rhs_op, u)
        b[p.fixed] = left_value(t_next), right_value(t_next)
        u = dgttrs(*lu, b)[0]
    return u


def march2d(mesh, basket, config, edges=None, u0=None):
    """Crank-Nicolson for the basket equation on the triangulated grid.

    Raises ValueError for a transparent edge, which has no time-domain
    form here.
    """
    edges = edges or fem2d.EdgeSpec()
    if "transparent" in astuple(edges):
        raise ValueError(f"march2d has no transparent edge condition: {edges}")
    p = fem2d.pencil(mesh, basket, edges, u0=u0)
    dt = basket.maturity / config.steps
    lu = fem2d.factor(p.S + (2.0 / dt) * p.M)
    rhs_op = ((2.0 / dt) * p.M - p.S).tocsr()

    # L2-projected initial data, matching the 1D march
    n = mesh.n_nodes
    ones = np.ones(len(p.fixed))
    b = p.load.copy()
    b[p.fixed] = 0.0
    proj = p.M + csc_matrix((ones, (p.fixed, p.fixed)), shape=(n, n))
    u = fem2d.factor(proj).solve(b)
    for _ in range(config.steps):
        b = rhs_op @ u
        b[p.fixed] = 0.0
        u = lu.solve(b)
    return u
