"""P1 finite elements for the Laplace-transformed one-asset equation.

The transformed problem on the truncated interval (0, L) is

    z*u - (1/2)*sigma^2*x^2*u'' - r*x*u' + r*u = u0,

assembled in weak form with exact element integrals (the coefficients are
polynomials, so every entry is closed-form).  At x = 0 the operator
loses its x^2 and x terms, so that node's row is (z + r)*u = u0(0); the
right end is either Dirichlet or a transparent Robin condition built
from the exterior solution's logarithmic derivative.
One solve at a shift z is ``solve(pencil(mesh, market, right_bc).at(z))``:
the pencil is built once per problem and serves every z, and each solve is
one call of LAPACK's tridiagonal ``?gtsv`` plus a residual guard.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv, zgtsv

__all__ = [
    "Market1D",
    "Mesh1D",
    "RIGHT_BCS",
    "payoff_put",
    "robin_coefficient",
    "Pencil",
    "pencil",
    "solve",
]


def _require_real(positive=True, **values):
    """Raise ValueError naming the first of ``values`` (name=value) that is
    not a real number, is a bool, NaN or +-inf, or is <= 0 if
    ``positive``."""
    for name, value in values.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (0 if positive else -math.inf) < value < math.inf):
            raise ValueError(f"{name} must be {'positive and ' * positive}"
                             f"finite, got {value!r}")


def _require_count(name, value, least, noun):
    """Raise ValueError unless the count ``value`` is an int or a numpy
    integer (not a bool, nor a float) of at least ``least`` ``noun``."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least} "
                         f"{noun}, got {value!r}")


@dataclass(frozen=True)
class Market1D:
    r: float
    sigma: float
    strike: float
    maturity: float
    L: float

    def __post_init__(self):
        _require_real(positive=False, r=self.r)
        _require_real(sigma=self.sigma, strike=self.strike,
                      maturity=self.maturity, L=self.L)
        if self.L < self.strike:
            raise ValueError("truncation L must not cut the payoff support")


class Mesh1D:
    """Uniform mesh 0 = x_0 < ... < x_M = L."""

    def __init__(self, L, m):
        _require_count("m", m, 2, "elements")
        _require_real(L=L)
        self.L = float(L)
        self.m = int(m)
        self.h = self.L / self.m
        self.x = np.linspace(0.0, self.L, self.m + 1)

    def __len__(self):
        return self.m + 1


# the right-end conditions of the put: 0, or the transparent Robin term
RIGHT_BCS = ("dirichlet0", "transparent")


def payoff_put(x, strike):
    """European put payoff (K - x)_+."""
    return np.maximum(strike - np.asarray(x, dtype=float), 0.0)


def robin_coefficient(z, r, sigma, L):
    """Transparent-boundary coefficient c(z) with u'(L) = c(z)*u(L).

    The square root is the principal branch.  Its radicand is
    (r + sigma^2/2)^2 + 2*sigma^2*z, so Re > 0 except at real
    z <= -(r + sigma^2/2)^2/(2*sigma^2) < 0, where Re = 0; no admissible
    contour reaches there, as its one real node, the crossing, is > kappa >= 0.
    """
    s2 = sigma * sigma
    radicand = (r - 0.5 * s2) ** 2 + 2.0 * s2 * (r + z)
    if radicand == 0:
        raise ValueError("degenerate transparent boundary: zero radicand")
    return (-(r - 0.5 * s2) - cmath.sqrt(radicand)) / (L * s2)


# Gauss-Legendre, 5 points on [0, 1]; exact through degree 9.
_GAUSS_X = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
_GAUSS_W = np.polynomial.legendre.leggauss(5)[1] / 2.0


def _load_vector(mesh, u0, kink=None):
    """(u0, phi_i) for all basis functions, each element integral split at
    clip(kink, a, b) so piecewise-polynomial payoffs integrate exactly."""
    x = mesh.x[:, None]
    c = x[1:] if kink is None else np.clip(kink, x[:-1], x[1:])
    rhs = np.zeros(len(mesh))
    for lo, hi in ((x[:-1], c), (c, x[1:])):
        e = np.flatnonzero(hi > lo)   # a half of zero width adds exact 0s
        pts = lo[e] + (hi[e] - lo[e]) * _GAUSS_X
        f = u0(pts) * ((hi[e] - lo[e]) * _GAUSS_W)
        rhs[e] += np.sum(f * (x[e + 1] - pts), axis=1) / mesh.h
        rhs[e + 1] += np.sum(f * (pts - x[e]), axis=1) / mesh.h
    return rhs


@dataclass(frozen=True)
class Pencil:
    """The systems of one problem along z: A(z) = S + z*M + sum_k c_k(z)*B_k,
    each with the right-hand side ``load``, which does not depend on z.

    Built once per problem, so a node costs one axpy.  In 1D the matrices
    are (3, n) bands over the nodes, gtsv's three diagonals: row 0 the
    upper (``[0, j]`` is A[j-1, j]), row 1 the main and row 2 the lower
    (``[2, j]`` is A[j+1, j]); a Dirichlet row at x = L is eliminated (an
    identity row in S, zero rows in M and in each B_k, load 0).  In 2D
    every Dirichlet value is 0, so they are CSC on one shared pattern over
    the pencil's own unknowns; ``expand`` maps a solution back to the
    nodes.  Crank-Nicolson steps with S + (2/dt)*M.
    """

    S: object
    M: object
    load: np.ndarray
    robin: tuple = ()   # (c_k, B_k) pairs
    expand: object = None   # 2D: nodes x unknowns, orthonormal columns

    def at(self, z):
        """(A(z), rhs) at one shift z, as ``solve`` takes it.  A(z) is one
        new array, summed in place, so the pencil is never written; in 2D
        it sums the data on the pattern S, M and each B_k share."""
        if self.expand is None:   # a 1D Robin band's one entry is [1, -1]
            a = complex(z) * self.M
            a += self.S
            for c, b in self.robin:
                a[1, -1] += c(z) * b[1, -1]
        else:
            data = complex(z) * self.M.data
            data += self.S.data
            for c, b in self.robin:
                data += c(z) * b.data
            a = type(self.M)((data, self.M.indices, self.M.indptr),
                             shape=self.M.shape)
        return a, self.load.astype(complex)


def _robin_term(r, a, L):
    """Coefficient of the boundary mass of a transparent edge at L with
    diffusion a = sigma^2: by parts, -(1/2)*a*x^2*u'' leaves the term
    -(1/2)*a*L^2*u'(L)*v(L), and u'(L) = robin_coefficient(z)*u(L)."""
    return lambda z: -0.5 * a * L**2 * robin_coefficient(z, r, np.sqrt(a), L)


def _bands(d_left, d_right, up, lo, n):
    """(3, n) bands from element contributions: both diagonal halves, the
    upper A[e, e+1] and the lower A[e+1, e]."""
    out = np.zeros((3, n))
    out[1, :-1] += d_left
    out[1, 1:] += d_right
    out[0, 1:] = up
    out[2, :-1] = lo
    return out


def _forms(mesh, market):
    """The put's bands before any boundary row: its stiffness
    (1/2)*sigma^2 * int x^2 u' v', its spatial form (stiffness, convection
    and r*mass) and its mass, each element integral exact."""
    r, s2 = market.r, market.sigma**2
    a, b = mesh.x[:-1], mesh.x[1:]
    h, n = mesh.h, len(mesh)
    # exact element integrals of the polynomial coefficients
    ix2 = (b**3 - a**3) / 3.0                       # int x^2
    ixl = (b * (b**2 - a**2) / 2.0 - (b**3 - a**3) / 3.0) / h   # int x*phi_left
    ixr = ((b**3 - a**3) / 3.0 - a * (b**2 - a**2) / 2.0) / h   # int x*phi_right
    # stiffness (1/2)*sigma^2 * int x^2 phi_i' phi_j'
    k_el = 0.5 * s2 * ix2 / h**2
    # convection (sigma^2 - r) * int x * phi_j' * phi_i ; phi_j' = -+1/h
    cc = (s2 - r) / h
    mass = _bands(h / 3.0, h / 3.0, h / 6.0, h / 6.0, n)
    spatial = _bands(k_el - cc * ixl, k_el + cc * ixr, -k_el + cc * ixl,
                     -k_el - cc * ixr, n) + r * mass
    return _bands(k_el, k_el, -k_el, -k_el, n), spatial, mass


def pencil(mesh, market, right_bc="dirichlet0"):
    """The put's :class:`Pencil`, in bands.  Row 0 is the equation left at
    x = 0, (z + r)*u = K (S[0, 0] = r, M[0, 0] = 1, load K), solved by
    K/(z + r), the transform of the boundary data K*exp(-r*t).  At x = L
    the put is 0 ("dirichlet0") or takes the transparent Robin term
    ("transparent").  The other loads are the payoff's, integrated
    exactly with each element split at the strike."""
    if right_bc not in RIGHT_BCS:
        raise ValueError(f"unknown right_bc {right_bc!r}; "
                         f"choose from {RIGHT_BCS}")
    r, n = market.r, len(mesh)
    _, spatial, mass = _forms(mesh, market)
    load = _load_vector(mesh, lambda xx: payoff_put(xx, market.strike),
                        kink=market.strike)
    # row 0's entries are bands[1, 0] and A[0, 1] = bands[0, 1]
    spatial[0, 1] = mass[0, 1] = 0.0
    spatial[1, 0], mass[1, 0], load[0] = r, 1.0, market.strike
    robin = ()
    if right_bc == "transparent":
        edge = np.zeros((3, n))
        edge[1, -1] = 1.0
        robin = ((_robin_term(r, market.sigma**2, mesh.L), edge),)
    else:   # row n-1's: bands[1, -1] and A[n-1, n-2] = bands[2, -2]
        spatial[2, -2] = mass[2, -2] = mass[1, -1] = 0.0
        spatial[1, -1], load[-1] = 1.0, 0.0
    return Pencil(spatial, mass, load, robin)


def solve(system):
    """Direct tridiagonal solve of ``Pencil.at(z)``'s (bands, rhs) by
    :func:`_gtsv`, with a residual guard: a non-finite solution, or a
    residual ||A x - b|| above 1e-12 * (||A||_F ||x|| + ||b||), raises
    RuntimeError.  Returns the nodal values."""
    bands, rhs = system
    sol = _gtsv(bands, rhs)
    if not np.isfinite(sol).all():
        raise RuntimeError("banded solve gave a non-finite solution")
    r = _residual(bands, sol)
    r -= rhs
    res = _norm(r)
    scale = _norm(bands) * _norm(sol) + _norm(rhs)
    if not (math.isfinite(res) and res <= 1e-12 * max(scale, 1.0)):
        raise RuntimeError(f"banded solve residual too large: {res:g}")
    return sol


def _gtsv(bands, rhs):
    """Solve (3, n) bands by LAPACK's ``dgtsv``, or ``zgtsv`` if either
    input is complex: the routine ``solve_banded((1, 1), ...)`` calls, on
    copies.  A zero pivot raises LinAlgError naming its (1-based) row."""
    gtsv = zgtsv if np.iscomplexobj(bands) or np.iscomplexobj(rhs) else dgtsv
    *_, sol, info = gtsv(bands[2, :-1], bands[1], bands[0, 1:], rhs)
    if info:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal matrix: zero pivot at row {info}")
    return sol


def _norm(v):
    """2-norm of v (Frobenius for the bands)."""
    return math.sqrt(np.vdot(v, v).real)


def _residual(bands, sol):
    """The (3, n) bands' matrix times sol."""
    out = bands[1] * sol
    out[:-1] += bands[0, 1:] * sol[1:]
    out[1:] += bands[2, :-1] * sol[:-1]
    return out
