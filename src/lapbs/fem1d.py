"""P1 finite elements for the Laplace-transformed one-asset equation.

The transformed problem on the truncated interval (0, L) is

    z*u - (1/2)*sigma^2*x^2*u'' - r*x*u' + r*u = u0,

assembled in weak form with exact element integrals (the coefficients are
polynomials, so every entry is closed-form).  The x = 0 node is always a
Dirichlet node; the right end is either Dirichlet or a transparent Robin
condition built from the exterior solution's logarithmic derivative.
One solve at a shift z is ``solve(pencil(mesh, market, right_bc).at(z))``:
the pencil is built once per problem and serves every z, and each solve is
one call of LAPACK's tridiagonal ``?gtsv`` plus a residual guard.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv, zgtsv

__all__ = [
    "Market1D",
    "Mesh1D",
    "RIGHT_BCS",
    "payoff_put",
    "left_dirichlet_transform",
    "robin_coefficient",
    "Pencil",
    "pencil",
    "solve",
]


def _require_positive(obj, *names):
    """Raise ValueError unless each named attribute is finite and > 0
    (a NaN fails too)."""
    for name in names:
        value = getattr(obj, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


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
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        _require_positive(self, "sigma", "strike", "maturity", "L")
        if self.L < self.strike:
            raise ValueError("truncation L must not cut the payoff support")


class Mesh1D:
    """Uniform mesh 0 = x_0 < ... < x_M = L."""

    def __init__(self, L, m):
        _require_count("m", m, 2, "elements")
        self.L = float(L)
        _require_positive(self, "L")
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


def left_dirichlet_transform(z, strike, r):
    """Laplace transform of the x=0 boundary data K*exp(-r*t)."""
    if z == -r:
        raise ZeroDivisionError("transform singular at z = -r")
    return strike / (z + r)


def robin_coefficient(z, r, sigma, L):
    """Transparent-boundary coefficient c(z) with u'(L) = c(z)*u(L).

    The square root is the principal branch, which has positive real part
    for every nonzero argument.
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
    a, b = mesh.x[:-1, None], mesh.x[1:, None]
    c = b if kink is None else np.clip(kink, a, b)
    rhs = np.zeros(len(mesh))
    for lo, hi in ((a, c), (c, b)):
        pts = lo + (hi - lo) * _GAUSS_X
        f = u0(pts) * ((hi - lo) * _GAUSS_W)
        rhs[:-1] += np.sum(f * (b - pts), axis=1) / mesh.h
        rhs[1:] += np.sum(f * (pts - a), axis=1) / mesh.h
    return rhs


@dataclass(frozen=True)
class Pencil:
    """The systems of one problem along z: A(z) = S + z*M + sum_k c_k(z)*B_k.

    Built once per problem, so a node costs one axpy plus the
    right-hand-side pins: ``values(z)`` at the ``fixed`` rows, ``load``
    elsewhere.  In 1D the matrices are (3, n) bands over the nodes, gtsv's
    three diagonals: row 0 the upper (``[0, j]`` is A[j-1, j]), row 1 the
    main and row 2 the lower (``[2, j]`` is A[j+1, j]), with the Dirichlet
    rows eliminated (identity rows in S, zero rows in M and in each B_k).
    In 2D every Dirichlet value is 0, so they are CSC over the pencil's own
    unknowns, the nodes it keeps in nested-dissection order, and nothing is
    pinned; ``expand`` maps a solution back to the nodes (1D leaves it
    unset).
    Crank-Nicolson steps with S + (2/dt)*M.
    """

    S: object
    M: object
    load: np.ndarray
    fixed: np.ndarray
    values: Callable[[complex], object]
    robin: tuple = ()   # (c_k, B_k) pairs
    expand: object = None   # 2D: nodes x unknowns, orthonormal columns

    def at(self, z):
        """(A(z), rhs) at one shift z, as ``solve`` takes it.  A(z) is one
        new array, summed in place; the pencil is never written (a sparse
        ``+=`` makes a new matrix)."""
        a = complex(z) * self.M
        a += self.S
        for c, b in self.robin:
            a += c(z) * b
        rhs = self.load.astype(complex)
        rhs[self.fixed] = self.values(z)
        return a, rhs


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


def pencil(mesh, market, right_bc="dirichlet0"):
    """The put's :class:`Pencil`, in bands, with its boundary data: K/(z+r)
    at x = 0, and at x = L either 0 ("dirichlet0") or the transparent
    Robin term ("transparent").  The load is the put payoff's, integrated
    exactly with each element split at the strike."""
    if right_bc not in RIGHT_BCS:
        raise ValueError(f"unknown right_bc {right_bc!r}; "
                         f"choose from {RIGHT_BCS}")
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

    # x = 0 is always Dirichlet (the operator degenerates there)
    left = lambda z: left_dirichlet_transform(z, market.strike, r)
    if right_bc == "transparent":
        fixed, values = np.array([0]), left
        edge = np.zeros((3, n))
        edge[1, -1] = 1.0
        robin = ((_robin_term(r, s2, mesh.L), edge),)
    else:
        fixed, values = np.array([0, n - 1]), lambda z: (left(z), 0.0)
        robin = ()
    # row of each band entry: bands[0, j] is row j-1, bands[2, j] row j+1
    pinned = np.isin(np.arange(n) + np.array([[-1], [0], [1]]), fixed)
    spatial[pinned] = mass[pinned] = 0.0
    spatial[1, fixed] = 1.0
    load = _load_vector(mesh, lambda xx: payoff_put(xx, market.strike),
                        kink=market.strike)
    return Pencil(spatial, mass, load, fixed, values, robin)


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
    out = bands[1] * sol
    out[:-1] += bands[0, 1:] * sol[1:]
    out[1:] += bands[2, :-1] * sol[:-1]
    return out


def p1_l2_sq(mesh, v):
    """Exact ||v||^2 on (0, L) for a complex P1 nodal field (Simpson)."""
    v = np.asarray(v)
    a, b = v[:-1], v[1:]
    mid2 = np.abs(0.5 * (a + b)) ** 2
    return float(mesh.h / 6.0 * np.sum(np.abs(a) ** 2 + 4.0 * mid2
                                       + np.abs(b) ** 2))


def p1_weighted_semi_sq(mesh, v):
    """Exact weighted seminorm int |x v'|^2 for a P1 field."""
    v = np.asarray(v)
    x = mesh.x
    dv = np.abs((v[1:] - v[:-1]) / mesh.h) ** 2
    ix2 = (x[1:] ** 3 - x[:-1] ** 3) / 3.0
    return float(np.sum(dv * ix2))


def p1_b_form(mesh, market, v):
    """Exact B(v, v) for a complex P1 field (constant coefficients)."""
    v = np.asarray(v, dtype=complex)
    x = mesh.x
    h = mesh.h
    r, s2 = market.r, market.sigma**2
    a, b = x[:-1], x[1:]
    va, vb = v[:-1], v[1:]
    total = 0.5 * s2 * p1_weighted_semi_sq(mesh, v)
    # int x v' conj(v) per element; v' constant, conj(v) linear
    dv = (vb - va) / h
    ixv = h * ((2 * a + b) / 6.0 * np.conj(va) + (a + 2 * b) / 6.0 * np.conj(vb))
    total += (s2 - r) * complex(np.sum(dv * ixv))
    total += r * p1_l2_sq(mesh, v)
    return complex(total)
