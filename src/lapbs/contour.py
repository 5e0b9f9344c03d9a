"""Hyperbolic inversion contour: geometry, admissibility, and the
quadrature nodes as a ``(z, weight)`` pair of complex arrays."""

import math
from dataclasses import dataclass

import numpy as np

from .fem1d import _require_count, _require_real

__all__ = [
    "ContourParams",
    "mu",
    "kappa_bound",
    "omega_of_y",
    "quadrature_nodes",
    "validate",
]


@dataclass(frozen=True)
class ContourParams:
    """Parameters of the deformed contour z(w) = gamma - sqrt(w^2 + nu^2) + i*s*w.

    ``tau`` is the scale of the tanh change of variables mapping (-1, 1)
    onto the real line; ``n`` is the node count N of the conjugate half
    j = 0 ... N-1 (see :func:`quadrature_nodes`).
    """

    gamma: float
    nu: float
    s: float
    tau: float
    n: int

    def __post_init__(self):
        _require_real(positive=False, gamma=self.gamma)
        _require_real(tau=self.tau, nu=self.nu, s=self.s)
        _require_count("n", self.n, 1, "node")

    @property
    def crossing(self):
        """Where the contour cuts the real axis."""
        return self.gamma - self.nu


def mu(r_sup, sigma_floor, sigma_z_norm, constant_sigma):
    """Coercivity defect constant of the transformed operator.

    For constant volatility this is (r - sigma^2)^2 / sigma^2; for variable
    volatility the norm-based variant (r + 2*|sigma|_Z^2)^2 / sigma_floor^2.
    ValueError naming the inputs if it overflows or divides by a
    sigma_floor^2 that underflows to 0.
    """
    _require_real(positive=False, r_sup=r_sup, sigma_z_norm=sigma_z_norm)
    _require_real(sigma_floor=sigma_floor)
    try:   # Python floats raise on overflow in ** and on division by 0.0
        if constant_sigma:
            return (r_sup - sigma_floor**2) ** 2 / sigma_floor**2
        return (r_sup + 2.0 * sigma_z_norm**2) ** 2 / sigma_floor**2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"mu is out of range at r_sup={r_sup!r}, sigma_floor="
                         f"{sigma_floor!r}, sigma_z_norm={sigma_z_norm!r}"
                         ) from None


def kappa_bound(s, mu_val):
    """Smallest admissible real-axis crossing for a contour of slope s."""
    return (1.0 + math.tan(0.5 * math.atan(s)) ** 2 / 2.0) * mu_val


def omega_of_y(y, tau):
    """Inverse tanh change of variables, (2/tau) * atanh(y); odd in y."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.abs(y) < 1.0):   # a NaN fails too
        raise ValueError("omega_of_y requires |y| < 1")
    out = np.log((1.0 + y) / (1.0 - y)) / tau
    return out if out.ndim else float(out)


def quadrature_nodes(p):
    """The conjugate-half nodes j = 0 ... N-1, in order, as complex arrays
    ``(z, weight)``; z[0] is real, and so is weight[0] = s/(pi*N*tau) > 0
    (the inversion's imaginary guard relies on both).  Each weight folds
    in 1/(2*pi*i*N) and both chain-rule derivatives, so the inverse
    transform is the plain sum of weight * u_hat(z) * exp(z*t); node -j of
    the full rule is node j conjugated."""
    y = np.arange(p.n) / p.n
    w = omega_of_y(y, p.tau)
    root = np.hypot(w, p.nu)
    z = (p.gamma - root) + 1j * (p.s * w)
    dz_dw = -w / root + 1j * p.s
    dw_dy = 2.0 / (p.tau * (1.0 - y * y))
    return z, 1.0 / (2.0j * math.pi * p.n) * dz_dw * dw_dy


def validate(p, kappa):
    """Check contour admissibility; returns (ok, list of violation strings).

    ``ContourParams`` already rejects a bool or a non-real value, a
    non-finite gamma, a nonpositive or non-finite tau, nu or s, and an n
    that is not an integer >= 1.
    """
    violations = []
    if not p.crossing > kappa:
        violations.append(
            f"real-axis crossing {p.crossing:g} <= kappa {kappa:g}"
        )
    return (not violations, violations)
