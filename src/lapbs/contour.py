"""Hyperbolic inversion contour: geometry, quadrature nodes, admissibility."""

import math
from dataclasses import dataclass

import numpy as np

from .fem1d import _require_positive

__all__ = [
    "ContourParams",
    "QuadNode",
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
    onto the real line; ``n`` is the node half-count (quadrature indices
    run j = -n+1 ... n-1).
    """

    gamma: float
    nu: float
    s: float
    tau: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        _require_positive(self, "tau", "nu", "s")
        if not self.n >= 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def crossing(self):
        """Where the contour cuts the real axis."""
        return self.gamma - self.nu


@dataclass(frozen=True)
class QuadNode:
    """One contour quadrature point with its folded inversion weight.

    The weight already contains the 1/(2*pi*i*N) factor and both chain-rule
    derivatives, so the inverse transform is the plain sum of
    weight * u_hat(z) * exp(z*t) over nodes.  Under this convention
    node(-j) carries conj(z_j) and conj(weight_j).
    """

    j: int
    z: complex
    weight: complex


def mu(r_sup, sigma_floor, sigma_z_norm, constant_sigma):
    """Coercivity defect constant of the transformed operator.

    For constant volatility this is (r - sigma^2)^2 / sigma^2; for variable
    volatility the norm-based variant (r + 2*|sigma|_Z^2)^2 / sigma_floor^2.
    """
    if sigma_floor <= 0:
        raise ValueError(f"sigma_floor must be positive, got {sigma_floor}")
    if constant_sigma:
        return (r_sup - sigma_floor**2) ** 2 / sigma_floor**2
    return (r_sup + 2.0 * sigma_z_norm**2) ** 2 / sigma_floor**2


def kappa_bound(s, mu_val):
    """Smallest admissible real-axis crossing for a contour of slope s."""
    return (1.0 + math.tan(0.5 * math.atan(s)) ** 2 / 2.0) * mu_val


def omega_of_y(y, tau):
    """Inverse tanh change of variables, (2/tau) * atanh(y); odd in y."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("omega_of_y requires |y| < 1")
    out = np.log((1.0 + y) / (1.0 - y)) / tau
    return out if out.ndim else float(out)


def quadrature_nodes(p):
    """All 2N-1 contour nodes j = -N+1 ... N-1 with folded weights."""
    nodes = []
    inv_2pii_n = 1.0 / (2.0j * math.pi * p.n)
    for j in range(-p.n + 1, p.n):
        y = j / p.n
        w = omega_of_y(y, p.tau)
        root = math.hypot(w, p.nu)
        z = complex(p.gamma - root, p.s * w)
        dz_dw = complex(-w / root, p.s)
        dw_dy = 2.0 / (p.tau * (1.0 - y * y))
        nodes.append(QuadNode(j=j, z=z, weight=inv_2pii_n * dz_dw * dw_dy))
    return nodes


def validate(p, kappa):
    """Check contour admissibility; returns (ok, list of violation strings).

    ``ContourParams`` already rejects a non-finite gamma, a nonpositive or
    non-finite tau, nu or s, and n < 1.
    """
    violations = []
    if not p.crossing > kappa:
        violations.append(
            f"real-axis crossing {p.crossing:g} <= kappa {kappa:g}"
        )
    return (not violations, violations)
