"""Time-domain reconstruction from transformed solutions.

The contour sum needs only the conjugate-half nodes j = 0 ... N-1, a
``(z, weight)`` pair of arrays: for real problem data the j < 0 terms
are conjugates of their positive partners, so the symmetric sum is
Re{k_0*u_0} + 2*Re{sum_{j>=1} k_j*u_j} with k_j = weight_j*e^{z_j t}.
Each time costs one vector-matrix product of k over the node rows.  A
conjugate pair adds to a real number exactly, so the only imaginary part
left is node 0's: for real data it is 0, and the guard raises when it
is not negligible against the result, or when either is not finite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .contour import ContourParams, quadrature_nodes

__all__ = ["TransformEnsemble", "invert_at", "invert_many", "direct_trapezoid"]


@dataclass
class TransformEnsemble:
    """Transformed solutions, one row per contour node j = 0 ... N-1;
    ``z`` and ``weight`` are the nodes', computed once per ensemble."""

    contour: ContourParams
    values: np.ndarray  # shape (N, ndof) complex
    z: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=complex))
        if self.values.shape[0] != self.contour.n:
            raise ValueError("need one value row per node")
        self.z, self.weight = quadrature_nodes(self.contour)

    @classmethod
    def from_evaluator(cls, contour, transform):
        """Build from a scalar transform z -> u_hat(z) (oracle use)."""
        z, _ = quadrature_nodes(contour)
        return cls(contour, [[transform(zj)] for zj in z.tolist()])


def invert_at(ensemble, t, return_residual=False):
    """Evaluate the quadrature inversion sum at one time t."""
    if not 0 < t < math.inf:   # a NaN fails too
        raise ValueError(f"t must be positive and finite, got {t}")
    k = ensemble.weight * np.exp(ensemble.z * t)
    u = ensemble.values
    head = k[0] * u[0]
    result = head.real + 2.0 * (k[1:] @ u[1:]).real
    residual = float(np.max(np.abs(head.imag)))
    scale = float(np.max(np.abs(result)))
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise RuntimeError(f"non-finite inversion: result scale {scale:g}, "
                           f"imaginary residual {residual:g}")
    if scale > 0 and residual > 1e-10 * scale:
        raise RuntimeError(
            f"imaginary residual {residual:g} exceeds 1e-10 of result scale"
        )
    if result.size == 1:
        result = float(result[0])
    if return_residual:
        return result, residual
    return result


def invert_many(ensemble, times):
    """One inversion sum per time; the solves are reused, nothing re-solved."""
    return [invert_at(ensemble, t) for t in times]


def direct_trapezoid(alpha, period, n_terms, transform, t):
    """Vertical-line trapezoid inversion (slowly converging baseline).

    Sum' halves the first and last summands; node spacing is pi/period.
    """
    if not 0 < t < period:
        raise ValueError("t must lie in (0, period)")
    total = 0.0
    for k in range(0, n_terms):
        w = k * np.pi / period
        u = transform(complex(alpha, w))
        term = u.real * np.cos(w * t) - u.imag * np.sin(w * t)
        if k == 0 or k == n_terms - 1:
            term *= 0.5
        total += term
    return float(np.exp(alpha * t) / period * total)
