"""Time-domain reconstruction from transformed solutions.

The contour sum needs only the conjugate-half nodes j = 0 ... N-1, a
``(z, weight)`` pair of arrays: for real problem data the j < 0 terms
are conjugates of their positive partners, so the symmetric sum is
Re{sum_j k_j*u_j} with k_j = weight_j*e^{z_j t}, doubled for j >= 1.
Every time of a batch comes from one real matrix product of the
coefficients Re k_j, -Im k_j (T x 2N) and the node rows Re u_j, Im u_j
(2N x ndof), node by node so that each node's two parts meet in the sum.
A conjugate pair adds to a real number exactly, so the only imaginary
part left is node 0's, k_0*Im u_0 (z_0 and weight_0 are real): for real
data it is 0, and the guard raises, naming the time, when it is not
negligible against that time's result, or when either is not finite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .contour import ContourParams, quadrature_nodes
from .fem1d import _require_real

__all__ = ["TransformEnsemble", "invert_at", "invert_many"]


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


def _invert(ensemble, times):
    """Prices (T x ndof) and imaginary residuals (T,) at ``times``, after
    checking every time and guarding every result."""
    for t in times:
        _require_real(t=t)
    u = ensemble.values
    weight = 2.0 * ensemble.weight
    weight[0] = ensemble.weight[0]
    # an overflowing e^{z t} is left to the guard, which names its time
    with np.errstate(over="ignore", invalid="ignore"):
        k = weight * np.exp(np.multiply.outer(np.array(times, dtype=float),
                                              ensemble.z))
        # columns Re k_j, -Im k_j against rows Re u_j, Im u_j, j = 0 ... N-1
        rows = np.stack((u.real, u.imag), axis=1).reshape(-1, u.shape[1])
        prices = k.conj().view(float) @ rows
        scales = np.maximum(prices.max(axis=1), -prices.min(axis=1))
        residuals = np.abs(k[:, 0].real) * np.abs(u[0].imag).max()
    for t, scale, residual in zip(times, scales.tolist(), residuals.tolist()):
        if not (math.isfinite(residual) and math.isfinite(scale)):
            raise RuntimeError(f"non-finite inversion at t={t:g} (result "
                               f"scale {scale:g}, imaginary residual "
                               f"{residual:g})")
        if scale > 0 and residual > 1e-10 * scale:
            raise RuntimeError(f"imaginary residual {residual:g} exceeds "
                               f"1e-10 of result scale at t={t:g}")
    return prices, residuals


def invert_at(ensemble, t, return_residual=False):
    """Evaluate the quadrature inversion sum at one time t; a float for a
    one-column ensemble, else an array."""
    prices, residuals = _invert(ensemble, [t])
    result = float(prices[0, 0]) if prices.shape[1] == 1 else prices[0]
    if return_residual:
        return result, float(residuals[0])
    return result


def invert_many(ensemble, times):
    """One inversion sum per time, all from one matrix product; the solves
    are reused, nothing re-solved."""
    prices, _ = _invert(ensemble, list(times))
    return prices[:, 0].tolist() if prices.shape[1] == 1 else list(prices)
