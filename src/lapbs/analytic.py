"""Closed-form Black-Scholes put, erf, and error metrics.

``erf`` and ``bs_put`` wrap ``scipy.special.erf`` and ``ndtr`` (the normal
CDF): a float or an ndarray of any shape in, a Python float for a scalar.
"""

import math

import numpy as np

__all__ = ["erf", "bs_put", "l2_error", "reduction_rate"]


def erf(x):
    """Error function of a float or an ndarray (shape kept); odd, +-1 at
    +-inf, NaN for NaN.  Within 2.3 ulp of 40-digit mpmath on [-7, 7]."""
    # at first use: scipy.special adds 60-90 ms to ``import lapbs``
    from scipy.special import erf as _erf

    out = _erf(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def bs_put(x, t, strike, r, sigma):
    """Black-Scholes European put value at spot(s) ``x`` (float or ndarray,
    shape kept); spots x <= 0, and those so small that x/strike underflows
    to 0, get the discounted strike; x = +inf gets 0."""
    from scipy.special import ndtr  # at first use, as in ``erf``

    for name, value in (("t", t), ("strike", strike), ("sigma", sigma)):
        if not 0 < value < math.inf:   # a NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    x = np.asarray(x, dtype=float)
    discounted = strike * math.exp(-r * t)
    with np.errstate(under="ignore"):  # a subnormal spot's ratio
        ratio = x / strike
    at_zero = ratio <= 0
    at_inf = x == np.inf
    # keeps log() finite and inf * N(-inf) out of the formula
    special = at_zero | at_inf
    spot = np.where(special, strike, x)
    srt = sigma * math.sqrt(t)
    d1 = (np.log(np.where(special, 1.0, ratio))
          + (r + 0.5 * sigma * sigma) * t) / srt
    d2 = d1 - srt
    val = discounted * ndtr(-d2) - spot * ndtr(-d1)
    out = np.where(at_zero, discounted, np.where(at_inf, 0.0, val))
    return out if out.ndim else float(out)


_G5X, _G5W = np.polynomial.legendre.leggauss(5)


def l2_error(values, exact, mesh):
    """L2(0, L) distance between the P1 interpolant of ``values`` and the
    function ``exact``, by 5-point Gauss per element.

    ``exact`` must be callable on an ndarray: it is called once, on the
    (m, 5) array of all Gauss points; a scalar return is broadcast.
    """
    x = mesh.x
    v = np.asarray(values, dtype=float)
    if len(v) != len(x):
        raise ValueError(f"values has {len(v)} entries but the mesh has "
                         f"{len(x)} nodes")
    a = x[:-1, None]
    half = 0.5 * (x[1:] - x[:-1])
    pts = 0.5 * (a + x[1:, None]) + half[:, None] * _G5X
    interp = v[:-1, None] + (v[1:] - v[:-1])[:, None] * (pts - a) / mesh.h
    ex = np.broadcast_to(exact(pts), pts.shape)
    return math.sqrt(np.dot(half, (interp - ex) ** 2 @ _G5W))


def reduction_rate(e_coarse, e_fine):
    """log2 error ratio under mesh halving; NaN when either error is zero."""
    if e_coarse <= 0 or e_fine <= 0:
        return float("nan")
    return math.log2(e_coarse / e_fine)
