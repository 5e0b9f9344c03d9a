"""Closed-form Black-Scholes put and error metrics.

``bs_put`` prices on ``scipy.special.ndtr`` (the normal CDF): a float or
an ndarray of any shape in, a Python float for a scalar.
"""

import math

import numpy as np

from .fem1d import _GAUSS_W, _GAUSS_X, _require_real

__all__ = ["bs_put", "l2_error", "reduction_rate"]


def bs_put(x, t, strike, r, sigma):
    """Black-Scholes European put value at spot(s) ``x`` (float or ndarray,
    shape kept); spots x <= 0, and those so small that x/strike underflows
    to 0, get the discounted strike; x = +inf gets 0."""
    # at first use: scipy.special adds 60-90 ms to ``import lapbs``
    from scipy.special import ndtr

    _require_real(t=t, strike=strike, sigma=sigma)
    _require_real(positive=False, r=r)
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


def l2_error(values, exact, mesh):
    """L2(0, L) distance between the P1 interpolant of ``values`` and the
    function ``exact``, by 5-point Gauss per element.

    ``exact`` must be callable on an ndarray: it is called once, on the
    (m, 5) array of all Gauss points; a scalar return is broadcast.
    ValueError when the squared sum is not finite, naming ``values`` when
    they hold a NaN or inf and ``exact`` otherwise.
    """
    x = mesh.x
    v = np.asarray(values, dtype=float)
    if len(v) != len(x):
        raise ValueError(f"values has {len(v)} entries but the mesh has "
                         f"{len(x)} nodes")
    h = x[1:] - x[:-1]
    pts = x[:-1, None] + h[:, None] * _GAUSS_X
    interp = v[:-1, None] + (v[1:] - v[:-1])[:, None] * _GAUSS_X
    ex = np.broadcast_to(exact(pts), pts.shape)
    total = np.dot(h, (interp - ex) ** 2 @ _GAUSS_W)
    if not math.isfinite(total):
        cause = "exact is" if np.isfinite(v).all() else "values are"
        raise ValueError(f"{cause} not finite: the L2 error is undefined")
    return math.sqrt(total)


def reduction_rate(e_coarse, e_fine):
    """log2 error ratio under mesh halving; NaN when either error is zero."""
    if e_coarse <= 0 or e_fine <= 0:
        return float("nan")
    return math.log2(e_coarse / e_fine)
