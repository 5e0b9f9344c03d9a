"""Closed-form Black-Scholes put, high-precision erf, and error metrics.

``erf`` and ``bs_put`` take a float or an ndarray of any shape and run the
same array code for both; a scalar in gives a Python float out.
"""

import math

import numpy as np

__all__ = ["erf", "bs_put", "l2_error", "reduction_rate"]

_SQRT_PI = math.sqrt(math.pi)


def _erf_series(x):
    # incomplete-gamma series P(1/2, x^2), fast for small |x|; each entry
    # stops at its own convergence test, so only unconverged ones iterate
    x2 = x * x
    out = np.empty_like(x)
    live = np.arange(x.size)
    y2 = x2
    ap = 0.5
    term = np.full_like(x, 1.0 / ap)
    total = term.copy()
    for _ in range(200):
        ap += 1.0
        term *= y2 / ap
        total += term
        done = np.abs(term) < np.abs(total) * 1e-18
        out[live[done]] = total[done]
        more = ~done
        live, y2, term, total = live[more], y2[more], term[more], total[more]
        if not live.size:
            break
    out[live] = total
    return out * x * np.exp(-x2) / _SQRT_PI


def _erfc_cf(x):
    # modified Lentz continued fraction for Gamma(1/2, x^2), per-entry stop
    x2 = x * x
    tiny = 1e-300
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x2 + 0.5
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    f = d.copy()
    for i in range(1, 300):
        an = -i * (i - 0.5)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        done = np.abs(delta - 1.0) < 1e-17
        out[live[done]] = f[done]
        more = ~done
        live, b, c, d, f = live[more], b[more], c[more], d[more], f[more]
        if not live.size:
            break
    out[live] = f
    return x * np.exp(-x2) * out / _SQRT_PI


def erf(x):
    """Error function of a float or an ndarray (shape kept); odd, +-1 at
    +-inf, NaN for NaN.

    Against 40-digit mpmath on a grid of [-7, 7]: at most 10 ulp for
    |x| < 2 (series) and at most 1 ulp for |x| >= 2 (continued fraction).
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    val = np.full_like(ax, np.nan)
    with np.errstate(over="ignore"):  # ax*ax = inf still saturates
        saturated = ax * ax > 708.0  # exp underflow: erfc below subnormals
    small = ax < 2.0
    large = ~(saturated | small | np.isnan(ax))
    val[saturated] = 1.0
    val[small] = _erf_series(ax[small])
    val[large] = 1.0 - _erfc_cf(ax[large])
    out = np.copysign(val.reshape(x.shape), x)
    return out if out.ndim else float(out)


def _norm_cdf(x):
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def bs_put(x, t, strike, r, sigma):
    """Black-Scholes European put value at spot(s) ``x`` (float or ndarray,
    shape kept); spots x <= 0, and those so small that x/strike underflows
    to 0, get the discounted strike; x = +inf gets 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    if sigma <= 0 or strike <= 0:
        raise ValueError("sigma and strike must be positive")
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
    val = discounted * _norm_cdf(-d2) - spot * _norm_cdf(-d1)
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
