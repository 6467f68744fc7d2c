"""Smooth step, bump and mollifier primitives.

Everything is built from sigma(t) = exp(-1/t) (t > 0), giving C-infinity
transitions with all derivatives vanishing at the junctions.  Each primitive
makes one evaluation and returns its order-3 jet: an ndarray of shape
(4, ...) holding (value, d, d2, d3), the layout of the jet arithmetic in
``multiplier``.  The test suite checks every row against a finite difference
of the row before it.  The mode solver's initial-data pulse `gaussian_bump`
returns values only.
"""

import functools
from typing import NamedTuple

import numpy as np


def _sigma_derivs(t):
    """sigma = exp(-1/t) and its derivatives to order 3, for t > 0."""
    e = np.exp(-1.0 / t)
    return (e, e / t**2, e * (1.0 / t**4 - 2.0 / t**3),
            e * (1.0 / t**6 - 6.0 / t**5 + 6.0 / t**4))


def smoothstep(t):
    """Jet of the symmetric C-infinity step S(t): 0 for t <= 0, 1 for t >= 1.

    S = sigma(t) / (sigma(t) + sigma(1-t)); satisfies S(t) + S(1-t) = 1, so
    its integral over [0,1] is exactly 1/2.  The sigma formulas run only on
    the transition band 1e-12 < t < 1 - 1e-12, where t and 1 - t are
    positive and one of them is at least 1/2, so the denominator is
    positive; elsewhere the rows are exactly (0, 0, 0, 0), or (1, 0, 0, 0)
    from 1 - 1e-12 on.  The jet has the shape (4,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((4,) + t.shape)
    out[0, t >= 1.0 - 1e-12] = 1.0
    band = (t > 1e-12) & (t < 1.0 - 1e-12)
    tb = t[band]
    u, u1, u2, u3 = _sigma_derivs(tb)
    w, w1_, w2_, w3_ = _sigma_derivs(1.0 - tb)
    w1, w2, w3 = -w1_, w2_, -w3_
    D = u + w
    D1 = u1 + w1
    D2 = u2 + w2
    D3 = u3 + w3
    out[0, band] = u / D
    out[1, band] = u1 / D - u * D1 / D**2
    out[2, band] = u2 / D - 2 * u1 * D1 / D**2 - u * D2 / D**2 + 2 * u * D1**2 / D**3
    out[3, band] = (u3 / D - 3 * u2 * D1 / D**2 - 3 * u1 * D2 / D**2
                    + 6 * u1 * D1**2 / D**3 - u * D3 / D**2
                    + 6 * u * D1 * D2 / D**3 - 6 * u * D1**3 / D**4)
    return out


def _smoothstep_value(t):
    """Row 0 of `smoothstep`, operation by operation: the same band masks and
    u / (u + w) with u = sigma(t), w = sigma(1 - t), without the derivative
    rows; the shape is t.shape."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0 - 1e-12] = 1.0
    band = (t > 1e-12) & (t < 1.0 - 1e-12)
    tb = t[band]
    u = np.exp(-1.0 / tb)
    w = np.exp(-1.0 / (1.0 - tb))
    out[band] = u / (u + w)
    return out


def step_jet(r, r0, w):
    """Jet in r of S((r - r0) / w); a negative width w steps down."""
    S = smoothstep((np.asarray(r, dtype=float) - r0) / w)
    return np.stack([S[k] / w**k for k in range(4)])


def plateau_bump(r, left0, left1, right0, right1):
    """C-infinity bump: 0 below left0, 1 on [left1, right0], 0 above right1."""
    up = step_jet(r, left0, left1 - left0)
    dn = step_jet(r, right1, right0 - right1)
    # supports are disjoint for the profiles used here (left1 < right0), so
    # derivative cross terms vanish
    out = up * dn[0]
    out[1:] += up[0] * dn[1:]
    return out


def gaussian_bump(r, center, width, amplitude=1.0):
    """Compactly supported C-infinity pulse: amplitude at center, zero from
    width away on."""
    s = (np.asarray(r, dtype=float) - center) / width
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = amplitude * np.exp(-1.0 / (1.0 - s[inside] ** 2)) * np.e
    return out


@functools.cache
def gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def integrate_gl(f, lo, hi, n: int = 60):
    """Fixed-order Gauss-Legendre integral of a vectorized callable; array
    bounds give one integral per entry."""
    xn, wn = gauss_legendre(n)
    mid, half = 0.5 * np.add(lo, hi), 0.5 * np.subtract(hi, lo)
    return half * np.sum(wn * f(mid[..., None] + half[..., None] * xn), axis=-1)


def richardson_combine(f_p, f_m, f_p2, f_m2, h):
    """(4 D(h/2) - D(h)) / 3 from f at x + h, x - h, x + h/2 and x - h/2,
    with D(h) the central difference of f at x: the h^2 error term of D
    cancels."""
    d_h = (f_p - f_m) / (2 * h)
    d_h2 = (f_p2 - f_m2) / h
    return (4 * d_h2 - d_h) / 3.0


def richardson_derivative(f, x, h):
    """Richardson-extrapolated central difference of f at x (see
    richardson_combine)."""
    return richardson_combine(f(x + h), f(x - h), f(x + h / 2), f(x - h / 2), h)


def smoothstep_integral(t):
    """Integral of S from 0 to t; equals t - 1/2 for t >= 1 (S symmetric)."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, t - 0.5, 0.0)
    mask = (t > 0.0) & (t < 1.0)
    out[mask] = integrate_gl(_smoothstep_value, 0.0, t[mask], n=64)
    return out


# ---------------------------------------------------------------------------
# standard mollifier, unit mass on (-1, 1)
# ---------------------------------------------------------------------------

@functools.cache
def _psi_norm():
    return integrate_gl(lambda u: np.exp(-1.0 / (1.0 - u**2)), -1.0, 1.0, n=120)


def mollifier(u):
    """Unit-mass bump on (-1, 1)."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0 - 1e-14
    us = np.where(inside, u, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - us**2)), 0.0) / _psi_norm()


def _psi_moments(lo, hi, n):
    """int_lo^hi psi(u) u^k du for k < n by one 80-node Gauss-Legendre panel
    per (lo, hi) pair; shape (n,) + lo.shape."""
    def moments(u):
        uk = np.cumprod(np.stack([np.ones_like(u)] + [u] * (n - 1)), axis=0)
        return mollifier(u) * uk
    return integrate_gl(moments, lo, hi, n=80)


class MollifierTable(NamedTuple):
    """The y-independent part of psi_N * p, built once by mollifier_table."""
    N: float
    edges: np.ndarray    # the breaks, with -inf and inf at the ends
    dp: np.ndarray       # dp[k, j]: coefficients of the k-th derivative of piece j
    scale: np.ndarray    # (-1/N)^k / k!
    mq: np.ndarray       # mq[r, j]: coefficients of the mollified r-th derivative


def mollifier_table(pieces, N: float) -> MollifierTable:
    """Table of psi_N * p for the piecewise polynomial pieces = (breaks,
    coefs): between breaks[j - 1] and breaks[j] (the outer pieces unbounded)
    p has power-basis coefficients coefs[j], increasing degree.

    Holds each piece's derivative coefficients, the moment scale and each
    piece's mollified polynomial, formed from the full-interval moments."""
    breaks, coefs = pieces
    n = coefs.shape[1]
    dp = [coefs]
    for _ in range(n + 2):
        dp.append(np.pad(dp[-1][:, 1:] * np.arange(1.0, n), ((0, 0), (0, 1))))
    dp = np.stack(dp)
    scale = (-1.0 / N) ** np.arange(n) / np.cumprod(np.r_[1.0, np.arange(1.0, n)])
    m = scale * _psi_moments(np.array(-1.0), np.array(1.0), n)
    mq = np.stack([np.sum(m[:, None, None] * dp[r:r + n], axis=0) for r in range(4)])
    return MollifierTable(N, np.r_[-np.inf, breaks, np.inf], dp, scale, mq)


def mollify(table: MollifierTable, y):
    """Jet of (psi_N * p)(y) = int psi(u) p(y - u/N) du, shape (4,) + y.shape,
    for the piecewise polynomial p and scale N of the table.

    As p(y - u/N) = sum_k p^(k)(y) (-u/N)^k / k! on a piece, its share is
    sum_k p^(k)(y) (-1/N)^k m_k / k!, m_k = int psi(u) u^k du over the part
    of (-1, 1) it covers: all of it for one piece away from the breaks, read
    off the table's mollified polynomial; within 1.05/N of a break a
    sub-interval per piece, with partial moments (odd ones included).
    """
    N, edges, dp, scale, mq = table
    breaks = edges[1:-1]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = scale.size
    near = np.any(np.abs(y[..., None] - breaks) < 1.05 / N, axis=-1)
    yk = y[near]
    piece = np.searchsorted(breaks, y)
    out = np.zeros((4,) + y.shape)
    for j in range(dp.shape[1]):
        bulk = ~near & (piece == j)
        out[:, bulk] = np.polynomial.polynomial.polyval(y[bulk], mq[:, j].T)
        if not yk.size:
            continue
        M = scale[:, None] * _psi_moments(np.clip(N * (yk - edges[j + 1]), -1.0, 1.0),
                                          np.clip(N * (yk - edges[j]), -1.0, 1.0), n)
        D = np.polynomial.polynomial.polyval(yk, dp[:, j].T)
        out[:, near] += np.stack([np.sum(M * D[r:r + n], axis=0) for r in range(4)])
    return out
