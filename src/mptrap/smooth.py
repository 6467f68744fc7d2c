"""Smooth step, bump, saturation and mollifier primitives.

Everything is built from sigma(t) = exp(-1/t) (t > 0), giving C-infinity
transitions with all derivatives vanishing at the junctions.  Each primitive
makes one evaluation and returns its order-3 jet: an ndarray of shape
(4, ...) holding (value, d, d2, d3), the layout of the jet arithmetic in
``multiplier``.  The test suite checks every row against a finite difference
of the row before it.
"""

import numpy as np


def _sigma_derivs(t):
    """sigma = exp(-1/t) on t > 0 (0 on t <= 0) and derivatives to order 3."""
    t = np.asarray(t, dtype=float)
    pos = t > 1e-12
    ts = np.where(pos, t, 1.0)
    e = np.where(pos, np.exp(-1.0 / ts), 0.0)
    s1 = np.where(pos, e / ts**2, 0.0)
    s2 = np.where(pos, e * (1.0 / ts**4 - 2.0 / ts**3), 0.0)
    s3 = np.where(pos, e * (1.0 / ts**6 - 6.0 / ts**5 + 6.0 / ts**4), 0.0)
    return e, s1, s2, s3


def smoothstep(t):
    """Jet of the symmetric C-infinity step S(t): 0 for t <= 0, 1 for t >= 1.

    S = sigma(t) / (sigma(t) + sigma(1-t)); satisfies S(t) + S(1-t) = 1, so
    its integral over [0,1] is exactly 1/2.
    """
    t = np.asarray(t, dtype=float)
    u, u1, u2, u3 = _sigma_derivs(t)
    w, w1_, w2_, w3_ = _sigma_derivs(1.0 - t)
    w1, w2, w3 = -w1_, w2_, -w3_
    D = u + w
    D1 = u1 + w1
    D2 = u2 + w2
    D3 = u3 + w3
    lo = t <= 1e-12
    hi = t >= 1.0 - 1e-12
    Ds = np.where(D == 0, 1.0, D)
    S = u / Ds
    S1 = u1 / Ds - u * D1 / Ds**2
    S2 = u2 / Ds - 2 * u1 * D1 / Ds**2 - u * D2 / Ds**2 + 2 * u * D1**2 / Ds**3
    S3 = (u3 / Ds - 3 * u2 * D1 / Ds**2 - 3 * u1 * D2 / Ds**2
          + 6 * u1 * D1**2 / Ds**3 - u * D3 / Ds**2
          + 6 * u * D1 * D2 / Ds**3 - 6 * u * D1**3 / Ds**4)
    edge = lo | hi
    return np.stack([np.where(hi, 1.0, np.where(lo, 0.0, S)),
                     np.where(edge, 0.0, S1), np.where(edge, 0.0, S2),
                     np.where(edge, 0.0, S3)])


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


# points per block in the quadratures below, so that a block's
# (4, points, nodes) jet and its temporaries stay near 1 MB; one pass over the
# ~10^4-radius sets of sos-verify would hold about 60 MB more
_BLOCK = 64


def _blockwise(fn, x):
    """fn applied to consecutive blocks of x (first axis), joined on the last
    axis; fn sees an empty block when x is empty."""
    return np.concatenate([fn(x[i:i + _BLOCK])
                           for i in range(0, max(len(x), 1), _BLOCK)], axis=-1)


_GL_CACHE = {}


def gauss_legendre(n: int):
    if n not in _GL_CACHE:
        xn, wn = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (xn, wn)
    return _GL_CACHE[n]


def integrate_gl(f, lo, hi, n: int = 60):
    """Fixed-order Gauss-Legendre integral of a vectorized callable."""
    xn, wn = gauss_legendre(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * np.sum(wn * f(mid + half * xn))


def richardson_derivative(f, x, h):
    """(4 D(h/2) - D(h)) / 3 with D(h) the central difference of f at x:
    the h^2 error term of D cancels."""
    d_h = (f(x + h) - f(x - h)) / (2 * h)
    d_h2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d_h2 - d_h) / 3.0


def smoothstep_integral(t):
    """Integral of S from 0 to t; equals t - 1/2 for t >= 1 (S symmetric)."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tv = np.atleast_1d(t).astype(float)
    out = np.where(tv >= 1.0, tv - 0.5, 0.0)
    mask = (tv > 0.0) & (tv < 1.0)
    if np.any(mask):
        xn, wn = gauss_legendre(64)

        def block(tm):
            nodes = 0.5 * tm[:, None] * (xn[None, :] + 1.0)
            return 0.5 * tm * np.sum(wn[None, :] * smoothstep(nodes)[0], axis=1)

        out[mask] = _blockwise(block, tv[mask])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# saturation function rho: identity above -1, constant -2 below -3, smooth and
# increasing in between.  rho' = S((R+3)/2), which integrates to exactly 1
# over the transition by the symmetry of S.
# ---------------------------------------------------------------------------

def rho_saturate(R):
    R = np.asarray(R, dtype=float)
    S = smoothstep((R + 3.0) / 2.0)
    ident = R >= -1.0
    mid = (R > -3.0) & (R < -1.0)
    out = np.empty((4,) + R.shape)
    out[0] = np.where(ident, R, -2.0)
    out[0, mid] = -2.0 + 2.0 * smoothstep_integral((R[mid] + 3.0) / 2.0)
    out[1] = np.where(ident, 1.0, S[0])
    out[2] = np.where(ident, 0.0, S[1] / 2.0)
    out[3] = np.where(ident, 0.0, S[2] / 4.0)
    return out


# ---------------------------------------------------------------------------
# standard mollifier, unit mass on (-1, 1)
# ---------------------------------------------------------------------------

_PSI_NORM = None


def _psi_norm():
    global _PSI_NORM
    if _PSI_NORM is None:
        _PSI_NORM = integrate_gl(lambda u: np.exp(-1.0 / (1.0 - u**2)), -1.0, 1.0, n=120)
    return _PSI_NORM


def mollifier(u):
    """Unit-mass bump on (-1, 1)."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0 - 1e-14
    us = np.where(inside, u, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - us**2)), 0.0) / _psi_norm()


def mollify(f, y, N: float, n_nodes: int = 80, kinks=()):
    """(psi_N * f)(y) = int psi(u) f(y - u/N) du  for vectorized f.

    f may return leading axes ahead of its argument's shape (a jet returns
    shape (4,) + s.shape); they are kept in front of y's shape.  Points whose
    sampling interval contains a kink of f get per-point Gauss-Legendre
    panels split at the kink images; all other points are handled in
    vectorized single-panel passes over blocks of points (the integrand is
    smooth there).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xn, wn = gauss_legendre(n_nodes)
    psi_w = mollifier(xn) * wn
    near_kink = np.zeros(y.shape, dtype=bool)
    for k in kinks:
        near_kink |= np.abs(y - k) < 1.05 / N
    bulk = ~near_kink
    smooth_part = _blockwise(lambda yy: f(yy[:, None] - xn[None, :] / N) @ psi_w,
                             y[bulk])
    out = np.empty(smooth_part.shape[:-1] + y.shape)
    out[..., bulk] = smooth_part
    for i in np.nonzero(near_kink)[0]:
        yi = y[i]
        cuts = [-1.0, 1.0]
        for k in kinks:
            u_k = N * (yi - k)
            if -1.0 < u_k < 1.0:
                cuts.append(u_k)
        cuts = sorted(cuts)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            uu = mid + half * xn
            total += half * np.sum(wn * mollifier(uu) * f(yi - uu / N), axis=-1)
        out[..., i] = total
    return out
