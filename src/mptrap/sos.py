"""Symbol-level sum-of-squares verification near the photon sphere.

Static side: with the photon-sphere multiplier pair (radial field with symbol
i f~(r) (r - r_ps) xi and its scalar companions) the principal symbol of the
energy quadratic form factorizes as

    r^2 q = alpha_S^2 tau^2 + beta_S^2 xi^2 + q~ (r^2 p)

where everything is expressible through G = A f_m without divisions:
alpha_S^2 = r^3 (r + r_ps) G (r - r_ps) / (r^2 - r_s^2)^2 and
beta_S^2 = (r^2 - r_s^2) G' - r G.  The interpolation fraction nu is defined
by -g^tt r^2 q~ = nu alpha_S^2 and satisfies 0 < nu < 1 strictly thanks to
the small temporal-control weight in the companion scalar.

Rotating side: the bracket of rho^2 p with the frequency-shifted symbol
i f~(r)(r - r_trap(tau, Phi, Psi)) xi is, on the characteristic set,
alpha^2 tau^2 (r - r_trap)^2 + beta^2 xi^2 with both coefficients positive on
the verification window; the eleven-term sum of squares assembled from the
frequency factorization dominates the localized-energy comparison quadratic.
"""

from dataclasses import dataclass
import math

import numpy as np

from .params import BlackHoleParams, CBandEmpty, LowerBoundViolation
from .multiplier import MultiplierProfile, jet_mul
from .smooth import richardson_combine, richardson_derivative
from .trapping import R_ab, R_ab_dx, rho2_p, tau_roots_vec, trapped_radius_vec


# ---------------------------------------------------------------------------
# rotation symbols of the 3-sphere
# ---------------------------------------------------------------------------

def rotation_symbols_vec(theta, Theta, Phi, Psi, phi=None, psi=None):
    """The six ambient rotation symbols x_k eta_j - x_j eta_k on the unit
    3-sphere, for the tangential covector with components (Theta, Phi, Psi),
    stacked along the first axis; phi and psi default to 0.

    Their squared sum equals the spherical symbol `lambda2`.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape
    if phi is None:
        phi = np.zeros(n)
    if psi is None:
        psi = np.zeros(n)
    st, ct = np.sin(theta), np.cos(theta)
    sp_, cp = np.sin(phi), np.cos(phi)
    ss, cs = np.sin(psi), np.cos(psi)
    x = np.stack([st * cp, st * sp_, ct * cs, ct * ss])
    g_th = np.stack([ct * cp, ct * sp_, -st * cs, -st * ss])
    g_ph = np.stack([-sp_ / st, cp / st, np.zeros(n), np.zeros(n)])
    g_ps = np.stack([np.zeros(n), np.zeros(n), -ss / ct, cs / ct])
    eta = Theta * g_th + Phi * g_ph + Psi * g_ps
    lam = []
    for k in range(4):
        for j in range(k + 1, 4):
            lam.append(x[k] * eta[j] - x[j] * eta[k])
    return np.stack(lam)


def lambda2(theta, Theta, Phi, Psi):
    theta = np.asarray(theta, dtype=float)
    return Theta**2 + Phi**2 / np.sin(theta) ** 2 + Psi**2 / np.cos(theta) ** 2


# ---------------------------------------------------------------------------
# static-side machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FTilde:
    """f~ = G / (r - r_ps), G = A f_m, and f~' on one radius array, from a
    single `f_jet` evaluation (`SchwSos.ftilde`).  The bracket scans read
    nothing else of the profile."""

    r: np.ndarray
    f: np.ndarray          # jet of the saturated profile f_m
    G: np.ndarray          # jet of G = A f_m
    f_tilde: np.ndarray    # f~, series through the root
    f_tilde_p: np.ndarray  # f~'


@dataclass(frozen=True)
class RadialJets(FTilde):
    """All radial coefficients of the photon-sphere pair on one radius array.

    Built by `SchwSos.jets` from a single `f_jet` evaluation; the scans read
    their coefficients from here instead of re-evaluating the profile.
    """

    A: np.ndarray          # A(r)
    q1: np.ndarray         # jet of q1, from the same f jet
    q_tilde: np.ndarray
    nu: np.ndarray
    alphaS2: np.ndarray
    betaS2: np.ndarray


@dataclass
class SchwSos:
    """Photon-sphere symbol data built on a multiplier profile."""

    profile: MultiplierProfile

    def __post_init__(self):
        rps = np.asarray([self.profile.sp.r_ps])
        J = jet_mul(self.profile.A_jet(rps), self.profile.f_jet(rps))
        self._G_ps = [float(J[k][0]) for k in range(4)]

    def ftilde(self, r) -> FTilde:
        """f~ = G/(r - r_ps) and f~' at r, with their series through the
        root within 3e-4 r_s of r_ps."""
        pr = self.profile
        sp = pr.sp
        r = np.atleast_1d(np.asarray(r, dtype=float))
        f = pr.f_jet(r)
        G = jet_mul(pr.A_jet(r), f)
        d = r - sp.r_ps
        ft = np.empty_like(r)
        ftp = np.empty_like(r)
        far = np.abs(d) > 3e-4 * sp.r_s
        ft[far] = G[0][far] / d[far]
        ftp[far] = (G[1][far] * d[far] - G[0][far]) / d[far] ** 2
        near = ~far
        if np.any(near):
            G1, G2, G3 = self._G_ps[1], self._G_ps[2], self._G_ps[3]
            dn = d[near]
            ft[near] = G1 + G2 * dn / 2.0 + G3 * dn**2 / 6.0
            ftp[near] = G2 / 2.0 + G3 * dn / 3.0
        return FTilde(r=r, f=f, G=G, f_tilde=ft, f_tilde_p=ftp)

    def jets(self, r) -> RadialJets:
        """All radial coefficients at r from one evaluation of the profile:
        `ftilde`'s, plus
        q~ = q_sos - (1/2) div X1 + G/r with the companion scalar
        q_sos = q1 - delta1 q2, which equals
        f_m (r - r_ps)(r + r_ps)/r^3 - delta1 q2 in closed form;
        nu from -g^tt r^2 q~ = nu alpha_S^2.
        """
        pr = self.profile
        sp = pr.sp
        t = self.ftilde(r)
        r, f, G = t.r, t.f, t.G
        q1 = pr.q1_jet(r, f)
        q_sos = q1 - pr.delta1 * pr.q2_jet(r)
        q_tilde = q_sos[0] - 0.5 * G[1] - G[0] / (2.0 * r)
        alphaS2 = r**3 * (r + sp.r_ps) * G[0] * (r - sp.r_ps) / (r**2 - sp.r_s**2) ** 2
        betaS2 = (r**2 - sp.r_s**2) * G[1] - r * G[0]
        A = sp.A(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = r**2 * q_tilde / (A * alphaS2)    # 0/0 at r = r_ps exactly
        return RadialJets(**vars(t), A=A, q1=q1, q_tilde=q_tilde, nu=nu,
                          alphaS2=alphaS2, betaS2=betaS2)


# ---------------------------------------------------------------------------
# rotating-side bracket
# ---------------------------------------------------------------------------

@dataclass
class MpSos:
    params: BlackHoleParams
    sos: SchwSos

    def bracket_fd(self, r, theta, tau, xi, Theta, Phi, Psi):
        """Richardson finite-difference evaluation of (1/2i){rho^2 p, s~}.

        A witness for the closed-form bracket of `mp_bracket_scan` (tests and
        perfbench); no task calls it.

        Only the (r, xi) pair contributes: the symbol s~ is independent of
        (theta, phi, psi, Theta) and rho^2 p of (phi, psi)."""
        p = self.params
        r_t = float(trapped_radius_vec(p, tau, Phi, Psi)[0][0])

        def sig(rr):
            return float(self.sos.ftilde(rr).f_tilde[0]) * (rr - r_t)

        h = 1e-5 * p.r_s
        p_r = richardson_derivative(
            lambda rr: rho2_p(p, rr, theta, tau, xi, Theta, Phi, Psi), r, h)
        hxi = 1e-5
        p_xi = (rho2_p(p, r, theta, tau, xi + hxi, Theta, Phi, Psi)
                - rho2_p(p, r, theta, tau, xi - hxi, Theta, Phi, Psi)) / (2 * hxi)
        s_r = richardson_derivative(sig, r, h) * xi    # full symbol is sig(r) * xi
        s_xi = sig(r)
        return 0.5 * (p_xi * s_r - p_r * s_xi)


# ---------------------------------------------------------------------------
# symbol scans over sample arrays
# ---------------------------------------------------------------------------

def alpha_beta2(p: BlackHoleParams, J: FTilde, tau, Phi, Psi, r_t):
    """(alpha^2, beta^2) of the half-bracket at the radii of J, for the
    frequency branch tau with trapped radius r_t.

    alpha^2 = r f~ R / (Delta^2 tau^2 (r - r_trap)) is smooth through the
    simple root (series via the x-derivative of the trapping polynomial);
    beta^2 is the xi^2 coefficient."""
    r = J.r
    x = r * r
    Delta = p.Delta(x)
    dr = r - r_t
    far = np.abs(dr) > 3e-4 * p.r_s
    quot = np.empty_like(r)
    if np.any(far):
        quot[far] = R_ab(p, x[far], tau[far], Phi[far], Psi[far]) / dr[far]
    near = ~far
    if np.any(near):
        x_t = r_t[near] ** 2
        R1 = R_ab_dx(p, x_t, tau[near], Phi[near], Psi[near])
        h = 1e-4
        R2 = (R_ab_dx(p, x_t + h, tau[near], Phi[near], Psi[near])
              - R_ab_dx(p, x_t - h, tau[near], Phi[near], Psi[near])) / (2 * h)
        quot[near] = (r[near] + r_t[near]) * (R1 + 0.5 * R2 * (x[near] - x_t))
    ft, ftp = J.f_tilde, J.f_tilde_p
    a2, b2 = p.a**2, p.b**2
    dDelta_r2 = (2 * r * (x + b2) / x + (x + a2) * 2 * r / x
                 - 2 * (x + a2) * (x + b2) / (x * r))
    beta2 = (Delta / x) * (ftp * dr + ft) - 0.5 * dDelta_r2 * ft * dr
    return r * ft * quot / (Delta**2 * tau**2), beta2


def _branch(p: BlackHoleParams, J: FTilde, tau, Phi, Psi):
    """(converged, r_trap, alpha^2, beta^2) of one frequency branch tau; a
    trapped radius whose Newton solve did not converge is replaced by
    sqrt(2) r_s so that every output stays finite."""
    r_t, _ = trapped_radius_vec(p, tau, Phi, Psi)
    converged = np.isfinite(r_t)
    r_t = np.where(converged, r_t, p.r_s * math.sqrt(2))
    return (converged, r_t) + alpha_beta2(p, J, tau, Phi, Psi, r_t)


def mp_bracket_scan(mp: MpSos, r, theta, xi, Theta, Phi, Psi, branch):
    """On-shell bracket (1/2i){rho^2 p, s~} in closed form, with the
    positive-coefficient pair: bracket = alpha^2 tau^2 (r - r_trap)^2 +
    beta^2 xi^2.  tau is the larger root where branch is 0, the smaller
    where it is 1.  Samples outside "ok" carry finite placeholders."""
    J = mp.sos.ftilde(r)
    r = J.r
    t1, t2 = tau_roots_vec(mp.params, r, theta, xi, Theta, Phi, Psi)
    tau = np.where(np.asarray(branch) == 0, t1, t2)
    ok = np.isfinite(tau) & (np.abs(tau) > 1e-12)
    tau = np.where(ok, tau, 1.0)
    converged, r_t, a2, b2 = _branch(mp.params, J, tau, Phi, Psi)
    ok &= converged
    x = r * r
    Rv = R_ab(mp.params, x, tau, Phi, Psi)
    val = r * J.f_tilde * Rv * (r - r_t) / mp.params.Delta(x) ** 2 + b2 * xi**2
    return {"ok": ok, "bracket": val, "alpha2": a2, "beta2": b2,
            "tau": tau, "r_trap": r_t}


def schw_sos_scan(sos: SchwSos, r, theta, tau, xi, Theta, Phi, Psi):
    """Relative residual between two evaluations of r^2 q, plus
    (alpha_S^2, beta_S^2, nu), at each symbol point.

    Route (i): the bracket (1/2i){r^2 p_S, X_sym} by Richardson differences
    plus q~ r^2 p_S.  Route (ii): (1-nu) alpha_S^2 tau^2 + beta_S^2 xi^2
    + nu alpha_S^2 A r^-2 (sum lambda_i^2 + (r^2 - r_s^2) xi^2).
    Route (ii) reads the coefficients at r from one RadialJets; route (i)
    differentiates f~ on four shifted radius sets, all in one `ftilde`
    evaluation of the profile.
    """
    sp = sos.profile.sp
    J = sos.jets(r)
    r = J.r
    lami = rotation_symbols_vec(theta, Theta, Phi, Psi)
    lam2 = np.sum(lami**2, axis=0)
    a2, b2, nu, qt, A = J.alphaS2, J.betaS2, J.nu, J.q_tilde, J.A

    def r2p(rr, tt):
        return rr**2 * (-tt**2 / sp.A(rr) + sp.A(rr) * xi**2 + lam2 / rr**2)

    h = 1e-4 * sp.r_s

    def ddr(fn):
        return richardson_derivative(fn, r, h)

    # sigma = f~ (r - r_ps) on richardson_derivative's four shifted radius
    # sets, stacked into one `ftilde` evaluation
    shifted = r + np.array([h, -h, h / 2, -h / 2])[:, None]
    sigma = sos.ftilde(shifted).f_tilde * (shifted - sp.r_ps)
    s_r = richardson_combine(*sigma, h) * xi
    s_xi = J.f_tilde * (r - sp.r_ps)
    p_xi = 2 * r**2 * A * xi
    br0 = 0.5 * (p_xi * s_r - ddr(lambda rr: r2p(rr, 0.0)) * s_xi)
    br1 = 0.5 * (p_xi * s_r - ddr(lambda rr: r2p(rr, 1.0)) * s_xi)
    route_i = br0 + (br1 - br0) * tau**2 \
        + qt * (-r**2 * tau**2 / A + r**2 * A * xi**2 + lam2)
    route_ii = ((1 - nu) * a2 * tau**2 + b2 * xi**2
                + nu * a2 * A / r**2 * (lam2 + (r**2 - sp.r_s**2) * xi**2))
    scale = np.maximum.reduce([np.abs(route_i), np.abs(route_ii),
                               np.abs(a2 * tau**2) + np.abs(b2 * xi**2)]) + 1e-300
    return {"residual": np.abs(route_i - route_ii) / scale, "nu": nu,
            "alphaS2": a2, "betaS2": b2}


def mu_scan(mp: MpSos, J: RadialJets, theta, tau, xi, Theta, Phi, Psi):
    """The calibration-free part of the eleven-term sum of squares at the
    radii of J: squares 0-7 ("mu2"), the comparison quadratic, its tail, the
    beta^2 of both frequency branches and the roots t1 > t2.  Samples outside
    "ok" carry finite placeholders."""
    r = J.r
    t1, t2 = tau_roots_vec(mp.params, r, theta, xi, Theta, Phi, Psi)
    dt = t1 - t2
    ok = np.isfinite(dt) & (dt > 1e-9) & (np.abs(t1) > 1e-12) & (np.abs(t2) > 1e-12)
    t1s = np.where(ok, t1, 1.0)
    t2s = np.where(ok, t2, -1.0)
    dts = t1s - t2s
    lami = rotation_symbols_vec(theta, Theta, Phi, Psi)
    lam2 = np.sum(lami**2, axis=0)
    nu = J.nu
    conv1, r_t1, a1sq, b1sq = _branch(mp.params, J, t1s, Phi, Psi)
    conv2, r_t2, a2sq, b2sq = _branch(mp.params, J, t2s, Phi, Psi)
    ok &= conv1 & conv2
    alpha1 = 2 * np.abs(t1s) / dts * np.sqrt(np.maximum(a1sq, 0.0)) * (r - r_t1)
    alpha2_ = 2 * np.abs(t2s) / dts * np.sqrt(np.maximum(a2sq, 0.0)) * (r - r_t2)
    rs2 = mp.params.r_s**2
    denom = lam2 + (r**2 - rs2) * xi**2
    minus = alpha1 * (tau - t2s) - alpha2_ * (tau - t1s)
    plus = alpha1 * (tau - t2s) + alpha2_ * (tau - t1s)
    mu2 = np.zeros((8,) + r.shape)
    pos = denom > 0
    mu2[:6, pos] = lami[:, pos] ** 2 / denom[pos] * (nu[pos] / 4.0) * minus[pos] ** 2
    mu2[6, pos] = ((r[pos] ** 2 - rs2) * xi[pos] ** 2 / denom[pos]
                   * (nu[pos] / 4.0) * minus[pos] ** 2)
    mu2[7] = (1 - nu) / 4.0 * plus**2
    comparison = ((r - r_t2) ** 2 * (tau - t1s) ** 2
                  + (r - r_t1) ** 2 * (tau - t2s) ** 2 + xi**2)
    tail = (tau - t1s) ** 2 + (tau - t2s) ** 2
    return {"ok": ok, "mu2": mu2, "comparison": comparison, "tail": tail,
            "b1sq": b1sq, "b2sq": b2sq, "t1": t1s, "t2": t2s}


def mu_small_squares(scan, tau, xi, C_big, eps0):
    """Squares 8-10 of the sum of squares, the ones that carry the
    calibration constant, from a `mu_scan` result; shape (3, n)."""
    b1sq, b2sq, t1s, t2s = scan["b1sq"], scan["b2sq"], scan["t1"], scan["t2"]
    dts = t1s - t2s
    return np.stack([
        0.5 * (b1sq + b2sq - C_big * eps0) * xi**2,
        (C_big * eps0 - b2sq + b1sq) * (tau - t2s) ** 2 * xi**2 / (2 * dts**2),
        (C_big * eps0 - b1sq + b2sq) * (tau - t1s) ** 2 * xi**2 / (2 * dts**2)])


def mu_samples(region, rng, n_samples: int):
    """Calibration sample set (r, theta, tau, xi, Theta, Phi, Psi): (r, theta)
    uniform in region, (tau, xi, Theta, Phi, Psi) uniform on the unit sphere."""
    r_lo, r_hi, th_lo, th_hi = region
    r = rng.uniform(r_lo, r_hi, n_samples)
    th = rng.uniform(th_lo, th_hi, n_samples)
    v = rng.standard_normal((5, n_samples))
    v /= np.linalg.norm(v, axis=0)
    return (r, th, *v)


def mu_lower_bound(mp: MpSos, eps0: float, samples, jets: RadialJets):
    """Calibration-band selection and coercivity measurement on a sample set
    (`mu_samples`) whose radial jets `jets` the caller holds, so that several
    eps0 on one sample set evaluate the profile once.  One `mu_scan` per call:
    only the three small squares depend on the calibration constant.
    """
    r, th, tau, xi, Th, Ph, Ps = samples
    if not np.array_equal(jets.r, r):
        raise ValueError("jets were built on radii other than the sample set's")
    scan = mu_scan(mp, jets, th, tau, xi, Th, Ph, Ps)
    ok = scan["ok"]
    if not np.any(ok):
        raise LowerBoundViolation("no admissible samples in the region")
    b_diff = float(np.max(np.abs(scan["b1sq"][ok] - scan["b2sq"][ok])))
    b_sum = float(np.min((scan["b1sq"] + scan["b2sq"])[ok]))
    C_lo, C_hi = b_diff / eps0, b_sum / eps0
    if C_lo >= C_hi:
        raise CBandEmpty(f"band [{C_lo}, {C_hi}] empty; eps0 too large")
    # the calibration constant is a fixed O(1) number: the band's lower edge
    # is eps0-independent (the beta-splitting is itself O(eps0)), so doubling
    # it stays admissible for all small eps0 and keeps the two small squares
    # scaling linearly in eps0
    C_big = 2.0 * C_lo if 2.0 * C_lo < C_hi else 0.5 * (C_lo + C_hi)
    small = mu_small_squares(scan, tau, xi, C_big, eps0)
    tot = np.sum(np.concatenate([scan["mu2"], small]), axis=0)
    ok = ok & (scan["comparison"] > 1e-14)
    ratio = tot[ok] / scan["comparison"][ok]
    i_loc = int(np.argmin(ratio))
    idx = np.nonzero(ok)[0][i_loc]
    kappa = float(ratio[i_loc])
    tail_ok = ok & (scan["tail"] > 1e-14)
    envelope = float(np.max((small[1] + small[2])[tail_ok] / scan["tail"][tail_ok]))
    if kappa <= 0:
        raise LowerBoundViolation(
            f"kappa = {kappa} at sample {idx}")
    return {"C_band": [C_lo, C_hi], "C_big": C_big, "kappa": kappa,
            "witness": [float(r[idx]), float(th[idx]), float(tau[idx]),
                        float(xi[idx]), float(Th[idx]), float(Ph[idx]),
                        float(Ps[idx])],
            "envelope": envelope, "skipped": int(np.sum(~scan["ok"])),
            "eps0": float(eps0), "n_samples": int(r.size)}
