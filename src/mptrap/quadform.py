"""Exact assembly of the multiplier energy identity in the horizon-penetrating
chart, for the (1+4)-dimensional static black hole.

The interior quadratic form Q[u, X, q, m] and the boundary flux forms were
derived symbolically from first principles (metric -> connection ->
deformation tensor -> divergence identity) in the chart where the
(vtilde, r) block is [[-A, B], [B, D]] with B = 1 - A mu', D = mu'(2 - A mu')
and determinant exactly -1.  The closed-form coefficients are frozen here;
tests/test_quadform_reference.py rebuilds them from scratch with a computer
algebra pass and cross-checks numerically.

Coefficient layout: quadratic forms are reported as symmetric 4x4 matrices
over the vector (d_r u, d_v u, |slash-nabla u|, u).
"""

from dataclasses import dataclass
import math

import numpy as np

from .params import SchwParams, RedshiftBudgetFailure, BoundaryFormFailure
from .chart import IngoingChart
from .multiplier import MultiplierProfile, jet_mul, jet_monomial
from .smooth import smoothstep


@dataclass
class MultiplierTriple:
    """Multiplier data (X, q, m) evaluated through the profile family."""

    profile: MultiplierProfile
    chart: IngoingChart

    @property
    def sp(self) -> SchwParams:
        return self.profile.sp

    def ingredients(self, r):
        """All pointwise inputs of the quadratic-form coefficients."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        pr, ch = self.profile, self.chart
        delta, delta1 = pr.delta, pr.delta1
        A = ch.sp.A(r)
        A1 = ch.sp.A1(r)
        M, M1 = ch.mu_derivs(r)
        f = pr.f_jet(r)
        b = pr.b_jet(r)
        gam = pr.gamma_jet(r)
        q1 = pr.q1_jet(r, f)
        q2 = pr.q2_jet(r)
        mt = pr.m_t_jet(r, b, gam)
        # X = f (A d_r + (1 - A mu') d_v) - delta b (d_r - mu' d_v)
        Xv = f[0] * (1 - A * M) + delta * b[0] * M
        Xr = f[0] * A - delta * b[0]
        Xv1 = f[1] * (1 - A * M) + f[0] * (-A1 * M - A * M1) \
            + delta * (b[1] * M + b[0] * M1)
        Xr1 = f[1] * A + f[0] * A1 - delta * b[1]
        # scalar companion  q = q1 - 3 delta b /(2r) - delta1 q2
        br = jet_mul(b, jet_monomial(r, -1.0))
        q = q1[0] - delta * 3 / 2.0 * br[0] - delta1 * q2[0]
        qp = q1[1] - delta * 3 / 2.0 * br[1] - delta1 * q2[1]
        qpp = q1[2] - delta * 3 / 2.0 * br[2] - delta1 * q2[2]
        # 1-form (delta m)
        mv = delta * mt[0]
        mv1 = delta * mt[1]
        mr = mv * M
        mr1 = mv1 * M + mv * M1
        return dict(r=r, A=A, A1=A1, M=M, M1=M1, Xv=Xv, Xr=Xr, Xv1=Xv1, Xr1=Xr1,
                    q=q, qp=qp, qpp=qpp, mv=mv, mv1=mv1, mr=mr, mr1=mr1,
                    f=f, b=b, gam=gam, q1=q1, q2=q2, mt=mt)


# ---------------------------------------------------------------------------
# frozen interior coefficients (derived symbolically; d = 1, 3-sphere)
# ---------------------------------------------------------------------------

def quad_coefficients(ing):
    r = ing["r"]
    A, A1, M, M1 = ing["A"], ing["A1"], ing["M"], ing["M1"]
    Xv, Xr, Xv1, Xr1 = ing["Xv"], ing["Xr"], ing["Xv1"], ing["Xr1"]
    q, qp, qpp = ing["q"], ing["qp"], ing["qpp"]
    mv, mv1, mr, mr1 = ing["mv"], ing["mv1"], ing["mr"], ing["mr1"]
    c = {}
    c["vv"] = ((-A * M * Xr + Xr) * M1 + A * M**2 * q - A * M**2 * Xr1 / 2
               - A * M * Xv1 - M**2 * Xr * A1 / 2 - 2 * M * q + M * Xr1 + Xv1
               - 1.5 * A * M**2 * Xr / r + 3 * M * Xr / r)
    c["vr"] = (-2 * A * M * q + A * Xr * M1 + A * Xv1 + M * Xr * A1 + 2 * q
               + 3 * A * M * Xr / r - 3 * Xr / r)
    c["rr"] = A * q + A * Xr1 / 2 - Xr * A1 / 2 - 1.5 * A * Xr / r
    c["ang"] = q - Xr1 / 2 - Xr / (2 * r)
    c["uv"] = A * M**2 * mv - A * M * mr - 2 * M * mv + mr
    c["ur"] = -A * M * mv + A * mr + mv
    c["uu"] = ((-M * mv / 2 + mr / 2 - qp / 2) * A1 - A * M * mv1 / 2
               - A * mv * M1 / 2 + A * mr1 / 2 - A * qpp / 2 + mv1 / 2
               - 1.5 * A * M * mv / r + 1.5 * A * mr / r - 1.5 * A * qp / r
               + 1.5 * mv / r)
    return c


def quad_matrix(triple: MultiplierTriple, r):
    """Symmetric 4x4 coefficient matrices of Q over (d_r u, d_v u, |snab u|, u)."""
    ing = triple.ingredients(r)
    c = quad_coefficients(ing)
    n = len(ing["r"])
    Mm = np.zeros((n, 4, 4))
    Mm[:, 0, 0] = c["rr"]
    Mm[:, 1, 1] = c["vv"]
    Mm[:, 2, 2] = c["ang"]
    Mm[:, 3, 3] = c["uu"]
    Mm[:, 0, 1] = Mm[:, 1, 0] = c["vr"] / 2
    Mm[:, 0, 3] = Mm[:, 3, 0] = c["ur"] / 2
    Mm[:, 1, 3] = Mm[:, 3, 1] = c["uv"] / 2
    return Mm


def zeroth_order_n(triple: MultiplierTriple, ing):
    """n(r): u^2 coefficient before completing the horizon square, from the
    ingredients triple.ingredients(r)."""
    c = quad_coefficients(ing)
    delta = triple.profile.delta
    rs = triple.sp.r_s
    sq_gamma2 = delta * 2 * rs ** 2 * ing["b"][0] \
        * ing["gam"][0] ** 2 / (2.0 * ing["r"] ** 3)
    return c["uu"] - sq_gamma2


def comparison_weights(sp: SchwParams, r):
    """Diagonal comparison form of the localized-energy bound."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    w_ps = ((r - sp.r_ps) / r) ** 2
    n = len(r)
    W = np.zeros((n, 4, 4))
    W[:, 0, 0] = r ** -4
    W[:, 1, 1] = w_ps * r ** -4
    W[:, 2, 2] = w_ps / r
    W[:, 3, 3] = r ** (-3)
    return W


def positivity_grid(sp: SchwParams, r_e: float, r_hi: float, n_grid: int):
    """Grid avoiding the exact photon sphere, refined toward the horizon."""
    base = np.linspace(r_e, r_hi, n_grid)
    extra = sp.r_s + np.geomspace(1e-9, 0.2, 101) * sp.r_s
    # sorted with adjacent repeats dropped: np.unique would import numpy.ma
    g = np.sort(np.concatenate([base, extra]))
    return g[np.append(True, g[1:] != g[:-1]) & (np.abs(g - sp.r_ps) > 1e-7 * sp.r_s)]


def _pencil_eigh(M, w):
    """Eigenvalues and W-orthonormal eigenvectors of the pencil (M, diag(w)),
    computed as LAPACK dsygvd computes them, one operation at a time.

    The Cholesky factor of diag(w) is L = sqrt(w); dsygs2 reduces the lower
    triangle of M to L^{-1} M L^{-T} column by column (the diagonal divided by
    L_k L_k, the column below it scaled by 1/L_k and then divided by L_j);
    dsyevd, which is numpy's eigh, solves the reduced problem; and the
    back-substitution multiplies by the reciprocal of L, as OpenBLAS's trsm
    does.  The results are scipy.linalg.eigh(M, diag(w)) to the bit.
    """
    L = np.sqrt(w)
    A = np.array(M, dtype=float)
    for k in range(len(L)):
        # a product, as dsygs2 squares: numpy's ** 2 can differ in the last bit
        A[k, k] = A[k, k] / (L[k] * L[k])
        A[k + 1:, k] = A[k + 1:, k] * (1.0 / L[k]) / L[k + 1:]
    vals, vecs = np.linalg.eigh(A, UPLO="L")
    return vals, vecs * (1.0 / L)[:, None]


def check_positivity(triple: MultiplierTriple, n_grid: int = 2000):
    """Largest c with Q-matrix(r) - c W(r) >= 0 on the grid over [r_e, 50 r_s].

    W is diagonal, so the pencil (M, W) has the spectrum of S M S with
    S = W^{-1/2}: one stacked eigvalsh picks the minimising radius, where
    dsygvd's reduction and back-substitution on numpy's eigh (`_pencil_eigh`)
    give c_star and its eigenvector.  Returns dict with c_star, minimizing
    radius and eigenvector.  c_star > 0 certifies the localized-energy
    positivity at the shipped parameters.
    """
    sp = triple.sp
    grid = positivity_grid(sp, triple.chart.r_e, 50.0 * sp.r_s, n_grid)
    Mm = quad_matrix(triple, grid)
    w = np.diagonal(comparison_weights(sp, grid), axis1=1, axis2=2)
    S = w ** -0.5
    i = int(np.argmin(np.linalg.eigvalsh(S[:, :, None] * Mm * S[:, None, :])[:, 0]))
    vals, vecs = _pencil_eigh(Mm[i], w[i])
    return {"c_star": float(vals[0]), "min_r": float(grid[i]),
            "min_eigvec": [float(v) for v in vecs[:, 0]], "grid_points": len(grid)}


def build_redshift(triple: MultiplierTriple):
    """Verify the horizon-component budget: n(r) > 0 on the sampled grid
    over [r_e, 10 r_s].

    Returns the report.  The profile shape was fixed by a
    deterministic search during development; if the budget fails here the
    offending radius is reported so the caller can retune the shape.
    """
    sp = triple.sp
    grid = positivity_grid(sp, triple.chart.r_e, 10.0 * sp.r_s, 2000)
    n_vals = zeroth_order_n(triple, triple.ingredients(grid))
    i_min = int(np.argmin(n_vals))
    report = {"n_min": float(n_vals[i_min]), "n_argmin": float(grid[i_min]),
              "grid_points": len(grid)}
    if n_vals[i_min] <= 0:
        raise RedshiftBudgetFailure(
            f"n(r) = {n_vals[i_min]} <= 0 at r = {grid[i_min]}")
    # boundary values required by the energy identity
    ing = triple.ingredients(np.asarray([sp.r_s]))
    report["X_dr_at_rs"] = float(ing["Xr"][0])
    report["m_dr_at_rs"] = float(ing["mv"][0])
    if not report["X_dr_at_rs"] < 0:
        raise RedshiftBudgetFailure("X(dr)(r_s) must be negative")
    if not report["m_dr_at_rs"] > 0:
        raise RedshiftBudgetFailure("<m, dr>(r_s) must be positive")
    return report


def integrated_smallness(prof: MultiplierProfile, r_e: float):
    """Semi-analytic evaluation of the saturation bookkeeping integral.

    integral over {eps r^3 f < -1} of
        delta + eps |rho''(eps W)| + eps^2 A^{-1} |rho'''(eps W)| dr,
    evaluated by the substitution R = eps W with dR = eps W' dr.  The
    substitution is derived, not measured: W is log-dominated in the
    transition zone, W' ~ 2 c_d/(r A), which gives
    A^{-1} dr = r dR / (2 c_d eps), so the curvature terms integrate to
    moments of |rho''|, |rho'''| regardless of how thin the zone is.
    Returns the integral and its three parts.
    """
    sp = prof.sp
    # delta-part: measure of the region, which reaches from r_e up to the
    # radius where eps r^3 F = -1 (exponentially close to r_s)
    width = sp.r_s - r_e
    part_delta = prof.delta * width
    R = np.linspace(-3.0, -1.0, 4001)
    # second and third derivatives of rho on the transition, from
    # rho' = S((R + 3)/2)
    S = smoothstep((R + 3.0) / 2.0)
    rho2m = np.abs(S[1]) / 2.0
    rho3m = np.abs(S[2]) / 4.0
    cd = prof.c_d
    # lapse along the transition zone: A ~ exp(h) with
    # h(R) = (R/eps - r^3 g(r_s)) / c_d  (log-dominated regime)
    g_rs = sp.r_s ** 3 - sp.r_ps ** 3
    hR = (R / prof.eps - g_rs) / cd
    A_zone = np.exp(np.maximum(hR, -700.0))
    part_rho2 = (sp.r_s / (2 * cd)) * float(np.trapezoid(rho2m * A_zone, R))
    part_rho3 = (prof.eps * sp.r_s / (2 * cd)) * float(np.trapezoid(rho3m, R))
    return part_delta + part_rho2 + part_rho3, \
        {"delta_part": part_delta, "rho2_part": part_rho2, "rho3_part": part_rho3}


# ---------------------------------------------------------------------------
# boundary flux forms, from the frozen symbolic derivation
# ---------------------------------------------------------------------------

def flux_matrices(triple: MultiplierTriple, r, C_energy: float):
    """(slice_matrix, lateral_matrix) over (d_r u, d_v u, |snab u|, u).

    slice = -<dv, P[u, X + C K, q, m]>, lateral = +<dr, P[...]>; the signs
    make both positive for admissible data (energy flux conventions).
    """
    ing = triple.ingredients(r)
    A, M = ing["A"], ing["M"]
    B = 1.0 - A * M
    D = M * (2.0 - A * M)
    Xv, Xr = ing["Xv"], ing["Xr"]
    q, qp = ing["q"], ing["qp"]
    mv, mr = ing["mv"], ing["mr"]
    C = C_energy
    n = len(ing["r"])
    S = np.zeros((n, 4, 4))   # slice
    L = np.zeros((n, 4, 4))   # lateral
    CX = C + Xv
    # slice = -P^v
    S[:, 1, 1] = CX * D / 2.0
    S[:, 0, 0] = A * CX / 2.0 + Xr * (A * M - 1.0)
    S[:, 2, 2] = CX / 2.0
    S[:, 0, 1] = S[:, 1, 0] = Xr * D / 2.0
    S[:, 1, 3] = S[:, 3, 1] = q * D / 2.0
    S[:, 0, 3] = S[:, 3, 0] = -q * B / 2.0
    S[:, 3, 3] = -(A * M**2 * mv / 2.0 - A * M * mr / 2.0 + A * M * qp / 2.0
                   - M * mv + mr / 2.0 - qp / 2.0)
    # lateral = +P^r
    L[:, 1, 1] = B * CX + Xr * D / 2.0
    L[:, 0, 0] = A * Xr / 2.0
    L[:, 2, 2] = -Xr / 2.0
    L[:, 0, 1] = L[:, 1, 0] = A * CX / 2.0
    L[:, 1, 3] = L[:, 3, 1] = q * B / 2.0
    L[:, 0, 3] = L[:, 3, 0] = A * q / 2.0
    L[:, 3, 3] = -A * M * mv / 2.0 + A * mr / 2.0 - A * qp / 2.0 + mv / 2.0
    return S, L


def boundary_forms(triple: MultiplierTriple, C_energy: float, r_e: float):
    """Slice-form equivalence constants and lateral-form spectrum at r_e.

    The slice form is compared two-sided against the nondegenerate energy
    density diag(1,1,1) on the derivative block over [r_e, 30 r_s];
    kappa = sqrt(c_hi/c_lo).  The lateral form is the full 4x4 at r = r_e.
    """
    sp = triple.sp
    grid = positivity_grid(sp, r_e, 30.0 * sp.r_s, 1200)
    S, _ = flux_matrices(triple, grid, C_energy)
    vals = np.linalg.eigvalsh(S[:, :3, :3])
    i_min = int(np.argmin(vals[:, 0]))
    lo, argmin, hi = vals[i_min, 0], grid[i_min], vals[:, -1].max()
    kappa = math.sqrt(hi / lo) if lo > 0 else math.inf
    _, L = flux_matrices(triple, np.asarray([r_e]), C_energy)
    lat_eigs = np.linalg.eigvalsh(L[0])
    report = {
        "slice_min_eig": float(lo), "slice_max_eig": float(hi),
        "slice_min_r": float(argmin), "kappa": float(kappa),
        "lateral_eigs": [float(v) for v in lat_eigs],
        "lateral_min_eig": float(lat_eigs[0]),
        "C_energy": float(C_energy), "r_e": float(r_e),
    }
    return report


def demo_boundary_parameters(triple: MultiplierTriple):
    """(C_demo, r_e_demo) at which both boundary forms are provably positive.

    The saturated profile has |X(dvtilde)| ~ 2(1 + |A| mu')/(eps r^3)
    near the horizon, so the flux positivity mechanism requires C above that
    size and then a horizon margin with |A(r_e)| |f(r_e)| below delta b(r_e).
    Both are derived from the profile rather than guessed.
    """
    sp = triple.sp
    ing = triple.ingredients(np.asarray([sp.r_s * 0.999]))
    C_demo = 2.0 * abs(float(ing["Xv"][0]))
    r_demo = feasible_lateral_radius(triple, C_demo)
    return C_demo, r_demo


def lateral_bracket(triple: MultiplierTriple, C_energy: float):
    """Adjacent floats lo < hi in [0.994 r_s, (1 - 4e-12) r_s] with the
    lateral form's smallest eigenvalue <= 0 at lo and > 0 at hi.

    The lateral (d_r u)^2 entry is A(r_e) X(dr)(r_e)/2; with the saturated
    profile this forces r_e extremely close to r_s.  Each round evaluates 63
    interior radii of [lo, hi] in one flux_matrices call; lo moves to the
    last of them that is not positive and hi to the radius after it, until
    the two are adjacent floats.
    """
    def min_eig(re):
        _, L = flux_matrices(triple, np.atleast_1d(re), C_energy)
        return np.linalg.eigvalsh(L)[:, 0]

    lo = 0.994 * triple.sp.r_s
    hi = (1.0 - 4e-12) * triple.sp.r_s
    if min_eig(hi)[0] <= 0:
        raise BoundaryFormFailure(
            f"lateral form not positive adjacent to the horizon at C = {C_energy}")
    while np.nextafter(lo, hi) < hi:
        x = np.linspace(lo, hi, 65)
        i = np.flatnonzero(min_eig(x[1:-1]) <= 0)
        k = i[-1] + 1 if i.size else 0
        lo, hi = x[k], x[k + 1]
    return float(lo), float(hi)


def feasible_lateral_radius(triple: MultiplierTriple, C_energy: float):
    """Largest horizon margin at which the lateral form is positive definite:
    a radius safely inside the positive end of lateral_bracket."""
    _, hi = lateral_bracket(triple, C_energy)
    return hi + 0.25 * (triple.sp.r_s - hi)
