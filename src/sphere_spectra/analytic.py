"""Closed-form reference spectra and eigenfunction constructions.

On the full sphere the spectra are known exactly: for k != 0 the
eigenvalues are mu_n = -s_n(s_n+1) with s_n = sigma + n and
sigma = sqrt(k**2 + eps**2/4); for k = 0 they are mu_n = -n(n+1) for
eps < 2 and absent (beyond the trivial zero) for eps >= 2, while the
transformed self-adjoint problem keeps limits s_n = 1 + n (eps <= 2) or
s_n = eps/2 + n (eps >= 2).  The eigenfunctions come from hypergeometric
series that truncate to polynomials; the polynomials are built by the term
ratio recurrence, which terminates exactly for nonpositive integer first
parameter and avoids any Gamma-function bookkeeping.

These constructions serve as ground truth in the tests and as the solver
for the x0 = 1 case, which the series/determinant solver cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .series import eval_series

RESIDUAL_GRID = np.linspace(-0.95, 0.95, 39)  # clear of the ends x = -+1
GAUSS_SUBINTERVALS = 8      # gauss_composite: equal parts of [a, b]
GAUSS_POINTS = 32           # and Gauss-Legendre nodes on each


@dataclass(frozen=True)
class PowerWeightedPoly:
    """Function (1-x)**p * (1+x)**q * poly(x) on |x| < 1.

    Closed under differentiation, which is what makes the Darboux and
    Sturm-Liouville residual checks exact: no numerical differentiation
    enters, so a residual of zero is a statement about the algebra.
    """

    p: float
    q: float
    poly: Polynomial

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (1 - x) ** self.p * (1 + x) ** self.q * self.poly(x)

    def derivative(self) -> "PowerWeightedPoly":
        poly = self.poly
        # d/dx [(1-x)^p (1+x)^q P] =
        #   (1-x)^(p-1) (1+x)^(q-1) [ -p(1+x)P + q(1-x)P + (1-x^2)P' ]
        term = (Polynomial([-self.p, -self.p]) * poly
                + Polynomial([self.q, -self.q]) * poly
                + Polynomial([1, 0, -1]) * poly.deriv())
        return PowerWeightedPoly(self.p - 1, self.q - 1, term)


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Exact spectrum in s-parameterization.

    regime is one of "k-nonzero-full-sphere", "k0-full-sphere",
    "k0-chi-limit".  empty_nontrivial marks the k = 0, eps >= 2 case where
    only the trivial mu = 0 mode survives.
    """

    s_values: np.ndarray
    mu_values: np.ndarray
    regime: str
    empty_nontrivial: bool = False

    def __post_init__(self):
        s = np.asarray(self.s_values, dtype=float)
        mu = np.asarray(self.mu_values, dtype=float)
        if np.any(np.diff(s) <= 0) or np.any(np.diff(mu) >= 0):
            raise ValueError("spectrum must have strictly increasing s and "
                             "strictly decreasing mu")
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "mu_values", mu)


def sigma_of(k: int, eps: float) -> float:
    """sigma = sqrt(k**2 + eps**2/4)."""
    return float(np.sqrt(k * k + eps * eps / 4.0))


def spectrum_full_sphere(k: int, eps: float, n_max: int) -> AnalyticSpectrum:
    """Full-sphere spectrum, n = 0..n_max.

    For k != 0: s_n = sigma + n.  For k = 0 and eps < 2: mu_n = -n(n+1),
    where n = 0 is the trivial constant mode; for k = 0 and eps >= 2 no
    nontrivial eigenvalue exists, so only the trivial mu = 0 is reported
    and the spectrum is flagged.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if k:
        s = sigma_of(k, eps) + np.arange(n_max + 1)
        return AnalyticSpectrum(s, -s * (s + 1), "k-nonzero-full-sphere")
    if eps >= 2:
        return AnalyticSpectrum(np.array([0.0]), np.array([0.0]),
                                "k0-full-sphere", empty_nontrivial=True)
    n = np.arange(n_max + 1, dtype=float)
    return AnalyticSpectrum(n, -n * (n + 1), "k0-full-sphere")


def spectrum_chi_limit(eps: float, n_max: int) -> AnalyticSpectrum:
    """x0 -> 1 limits of the transformed self-adjoint problem's spectrum:
    s_n = 1 + n for eps <= 2, s_n = eps/2 + n for eps >= 2 (the branches
    agree at eps = 2)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    base = 1.0 if eps <= 2 else eps / 2.0
    s = base + np.arange(n_max + 1)
    return AnalyticSpectrum(s, -s * (s + 1), "k0-chi-limit")


def _truncated_hypergeometric(n: int, beta: float, gamma: float) -> Polynomial:
    """Polynomial from the series of F(z; -n, beta, gamma) rewritten in x
    via z = (1-x)/2, built by the term-ratio recurrence."""
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    coef_z = np.zeros(n + 1)
    coef_z[0] = 1.0
    for j in range(n):
        coef_z[j + 1] = (coef_z[j] * (-n + j) * (beta + j)
                         / ((gamma + j) * (j + 1)))
    out, zpow = Polynomial([0.0]), Polynomial([1.0])   # zpow: ((1-x)/2)**j
    for j in range(n + 1):
        out = out + coef_z[j] * zpow
        zpow = zpow * Polynomial([0.5, -0.5])
    return out


def hypergeom_truncated(n: int, sigma: float) -> Polynomial:
    """Degree-n eigenpolynomial of the associated Legendre equation with
    index sigma: F(z; -n, n+1+2*sigma, 1+sigma) in x = 1 - 2z.

    At sigma = 0 these are the Legendre polynomials.
    """
    if sigma <= -1:
        raise ValueError("sigma must exceed -1")
    return _truncated_hypergeometric(n, n + 1 + 2 * sigma, 1 + sigma)


def k0_truncated(n: int, sigma: float) -> Polynomial:
    """Degree-n polynomial F(z; -n, n+1, 1+sigma) of the k = 0 analysis,
    with sigma = eps/2.  At sigma = 0 these are the Legendre polynomials."""
    if sigma < 0:
        raise ValueError("sigma = eps/2 must be nonnegative")
    return _truncated_hypergeometric(n, n + 1, 1 + sigma)


def eigenfunction_phi_k_mode(k: int, eps: float, n: int) -> PowerWeightedPoly:
    """Closed-form full-sphere vorticity eigenfunction for k != 0:
    ((1-x)/(1+x))**(eps/4) * (1-x^2)**(sigma/2) * F_n(x)."""
    if k == 0:
        raise ValueError("requires k != 0")
    sigma = sigma_of(k, eps)
    return PowerWeightedPoly(sigma / 2 + eps / 4, sigma / 2 - eps / 4,
                             hypergeom_truncated(n, sigma))


def chi_mode(eps: float, n: int):
    """Closed-form eigenfunction of the transformed self-adjoint problem
    at x0 = 1 and its eigenvalue mu = -s(s+1), s = eps/2 + n.

    Valid for eps = 0 (Legendre-derived modes, n >= 1) and eps >= 2
    (truncating-series modes, n >= 0); the 0 < eps < 2 limit functions are
    not polynomial-weighted and are not constructed here.
    """
    if 0 < eps < 2:
        raise ValueError("closed-form chi modes exist for eps = 0 or "
                         "eps >= 2 only")
    if eps == 0 and n < 1:
        raise ValueError("eps = 0 chi modes start at n = 1 (s = n)")
    s = eps / 2 + n
    F = hypergeom_truncated(n, eps / 2)
    poly = Polynomial([1, 1]) * F.deriv() + (eps / 2) * F
    chi = PowerWeightedPoly(eps / 4 + 0.5, eps / 4 - 0.5, poly)
    return chi, float(-s * (s + 1))


def darboux_residual(chi: PowerWeightedPoly, eps: float, mu: float) -> float:
    """Consistency of the first-order transform pair on a candidate mode.

    Applies phi = sqrt(1-x^2) chi' - (eps+2x)/(2 sqrt(1-x^2)) chi followed
    by mu*chi_hat = sqrt(1-x^2) phi' + eps/(2 sqrt(1-x^2)) phi and returns
    max |mu*chi_hat - mu*chi| / max |mu*chi| over RESIDUAL_GRID.  All
    derivatives are exact, so the residual vanishes iff chi solves the
    self-adjoint equation at mu.  The identically zero candidate returns 0.
    """
    if mu == 0:
        raise ValueError("the transform pair requires mu != 0")
    xs = RESIDUAL_GRID
    dchi = chi.derivative()
    ddchi = dchi.derivative()
    w = 1 - xs * xs
    sq = np.sqrt(w)
    g = (eps + 2 * xs) / (2 * sq)
    gp = 1 / sq + xs * (eps + 2 * xs) / (2 * w * sq)
    v, dv, ddv = chi(xs), dchi(xs), ddchi(xs)
    phi = sq * dv - g * v
    dphi = (-xs / sq) * dv + sq * ddv - gp * v - g * dv
    mu_chi_hat = sq * dphi + eps / (2 * sq) * phi
    mu_chi = mu * v
    scale = np.abs(mu_chi).max()
    if scale == 0:
        return 0.0
    return float(np.abs(mu_chi_hat - mu_chi).max() / scale)


def vorticity_ode_residual(phi: PowerWeightedPoly, k: float, eps: float,
                           mu: float, xs=None) -> float:
    """Residual of the closed vorticity equation
    d/dx[(1-x^2) phi'] - k^2 phi/(1-x^2) + eps phi' - mu phi,
    scaled by max |phi|, with exact derivatives.  With k = sigma and
    eps = 0 it is the Sturm-Liouville equation of the sigma-modes."""
    xs = np.asarray(RESIDUAL_GRID if xs is None else xs, dtype=float)
    dphi = phi.derivative()
    ddphi = dphi.derivative()
    w = 1 - xs * xs
    v, dv = phi(xs), dphi(xs)
    res = w * ddphi(xs) - 2 * xs * dv - k * k * v / w + eps * dv - mu * v
    scale = np.abs(v).max()
    if scale == 0:
        return 0.0
    return float(np.abs(res).max() / scale)


def gauss_composite(fn, a: float, b: float):
    """Composite Gauss-Legendre quadrature over [a, b] of fn, real or
    complex, along its last axis: GAUSS_POINTS nodes on each of
    GAUSS_SUBINTERVALS equal subintervals."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    edges = np.linspace(a, b, GAUSS_SUBINTERVALS + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * np.sum(weights * fn(mid + half * nodes), axis=-1)
    return total


def green_identity_residual(coeffs, mu: complex, params) -> float:
    """Check the energy identity mu E + ||Phi||^2 = eps (Psi', Phi) on a
    series eigenpair, E = ||Psi||^2 the energy norm: the vorticity
    equation times conj(Psi), integrated by parts with Psi = Psi' = 0 at
    +-x0.  At eps = 0 it is mu = -(phi, phi) / ||Psi||^2.

    The integrals are composite 32-point Gauss-Legendre on 8 subintervals
    of [-x0, x0].  Returns |mu E + ||Phi||^2 - eps (Psi', Phi)| / |mu E|;
    an identically zero eigenfunction returns 0.
    """
    if params.k == 0:
        raise ValueError("the Green identity check applies for k != 0")
    if mu == 0:
        raise ValueError("mu must be nonzero")
    k2 = params.abs_k ** 2

    def integrands(xs):             # rows: E's, and the defect's
        psi, dpsi, _ = eval_series(coeffs, "psi", xs)
        phi = eval_series(coeffs, "phi", xs)[0]
        e = ((1 - xs * xs) * np.abs(dpsi) ** 2
             + k2 * np.abs(psi) ** 2 / (1 - xs * xs))
        return np.array([e, mu * e + np.abs(phi) ** 2
                         - params.eps * np.conj(dpsi) * phi])

    norm2, defect = gauss_composite(integrands, -params.x0, params.x0)
    return 0.0 if norm2 == 0 else float(abs(defect / (mu * norm2)))
