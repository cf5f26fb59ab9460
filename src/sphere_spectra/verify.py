"""Self-verification suite: structural invariants, analytic limits and a
reduced oracle-equivalence matrix, runnable from the CLI (verify command).

Each check is a small function returning (passed, detail).  Checks are
grouped; groups can be run selectively, and run serially in registry order.
"""

from __future__ import annotations

import time
from dataclasses import astuple

import numpy as np

from . import analytic, boundary, oracle
from .core import SpectralParams
from .rootfinder import ScanConfig, scan_real_roots
from .series import coeffs_full_k, coeffs_k0, coeffs_k_batch, eval_series

_RNG_SEED = 20260810


def _rel(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# series invariants
# ---------------------------------------------------------------------------

def check_series_linearity():
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    for _ in range(5):
        params = SpectralParams(int(rng.integers(1, 5)),
                                float(rng.uniform(0, 6)), 0.5, 40)
        s = complex(rng.uniform(-2, 4), rng.uniform(-2, 2))
        seeds = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        base = astuple(coeffs_full_k(params, s, seeds))[:4]
        scaled = astuple(coeffs_full_k(params, s, alpha * seeds))[:4]
        for u, v in zip(base, scaled):
            denom = np.abs(alpha * u).max() or 1.0
            worst = max(worst, np.abs(v - alpha * u).max() / denom)
    return worst < 1e-13, f"max relative deviation {worst:.2e}"


def check_series_s_symmetry():
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst = 0.0
    for _ in range(5):
        params = SpectralParams(int(rng.integers(1, 5)),
                                float(rng.uniform(0, 6)), 0.5, 40)
        s = complex(rng.uniform(-2, 4), rng.uniform(-2, 2))
        seeds = tuple(rng.standard_normal(4))
        one = astuple(coeffs_full_k(params, s, seeds))[:4]
        two = astuple(coeffs_full_k(params, -1 - s, seeds))[:4]
        for u, v in zip(one, two):
            denom = np.abs(u).max() or 1.0
            worst = max(worst, np.abs(v - u).max() / denom)
    return worst < 1e-14, f"max relative deviation {worst:.2e}"


def check_series_k0_s_symmetry():
    rng = np.random.default_rng(_RNG_SEED + 2)
    worst = 0.0
    for _ in range(5):
        params = SpectralParams(0, float(rng.uniform(0, 6)), 0.5, 40)
        s = complex(rng.uniform(0.2, 4), rng.uniform(-2, 2))
        seeds = tuple(rng.standard_normal(2))
        one = astuple(coeffs_k0(params, s, *seeds))[:4]
        two = astuple(coeffs_k0(params, -1 - s, *seeds))[:4]
        for u, v in zip(one, two):
            denom = np.abs(u).max() or 1.0
            worst = max(worst, np.abs(v - u).max() / denom)
    return worst < 1e-14, f"max relative deviation {worst:.2e}"


def check_series_parity_decoupling():
    # at eps = 0 the even and odd vorticity chains are independent
    s = np.array([1.7 + 0.3j])
    a, b = coeffs_k_batch(4.0, 0.0, s, (1.0, 0.0), 60)
    odd_leak = np.abs(b).max()
    a2, b2 = coeffs_k_batch(4.0, 0.0, s, (0.0, 1.0), 60)
    even_leak = np.abs(a2).max()
    ok = odd_leak == 0.0 and even_leak == 0.0
    return ok, f"odd leak {odd_leak:.2e}, even leak {even_leak:.2e}"


def check_series_ode_residual():
    """Truncated series substituted into the governing equations leaves a
    residual controlled by the truncation tail (M = 150, x0 = 0.9)."""
    params = SpectralParams(k=1, eps=1.0, x0=0.9, M=150)
    s = 2.3
    coeffs = coeffs_full_k(params, s, (0.3, -0.2, 1.0, 0.4))
    x = np.array([0.1, 0.3, 0.5])
    psi, dpsi, ddpsi = eval_series(coeffs, "psi", x)
    phi, dphi, ddphi = eval_series(coeffs, "phi", x)
    om = 1 - x * x
    r1 = om * ddpsi - 2 * x * dpsi - psi / om - phi
    r2 = (om * ddphi - 2 * x * dphi - phi / om + params.eps * dphi
          + s * (s + 1) * phi)
    worst = max(np.abs(r1).max(), np.abs(r2).max())
    return worst < 1e-8, f"max interior residual {worst:.2e}"


# ---------------------------------------------------------------------------
# boundary invariants
# ---------------------------------------------------------------------------

def check_det_reflection_symmetry():
    rng = np.random.default_rng(_RNG_SEED + 3)
    worst = 0.0
    for k in (1, 2):
        params = SpectralParams(k=k, eps=1.5, x0=0.8, M=80)
        F = boundary.det_functional(params)
        for _ in range(4):
            s = complex(rng.uniform(-0.4, 4), rng.uniform(-2, 2))
            worst = max(worst, _rel(F(np.array([s]))[0],
                                    F(np.array([-1 - s]))[0]))
    params0 = SpectralParams(k=0, eps=1.5, x0=0.8, M=80)
    F0 = boundary.det_functional(params0)
    for _ in range(4):
        s = complex(rng.uniform(0.3, 4), rng.uniform(-2, 2))
        worst = max(worst, _rel(F0(np.array([s]))[0],
                                F0(np.array([-1 - s]))[0]))
    return worst < 1e-12, f"max relative asymmetry {worst:.2e}"


def check_det_k_sign_symmetry():
    worst = 0.0
    for k in (1, 2, 3):
        Fp = boundary.det_functional(SpectralParams(k=k, eps=2.0, x0=0.8, M=80))
        Fm = boundary.det_functional(SpectralParams(k=-k, eps=2.0, x0=0.8, M=80))
        s = np.array([0.7 + 0.2j, 2.4, 3.1 - 1.0j])
        worst = max(worst, np.max(np.abs(Fp(s) - Fm(s))
                                  / np.maximum(np.abs(Fp(s)), 1e-300)))
    return worst == 0.0, f"max relative difference {worst:.2e}"


def check_block_factorization():
    """At eps = 0 the determinant factors into even and odd parity blocks."""
    params = SpectralParams(k=2, eps=0.0, x0=0.8, M=80)
    worst = 0.0
    for s in (1.3, 2.6 + 0.4j, 4.1):
        A = boundary.assemble(params, s)
        full = np.linalg.det(A)
        even = np.linalg.det(A[np.ix_([0, 2], [0, 2])])
        odd = np.linalg.det(A[np.ix_([1, 3], [1, 3])])
        cross = max(np.abs(A[np.ix_([0, 2], [1, 3])]).max(),
                    np.abs(A[np.ix_([1, 3], [0, 2])]).max())
        worst = max(worst, _rel(full, even * odd), cross)
    return worst < 1e-10, f"max factorization defect {worst:.2e}"


def check_normalization_invariance():
    """Column rescaling of the seed basis must not move the normalized
    determinant magnitude (phases may differ)."""
    params = SpectralParams(k=1, eps=2.0, x0=0.85, M=100)
    F = boundary.det_functional(params)
    D = np.diag([2.0, 0.5j, -3.0, 1.0])
    worst = 0.0
    for s in (0.8, 1.9 + 0.6j, 3.4):
        A = boundary.assemble(params, s)
        scaled = A @ D
        norms = np.abs(scaled).max(axis=0)
        val = np.linalg.det(scaled / norms)
        worst = max(worst, _rel(abs(val), abs(F(np.array([s]))[0])))
    return worst < 1e-12, f"max magnitude deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# analytic invariants
# ---------------------------------------------------------------------------

def check_polynomial_closed_forms():
    worst = 0.0
    for sigma in (0.0, 1.0, 2.5):
        F2 = analytic.hypergeom_truncated(2, sigma)
        ref = np.array([-1, 0, 2 * sigma + 3]) / (2 * (1 + sigma))
        worst = max(worst, np.abs(F2.coef - ref).max())
        F3 = analytic.hypergeom_truncated(3, sigma)
        ref3 = np.array([0, -3, 0, 5 + 2 * sigma]) / (2 * (1 + sigma))
        worst = max(worst, np.abs(F3.coef - ref3).max())
        G1 = analytic.k0_truncated(1, sigma)
        ref1 = np.array([sigma, 1]) / (1 + sigma)
        worst = max(worst, np.abs(G1.coef - ref1).max())
        G2 = analytic.k0_truncated(2, sigma)
        ref2 = np.array([sigma * sigma - 1, 3 * sigma, 3]) \
            / ((1 + sigma) * (2 + sigma))
        worst = max(worst, np.abs(G2.coef - ref2).max())
    return worst < 1e-12, f"max coefficient deviation {worst:.2e}"


def check_legendre_reduction():
    from numpy.polynomial import legendre
    worst = 0.0
    for n in range(7):
        basis = np.zeros(n + 1)
        basis[n] = 1.0
        ref = legendre.leg2poly(basis)
        got = analytic.k0_truncated(n, 0.0).coef
        got = np.pad(got, (0, len(ref) - len(got)))
        worst = max(worst, np.abs(got - ref).max())
        got2 = analytic.hypergeom_truncated(n, 0.0).coef
        got2 = np.pad(got2, (0, len(ref) - len(got2)))
        worst = max(worst, np.abs(got2 - ref).max())
    return worst < 1e-14, f"max coefficient deviation {worst:.2e}"


def check_eigenfunction_ode_residuals():
    worst = 0.0
    for (k, eps, n) in ((1, 0.0, 0), (1, 2.0, 1), (3, 1.0, 2), (2, 0.0, 4)):
        sigma = analytic.sigma_of(k, eps)
        s = sigma + n
        varphi = analytic.PowerWeightedPoly(
            sigma / 2, sigma / 2, analytic.hypergeom_truncated(n, sigma))
        worst = max(worst, analytic.vorticity_ode_residual(
            varphi, sigma, 0.0, -s * (s + 1), np.linspace(-0.9, 0.9, 20)))
        phi = analytic.eigenfunction_phi_k_mode(k, eps, n)
        worst = max(worst, analytic.vorticity_ode_residual(
            phi, k, eps, -s * (s + 1), np.linspace(-0.9, 0.9, 20)))
    return worst < 1e-10, f"max scaled ODE residual {worst:.2e}"


def check_darboux_pair():
    worst = 0.0
    for eps, n in ((0.0, 1), (0.0, 3), (4.0, 0), (4.0, 2), (2.0, 1), (6.0, 1)):
        chi, mu = analytic.chi_mode(eps, n)
        worst = max(worst, analytic.darboux_residual(chi, eps, mu))
    return worst < 1e-10, f"max pair residual {worst:.2e}"


def check_spectra_values():
    worst = 0.0
    for k in range(1, 6):
        for eps in (0.0, 3.0):
            spec = analytic.spectrum_full_sphere_k(k, eps, 6)
            sigma = np.sqrt(k * k + eps * eps / 4)
            n = np.arange(7)
            worst = max(worst, np.abs(spec.mu_values
                                      + (sigma + n) * (sigma + n + 1)).max())
    k0 = analytic.spectrum_full_sphere_k0(1.0, 5)
    n = np.arange(6)
    worst = max(worst, np.abs(k0.mu_values + n * (n + 1)).max())
    flagged = analytic.spectrum_full_sphere_k0(2.0, 5).empty_nontrivial
    chi = analytic.spectrum_chi_limit(4.0, 3)
    worst = max(worst, np.abs(chi.s_values - (2 + np.arange(4))).max())
    return worst == 0.0 and flagged, f"max deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# oracle cross-checks (reduced matrix; the full one runs in acceptance)
# ---------------------------------------------------------------------------

def _roots_match(params, cfg, n_steps=1200):
    F = boundary.det_functional(params)
    series_roots = scan_real_roots(F, cfg)
    shoot = oracle.shoot_functional(params, n_steps=n_steps)
    oracle_root_list = scan_real_roots(shoot, cfg, source="oracle")
    a = np.array([r.s.real for r in series_roots])
    b = np.array([r.s.real for r in oracle_root_list])
    if a.size != b.size:
        return False, f"count mismatch: series {a.size}, oracle {b.size}"
    gap = np.abs(a - b).max() if a.size else 0.0
    return gap < 1e-6, f"{a.size} roots, max |ds| {gap:.2e}"


def check_oracle_equivalence_k1():
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
    return _roots_match(params, ScanConfig(0.0, 6.0))


def check_oracle_equivalence_k0():
    params = SpectralParams(k=0, eps=1.0, x0=0.9, M=100)
    return _roots_match(params, ScanConfig(0.05, 6.0))


def check_green_identity():
    worst = 0.0
    for k in (1, 3):
        params = SpectralParams(k=k, eps=0.0, x0=0.9, M=150)
        cfg = ScanConfig(0.0, k + 3.0)
        root = scan_real_roots(boundary.det_functional(params), cfg)[0]
        coeffs = boundary.eigenfunction_coeffs(params, root.s)
        worst = max(worst, analytic.green_identity_residual(
            coeffs, root.mu.real, params))
    return worst < 1e-4, f"max Green-identity residual {worst:.2e}"


def check_k0_negativity():
    params = SpectralParams(k=0, eps=4.0, x0=0.9, M=100)
    mus = [r.mu.real for r in scan_real_roots(
        boundary.det_functional(params), ScanConfig(0.05, 8.0))]
    ok = bool(mus) and all(mu < 0 for mu in mus)
    return ok, f"{len(mus)} roots, max mu {max(mus) if mus else 'n/a'}"


CHECKS = [
    ("series", "linearity", check_series_linearity),
    ("series", "s-reflection", check_series_s_symmetry),
    ("series", "k0-s-reflection", check_series_k0_s_symmetry),
    ("series", "parity-decoupling", check_series_parity_decoupling),
    ("series", "ode-residual", check_series_ode_residual),
    ("boundary", "det-reflection", check_det_reflection_symmetry),
    ("boundary", "det-k-sign", check_det_k_sign_symmetry),
    ("boundary", "block-factorization", check_block_factorization),
    ("boundary", "normalization-invariance", check_normalization_invariance),
    ("analytic", "polynomial-closed-forms", check_polynomial_closed_forms),
    ("analytic", "legendre-reduction", check_legendre_reduction),
    ("analytic", "eigenfunction-ode", check_eigenfunction_ode_residuals),
    ("analytic", "darboux-pair", check_darboux_pair),
    ("analytic", "spectra-values", check_spectra_values),
    ("oracle", "equivalence-k1", check_oracle_equivalence_k1),
    ("oracle", "equivalence-k0", check_oracle_equivalence_k0),
    ("oracle", "green-identity", check_green_identity),
    ("oracle", "k0-negativity", check_k0_negativity),
]


def run_checks(only: str | None = None) -> list:
    """Run the (optionally filtered) check registry.

    Returns a list of dicts in registry order: group, name, passed,
    detail, seconds.
    """
    selected = [(g, n, fn) for (g, n, fn) in CHECKS
                if only is None or g == only or n == only]
    if not selected:
        raise ValueError(f"no checks match {only!r}")

    results = []
    for group, name, fn in selected:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:          # a crashing check is a failure
            passed, detail = False, f"exception: {exc!r}"
        results.append({"group": group, "name": name, "passed": bool(passed),
                        "detail": detail,
                        "seconds": time.perf_counter() - t0})
    return results
