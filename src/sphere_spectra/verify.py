"""Self-verification suite: structural invariants, analytic limits and a
reduced oracle-equivalence matrix, runnable from the CLI (verify command).

Each invariant is written once, as a function of its inputs returning
(passed, detail) against one fixed bound; the tests call it on their own
inputs, and the registry CHECKS on fixed samples, serially in its order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import astuple, replace

import numpy as np

from . import analytic, boundary, oracle
from .core import SpectralParams
from .rootfinder import ScanConfig, scan_real_roots
from .series import coeffs, coeffs_k_batch, eval_series

_RNG_SEED = 20260810


def _invariant(bound, what):
    """Make measure(*inputs), the worst deviation from an invariant, a check
    returning (passed, detail) against the fixed bound (0: exact equality);
    .over(cases) judges the worst over several tuples of inputs."""
    def wrap(measure):
        def over(cases):
            worst = np.max([measure(*inputs) for inputs in cases])
            passed = worst < bound if bound else worst == 0
            return bool(passed), f"{what} {worst:.2e}"
        check = functools.wraps(measure)(lambda *inputs: over([inputs]))
        check.over = over
        return check
    return wrap


def _deviation(u, v):
    """max |v - u| relative to max |u|, or to 1e-292 (tiny / eps) if that is
    larger: below it subnormal rounding sets the relative precision."""
    return np.abs(v - u).max() / max(np.abs(u).max(), 1e-292)


def _min_rel(a, b):
    """Largest |a - b| relative to the smaller of |a| and |b|."""
    return np.max(np.abs(a - b) / np.minimum(np.abs(a), np.abs(b)))


def _coef_deviation(poly, ref):
    return np.abs(np.pad(poly.coef, (0, len(ref) - len(poly.coef)))
                  - ref).max()


# ---------------------------------------------------------------------------
# series invariants
# ---------------------------------------------------------------------------

@_invariant(1e-13, "max relative deviation")
def series_linearity(params, s, seeds, alpha):
    """Seeds scaled by alpha scale every sequence by alpha."""
    base = astuple(coeffs(params, s, seeds))
    scaled = astuple(coeffs(params, s, alpha * np.asarray(seeds)))
    return np.max([_deviation(alpha * u, v) for u, v in zip(base, scaled)])


@_invariant(1e-14, "max relative deviation")
def series_s_reflection(params, s, seeds):
    """The sequences at s and at -1 - s agree: they read s(s+1) only.  The
    pair is taken as (-1 - t, t), t = -1 - s, whose products s(s+1) agree
    in floating point where -1 - s rounds them apart (s near 0 or -1)."""
    t = -1 - s
    one, two = (astuple(coeffs(params, x, seeds)) for x in (-1 - t, t))
    return np.max([_deviation(u, v) for u, v in zip(one, two)])


@_invariant(0.0, "max leak")
def series_parity_decoupling(params, s):
    """At eps = 0 the vorticity chains are independent: the even seed
    leaves b zero, the odd seed a."""
    k2, s = params.abs_k ** 2, np.array([s])
    odd = coeffs_k_batch(k2, params.eps, s, (1.0, 0.0), params.M)[1]
    even = coeffs_k_batch(k2, params.eps, s, (0.0, 1.0), params.M)[0]
    return np.abs([odd, even]).max()


@_invariant(1e-8, "max interior residual")
def series_ode_residual(params, s, seeds, x):
    """The truncated series substituted into the governing equations leaves
    a residual at interior points x controlled by the truncation tail."""
    seq, x = coeffs(params, s, seeds), np.asarray(x)
    k2 = params.abs_k ** 2
    psi, dpsi, ddpsi = eval_series(seq, "psi", x)
    phi, dphi, ddphi = eval_series(seq, "phi", x)
    om = 1 - x * x
    r1 = om * ddpsi - 2 * x * dpsi - k2 * psi / om - phi
    r2 = (om * ddphi - 2 * x * dphi - k2 * phi / om + params.eps * dphi
          + s * (s + 1) * phi)
    return np.abs([r1, r2]).max()


# ---------------------------------------------------------------------------
# boundary invariants
# ---------------------------------------------------------------------------

@_invariant(1e-12, "max relative asymmetry")
def det_reflection(params, s):
    """F(s) = F(-1 - s), relative to the smaller of the two."""
    F, s = boundary.det_functional(params), np.asarray(s)
    return _min_rel(F(s), F(-1 - s))


@_invariant(0.0, "max difference")
def det_k_sign(params, s):
    """F_k = F_{-k} exactly: the recurrences read k**2 only."""
    s, F = np.asarray(s), boundary.det_functional
    return np.abs(F(params)(s) - F(replace(params, k=-params.k))(s)).max()


@_invariant(1e-10, "max factorization defect")
def block_factorization(params, s):
    """At eps = 0 the boundary matrix has no entry across the parity blocks
    (rows and columns 0, 2 and 1, 3), and its determinant is the product
    of theirs, relative to the smaller of the two."""
    A, even, odd = boundary._matrices(params, np.asarray(s)), [0, 2], [1, 3]
    if A[:, even][..., odd].any() or A[:, odd][..., even].any():
        return np.inf
    return _min_rel(np.linalg.det(A), np.linalg.det(A[:, even][..., even])
                    * np.linalg.det(A[:, odd][..., odd]))


@_invariant(1e-12, "max deviation")
def normalization_invariance(params, s, scale):
    """Seed columns scaled by the factors scale move the normalized
    determinant by the unit factor prod(scale / |scale|) only, relative to
    the smaller of the two."""
    s, scale = np.asarray(s), np.asarray(scale)
    rescaled = boundary._normalized_det(boundary._matrices(params, s) * scale)
    return _min_rel(rescaled, np.prod(scale / np.abs(scale))
                    * boundary.det_functional(params)(s))


# ---------------------------------------------------------------------------
# analytic invariants
# ---------------------------------------------------------------------------

@_invariant(1e-12, "max coefficient deviation")
def polynomial_closed_forms(sigma):
    """F2, F3 and G1 to G3 against their published closed forms."""
    f = [np.array([-1, 0, 2 * sigma + 3]) / (2 * (1 + sigma)),
         np.array([0, -3, 0, 5 + 2 * sigma]) / (2 * (1 + sigma))]
    g = [np.array([sigma, 1]) / (1 + sigma),
         np.array([sigma * sigma - 1, 3 * sigma, 3])
         / ((1 + sigma) * (2 + sigma)),
         np.array([sigma * (sigma * sigma - 4), 6 * sigma * sigma - 9,
                   15 * sigma, 15])
         / ((1 + sigma) * (2 + sigma) * (3 + sigma))]
    return np.max([_coef_deviation(analytic.hypergeom_truncated(n, sigma), r)
                   for n, r in zip((2, 3), f)]
                  + [_coef_deviation(analytic.k0_truncated(n, sigma), r)
                     for n, r in zip((1, 2, 3), g)])


@_invariant(1e-14, "max coefficient deviation")
def legendre_reduction(n):
    """At sigma = 0 both polynomial families are the Legendre P_n."""
    ref = np.polynomial.legendre.leg2poly(np.eye(n + 1)[n])
    return np.max([_coef_deviation(analytic.k0_truncated(n, 0.0), ref),
                   _coef_deviation(analytic.hypergeom_truncated(n, 0.0), ref)])


@_invariant(1e-10, "max scaled ODE residual")
def eigenfunction_ode(k, eps, n, x=None):
    """At s = sigma + n the sigma-mode (1 - x^2)^(sigma/2) F_n solves the
    eps = 0 vorticity equation with k = sigma, and the dressed mode the
    equation at (k, eps); x defaults to vorticity_ode_residual's grid."""
    sigma = analytic.sigma_of(k, eps)
    mu = -(sigma + n) * (sigma + n + 1)
    varphi = analytic.PowerWeightedPoly(
        sigma / 2, sigma / 2, analytic.hypergeom_truncated(n, sigma))
    phi = analytic.eigenfunction_phi_k_mode(k, eps, n)
    return np.max([analytic.vorticity_ode_residual(varphi, sigma, 0.0, mu, x),
                   analytic.vorticity_ode_residual(phi, k, eps, mu, x)])


@_invariant(1e-10, "max pair residual")
def darboux_pair(eps, n):
    """The closed-form chi mode passes the transform pair at its mu."""
    chi, mu = analytic.chi_mode(eps, n)
    return analytic.darboux_residual(chi, eps, mu)


def check_spectra_values():
    deviations = []
    for k in range(1, 6):
        for eps in (0.0, 3.0):
            spec = analytic.spectrum_full_sphere(k, eps, 6)
            sigma = np.sqrt(k * k + eps * eps / 4)
            n = np.arange(7)
            deviations.append(spec.mu_values + (sigma + n) * (sigma + n + 1))
    k0 = analytic.spectrum_full_sphere(0, 1.0, 5)
    n = np.arange(6)
    deviations.append(k0.mu_values + n * (n + 1))
    flagged = analytic.spectrum_full_sphere(0, 2.0, 5).empty_nontrivial
    chi = analytic.spectrum_chi_limit(4.0, 3)
    deviations.append(chi.s_values - (2 + np.arange(4)))
    # np.max, unlike a fold with max(), propagates a NaN and fails on it
    worst = np.max(np.abs(np.concatenate(deviations)))
    return bool(worst == 0.0 and flagged), f"max deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# oracle cross-checks (reduced matrix; the full one runs in acceptance)
# ---------------------------------------------------------------------------

def oracle_equivalence(params, cfg, n_steps):
    """The series determinant and the shooting oracle find as many real
    roots in the window cfg, each pair within 1e-6."""
    a = np.array([r.s.real for r in
                  scan_real_roots(boundary.det_functional(params), cfg)])
    b = np.array([r.s.real for r in scan_real_roots(
        oracle.shoot_functional(params, n_steps=n_steps), cfg,
        source="oracle")])
    gap = np.abs(a - b).max(initial=0.0) if a.size == b.size else np.inf
    return gap < 1e-6, (f"{a.size} series vs {b.size} oracle roots, "
                        f"max |ds| {gap:.2e}")


@_invariant(1e-4, "max Green-identity residual")
def green_identity(params, cfg):
    """mu = -(phi, phi) / ||Psi||^2 on the first root in cfg (eps = 0)."""
    root = scan_real_roots(boundary.det_functional(params), cfg)[0]
    coeffs = boundary.eigenfunction_coeffs(params, root.s)
    return analytic.green_identity_residual(coeffs, root.mu.real, params)


def check_k0_negativity():
    params = SpectralParams(k=0, eps=4.0, x0=0.9, M=100)
    mus = [r.mu.real for r in scan_real_roots(
        boundary.det_functional(params), ScanConfig(0.05, 8.0))]
    ok = bool(mus) and all(mu < 0 for mu in mus)
    return ok, f"{len(mus)} roots, max mu {max(mus) if mus else 'n/a'}"


def _random_series_cases(seed, k0, draw):
    """Five (params, s, *draw(rng)) of random k, eps and s."""
    rng = np.random.default_rng(seed)
    return [(SpectralParams(0 if k0 else int(rng.integers(1, 5)),
                            float(rng.uniform(0, 6)), 0.5, 40),
             complex(rng.uniform(0.2 if k0 else -2, 4), rng.uniform(-2, 2)),
             *draw(rng)) for _ in range(5)]


def check_det_reflection_symmetry():
    rng = np.random.default_rng(_RNG_SEED + 3)
    return det_reflection.over(
        (SpectralParams(k, 1.5, 0.8, 80),
         [complex(rng.uniform(lo, 4), rng.uniform(-2, 2)) for _ in range(4)])
        for k, lo in ((1, -0.4), (2, -0.4), (0, 0.3)))


def check_oracle_equivalence_k1():
    return oracle_equivalence(SpectralParams(1, 0.0, 0.9, 150),
                              ScanConfig(0.0, 6.0), 1200)


CHECKS = [
    ("series", "linearity", lambda: series_linearity.over(_random_series_cases(
        _RNG_SEED, False, lambda rng: (
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
            complex(rng.uniform(0.5, 3), rng.uniform(-1, 1)))))),
    ("series", "s-reflection", lambda: series_s_reflection.over(
        _random_series_cases(_RNG_SEED + 1, False,
                             lambda rng: [tuple(rng.standard_normal(4))]))),
    ("series", "k0-s-reflection", lambda: series_s_reflection.over(
        _random_series_cases(_RNG_SEED + 2, True,
                             lambda rng: [tuple(rng.standard_normal(2))]))),
    ("series", "parity-decoupling", lambda: series_parity_decoupling(
        SpectralParams(2, 0.0, 0.5, 60), 1.7 + 0.3j)),
    ("series", "ode-residual", lambda: series_ode_residual(
        SpectralParams(1, 1.0, 0.9, 150), 2.3, (0.3, -0.2, 1.0, 0.4),
        [0.1, 0.3, 0.5])),
    ("boundary", "det-reflection", check_det_reflection_symmetry),
    ("boundary", "det-k-sign", lambda: det_k_sign.over(
        (SpectralParams(k, 2.0, 0.8, 80), [0.7 + 0.2j, 2.4, 3.1 - 1.0j])
        for k in (1, 2, 3))),
    ("boundary", "block-factorization", lambda: block_factorization(
        SpectralParams(2, 0.0, 0.8, 80), [1.3, 2.6 + 0.4j, 4.1])),
    ("boundary", "normalization-invariance", lambda: normalization_invariance(
        SpectralParams(1, 2.0, 0.85, 100), [0.8, 1.9 + 0.6j, 3.4],
        [2.0, 0.5j, -3.0, 1.0])),
    ("analytic", "polynomial-closed-forms", lambda: polynomial_closed_forms
     .over((sigma,) for sigma in (0.0, 1.0, 2.5))),
    ("analytic", "legendre-reduction", lambda: legendre_reduction.over(
        (n,) for n in range(7))),
    ("analytic", "eigenfunction-ode", lambda: eigenfunction_ode.over(
        (*mode, np.linspace(-0.9, 0.9, 20))
        for mode in ((1, 0.0, 0), (1, 2.0, 1), (3, 1.0, 2), (2, 0.0, 4)))),
    ("analytic", "darboux-pair", lambda: darboux_pair.over(
        ((0.0, 1), (0.0, 3), (4.0, 0), (4.0, 2), (2.0, 1), (6.0, 1)))),
    ("analytic", "spectra-values", check_spectra_values),
    ("oracle", "equivalence-k1", check_oracle_equivalence_k1),
    ("oracle", "equivalence-k0", lambda: oracle_equivalence(
        SpectralParams(0, 1.0, 0.9, 100), ScanConfig(0.05, 6.0), 1200)),
    ("oracle", "green-identity", lambda: green_identity.over(
        (SpectralParams(k, 0.0, 0.9, 150), ScanConfig(0.0, k + 3.0))
        for k in (1, 3))),
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
