import numpy as np
import pytest

from sphere_spectra import (PowerWeightedPoly, SpectralParams, chi_mode,
                            coeffs, darboux_residual, gauss_composite,
                            green_identity_residual, hypergeom_truncated,
                            k0_truncated, sigma_of, spectrum_chi_limit,
                            spectrum_full_sphere, verify)
from sphere_spectra.analytic import (AnalyticSpectrum, Polynomial,
                                     eigenfunction_phi_k_mode)


class TestSigma:
    def test_values(self):
        assert sigma_of(1, 0.0) == 1.0
        assert sigma_of(2, 3.0) == 2.5
        assert sigma_of(0, 2.0) == 1.0


class TestFullSphereK:
    def test_viscous_limit_k1(self):
        spec = spectrum_full_sphere(1, 0.0, 2)
        np.testing.assert_array_equal(spec.mu_values, [-2, -6, -12])

    def test_k2_eps3(self):
        spec = spectrum_full_sphere(2, 3.0, 1)
        np.testing.assert_array_equal(spec.s_values, [2.5, 3.5])
        np.testing.assert_array_equal(spec.mu_values, [-8.75, -15.75])

    def test_k5_ground_mode(self):
        assert spectrum_full_sphere(5, 0.0, 0).mu_values[0] == -30


class TestFullSphereK0:
    def test_below_threshold(self):
        spec = spectrum_full_sphere(0, 1.0, 3)
        np.testing.assert_array_equal(spec.mu_values, [0, -2, -6, -12])
        assert not spec.empty_nontrivial

    def test_at_threshold_empty(self):
        spec = spectrum_full_sphere(0, 2.0, 3)
        assert spec.empty_nontrivial
        np.testing.assert_array_equal(spec.mu_values, [0.0])

    def test_fully_viscous(self):
        spec = spectrum_full_sphere(0, 0.0, 2)
        np.testing.assert_array_equal(spec.mu_values, [0, -2, -6])


class TestChiLimit:
    def test_low_branch(self):
        np.testing.assert_array_equal(spectrum_chi_limit(1.0, 2).s_values,
                                      [1, 2, 3])

    def test_high_branch(self):
        np.testing.assert_array_equal(spectrum_chi_limit(4.0, 2).s_values,
                                      [2, 3, 4])

    def test_branch_continuity(self):
        np.testing.assert_array_equal(spectrum_chi_limit(2.0, 1).s_values,
                                      [1, 2])


def test_spectrum_monotonicity_enforced():
    for spec in (spectrum_full_sphere(3, 2.0, 6),
                 spectrum_full_sphere(0, 1.5, 6),
                 spectrum_chi_limit(3.0, 6)):
        assert np.all(np.diff(spec.s_values) > 0)
        assert np.all(np.diff(spec.mu_values) < 0)
    with pytest.raises(ValueError):
        AnalyticSpectrum(np.array([1.0, 1.0]), np.array([-2.0, -2.0]),
                         "k0-full-sphere")


class TestTruncatedPolynomials:
    def test_degree_two_closed_form(self):
        p = hypergeom_truncated(2, 1.0)
        np.testing.assert_allclose(p.coef, [-0.25, 0, 1.25],
                                   atol=1e-15)

    def test_degree_zero(self):
        for sigma in (0.0, 0.7, 3.0):
            assert hypergeom_truncated(0, sigma).coef.tolist() == [1.0]

    def test_legendre_at_sigma_zero(self):
        p = hypergeom_truncated(3, 0.0)
        np.testing.assert_allclose(p.coef, [0, -1.5, 0, 2.5],
                                   atol=1e-14)

    def test_k0_family(self):
        np.testing.assert_allclose(k0_truncated(1, 1.0).coef,
                                   [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(k0_truncated(2, 1.0).coef,
                                   [0, 0.5, 0.5], atol=1e-15)
        assert k0_truncated(0, 2.0).coef.tolist() == [1.0]

    def test_k0_reduces_to_legendre(self):
        for n in range(7):
            passed, detail = verify.legendre_reduction(n)
            assert passed, (n, detail)

    def test_ode_residual(self):
        # k = sigma at eps = 0: the sigma-mode is its own dressed mode
        xs = np.linspace(-0.95, 0.95, 20)
        for n, sigma in ((0, 1.0), (2, 1.0), (3, 0.5), (5, 2.5)):
            passed, detail = verify.eigenfunction_ode(sigma, 0.0, n, xs)
            assert passed, (n, sigma, detail)


class TestPolynomialType:
    def test_call_and_derivative(self):
        # the analytic layer's polynomials are numpy's
        assert Polynomial is np.polynomial.Polynomial
        assert isinstance(hypergeom_truncated(2, 1.0), Polynomial)
        p = Polynomial([1.0, 0.0, 3.0])
        assert p(2.0) == 13.0
        assert p.deriv().coef.tolist() == [0.0, 6.0]


class TestEigenfunctionPhi:
    def test_ground_mode_at_origin(self):
        assert eigenfunction_phi_k_mode(1, 0.0, 0)(0.0) == pytest.approx(1.0)

    def test_boundary_decay(self):
        for x in (-0.999999, 0.999999):
            assert abs(eigenfunction_phi_k_mode(1, 0.0, 0)(x)) < 2e-3

    def test_dressed_mode_satisfies_vorticity_equation(self):
        k, eps, n = 1, 2.0, 1
        passed, detail = verify.eigenfunction_ode(k, eps, n)
        assert passed, detail
        phi = eigenfunction_phi_k_mode(k, eps, n)
        # pointwise value agrees with the direct formula
        x = 0.5
        sigma = sigma_of(k, eps)
        direct = (((1 - x) / (1 + x)) ** (eps / 4)
                  * (1 - x * x) ** (sigma / 2)
                  * hypergeom_truncated(n, sigma)(x))
        assert phi(x) == pytest.approx(direct, rel=1e-14)


class TestDarboux:
    def test_viscous_legendre_mode(self):
        assert chi_mode(0.0, 1)[1] == -2
        assert verify.darboux_pair(0.0, 1)[0]

    def test_zero_candidate_guarded(self):
        chi = PowerWeightedPoly(0.5, 0.5, Polynomial([0.0]))
        assert darboux_residual(chi, 0.0, -2.0) == 0.0

    def test_high_reynolds_mode(self):
        assert chi_mode(4.0, 0)[1] == -6  # s = eps/2 = 2
        assert verify.darboux_pair(4.0, 0)[0]

    def test_wrong_eigenvalue_detected(self):
        chi, mu = chi_mode(4.0, 0)
        assert darboux_residual(chi, 4.0, mu * 1.05) > 1e-3

    def test_requires_nonzero_mu(self):
        chi, _ = chi_mode(0.0, 1)
        with pytest.raises(ValueError):
            darboux_residual(chi, 0.0, 0.0)

    def test_mode_domain_restrictions(self):
        with pytest.raises(ValueError):
            chi_mode(1.0, 0)
        with pytest.raises(ValueError):
            chi_mode(0.0, 0)

    def test_eigenfunction_parity_alternates(self):
        # at eps = 0 the problem is x -> -x symmetric and successive modes
        # alternate between even and odd
        for n in range(1, 5):
            chi, _ = chi_mode(0.0, n)
            coefs = chi.poly.coef
            # chi = sqrt(1-x^2) * P_n'(x): parity of P_n' is (-1)^(n+1)
            even_part = np.abs(coefs[0::2]).max() if coefs[0::2].size else 0
            odd_part = np.abs(coefs[1::2]).max() if coefs[1::2].size else 0
            # the weight (1-x)^(1/2) (1+x)^(-1/2) times (1+x) folds one
            # power of (1+x) into the polynomial: P = (1+x) P_n'
            expect_mixed = True
            assert expect_mixed and (even_part > 0 or odd_part > 0)
            # direct parity check on chi itself
            xs = np.linspace(0.05, 0.9, 7)
            sym = np.abs(chi(xs) - chi(-xs)).max()
            anti = np.abs(chi(xs) + chi(-xs)).max()
            if n % 2 == 1:      # P_n' even for odd n
                assert sym < 1e-12 * max(anti, 1)
            else:
                assert anti < 1e-12 * max(sym, 1)


class TestGreenIdentity:
    def test_zero_eigenfunction_guarded(self):
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=40)
        sol = coeffs(params, 1.5, (0.0, 0.0, 0.0, 0.0))
        assert green_identity_residual(sol, -2.0, params) == 0.0

    def test_preconditions(self):
        params = SpectralParams(k=1, eps=1.0, x0=0.9, M=40)
        sol = coeffs(params, 1.5, (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            green_identity_residual(sol, -2.0, params)


def test_gauss_composite_polynomial_exact():
    assert gauss_composite(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3)
    assert gauss_composite(np.cos, 0.0, np.pi / 2) == pytest.approx(1.0)
