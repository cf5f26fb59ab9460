import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_spectra import (SpectralParams, Root,
                            canonicalize_s, in_stability_domain, mu_of_s)


class TestMuOfS:
    def test_first_eigenvalue_parameterization(self):
        # sigma = 1, n = 0 gives s = 1 on the full sphere
        assert mu_of_s(1) == -2

    def test_zero(self):
        assert mu_of_s(0) == 0

    def test_reflection_partners(self):
        assert mu_of_s(2) == -6
        assert mu_of_s(-3) == -6


class TestCanonicalize:
    def test_reflection(self):
        assert canonicalize_s(-2) == 1

    def test_already_canonical(self):
        assert canonicalize_s(0.3 + 0.2j) == 0.3 + 0.2j

    def test_boundary_with_sign_normalization(self):
        assert canonicalize_s(-0.5 - 3j) == -0.5 + 3j


class TestStabilityDomain:
    def test_real_positive(self):
        assert in_stability_domain(1)

    def test_imaginary_part_exceeds_bound(self):
        # bound sqrt(0.5 * 1.5) ~ 0.866 < 1.5
        assert not in_stability_domain(0.5 + 1.5j)

    def test_imaginary_part_within_bound(self):
        # bound sqrt(6) ~ 2.449 > 1
        assert in_stability_domain(2 + 1j)

    def test_grid_equivalence_with_mu(self):
        # stability in s is exactly Re(mu) < 0 away from the boundary
        re = np.linspace(0, 6, 100)
        im = np.linspace(-4, 4, 100)
        for a in re:
            for b in im:
                s = complex(a, b)
                re_mu = mu_of_s(s).real
                if abs(re_mu) < 1e-12:
                    continue
                assert in_stability_domain(s) == (re_mu < 0)


finite = st.floats(-10, 10, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(re=finite, im=finite)
def test_mu_invariant_under_reflection(re, im):
    s = complex(re, im)
    # identical in exact arithmetic; floats add rounding when forming -1-s
    tol = 1e-15 * (1 + abs(s)) ** 2
    assert abs(mu_of_s(s) - mu_of_s(-1 - s)) <= tol


@settings(max_examples=100, deadline=None)
@given(re=finite, im=finite)
def test_canonicalize_properties(re, im):
    s = canonicalize_s(complex(re, im))
    assert s.real >= -0.5
    assert s.imag >= 0
    # idempotent
    assert canonicalize_s(s) == s
    # mu preserved exactly on the real axis, up to conjugation off it
    mu0, mu1 = mu_of_s(complex(re, im)), mu_of_s(s)
    assert mu1 == mu0 or mu1 == mu0.conjugate()


@settings(max_examples=100, deadline=None)
@given(re=st.floats(0.01, 8), im=finite)
def test_stability_matches_mu_sign(re, im):
    s = complex(re, im)
    re_mu = mu_of_s(s).real
    if abs(re_mu) > 1e-12:
        assert in_stability_domain(s) == (re_mu < 0)


class TestParams:
    def test_valid(self):
        p = SpectralParams(k=-2, eps=1.0, x0=0.9, M=100)
        assert p.abs_k == 2

    @pytest.mark.parametrize("kwargs", [
        dict(k=1, eps=-0.1, x0=0.9, M=100),
        dict(k=1, eps=float("nan"), x0=0.9, M=100),
        dict(k=1, eps=float("inf"), x0=0.9, M=100),
        dict(k=1, eps=0.0, x0=float("nan"), M=100),
        dict(k=1, eps=0.0, x0=0.0, M=100),
        dict(k=1, eps=0.0, x0=1.2, M=100),
        dict(k=1, eps=0.0, x0=0.9, M=1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SpectralParams(**kwargs)


class TestRoot:
    def test_complex_pair_storage(self):
        r = Root(2 + 1j, 1e-12, "complex-pair", "series")
        assert in_stability_domain(r.s)
        assert r.mu == mu_of_s(2 + 1j)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Root(1.0, 0.0, "imaginary", "series")
        with pytest.raises(ValueError):
            Root(1.0, 0.0, "real", "guess")
