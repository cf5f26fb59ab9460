from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_spectra import (SpectralParams, coeffs, eigenfunction_coeffs,
                            eval_series, verify)
from sphere_spectra.boundary import _matrices, _stream_rows
from sphere_spectra.series import (BLOCK, PLAIN, coeffs_k0_batch,
                                   coeffs_k_batch, fold_blocks, stream_coeffs)


def params_k(k=1, eps=0.0, M=40, x0=0.9):
    return SpectralParams(k=k, eps=eps, x0=x0, M=M)


def vorticity(p, s, a0, b0):
    """(a, b) from the vorticity seeds alone."""
    sol = coeffs(p, s, (a0, b0, 0.0, 0.0))
    return sol.a, sol.b


def stream(p, a0=0.0, b0=0.0, c0=0.0, d0=0.0, s=1.0):
    """(c, d) of stream_coeffs driven by the batch kernel, for one seed
    vector."""
    k2 = p.abs_k ** 2
    a, b = coeffs_k_batch(k2, p.eps, np.array([s]), (a0, b0), p.M)
    c, d = stream_coeffs(k2, a, b, c0, d0)
    return c[:, 0], d[:, 0]


def test_complex_seeds_at_real_s_stay_complex():
    """At real s the kernels are real-linear in the seeds: the imaginary
    parts of complex seeds run as a second real problem, not dropped."""
    s = np.array([0.7, 2.3, 5.1])
    for kernel in (lambda seeds: coeffs_k_batch(1.0, 4.0, s, seeds, 40),
                   lambda seeds: coeffs_k0_batch(4.0, s, seeds, 40)):
        got = kernel((1.0 + 2.0j, 0.5j))
        re, im = kernel((1.0, 0.0)), kernel((2.0, 0.5))
        assert got[0].dtype == np.complex128 and re[0].dtype == np.float64
        for g, r, i in zip(got, re, im):
            np.testing.assert_array_equal(g, r + 1j * i)


class TestVorticityInitialTerms:
    def test_a1_viscous_limit(self):
        a, b = vorticity(params_k(k=1), s=1.0, a0=1.0, b0=0.0)
        assert a[1] == pytest.approx(-0.5)

    def test_a1_with_coupling(self):
        a, b = vorticity(params_k(k=2, eps=1.0), s=0.0, a0=1.0, b0=2.0)
        assert a[1] == pytest.approx(1.0)

    def test_b1_follows_a1(self):
        # b1 = ((k^2 + 2 - s(s+1)) b0 - 2 eps a1) / 6
        p = params_k(k=1, eps=2.0)
        a, b = vorticity(p, s=1.0, a0=1.0, b0=1.0)
        a1 = ((1 - 2) * 1.0 - 2.0 * 1.0) / 2
        assert a[1] == pytest.approx(a1)
        assert b[1] == pytest.approx(((1 + 2 - 2) * 1.0 - 2 * 2.0 * a1) / 6)

    def test_zero_seeds_stay_zero(self):
        a, b = vorticity(params_k(k=3, eps=5.0), s=2.2 + 1j, a0=0.0, b0=0.0)
        assert np.all(a == 0) and np.all(b == 0)


class TestStreamInitialTerms:
    def test_c1_from_c0(self):
        c, d = stream(params_k(k=1), c0=1.0)
        assert c[1] == pytest.approx(0.5)

    def test_d1_from_d0_and_b0(self):
        # the b0 seed drives d through b[0] = 3 and the k2 = 4 chain
        c, d = stream(params_k(k=2), b0=3.0, d0=1.0)
        assert d[1] == pytest.approx(((4 + 2) * 1.0 + 3.0) / 6)

    def test_all_zero(self):
        c, d = stream(params_k(k=1))
        assert np.all(c == 0) and np.all(d == 0)

    def test_c2_hand_expansion(self):
        # k=2, eps=0, s=2, unit a0 seed: two recurrence steps expand to
        # c1 = 1/2, a1 = -1, c2 = ((4+8)*c1 + a1 - a0)/12 = 1/3
        # (value frozen from an exact symbolic evaluation)
        p = params_k(k=2, eps=0.0)
        sol = coeffs(p, 2.0, (1.0, 0.0, 0.0, 0.0))
        assert sol.c[1] == pytest.approx(0.5)
        assert sol.a[1] == pytest.approx(-1.0)
        assert sol.c[2] == pytest.approx(1.0 / 3.0, abs=1e-15)


class TestK0:
    def test_b0_and_a1(self):
        p = SpectralParams(k=0, eps=1.0, x0=0.9, M=40)
        sol = coeffs(p, 1.0, (1.0, 0.0))
        assert sol.b[0] == pytest.approx(-1.0)
        assert sol.a[1] == pytest.approx(-0.5)

    def test_b1_viscous_free(self):
        p = SpectralParams(k=0, eps=0.0, x0=0.9, M=40)
        sol = coeffs(p, 2.0, (0.0, 1.0))
        assert sol.b[0] == pytest.approx(-6.0)
        assert sol.b[1] == pytest.approx(4.0)

    def test_zero_seeds(self):
        p = SpectralParams(k=0, eps=2.0, x0=0.9, M=40)
        sol = coeffs(p, 1.5, (0.0, 0.0))
        for seq in (sol.a, sol.b, sol.c, sol.d):
            assert np.all(seq == 0)

    def test_defined_at_trivial_eigenvalue(self):
        # S = s(s+1) = 0 drops out of b0 = -eps*a0 - S*d0 and of every step
        p = SpectralParams(k=0, eps=1.0, x0=0.9, M=40)
        for s in (0.0, -1.0):
            sol = coeffs(p, s, (1.0, 2.0))
            assert sol.b[0] == -1.0 and sol.d[0] == 2.0
            np.testing.assert_array_equal(sol.a, coeffs(p, 0.0, (1.0, 2.0)).a)

    def test_trivial_eigenvalue_rejected(self):
        # mu = 0 is the constant mode, not a root of A_0(s)
        p = SpectralParams(k=0, eps=1.0, x0=0.9, M=40)
        with pytest.raises(ValueError):
            eigenfunction_coeffs(p, 0.0)
        with pytest.raises(ValueError):
            eigenfunction_coeffs(p, -1.0)

    def test_c1_consistency_with_compatibility_condition(self):
        # c1 = a0/2 must hold however the recurrences are driven
        p = SpectralParams(k=0, eps=3.0, x0=0.9, M=40)
        sol = coeffs(p, 2.5, (2.0, -1.0))
        assert sol.c[1] == pytest.approx(1.0)
        assert sol.c[0] == 0


class TestEvalSeries:
    def test_constant(self):
        p = params_k(M=5)
        sol = coeffs(p, 1.0, (0.0, 0.0, 0.0, 0.0))
        c = sol.c.copy()
        c[0] = 1.0
        sol = replace(sol, c=c)
        for x in (-0.7, 0.0, 0.5):
            val, der, der2 = eval_series(sol, "psi", x)
            assert val == 1.0 and der == 0.0 and der2 == 0.0

    def test_monomial_x_squared(self):
        p = params_k(M=5)
        base = coeffs(p, 1.0, (0.0, 0.0, 0.0, 0.0))
        c = base.c.copy()
        c[1] = 1.0
        sol = replace(base, c=c)
        val, der, der2 = eval_series(sol, "psi", 0.5)
        assert val == pytest.approx(0.25)
        assert der == pytest.approx(1.0)
        assert der2 == pytest.approx(2.0)

    def test_monomial_x(self):
        p = params_k(M=5)
        base = coeffs(p, 1.0, (0.0, 0.0, 0.0, 0.0))
        d = base.d.copy()
        d[0] = 1.0
        sol = replace(base, d=d)
        val, der, der2 = eval_series(sol, "phi", 0.9)
        assert val == 0.0  # phi reads the a, b sequences
        val, der, der2 = eval_series(sol, "psi", 0.9)
        assert val == pytest.approx(0.9)
        assert der == pytest.approx(1.0)
        assert der2 == 0.0

    def test_odd_and_even_terms_on_an_array(self):
        # psi = 2 + x^3 - x^4: value, first and second derivative
        p = params_k(M=5)
        base = coeffs(p, 1.0, (0.0, 0.0, 0.0, 0.0))
        c, d = base.c.copy(), base.d.copy()
        c[0], c[2], d[1] = 2.0, -1.0, 1.0
        sol = replace(base, c=c, d=d)
        x = np.array([-0.6, 0.0, 0.3, 0.8])
        val, der, der2 = eval_series(sol, "psi", x)
        np.testing.assert_allclose(val, 2 + x ** 3 - x ** 4, atol=1e-15)
        np.testing.assert_allclose(der, 3 * x ** 2 - 4 * x ** 3, atol=1e-15)
        np.testing.assert_allclose(der2, 6 * x - 12 * x ** 2, atol=1e-15)

    def test_domain_check(self):
        p = params_k(M=5)
        sol = coeffs(p, 1.0, (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            eval_series(sol, "psi", 1.0)
        with pytest.raises(ValueError):
            eval_series(sol, "psi", np.array([0.5, -1.0]))
        with pytest.raises(ValueError):
            eval_series(sol, "nope", 0.5)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

seed_vals = st.floats(-3, 3, allow_nan=False)
s_vals = st.complex_numbers(max_magnitude=4, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(s=s_vals, alpha=st.complex_numbers(min_magnitude=0.1, max_magnitude=3,
                                          allow_nan=False,
                                          allow_infinity=False),
       seeds=st.tuples(seed_vals, seed_vals, seed_vals, seed_vals),
       k=st.integers(1, 4), eps=st.floats(0, 6))
def test_linearity_in_seeds(s, alpha, seeds, k, eps):
    passed, detail = verify.series_linearity(params_k(k, eps, M=30), s, seeds,
                                             alpha)
    assert passed, detail


@settings(max_examples=25, deadline=None)
@given(s=s_vals, k=st.integers(1, 4), eps=st.floats(0, 6))
def test_s_reflection_symmetry(s, k, eps):
    passed, detail = verify.series_s_reflection(params_k(k, eps, M=30), s,
                                                (1.0, -0.5, 0.3, 0.8))
    assert passed, detail


@settings(max_examples=25, deadline=None)
@given(s=s_vals, eps=st.floats(0, 6))
def test_k0_s_reflection_symmetry(s, eps):
    passed, detail = verify.series_s_reflection(params_k(0, eps, M=30), s,
                                                (1.0, 0.7))
    assert passed, detail


def test_k_sign_symmetry():
    p_plus = params_k(k=3, eps=2.0)
    p_minus = params_k(k=-3, eps=2.0)
    one = coeffs(p_plus, 1.3 + 0.4j, (1.0, 0.5, -0.2, 0.8))
    two = coeffs(p_minus, 1.3 + 0.4j, (1.0, 0.5, -0.2, 0.8))
    for u, v in zip((one.a, one.b, one.c, one.d),
                    (two.a, two.b, two.c, two.d)):
        np.testing.assert_array_equal(u, v)


def test_parity_decoupling_at_eps_zero():
    passed, detail = verify.series_parity_decoupling(params_k(k=2, eps=0.0),
                                                     1.7)
    assert passed, detail


# ---------------------------------------------------------------------------
# the blocked kernel against a long-double recurrence
# ---------------------------------------------------------------------------

def long_double_vorticity(k2, eps, s, a0, b0, M):
    """(a, b) by the unfused recurrence, one step at a time in long double:
    a[t] from the four previous values, then b[t] with a[t] substituted."""
    L, s = np.longdouble, s.astype(np.clongdouble)
    S, eps, k2 = s * (s + 1), L(eps), L(k2)
    a = np.zeros((M + 2, s.size), np.clongdouble)
    b = np.zeros_like(a)
    a[1], b[1] = a0, b0                        # row 0 is index -1
    for t in range(1, M + 1):
        n = L(2 * t)
        a2, b2, a1, b1 = a[t - 1], b[t - 1], a[t], b[t]
        if k2:
            a[t + 1] = (-(n - 4) * (n - 3) * a2 + eps * (n - 3) * b2
                        + (k2 + 2 * (n - 2) ** 2) * a1 - eps * (n - 1) * b1
                        + S * (a2 - a1)) / (n * (n - 1))
            b[t + 1] = (-(n - 2) * (n - 3) * b2 + eps * (n - 2) * a1
                        + (k2 + 2 * (n - 1) ** 2) * b1 + S * (b2 - b1)) / (
                            (n + 1) * n)
        else:
            a[t + 1] = ((n - 2) * (n - 1) * a1 - eps * (n - 1) * b1
                        - S * a1) / (n * (n - 1))
            b[t + 1] = ((n - 1) * n - S) * b1 / ((n + 1) * n)
        b[t + 1] -= eps / (n + 1) * a[t + 1]
    return a[1:], b[1:]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is float64 on this platform, so "
                           "it cannot serve as the reference")
@pytest.mark.parametrize("x0, M, bound", [(0.9, 150, 4e-14),
                                          (0.99, 1000, 3e-13)])
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("eps", [0.0, 4.0, 12.0])
def test_boundary_rows_match_long_double_recurrence(x0, M, bound, k, eps):
    """The boundary rows of each unit seed, from the float64 coefficients
    and as the boundary matrix carries them through the folded blocks,
    and from the long-double recurrence, agree to the bound in units of
    the rows' term magnitudes |g| @ |a| + |g| @ |b| (the rounding scale of
    the rows themselves), at real s up to 10 and at complex s."""
    s = np.concatenate([np.linspace(0.05, 10, 34),
                        [0.5 + 0.5j, 1.1 + 0.6j, 3.6 + 1j, 5.3 - 1.7j,
                         7.7 + 2.2j, 9 + 3j, 2 + 4j, -0.5 + 3j]])
    k2 = float(k * k)
    g, h, _ = _stream_rows(k2, M, x0)
    gl = g.astype(np.longdouble)
    one, zero = np.ones(s.size), np.zeros(s.size)
    A = _matrices(SpectralParams(k=k, eps=eps, x0=x0, M=M), s)
    for j, seeds in enumerate(((one, zero), (zero, one))):
        if k:
            a, b = coeffs_k_batch(k2, eps, s, seeds, M)
            ra, rb = long_double_vorticity(k2, eps, s, *seeds, M)
        else:
            a, b = coeffs_k0_batch(eps, s, seeds, M)
            sl = s.astype(np.clongdouble)
            b0 = -eps * seeds[0] - sl * (sl + 1) * seeds[1]
            ra, rb = long_double_vorticity(0, eps, s, seeds[0], b0, M)
        ref = gl[:, 0] @ ra + gl[:, 1] @ rb
        scale = np.abs(gl[:, 0]) @ np.abs(ra) + np.abs(gl[:, 1]) @ np.abs(rb)
        assert np.all(np.abs(g[:, 0] @ a + g[:, 1] @ b - ref) <= bound * scale)
        if not k and j:          # the d0 column holds the stream seed's rows
            ref, scale = ref + h[:, 1:], scale + np.abs(h[:, 1:])
        assert np.all(np.abs(A[:, :, j].T - ref) <= bound * scale)


@pytest.mark.parametrize(
    "M", [2, 5, PLAIN, *range(PLAIN + 1, PLAIN + BLOCK + 1), 150])
@pytest.mark.parametrize("k2", [0.0, 1.0, 9.0])
@pytest.mark.parametrize("eps", [0.0, 4.0, 12.0])
def test_folded_rows_match_the_coefficients(M, k2, eps):
    """With the boundary weights g folded into its blocks, the kernel gives
    the rows g @ (a, b) of the coefficients it returns without them, to
    1e-14 of each column's largest row: with no block, and with every
    length of the last one (M = PLAIN + 1 to PLAIN + BLOCK)."""
    seeds = (np.array([1.0, 0.0, 1.0, 0.3, -2.0]),
             np.array([0.0, 1.0, 1.0, 0.7, 0.5]))
    g, _, half = _stream_rows(k2, M, 0.9)
    fold = fold_blocks(k2, eps, M, half)
    for s in (np.array([0.35, 2.9, 7.7, 1.1 + 0.6j, 5.3 - 1.7j]),
              np.array([0.35, 2.9, 7.7, 1.1, 5.3])):
        kernel = ((lambda *f: coeffs_k_batch(k2, eps, s, seeds, M, *f)) if k2
                  else (lambda *f: coeffs_k0_batch(eps, s, seeds, M, *f)))
        a, b = kernel()
        want = g[:, 0] @ a + g[:, 1] @ b
        got = kernel(fold)
        assert got.dtype == want.dtype
        assert np.all(abs(got - want) <= 1e-14 * abs(want).max(0))


@pytest.mark.parametrize("M", [*range(PLAIN + 1, PLAIN + BLOCK + 1), 25, 150,
                               1000])
@pytest.mark.parametrize("k2", [0.0, 1.0, 9.0])
@pytest.mark.parametrize("eps", [0.0, 4.0, 12.0])
def test_coefficients_are_a_prefix_of_the_longer_run(M, k2, eps):
    """The coefficients to M are bit-identical to the first M + 1 of those
    to 3M/2 and to M = 150, so one run to the larger M serves both."""
    seeds = (np.array([1.0, 0.0, 1.0, 0.3, -2.0]),
             np.array([0.0, 1.0, 1.0, 0.7, 0.5]))
    for s in (np.array([0.35, 2.9, 7.7, 1.1 + 0.6j, 5.3 - 1.7j]),
              np.array([0.35, 2.9, 7.7, 1.1, 5.3])):
        kernel = ((lambda m: coeffs_k_batch(k2, eps, s, seeds, m)) if k2
                  else (lambda m: coeffs_k0_batch(eps, s, seeds, m)))
        for longer in {3 * M // 2, max(M, 150)}:
            for short, long_ in zip(kernel(M), kernel(longer)):
                assert short.shape == (M + 1, s.size)
                assert short.tobytes() == long_[:M + 1].tobytes()
