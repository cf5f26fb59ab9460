import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest

from sphere_spectra import (NonFiniteError, ScanConfig, SpectralParams,
                            assemble, det_functional, null_seeds,
                            refine_complex, scan_real_roots, verify)
from sphere_spectra import boundary
from sphere_spectra.boundary import _matrices
from sphere_spectra.contour import contour_zeros

from exact_columns import exact_columns_k, exact_columns_k0, exact_root


class TestAssembleAk:
    def test_matches_exact_reference(self):
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        A = assemble(params, 1.5)
        cols = exact_columns_k(Fr(1), Fr(0), Fr(9, 10), Fr(3, 2), 150)
        ref = np.array([[float(cols[j][i]) for j in range(4)]
                        for i in range(4)])
        scale = np.abs(ref).max()
        np.testing.assert_allclose(A.real, ref, rtol=0, atol=1e-12 * scale)
        assert np.abs(A.imag).max() == 0

    def test_matches_exact_reference_with_coupling(self):
        params = SpectralParams(k=2, eps=1.0, x0=0.8, M=60)
        A = assemble(params, 2.0)
        cols = exact_columns_k(Fr(4), Fr(1), Fr(4, 5), Fr(2), 60)
        ref = np.array([[float(cols[j][i]) for j in range(4)]
                        for i in range(4)])
        scale = np.abs(ref).max()
        np.testing.assert_allclose(A.real, ref, rtol=0, atol=1e-12 * scale)

    def test_parity_blocks_at_eps_zero(self):
        # columns ordered (a0, b0, c0, d0): even seeds feed rows 0, 2 only
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=80)
        passed, detail = verify.block_factorization(params, [1.7])
        assert passed, detail

    def test_pure_c0_column(self):
        params = SpectralParams(k=2, eps=3.0, x0=0.7, M=50)
        A = assemble(params, 1.1 + 0.3j)
        col = A[:, 2]
        assert col[1] == 0 and col[3] == 0
        # the c-chain decouples: c_{m+2} from c alone when a = 0
        k2, M = 4.0, 50
        c = np.zeros(M + 1)
        c[0] = 1.0
        c[1] = k2 * c[0] / 2
        for m in range(M - 1):
            c[m + 2] = ((k2 + 2 * (2 * m + 2) ** 2) * c[m + 1]
                        - 2 * m * (2 * m + 1) * c[m]) / ((2 * m + 4) * (2 * m + 3))
        w = 0.7 ** (2 * np.arange(M + 1))
        assert col[0] == pytest.approx(np.sum(c * w), rel=1e-13)
        assert col[2] == pytest.approx(np.sum(2 * np.arange(M + 1) * c * w),
                                       rel=1e-13)

    def test_dim_follows_k_and_full_sphere_rejected(self):
        assert assemble(SpectralParams(k=0, eps=0, x0=0.9, M=10),
                        1.0).shape == (2, 2)
        assert assemble(SpectralParams(k=1, eps=0, x0=0.9, M=10),
                        1.0).shape == (4, 4)
        for k in (0, 1):
            with pytest.raises(ValueError):
                assemble(SpectralParams(k=k, eps=0, x0=1.0, M=10), 1.0)


class TestAssembleA0:
    def test_matches_exact_reference(self):
        params = SpectralParams(k=0, eps=1.0, x0=0.9, M=100)
        A = assemble(params, 1.8)
        cols = exact_columns_k0(Fr(1), Fr(9, 10), Fr(9, 5), 100)
        ref = np.array([[float(cols[j][i]) for j in range(2)]
                        for i in range(2)])
        scale = np.abs(ref).max()
        np.testing.assert_allclose(A.real, ref, rtol=0, atol=1e-12 * scale)

    def test_viscous_seed_kills_odd_chain(self):
        # seed (1, 0) with eps = 0: b0 = 0, so entry (2,1) vanishes
        params = SpectralParams(k=0, eps=0.0, x0=0.9, M=60)
        A = assemble(params, 2.4)
        assert A[1, 0] == 0

    def test_column_linearity(self):
        params = SpectralParams(k=0, eps=1.0, x0=0.9, M=60)
        one = _matrices(params, np.array([1.8 + 0j]))[0]
        # doubling the seeds doubles the columns; unit-seed columns scale
        cols = exact_columns_k0(Fr(1), Fr(9, 10), Fr(9, 5), 60)
        ref = np.array([[float(cols[j][i]) for j in range(2)]
                        for i in range(2)])
        np.testing.assert_allclose((2 * one).real, 2 * ref, rtol=1e-12)

    def test_rejects_trivial_mu(self):
        params = SpectralParams(k=0, eps=1.0, x0=0.9, M=40)
        with pytest.raises(ValueError):
            assemble(params, 0.0)


class TestDetF:
    def test_identity(self):
        """F is the determinant of the boundary matrix itself, bit for bit,
        at real and complex s: no column is rescaled."""
        for k in (0, 1, 3):
            params = SpectralParams(k=k, eps=4.0, x0=0.9, M=150)
            s = np.array([0.35, 2.9, 1.1 + 0.6j, 5.3 - 1.7j])
            F = det_functional(params)
            for z in s:
                z = z.real if z.imag == 0 else z
                want = np.linalg.det(assemble(params, z))
                assert F(np.array([z]))[0] == want

    def test_zero_column(self, monkeypatch):
        """A stack with a zero column has F = 0, and one with columns of
        sizes 2, 3, 5, 7 has F = 210, not 1."""
        entries = np.diag([2.0, 3.0, 5.0, 7.0])[None].repeat(2, 0)
        entries[1, :, 2] = 0
        monkeypatch.setattr(boundary, "_matrices",
                            lambda params, s, fold=None: entries)
        F = det_functional(SpectralParams(k=1, eps=0.0, x0=0.9, M=150))
        assert F(np.array([1.0, 2.0])).tolist() == [pytest.approx(210), 0]

    def test_nonfinite_rejected(self):
        # the M = 150 recurrence overflows at s = 1284 for x0 = 0.899, and
        # its determinant (1e390) at s = 600, where the entries reach 1e196
        params = SpectralParams(k=1, eps=4.25, x0=0.899, M=150)
        F = det_functional(params)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in (1284.37, 600.0, 600.0 + 1j):
                with pytest.raises(NonFiniteError):
                    F(np.array([s]))
            with pytest.raises(NonFiniteError):
                assemble(params, 1284.37)

    def test_first_root_bracket_matches_oracle(self):
        # the oracle value 2.2359585 comes from the shooting integrator
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        F = det_functional(params)
        lo, hi = F(np.array([2.2]))[0].real, F(np.array([2.3]))[0].real
        assert lo * hi < 0
        root = scan_real_roots(F, ScanConfig(2.0, 2.5))[0]
        assert root.s.real == pytest.approx(2.2359585, abs=1e-6)


class TestDetSymmetries:
    def test_reflection(self):
        rng = np.random.default_rng(7)
        params = SpectralParams(k=2, eps=1.5, x0=0.8, M=80)
        s = [complex(rng.uniform(-0.4, 4), rng.uniform(-2, 2))
             for _ in range(5)]
        passed, detail = verify.det_reflection(params, s)
        assert passed, detail

    def test_roots_invariant_under_seed_rescaling(self):
        """Rescaled seed columns multiply F by the product of the factors
        at every point of the scan grid, so a scan finds the same roots.
        At the roots F is rounding noise (one reads 0.0), so there the
        product is held to rounding of the columns' sizes instead."""
        params = SpectralParams(k=1, eps=2.0, x0=0.85, M=100)
        cfg = ScanConfig(0.0, 5.0)
        roots = [r.s.real for r in scan_real_roots(det_functional(params),
                                                   cfg)]
        grid = np.arange(cfg.s_min, cfg.s_max + 0.5 * cfg.step, cfg.step)
        assert roots
        scale = np.array([2.0, 0.5, 3.0, 1.0])
        passed, detail = verify.seed_scaling(params, grid, scale)
        assert passed, detail
        A = _matrices(params, np.array(roots))
        rescaled = np.linalg.det(A * scale)
        size = np.prod(np.abs(scale)) * np.prod(np.abs(A).max(axis=1), 1)
        gap = np.abs(rescaled - np.prod(scale) * det_functional(params)(roots))
        assert np.all(gap <= 1e-12 * size), gap / size


def test_roots_stable_under_truncation_refinement():
    # first roots move by < 1e-6 when M grows by 25 (x0 <= 0.9, eps <= 4)
    cfg = ScanConfig(0.0, 8.0)
    for k, eps in ((1, 2.0), (3, 4.0)):
        r1 = [r.s.real for r in scan_real_roots(
            det_functional(SpectralParams(k=k, eps=eps, x0=0.9, M=150)), cfg)]
        r2 = [r.s.real for r in scan_real_roots(
            det_functional(SpectralParams(k=k, eps=eps, x0=0.9, M=175)), cfg)]
        n = min(len(r1), len(r2), 5)
        assert n > 0
        np.testing.assert_allclose(r1[:n], r2[:n], atol=1e-6)


def test_null_seeds_span_kernel_at_root():
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
    root = scan_real_roots(det_functional(params), ScanConfig(2.0, 2.5))[0]
    mat = assemble(params, root.s)
    seeds = null_seeds(mat)
    residual = np.abs(mat @ seeds).max()
    scale = np.abs(mat).max() * np.abs(seeds).max()
    assert residual < 1e-9 * scale


def four_sequence_matrices(k, eps, x0, s, M):
    """Reference boundary matrices, shape (len(s), dim, dim): the plain
    coupled recurrences for all four sequences (a, b, c, d), one unit seed
    per column, in float arithmetic, summed against the boundary weights."""
    S = s * (s + 1)
    m = np.arange(M + 1)
    w = x0 ** (2 * m)
    k2 = k * k
    dim = 4 if k else 2
    out = np.zeros((s.size, dim, dim), complex)
    for j in range(dim):
        a, b, c, d = (np.zeros((M + 1, s.size), complex) for _ in range(4))
        if k:
            a[0], b[0], c[0], d[0] = (float(i == j) for i in range(4))
            a[1] = ((k2 - S) * a[0] - eps * b[0]) / 2
            b[1] = ((k2 + 2 - S) * b[0] - 2 * eps * a[1]) / 6
            c[1] = (k2 * c[0] + a[0]) / 2
            d[1] = ((k2 + 2) * d[0] + b[0]) / 6
            for i in range(M - 1):
                p, q = 2 * i + 2, 2 * i + 3
                a[i + 2] = ((k2 - S + 2 * p * p) * a[i + 1]
                            + (S - 2 * i * (2 * i + 1)) * a[i]
                            - eps * q * b[i + 1] + eps * (2 * i + 1) * b[i]
                            ) / ((2 * i + 4) * (2 * i + 3))
                b[i + 2] = ((k2 - S + 2 * q * q) * b[i + 1]
                            + (S - (2 * i + 2) * (2 * i + 1)) * b[i]
                            - eps * (2 * i + 4) * a[i + 2] + eps * p * a[i + 1]
                            ) / ((2 * i + 5) * (2 * i + 4))
                c[i + 2] = ((k2 + 2 * p * p) * c[i + 1]
                            - 2 * i * (2 * i + 1) * c[i] + a[i + 1] - a[i]
                            ) / ((2 * i + 4) * (2 * i + 3))
                d[i + 2] = ((k2 + 2 * q * q) * d[i + 1]
                            - (2 * i + 2) * (2 * i + 1) * d[i] + b[i + 1] - b[i]
                            ) / ((2 * i + 5) * (2 * i + 4))
            rows = (w @ c, w @ d, (2 * m * w) @ c, ((2 * m + 1) * w) @ d)
        else:
            a0, d0 = float(j == 0), float(j == 1)
            a[0], b[0], d[0] = a0, -eps * a0 - S * d0, d0
            for i in range(M):
                a[i + 1] = ((2 * i * (2 * i + 1) - S) * a[i]
                            - eps * (2 * i + 1) * b[i]) / ((2 * i + 2) * (2 * i + 1))
                b[i + 1] = (((2 * i + 1) * (2 * i + 2) - S) * b[i]
                            - eps * (2 * i + 2) * a[i + 1]) / ((2 * i + 3) * (2 * i + 2))
                c[i + 1] = (2 * i * (2 * i + 1) * c[i] + a[i]) / ((2 * i + 2) * (2 * i + 1))
                d[i + 1] = ((2 * i + 1) * (2 * i + 2) * d[i] + b[i]) / ((2 * i + 3) * (2 * i + 2))
            rows = ((2 * m * w) @ c, ((2 * m + 1) * w) @ d)
        out[:, :, j] = np.stack(rows, 1)
    return out


@pytest.mark.parametrize("k, eps, x0, M", [
    (1, 0.0, 0.9, 150), (3, 4.0, 0.9, 150), (1, 12.0, 0.9, 150),
    (0, 1.0, 0.9, 150), (0, 4.0, 0.97, 300), (1, 2.0, 0.99, 2000)])
def test_fused_matrices_match_four_sequence_recurrence(k, eps, x0, M):
    """The (a, b)-only kernel with s-independent stream functionals gives
    the determinant of the full four-sequence recurrence."""
    s = np.array([0.35, 1.3, 2.9, 4.45, 6.2, 7.7,
                  1.1 + 0.6j, 3.6 + 1.0j, 5.3 - 1.7j, 7.4 + 2.2j])
    params = SpectralParams(k=k, eps=eps, x0=x0, M=M)
    got = np.linalg.det(_matrices(params, s))
    want = np.linalg.det(four_sequence_matrices(k, eps, x0, s, M))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("eps", [4.0, 11.0, 12.0])
def test_det_functional_values_do_not_depend_on_the_batch(k, eps):
    """Each point's F value is bit-identical whatever batch it is evaluated
    in, so a batched root finder follows the iterates of one-point calls."""
    s = np.array([0.35, 2.9, 1.1 + 0.6j, 4.45, 3.6 + 1.0j, 5.3 - 1.7j,
                  7.7 + 2.2j])
    s = np.concatenate([s, np.linspace(0.2, 7.9, 33)
                        + 1j * np.resize([0, 0.4, 0, -1.3], 33)])
    F = det_functional(SpectralParams(k=k, eps=eps, x0=0.9))
    alone = np.concatenate([F(s[i:i + 1]) for i in range(s.size)])
    for size in (2, 3, 4, 5, 7, 8, 16, 33):
        batched = np.concatenate([F(s[i:i + size])
                                  for i in range(0, s.size, size)])
        assert batched.tobytes() == alone.tobytes(), size
    grid = 0.05 * np.arange(1, 162)          # a scan grid's 161 points
    alone = np.concatenate([F(grid[i:i + 1]) for i in range(grid.size)])
    assert F(grid).tobytes() == alone.tobytes()
    # a real grid at M = 1000, and the same grid shifted off the axis: a
    # product over 1001 coefficients depended on the batch under threaded
    # BLAS unless the batch was its rows
    F = det_functional(SpectralParams(k=k, eps=eps, x0=0.99, M=1000))
    grid = np.linspace(0.1, 9.9, 67)
    for grid in (grid, grid + 0.3j):         # float64, then complex
        alone = np.concatenate([F(grid[i:i + 1]) for i in range(grid.size)])
        assert F(grid).tobytes() == alone.tobytes()


def test_det_functional_memory_does_not_grow_with_the_truncation():
    """A call keeps no table of the M + 1 coefficients per column: 2048
    complex points on an ellipse in mu, as a contour count would take
    them, trace at most 8 MB (24.4 MB with the table)."""
    F = det_functional(SpectralParams(k=1, eps=4.0, x0=0.9, M=150))
    theta = 2 * np.pi * (np.arange(2048) + 0.5) / 2048
    mu = -55 + 60 * np.cos(theta) + 30j * np.sin(theta)
    s = -0.5 + np.sqrt(0.25 - mu)            # -s(s + 1) = mu
    tracemalloc.start()
    try:
        F(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("eps", [0.0, 4.0, 12.0])
def test_det_functional_is_float_at_real_s(k, eps):
    """Real s runs in float64.  Its matrices are within 1e-13 of the same
    points passed as complex, relative to each column's largest entry, and
    so are its values, relative to the product of those entries (a value's
    own relative error grows as cancellation makes it small)."""
    params = SpectralParams(k=k, eps=eps, x0=0.9)
    s = np.linspace(0.05, 9.95, 67)
    real, cplx = _matrices(params, s), _matrices(params, s.astype(complex))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    scale = np.abs(cplx).max(axis=1, keepdims=True)
    assert np.all(np.abs(real - cplx) <= 1e-13 * scale)
    F = det_functional(params)
    real, cplx = F(s), F(s.astype(complex))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.all(np.abs(real - cplx) <= 1e-13 * np.prod(scale, (1, 2)))


# stable complex pairs of k = 1, eps = 4, x0 = 0.9, M = 150 in [0, 10]
PAIRS = np.array([3.59581632060489 + 0.986270221317855j,
                  6.27396204201547 + 1.09395330130495j,
                  8.97989989110395 + 1.08864466600982j])


def test_determinant_is_analytic_for_contour_counts():
    """F is the determinant itself, analytic in s, so Delves-Lyness on it
    finds the three k = 1, eps = 4 pairs from 1024 points on the
    mu-ellipse (-55, 60, 30): 6 zeros, an FFT tail below 1e-12 and every
    zero within 1e-10 of a pair.  With its columns normalized, F gives
    the same count, but a tail of 4.4e-7 and zeros 2.8 off.  (512 points
    give the same zeros, but a tail of 5e-10: the pair at mu = -88 - 21i
    lies near the ellipse.)"""
    F = det_functional(SpectralParams(k=1, eps=4.0, x0=0.9, M=150))
    count, s, tail = contour_zeros(F, -55.0, 60.0, 30.0, 1024)
    assert count == 6 and s.size == 3       # one zero per conjugate pair
    assert tail < 1e-12, tail
    gaps = np.abs(s[:, None] - PAIRS).min(axis=1)
    assert np.all(gaps < 1e-10), gaps


def test_series_roots_match_40_digit_roots():
    """The float64 roots are within 1e-10 of the 40-digit roots of the
    same truncated determinant: the real roots of k = 1, eps = 0 and of
    k = 3, eps = 4 in [0, 8], and the three k = 1, eps = 4 pairs that
    refine_complex polishes from PAIRS, all at x0 = 0.9, M = 150."""
    cases = []
    for k, eps in ((1, 0.0), (3, 4.0)):
        roots = scan_real_roots(det_functional(
            SpectralParams(k=k, eps=eps, x0=0.9, M=150)), ScanConfig())
        assert roots
        cases += [(k, eps, r.s.real) for r in roots]
    F = det_functional(SpectralParams(k=1, eps=4.0, x0=0.9, M=150))
    cases += [(1, 4.0, r.s) for r in refine_complex(F, PAIRS)]
    gaps = [abs(s - complex(exact_root(k, eps, 0.9, 150, s)))
            for k, eps, s in cases]
    assert max(gaps) < 1e-10, gaps
