import warnings

import numpy as np
import pytest

from sphere_spectra import (NonFiniteError, ScanConfig, SpectralParams,
                            scan_real_roots, shoot_functional)
from sphere_spectra import oracle as oracle_mod


def _values(params, problem, s, n_steps, block=None, degree=None):
    """The oracle's (values, log10 factors) at s with blocks of block steps
    kept to mu**degree (by default the whole polynomial, 4 block), or with
    the block and degree a fresh functional picks for s."""
    if block is None:
        f = shoot_functional(params, n_steps)
        f(s)
        block, degree = f.meta["block"], f.meta["degree"]
    return oracle_mod._values(problem, s, oracle_mod._blocks(
        params, problem, n_steps, block, degree or 4 * block))


def _rescaled(value, scale, ref):
    """The functional's value for the oracle's (value, scale): value *
    10**(scale - ref), the exponent clipped to at most 300 and to at least
    what keeps a nonzero |value| <= 1 at 1e-300 or more."""
    low = -300 - np.log10(np.abs(value), where=value != 0,
                          out=np.zeros(np.shape(value)))
    return value * 10.0 ** np.clip(scale - ref, low, 300)


@pytest.mark.parametrize("k, eps", [(1, 0.0), (1, 4.0), (0, 1.0), (0, 4.0)])
def test_real_s_runs_in_float(k, eps):
    """Real s runs in float64, within 1e-13 of the same points passed as
    complex: the residual of orthonormal trajectories is of size 1 at
    most, so this is relative to its scale."""
    F = shoot_functional(SpectralParams(k=k, eps=eps, x0=0.9))
    s = np.linspace(0.05, 9.95, 67)
    real, cplx = F(s), F(s.astype(complex))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    np.testing.assert_allclose(real, cplx, rtol=0, atol=1e-13)


class TestShootK:
    def test_nonzero_residual_off_spectrum(self):
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        value = shoot_functional(params)(0.5)[0]
        assert abs(value) > 1e-6
        # the default is 2000 steps
        assert value == _values(params, "k", 0.5, 2000)[0][0]

    def test_richardson_error_small(self):
        # RK4: halving the step cuts the error ~16x, so the difference
        # between the runs at n and n // 2 steps is ~15x the fine-run error
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        v, sc = _values(params, "k", 0.5, 2000)
        v_half, sc_half = _values(params, "k", 0.5, 1000)
        err = abs(v[0] * 10.0 ** sc[0] - v_half[0] * 10.0 ** sc_half[0]) / 15
        assert err < 1e-8 * abs(v[0])

    def test_near_full_sphere_first_root(self):
        # Dirichlet eigenvalue approaching the full-sphere limit s = 3
        params = SpectralParams(k=3, eps=0.0, x0=0.99, M=150)
        roots = scan_real_roots(shoot_functional(params),
                                ScanConfig(2.5, 3.5), source="oracle")
        assert roots and abs(roots[0].s.real - 3.0) < 0.05
        assert roots[0].source == "oracle"

    def test_requires_interior_x0_and_two_steps(self):
        for k in (1, 0):
            with pytest.raises(ValueError, match="0 < x0 < 1"):
                shoot_functional(SpectralParams(k=k, eps=0.0, x0=1.0, M=10))
            with pytest.raises(ValueError, match="at least 2 steps"):
                shoot_functional(SpectralParams(k=k, eps=0.0, x0=0.9, M=10),
                                 n_steps=1)

    def test_problem_follows_k(self):
        # k = 0 selects the two-component chi system, whose residual is
        # chi(x0); the functional runs the problem that k selects
        for k, problem in ((0, "chi"), (1, "k")):
            params = SpectralParams(k=k, eps=1.0, x0=0.9, M=10)
            value = shoot_functional(params, n_steps=400)(np.array([1.7]))[0]
            ref = _values(params, problem, 1.7, 400)[0][0]
            assert value == ref
        k0 = SpectralParams(k=0, eps=1.0, x0=0.9, M=10)
        k1 = SpectralParams(k=1, eps=1.0, x0=0.9, M=10)
        assert (shoot_functional(k0, 400)(1.7)[0]
                != shoot_functional(k1, 400)(1.7)[0])


class TestShootK0:
    def test_negativity(self):
        params = SpectralParams(k=0, eps=4.0, x0=0.9, M=100)
        functional = shoot_functional(params, n_steps=1200)
        roots = scan_real_roots(functional, ScanConfig(0.05, 8.0),
                                source="oracle")
        assert roots
        assert all(r.mu.real < 0 for r in roots)


class TestShootChi:
    def test_high_reynolds_limits(self):
        params = SpectralParams(k=0, eps=4.0, x0=0.99, M=10)
        functional = shoot_functional(params, n_steps=1500)
        roots = scan_real_roots(functional, ScanConfig(1.5, 2.5),
                                source="oracle")
        assert len(roots) == 1
        assert abs(roots[0].s.real - 2.0) < 0.1
        value = _rescaled(*_values(params, "chi", 2.0, 1500),
                          functional.meta["log_scale_ref"])[0]
        assert abs(value) == pytest.approx(
            abs(functional(np.array([2.0 + 0j]))[0]), rel=1e-12)

    def test_viscous_limits(self):
        functional = shoot_functional(
            SpectralParams(k=0, eps=0.0, x0=0.99, M=10), n_steps=1500)
        roots = scan_real_roots(functional, ScanConfig(0.5, 1.5),
                                source="oracle")
        assert len(roots) == 1
        assert abs(roots[0].s.real - 1.0) < 0.1


class TestOracleRoots:
    def test_synthetic_residual(self):
        F = lambda s: (np.asarray(s, complex) - 1) * (np.asarray(s, complex) - 4)
        roots = scan_real_roots(F, ScanConfig(0.0, 5.0, 0.1),
                                source="oracle")
        assert [round(r.s.real, 9) for r in roots] == [1.0, 4.0]


def test_richardson_root_stability():
    """Halving the integration step moves the roots by far less than the
    oracle-equivalence tolerance."""
    params = SpectralParams(k=1, eps=1.0, x0=0.9, M=150)
    cfg = ScanConfig(2.0, 4.0)
    coarse = [r.s.real for r in
              scan_real_roots(shoot_functional(params, n_steps=1000), cfg,
                              source="oracle")]
    fine = [r.s.real for r in
            scan_real_roots(shoot_functional(params, n_steps=2000), cfg,
                            source="oracle")]
    assert len(coarse) == len(fine) > 0
    np.testing.assert_allclose(coarse, fine, atol=1e-8)


# An independent reference for the oracle's step maps: classical staged RK4
# with one rhs closure per problem, in the precision of s and x0
# (np.longdouble for the accuracy check below), rescaled only on request.
def _rhs_k(k2, eps, mu):
    def rhs(x, y):
        om = 1 - x * x
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = (y[2] + 2 * x * y[1] + k2 * y[0] / om) / om
        out[2] = y[3]
        out[3] = (mu * y[2] + (2 * x - eps) * y[3] + k2 * y[2] / om) / om
        return out
    return rhs


def _rhs_chi(eps, mu):
    def rhs(x, y):
        om = 1 - x * x
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = (mu * y[0] + 2 * x * y[1]
                  + (eps * eps + 4 + 4 * eps * x) * y[0] / (4 * om)) / om
        return out
    return rhs


# problem: (state dimension, start component of each trajectory, rhs
# factory, residual of the end states e[trajectory][component])
_REFERENCE = {
    "k": (4, (2, 3), lambda p, mu: _rhs_k(p.abs_k ** 2, p.eps, mu),
          lambda e: e[0][0] * e[1][1] - e[0][1] * e[1][0]),
    "chi": (2, (1,), lambda p, mu: _rhs_chi(p.eps, mu), lambda e: e[0][0]),
}


def test_every_problem_has_its_long_double_reference():
    """The staged RK4 reference covers the oracle's problems, no more and
    no fewer, with the same state dimension and start components."""
    assert _REFERENCE.keys() == oracle_mod._PROBLEMS.keys()
    for name, (dim, starts, *_) in oracle_mod._PROBLEMS.items():
        assert (dim, tuple(starts)) == _REFERENCE[name][:2], name


def _staged_run(params, problem, s, n_steps, real=np.float64,
                threshold=np.inf):
    """Residual of one staged RK4 run per start trajectory and its log10
    factor: at every oracle checkpoint, each state vector whose largest
    entry exceeds threshold is divided by that entry."""
    dim, starts, make_rhs, residual = _REFERENCE[problem]
    s = np.asarray(s)
    rhs = make_rhs(params, -s * (s + 1))
    x0 = real(params.x0)
    h = 2 * x0 / n_steps
    ends, scale = [], np.zeros(s.size)
    for comp in starts:
        y = np.zeros((dim, s.size), dtype=np.result_type(s, x0))
        y[comp] = 1
        for i in range(n_steps):
            x = -x0 + i * h
            k1 = rhs(x, y)
            k2 = rhs(x + h / 2, y + (h / 2) * k1)
            k3 = rhs(x + h / 2, y + (h / 2) * k2)
            k4 = rhs(x + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if (i + 1) % oracle_mod.RENORM_CHECK_EVERY == 0:
                mags = np.abs(y).max(axis=0)
                factor = np.where(mags > threshold, mags, 1.0)
                y = y / factor
                scale += np.log10(factor)
        ends.append(y)
    return residual(ends), scale


def _staged_residual(params, problem, s, n_steps, real=np.float64):
    """Residual of one staged RK4 run per start trajectory, unscaled."""
    return _staged_run(params, problem, s, n_steps, real)[0]


def test_renormalization_preserves_roots():
    """Orthonormalizing at every checkpoint rescales the residual (its
    log10 factor is kept) without moving the roots of the unscaled staged
    RK4."""
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
    cfg = ScanConfig(2.0, 4.0)
    plain = [r.s.real for r in
             scan_real_roots(lambda s: _staged_residual(params, "k", s, 800),
                             cfg, source="oracle")]
    scaled = [r.s.real for r in
              scan_real_roots(shoot_functional(params, n_steps=800), cfg,
                              source="oracle")]
    value, log_scale = _values(params, "k", [2.5], 800)
    assert log_scale[0] != 0.0
    assert (value[0] * 10 ** log_scale[0]
            == pytest.approx(_staged_residual(params, "k", [2.5], 800)[0],
                             rel=1e-9))
    assert len(plain) == len(scaled) > 0
    np.testing.assert_allclose(plain, scaled, atol=1e-9)


@pytest.mark.parametrize("threshold", [1e100, 0.1])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("k, eps, problem", [
    (1, 1.0, "k"), (0, 1.0, "chi"), (0, 4.0, "chi")])
def test_batched_trajectories_match_separate_runs(k, eps, problem, n,
                                                  threshold):
    """All start trajectories advanced in one orthonormalized state give,
    with their log10 factor put back, the residual of one staged RK4 run
    per trajectory, whether that run is never rescaled (threshold 1e100)
    or rescaled at every checkpoint (0.1), at 300 and 2000 steps."""
    params = SpectralParams(k=k, eps=eps, x0=0.9, M=10)
    s = np.array([0.5, 1.7, 2.3 + 0.4j, 3.1, 5.0])[:n]
    for n_steps in (300, 2000):
        assert oracle_mod._problem(params, n_steps) == problem
        value, scale = _values(params, problem, s, n_steps)
        ref, ref_scale = _staged_run(params, problem, s, n_steps,
                                     threshold=threshold)
        assert np.all(scale != 0)
        assert np.all(ref_scale != 0) == (threshold < 1)
        np.testing.assert_allclose(value * 10.0 ** scale,
                                   ref * 10.0 ** ref_scale,
                                   rtol=1e-12, atol=0)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is float64 on this platform, so "
                           "it cannot resolve the RK4 map beyond float64")
def test_roots_bracketed_by_long_double_rk4():
    """Each k = 3, eps = 4 oracle root lies within 1e-11 of the root of the
    same RK4 map run in extended precision: the residual changes sign
    across it.  Without orthonormalization the 2x2 determinant of two nearly
    aligned trajectories cancels, and the root near 7.3296 lands 1.15e-10
    off."""
    params = SpectralParams(k=3, eps=4.0, x0=0.9, M=10)
    roots = np.array([r.s.real for r in
                      scan_real_roots(shoot_functional(params),
                                      ScanConfig(0.0, 8.0), source="oracle")])
    assert len(roots) == 4
    s = roots.astype(np.longdouble)
    d = np.longdouble(1e-11)
    vals = _staged_residual(params, "k", np.concatenate([s - d, s + d]), 2000,
                            real=np.longdouble)
    assert np.all(vals[:4] * vals[4:] < 0), roots


def test_unstable_step_refused():
    params = SpectralParams(k=1, eps=1000.0, x0=0.9, M=10)
    shoot_functional(params, n_steps=3414)
    with pytest.raises(ValueError, match="at 2000 steps"):
        shoot_functional(params, n_steps=2000)


def test_overflow_reported_without_numpy_warnings():
    # mu = -s(s+1) ~ -1e8 is far outside what the step resolves (the
    # functional refuses it); the state overflows, and at degree 64 so does
    # mu^64, and only the NonFiniteError reports it
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block, degree in ((1, 4), (100, 64)):
            with pytest.raises(NonFiniteError):
                _values(params, "k", np.array([1e4]), 2000, block, degree)


@pytest.mark.parametrize("k", [1, 3, 0])
def test_step_check_is_the_spectral_radius(k):
    """The closed-form stiffness of the step check is h times the largest
    |eig(A0(x) + mu A1(x))| that numpy's eigvals find on the step grid, at
    real mu of either sign and at complex mu."""
    params = SpectralParams(k=k, eps=4.0, x0=0.9, M=10)
    problem = oracle_mod._problem(params, 2000)
    h = 2 * 0.9 / 2000
    x = -0.9 + np.arange(2001) * h
    a0, a1 = oracle_mod._PROBLEMS[problem][2](params, x, 1 - x * x)
    for mu in (0.0, -72.0, 30.0, -500 + 80j):
        ref = h * np.abs(np.linalg.eigvals(a0 + mu * a1)).max()
        assert (oracle_mod._check_steps(params, problem, 2000, mu)
                == pytest.approx(ref, rel=1e-12))


def test_later_call_past_checked_mu_is_checked():
    """Only a functional's first call had its largest |mu| checked, so a
    later call further out ran an unstable step.  Now such a call is
    refused; a stable one gets the shorter blocks a fresh functional builds
    for it, and at the stiff end the blocks are single steps."""
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=10)
    f = shoot_functional(params)
    f(np.arange(0.05, 8.0, 0.05))
    chunk = oracle_mod.RENORM_CHECK_EVERY
    assert (f.meta["block"], f.meta["degree"]) == (chunk, 16)
    # h * |eig| is 3.1 at s = 1500.3 and 2000 steps
    with pytest.raises(ValueError, match="at 2000 steps"):
        f(np.array([1.0, 1500.3]))
    assert (f.meta["block"], f.meta["degree"]) == (chunk, 16)
    s = np.array([2.5, 500.3])
    later = f(s)
    fresh = shoot_functional(params)
    first = fresh(s)
    # the same blocks and values, each over its functional's first-call factor
    v, scale = _values(params, "k", s, 2000, fresh.meta["block"],
                       fresh.meta["degree"])
    assert later.tobytes() == _rescaled(
        v, scale, f.meta["log_scale_ref"]).tobytes()
    assert first.tobytes() == _rescaled(v, scale, scale.max()).tobytes()
    assert f.meta["log_scale_ref"] != fresh.meta["log_scale_ref"]
    assert f.meta | {"log_scale_ref": 0} == fresh.meta | {"log_scale_ref": 0}
    assert 1 < f.meta["block"] < chunk
    value = f(np.array([1000.3]))[0]
    assert (f.meta["block"], f.meta["degree"]) == (1, 4)
    assert value == _rescaled(*_values(params, "k", 1000.3, 2000, block=1),
                              f.meta["log_scale_ref"])[0]


def test_later_call_raises_degree(monkeypatch):
    """A later call past the checked |mu| that keeps the block length but
    fails the truncation check at the kept degree rebuilds the blocks once,
    at the next degree of the ladder: the values a fresh functional gives."""
    builds = []
    blocks = oracle_mod._blocks
    monkeypatch.setattr(oracle_mod, "_blocks", lambda *a: builds.append(
        a[-2:]) or blocks(*a))
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=10)
    f = shoot_functional(params)
    f(np.arange(0.05, 8.0, 0.05))
    f(np.array([1.0, 7.0]))
    assert builds == [(100, 16)]
    s = np.array([2.5, 17.0])
    later = f(s)
    assert builds == [(100, 16), (100, 32)]
    assert (f.meta["block"], f.meta["degree"]) == (100, 32)
    fresh = shoot_functional(params)
    fresh(s)
    assert fresh.meta | {"log_scale_ref": 0} == f.meta | {"log_scale_ref": 0}
    assert builds[2:] == [(100, 16), (100, 32)]
    f(np.array([17.0]))     # no further build
    assert len(builds) == 4
    v, scale = _values(params, "k", s, 2000, 100, 32)
    assert later.tobytes() == _rescaled(
        v, scale, f.meta["log_scale_ref"]).tobytes()


@pytest.mark.parametrize("k, eps, problem", [
    (1, 0.0, "k"), (3, 4.0, "k"), (1, 12.0, "k"), (0, 1.0, "chi"),
    (0, 4.0, "chi")])
def test_truncated_blocks_match_full_composition(k, eps, problem):
    """The blocks a functional keeps to its degree D hold the coefficients
    of the whole composition (degree 4 block) up to mu^D, to rounding, and
    at the largest |mu| checked, real or complex, they evaluate within
    1e-15 of the whole polynomial's summed term magnitudes (Horner sums,
    which stay finite where |mu|^(4 block) overflows)."""
    params = SpectralParams(k=k, eps=eps, x0=0.9)
    f = shoot_functional(params)
    s = np.linspace(0.05, 8.05, 161)
    f(s)
    block, degree = f.meta["block"], f.meta["degree"]
    assert degree < 4 * block
    kept = oracle_mod._blocks(params, problem, 2000, block, degree)
    whole = oracle_mod._blocks(params, problem, 2000, block, 4 * block)
    np.testing.assert_allclose(kept, whole[:, :degree + 1], rtol=4e-15,
                               atol=0)

    def horner(c, mu):
        acc = 0
        for a in range(c.shape[1] - 1, -1, -1):
            acc = acc * mu + c[:, a]
        return acc
    top = abs(s[-1] * (s[-1] + 1))
    for mu in (-top, top * np.exp(0.7j)):
        value = np.einsum("a,cae->ce", mu ** np.arange(degree + 1), kept)
        ref, size = horner(whole, mu), horner(abs(whole), top)
        assert np.all(abs(value - ref) <= 1e-15 * size)


def test_rescaled_value_stays_finite_and_nonzero(monkeypatch):
    """The functional returns the residual times 10**(scale - L), L the
    largest log10 factor of its first call.  An exponent past the float
    range is clipped: a nonzero value neither underflows to zero nor
    overflows, and a zero stays zero."""
    out = iter([(np.array([1e-5, 0.5, -1e-20, 0.0]),
                 np.array([0.0, -1000.0, 2000.0, 5.0])),
                (np.array([-0.25]), np.array([2500.0]))])
    monkeypatch.setattr(oracle_mod, "_values", lambda *args: next(out))
    f = shoot_functional(SpectralParams(k=1, eps=0.0, x0=0.9, M=10))
    first = f(np.array([1.0, 2.0, 3.0, 4.0]))
    assert f.meta["log_scale_ref"] == 2000.0
    assert first[2:].tolist() == [-1e-20, 0.0]
    assert first[:2] == pytest.approx([1e-300, 1e-300], rel=1e-12, abs=0)
    assert f(np.array([5.0])) == pytest.approx([-0.25e300], rel=1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is float64 on this platform, so "
                           "it cannot resolve the RK4 map beyond float64")
@pytest.mark.parametrize("n_steps", [2000, 2003, 4458])
@pytest.mark.parametrize("k, eps, problem", [
    (1, 0.0, "k"), (3, 4.0, "k"), (0, 1.0, "chi"), (0, 4.0, "chi")])
def test_blocked_values_match_long_double_rk4(k, eps, problem, n_steps):
    """Near s = 10, 100, 300 and 1000, a fresh functional's values, with
    their log10 factor put back, are within 10 times the distance of the
    stepwise map (one product per RK4 step) from the same RK4 run in long
    double.  A distance is the largest error over three points relative to
    their largest residual, as one point near a root, or one lucky
    rounding, says little.  Step counts 2003 and 4458 leave a short last
    chunk and a padded last block."""
    params = SpectralParams(k=k, eps=eps, x0=0.9, M=10)
    s = np.add.outer([10.0, 100.0, 300.0, 1000.0], [0.1, 0.3, 0.7])
    ref, ref_scale = _staged_run(params, problem,
                                 s.ravel().astype(np.longdouble), n_steps,
                                 real=np.longdouble)
    ref = (ref * np.longdouble(10) ** ref_scale).reshape(s.shape)

    def distance(group, i, block, degree):
        value, scale = _values(params, problem, group, n_steps, block, degree)
        return (np.abs(value * np.longdouble(10) ** scale - ref[i]).max()
                / np.abs(ref[i]).max())
    blocks = []
    for i, group in enumerate(s):
        f = shoot_functional(params, n_steps)
        value = f(group)
        blocks.append((f.meta["block"], f.meta["degree"]))
        v, scale = _values(params, problem, group, n_steps, *blocks[-1])
        assert f.meta["log_scale_ref"] == scale.max()
        assert value.tobytes() == _rescaled(v, scale, scale.max()).tobytes()
        assert (distance(group, i, *blocks[-1])
                <= 10 * distance(group, i, 1, 4))
    # blocks of a whole chunk near s = 10, shorter further out, kept to
    # degree 16 or 32 (or whole, when that is less)
    lengths = [b for b, _ in blocks]
    assert lengths[0] == oracle_mod.RENORM_CHECK_EVERY
    assert lengths == sorted(lengths, reverse=True) and lengths[3] < lengths[2]
    assert all(min(16, 4 * b) <= d <= 32 for b, d in blocks)


def test_blocks_keep_powers_of_mu_finite():
    """At x0 = 0.1 and 5000 steps, s = 8000 (|mu| = 6.4e7) passes the step
    check and twelve-step blocks pass the stiffness bound, but mu^48 of the
    whole twelve-step polynomial overflows and its values are not finite.
    The functional keeps the blocks to degree 32, where mu^32 is finite and
    degree 16 fails the truncation check, and its values agree with the
    stepwise map's."""
    params = SpectralParams(k=1, eps=0.0, x0=0.1, M=10)
    f = shoot_functional(params, 5000)
    s = np.array([7990.0, 8000.0])
    value = f(s)
    assert (f.meta["block"], f.meta["degree"]) == (12, 32)
    with pytest.raises(NonFiniteError):
        _values(params, "k", s, 5000, block=12)
    blocks = oracle_mod._blocks(params, "k", 5000, 12, 16)
    assert not oracle_mod._kept(blocks, 8000.0 * 8001.0)
    v, scale = _values(params, "k", s, 5000, 12, 32)
    ref, ref_scale = _values(params, "k", s, 5000, block=1)
    assert value.tobytes() == _rescaled(v, scale, scale.max()).tobytes()
    np.testing.assert_allclose(v * 10.0 ** scale, ref * 10.0 ** ref_scale,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("k, problem", [(1, "k"), (0, "chi")])
def test_flat_blocks_are_products_of_step_maps(k, problem):
    """Block b of a checkpoint chunk, read from flat[chunk, a, (b, i, j)] at
    mu and kept to degree 16, is the product of its RK4 step maps, each
    evaluated at mu: a whole chunk, the short last block of a chunk, the
    short last chunk and a block of identity padding read below 1e-13
    relative (2.4e-15 at most), and a transposed (i, j) 0.03 or more where
    the block holds a step."""
    params = SpectralParams(k=k, eps=1.0, x0=0.9, M=10)
    dim, _, system, _ = oracle_mod._PROBLEMS[problem]
    for n_steps, block, chunk, b, steps in [
            (2000, 100, 0, 0, range(100)), (2000, 30, 0, 3, range(90, 100)),
            (2003, 30, 20, 0, range(2000, 2003)), (2003, 30, 20, 2, [])]:
        h = 2 * 0.9 / n_steps
        maps = oracle_mod._step_maps(system, params, -0.9 + np.array(
            steps, dtype=float) * h, h)
        flat = oracle_mod._blocks(params, problem, n_steps, block, 16)
        per = -(-oracle_mod.RENORM_CHECK_EVERY // block)
        assert flat.shape == (-(-n_steps // 100), 17, per * dim * dim)
        for s in (2.0, 2.0 + 0.5j):
            mu = -s * (s + 1)
            ref = np.eye(dim)
            for c in maps:
                ref = sum(mu ** j * c[:, j * dim:(j + 1) * dim]
                          for j in range(5)) @ ref
            got = sum(mu ** a * row.reshape(per, dim, dim)[b]
                      for a, row in enumerate(flat[chunk]))
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("k, eps", [(1, 0.0), (3, 4.0), (0, 1.0), (0, 4.0)])
def test_batch_mates_change_values_by_rounding_only(k, eps):
    """Each point's value alone equals its entry in one batched call of 161
    points, within 1e-14 of the batch's largest |value|, at real and complex
    s.  The batch is the rows of each chunk's product; an index slip that
    mixes points fails this."""
    grid = np.linspace(0.05, 8.05, 161)
    for s in (grid, grid + 0.3j):
        f = shoot_functional(SpectralParams(k=k, eps=eps, x0=0.9))
        batch = f(s)
        single = np.array([f(np.array([p]))[0] for p in s])
        assert np.abs(single - batch).max() <= 1e-14 * np.abs(batch).max()
