import numpy as np
import pytest

from sphere_spectra import (ScanConfig, SpectralParams, det_functional,
                            scan_real_roots, shoot, shoot_functional)
from sphere_spectra import oracle as oracle_mod


class TestShootK:
    def test_nonzero_residual_off_spectrum(self):
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        res = shoot(params, 0.5)
        assert abs(res.value) > 1e-6
        assert res.step_count == 2000

    def test_richardson_error_small(self):
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        res = shoot(params, 0.5)
        assert res.richardson_error < 1e-8 * abs(res.value)

    def test_near_full_sphere_first_root(self):
        # Dirichlet eigenvalue approaching the full-sphere limit s = 3
        params = SpectralParams(k=3, eps=0.0, x0=0.99, M=150)
        roots = scan_real_roots(shoot_functional(params),
                                ScanConfig(2.5, 3.5), source="oracle")
        assert roots and abs(roots[0].s.real - 3.0) < 0.05
        assert roots[0].source == "oracle"

    def test_requires_interior_x0_and_known_problem(self):
        for which in ("auto", "chi"):
            with pytest.raises(ValueError):
                shoot(SpectralParams(k=1, eps=0.0, x0=1.0, M=10), 1.0,
                      which=which)
        with pytest.raises(ValueError):
            shoot(SpectralParams(k=1, eps=0.0, x0=0.9, M=10), 1.0,
                  which="psi")
        with pytest.raises(ValueError):
            shoot_functional(SpectralParams(k=1, eps=0.0, x0=0.9, M=10),
                             which="psi")

    def test_problem_follows_k(self):
        # k = 0 selects the three-component system, whose residual is
        # Psi'(x0); the functional and the single-point call agree
        for k in (0, 1):
            params = SpectralParams(k=k, eps=1.0, x0=0.9, M=10)
            res = shoot(params, 1.7, n_steps=400)
            ref = shoot_functional(params, n_steps=400)(np.array([1.7]))[0]
            assert res.value == ref
        k0 = SpectralParams(k=0, eps=1.0, x0=0.9, M=10)
        k1 = SpectralParams(k=1, eps=1.0, x0=0.9, M=10)
        assert shoot(k0, 1.7, 400).value != shoot(k1, 1.7, 400).value


class TestShootK0:
    def test_rejects_trivial_mu(self):
        params = SpectralParams(k=0, eps=1.0, x0=0.9, M=10)
        with pytest.raises(ValueError):
            shoot(params, 0.0)

    def test_matches_series_roots(self):
        params = SpectralParams(k=0, eps=1.0, x0=0.9, M=100)
        cfg = ScanConfig(0.05, 6.0)
        series = [r.s.real for r in
                  scan_real_roots(det_functional(params), cfg)]
        functional = shoot_functional(params, n_steps=1200)
        found = [r.s.real for r in
                 scan_real_roots(functional, cfg, source="oracle")]
        assert len(series) == len(found)
        np.testing.assert_allclose(series, found, atol=1e-6)

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
        res = shoot(params, 2.0, n_steps=1500, which="chi")
        functional = shoot_functional(params, n_steps=1500, which="chi")
        roots = scan_real_roots(functional, ScanConfig(1.5, 2.5),
                                source="oracle")
        assert len(roots) == 1
        assert abs(roots[0].s.real - 2.0) < 0.1
        assert abs(res.value) == pytest.approx(
            abs(functional(np.array([2.0 + 0j]))[0]), rel=1e-12)

    def test_viscous_limits(self):
        functional = shoot_functional(SpectralParams(k=0, eps=0.0, x0=0.99, M=10),
                                 n_steps=1500, which="chi")
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

    def test_equivalence_with_series_k1(self):
        params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
        cfg = ScanConfig(0.0, 6.0)
        series = [r.s.real for r in
                  scan_real_roots(det_functional(params), cfg)]
        found = [r.s.real for r in
                 scan_real_roots(shoot_functional(params, n_steps=1200), cfg,
                                 source="oracle")]
        assert len(series) == len(found)
        np.testing.assert_allclose(series, found, atol=1e-6)


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


def test_renormalization_preserves_roots(monkeypatch):
    """Forcing the overflow guard to fire at a tiny threshold rescales the
    residual (tracked in log_scale) without moving the roots."""
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
    cfg = ScanConfig(2.0, 4.0)
    plain = [r.s.real for r in
             scan_real_roots(shoot_functional(params, n_steps=800), cfg,
                             source="oracle")]
    res_plain = shoot(params, 2.5, n_steps=800)
    monkeypatch.setattr(oracle_mod, "RENORM_THRESHOLD", 0.1)
    res_scaled = shoot(params, 2.5, n_steps=800)
    scaled = [r.s.real for r in
              scan_real_roots(shoot_functional(params, n_steps=800), cfg,
                              source="oracle")]
    assert res_scaled.log_scale != 0.0
    assert (res_scaled.value * 10 ** res_scaled.log_scale
            == pytest.approx(res_plain.value, rel=1e-9))
    np.testing.assert_allclose(plain, scaled, atol=1e-9)


# residual of the end states e[trajectory][component], one problem each
_SEPARATE_RESIDUALS = {
    "k": lambda e: e[0][0] * e[1][1] - e[0][1] * e[1][0],
    "k0": lambda e: e[0][1],
    "chi": lambda e: e[0][0],
}


@pytest.mark.parametrize("threshold", [1e100, 0.1])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("k, which, problem", [
    (1, "auto", "k"), (0, "auto", "k0"), (0, "chi", "chi")])
def test_batched_trajectories_match_separate_runs(monkeypatch, k, which,
                                                  problem, n, threshold):
    """All start trajectories in one integration give, bit for bit, the
    residual and scale of one integration per trajectory, also when the
    renormalization fires."""
    monkeypatch.setattr(oracle_mod, "RENORM_THRESHOLD", threshold)
    params = SpectralParams(k=k, eps=1.0, x0=0.9, M=10)
    assert oracle_mod._problem(params, which) == problem
    dim, starts, make_rhs, _ = oracle_mod._PROBLEMS[problem]
    s = np.array([0.5, 1.7, 2.3 + 0.4j, 3.1, 5.0])[:n]
    rhs = make_rhs(params, -s * (s + 1))
    ends, scale = [], np.zeros(n)
    for comp in starts:
        y = np.zeros((dim, n), dtype=complex)
        y[comp] = 1.0
        end, sc = oracle_mod._integrate(rhs, y, params.x0, 300)
        ends.append(end)
        scale = scale + sc
    value, got_scale = oracle_mod._values(params, problem, s, 300)
    assert value.tobytes() == _SEPARATE_RESIDUALS[problem](ends).tobytes()
    assert got_scale.tobytes() == scale.tobytes()
    assert np.all(scale != 0) == (threshold < 1)
