import functools

import numpy as np
import pytest

from sphere_spectra import oracle, series, verify
from sphere_spectra.core import SpectralParams
from sphere_spectra.series import coeffs_k_batch


def test_registry_groups_cover_all_modules():
    groups = {g for g, _, _ in verify.CHECKS}
    assert groups == {"series", "boundary", "analytic", "oracle"}


def test_fast_groups_pass():
    results = verify.run_checks("analytic")
    assert results and all(r["passed"] for r in results)
    results = verify.run_checks("series")
    assert all(r["passed"] for r in results)
    results = verify.run_checks("boundary")
    assert all(r["passed"] for r in results)


def test_oracle_group_passes():
    results = verify.run_checks("oracle")
    assert [r["name"] for r in results] == [
        "equivalence-k1", "equivalence-k0", "green-identity", "k0-negativity"]
    assert all(r["passed"] for r in results), results


def test_unknown_filter_raises():
    with pytest.raises(ValueError):
        verify.run_checks("no-such-group")


def test_results_in_registry_order():
    results = verify.run_checks("analytic")
    assert [r["name"] for r in results] == [
        n for g, n, _ in verify.CHECKS if g == "analytic"]


def test_crashing_check_reports_failure(monkeypatch):
    def boom():
        raise RuntimeError("broken")
    monkeypatch.setitem(verify.__dict__, "CHECKS",
                        [("series", "boom", boom)])
    results = verify.run_checks()
    assert results[0]["passed"] is False
    assert "broken" in results[0]["detail"]


def test_corrupted_recurrence_caught_by_oracle_equivalence(monkeypatch):
    """A sign flip in the starting vorticity coefficient must break the
    series/oracle agreement (the mutation is visible at eps = 0 too), and
    so must one inside a composed block of steps."""
    steps = series._steps
    s = np.array([1.3 + 0.2j])
    clean = coeffs_k_batch(1.0, 2.0, s, (1.0, 0.5), 40)[0]
    # a fresh block cache, so the blocks are composed from the patched
    # steps and none of them outlives the test
    blocks = functools.lru_cache(maxsize=2)(series._blocks.__wrapped__)
    monkeypatch.setattr(series, "_blocks", blocks)

    def corrupted(k2, eps, M):
        P = steps(k2, eps, M).copy()
        # first step (t = 1): a[1] = ((k2 + S) * a0 - eps * b0) / 2, wrong
        # sign on s(s+1); b[1] takes that a[1] through the fused update
        P[0, 2:, 2] *= -1
        return P

    monkeypatch.setattr(series, "_steps", corrupted)
    a, b = coeffs_k_batch(1.0, 2.0, s, (1.0, 0.5), 5)
    S = s * (s + 1)
    assert a[1] == pytest.approx(((1.0 + S) - 2.0 * 0.5) / 2)
    assert b[1] == pytest.approx(((3.0 - S) * 0.5 - 4.0 * a[1]) / 6)
    passed, detail = verify.check_oracle_equivalence_k1()
    assert not passed, detail

    t = series.PLAIN + 3                     # the third step of a block

    def corrupted_in_block(k2, eps, M):
        P = steps(k2, eps, M).copy()
        P[t - 1, 2:, 2] *= -1                # the same flip at step t
        return P

    blocks.cache_clear()
    monkeypatch.setattr(series, "_steps", corrupted_in_block)
    a = coeffs_k_batch(1.0, 2.0, s, (1.0, 0.5), 40)[0]
    assert a[:t].tobytes() == clean[:t].tobytes()
    assert abs(a[t] - clean[t]) > 1e-3 * abs(clean[t])
    passed, detail = verify.check_oracle_equivalence_k1()
    assert not passed, detail


def test_corrupted_step_map_caught_by_oracle_equivalence(monkeypatch):
    """A sign flip in one coefficient of one RK4 step map, composed into a
    block with nine good ones, must break the series/oracle agreement."""
    step_maps = oracle._step_maps
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
    clean = oracle.shoot_functional(params, n_steps=1200)(2.5)[0]

    def corrupted(system, p, x, h):
        c = step_maps(system, p, x, h)
        if x[0] == -p.x0:                    # the first checkpoint chunk
            # the fourth step's mu coefficient of Phi in Phi' (k != 0 maps
            # have 4 x 4 column blocks per power of mu)
            c[3, 3, 4 + 2] *= -1
        return c

    monkeypatch.setattr(oracle, "_step_maps", corrupted)
    shoot = oracle.shoot_functional(params, n_steps=1200)
    value = shoot(2.5)[0]
    assert shoot.meta["block"] == oracle.BLOCK
    assert abs(value - clean) > 1e-5 * abs(clean)
    passed, detail = verify.check_oracle_equivalence_k1()
    assert not passed, detail
