import numpy as np
import pytest

from sphere_spectra import boundary, verify
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
    series/oracle agreement (the mutation is visible at eps = 0 too)."""

    def corrupted(k2, eps, s, seeds, M):
        s = np.asarray(s, dtype=complex)
        S = s * (s + 1)
        a = np.zeros((M + 1, s.size), complex)
        b = np.zeros((M + 1, s.size), complex)
        c = np.zeros((M + 1, s.size), complex)
        d = np.zeros((M + 1, s.size), complex)
        a[0], b[0], c[0], d[0] = seeds
        a[1] = ((k2 + S) * a[0] - eps * b[0]) / 2   # wrong sign on s(s+1)
        b[1] = ((k2 + 2 - S) * b[0] - 2 * eps * a[1]) / 6
        c[1] = (k2 * c[0] + a[0]) / 2
        d[1] = ((k2 + 2) * d[0] + b[0]) / 6
        for m in range(M - 1):
            p, q = 2 * m + 2, 2 * m + 3
            a[m + 2] = ((k2 - S + 2 * p * p) * a[m + 1]
                        + (S - 2 * m * (2 * m + 1)) * a[m]
                        - eps * q * b[m + 1]
                        + eps * (2 * m + 1) * b[m]) / ((2 * m + 4) * (2 * m + 3))
            b[m + 2] = ((k2 - S + 2 * q * q) * b[m + 1]
                        + (S - (2 * m + 2) * (2 * m + 1)) * b[m]
                        - eps * (2 * m + 4) * a[m + 2]
                        + eps * p * a[m + 1]) / ((2 * m + 5) * (2 * m + 4))
            c[m + 2] = ((k2 + 2 * p * p) * c[m + 1]
                        - 2 * m * (2 * m + 1) * c[m]
                        + a[m + 1] - a[m]) / ((2 * m + 4) * (2 * m + 3))
            d[m + 2] = ((k2 + 2 * q * q) * d[m + 1]
                        - (2 * m + 2) * (2 * m + 1) * d[m]
                        + b[m + 1] - b[m]) / ((2 * m + 5) * (2 * m + 4))
        return a, b, c, d

    monkeypatch.setattr(boundary, "coeffs_k_batch", corrupted)
    passed, detail = verify.check_oracle_equivalence_k1()
    assert not passed, detail
