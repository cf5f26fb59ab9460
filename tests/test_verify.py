import functools
import json
from dataclasses import replace

import numpy as np
import pytest

from sphere_spectra import boundary, oracle, series, verify
from sphere_spectra.cli import main
from sphere_spectra.core import SpectralParams
from sphere_spectra.series import coeffs_k_batch

REGISTRY = [
    ("series", "linearity"), ("series", "s-reflection"),
    ("series", "k0-s-reflection"), ("series", "parity-decoupling"),
    ("series", "ode-residual"), ("boundary", "det-reflection"),
    ("boundary", "det-k-sign"), ("boundary", "block-factorization"),
    ("boundary", "normalization-invariance"),
    ("analytic", "polynomial-closed-forms"),
    ("analytic", "legendre-reduction"), ("analytic", "eigenfunction-ode"),
    ("analytic", "darboux-pair"), ("analytic", "spectra-values"),
    ("oracle", "equivalence-k1"), ("oracle", "equivalence-k0"),
    ("oracle", "green-identity"), ("oracle", "k0-negativity"),
]


_vorticity, _rows = series._vorticity, boundary._stream_rows


def _edited(edit, out, s):
    """edit(a, b, s) applied to the sequences (a, b), or, on the
    determinant's folded path, to the rows of A with the first row as a
    and the others as b."""
    if isinstance(out, tuple):
        return edit(*out, s)
    return np.vstack(edit(out[:1], out[1:], s))


def _kernel(edit):
    """series._vorticity with edit(a, b, s) applied to its output."""
    return lambda k2, eps, s, *rest: _edited(
        edit, _vorticity(k2, eps, s, *rest), np.asarray(s))


def _cross_row(k2, M, x0):
    g, h = _rows(k2, M, x0)
    g = g.copy()                             # not the cached rows
    g[0, 1] += 1e-12 * g[0, 0]               # an even row reads b
    return g, h


_P, _SEEDS = SpectralParams(2, 1.0, 0.8, 60), (1.0, 0.5, -0.2, 0.8)
_READS_S = _kernel(lambda a, b, s: (a * (1 + 1e-9 * s), b))  # not s(s+1)


@pytest.mark.parametrize("check, inputs, target, fault", [
    (verify.series_linearity, (_P, 1.3 + 0.4j, _SEEDS, 2.0 - 0.5j),
     (series, "_vorticity"), _kernel(lambda a, b, s: (a + 1e-3, b))),
    (verify.series_s_reflection, (_P, 1.3 + 0.4j, _SEEDS),
     (series, "_vorticity"), _READS_S),
    (verify.series_s_reflection, (replace(_P, k=0), 1.3 + 0.4j, (1.0, 0.7)),
     (series, "_vorticity"), _READS_S),
    (verify.series_parity_decoupling, (replace(_P, eps=0.0), 1.7),
     (series, "_vorticity"), _kernel(lambda a, b, s: (a, b + 1e-12 * a))),
    (verify.series_ode_residual, (_P, 2.3, _SEEDS, [0.1, 0.3, 0.5]),
     (series, "_vorticity"), _kernel(lambda a, b, s: (a * (1 + 1e-6), b))),
    (verify.det_reflection, (_P, [1.2 + 0.5j, 2.5]),
     (series, "_vorticity"), _READS_S),
    (verify.det_k_sign, (_P, [0.7 + 0.2j, 2.4]), (SpectralParams, "abs_k"),
     property(lambda p: abs(p.k) + 1e-9 * (p.k < 0))),
    (verify.block_factorization, (replace(_P, eps=0.0), [1.3, 2.6]),
     (boundary, "_stream_rows"), _cross_row),
    (verify.normalization_invariance,
     (_P, [0.8, 1.9 + 0.6j], [2.0, 0.5j, -3.0, 1.0]),
     (boundary, "_normalized_det"),
     lambda A: np.linalg.det(A / np.abs(A).max(axis=2, keepdims=True))),
])
def test_planted_fault_fails_the_shared_check(monkeypatch, check, inputs,
                                              target, fault):
    """Each series and boundary invariant passes on clean code and fails
    with one planted fault in the kernel, the rows or the normalization."""
    passed, detail = check(*inputs)
    assert passed, detail
    monkeypatch.setattr(*target, fault)
    passed, detail = check(*inputs)
    assert not passed, detail


def test_nan_spectrum_fails_spectra_values(monkeypatch):
    """A NaN s in the chi-limit spectrum fails the check; a fold of the
    deviations with max() from 0.0 dropped it and passed."""
    passed, detail = verify.check_spectra_values()
    assert passed is True, detail
    s = np.array([2.0, np.nan, 4.0, 5.0])
    monkeypatch.setattr(verify.analytic, "spectrum_chi_limit",
                        lambda eps, n_max: verify.analytic.AnalyticSpectrum(
                            s, -s * (s + 1), "k0-chi-limit"))
    passed, detail = verify.check_spectra_values()
    assert passed is False, detail


def test_registry_groups_cover_all_modules(tmp_path, capsys):
    """The registry holds these 18 checks of the four groups in this order,
    and the verify command runs and reports each of them."""
    assert [(g, n) for g, n, _ in verify.CHECKS] == REGISTRY
    out = tmp_path / "verify.json"
    assert main(["verify", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [(c["group"], c["name"]) for c in doc["checks"]] == REGISTRY
    assert doc["passed"]
    assert capsys.readouterr().out.count("PASS ") == len(REGISTRY)


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
    block with 99 good ones, must break the series/oracle agreement."""
    step_maps = oracle._step_maps
    params = SpectralParams(k=1, eps=0.0, x0=0.9, M=150)
    clean = oracle.shoot_functional(params, n_steps=1200)(2.5)[0]

    def corrupted(system, p, x, h):
        c = step_maps(system, p, x, h)
        # the fourth step's mu coefficient of Phi in Phi' (k != 0 maps have
        # 4 x 4 column blocks per power of mu)
        c[x == -p.x0 + h * 3, 3, 4 + 2] *= -1
        return c

    monkeypatch.setattr(oracle, "_step_maps", corrupted)
    shoot = oracle.shoot_functional(params, n_steps=1200)
    value = shoot(2.5)[0]
    assert shoot.meta["block"] == oracle.RENORM_CHECK_EVERY
    assert abs(value - clean) > 1e-5 * abs(clean)
    passed, detail = verify.check_oracle_equivalence_k1()
    assert not passed, detail
