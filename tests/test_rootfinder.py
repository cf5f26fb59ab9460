import zlib

import numpy as np
import pytest

from sphere_spectra import (GridTooCoarseWarning, Root, ScanConfig,
                            SpectralParams, det_functional, refine_complex,
                            rootfinder, scan_real_roots, trace_parameter)
from sphere_spectra.rootfinder import RING, _dedupe


def poly(*roots):
    def F(s):
        s = np.asarray(s, dtype=complex)
        out = np.ones_like(s)
        for r in roots:
            out = out * (s - r)
        return out
    return F


class TestScan:
    def test_synthetic_two_roots(self):
        found = scan_real_roots(poly(1.0, 3.0), ScanConfig(0.0, 4.0, 0.1))
        assert [round(r.s.real, 9) for r in found] == [1.0, 3.0]
        assert all(r.kind == "real" and r.source == "series" for r in found)

    def test_even_order_zero_missed(self):
        # a squared factor never changes sign: a scan cannot see it (unless
        # it lands exactly on a grid node); coalescence tracking is the
        # documented route to such roots
        found = scan_real_roots(poly(2.003, 2.003), ScanConfig(0.0, 4.0, 0.1))
        assert found == []

    def test_root_on_grid_point(self):
        found = scan_real_roots(poly(1.0), ScanConfig(0.0, 2.0, 0.25))
        assert len(found) == 1
        assert found[0].s.real == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_coarse_warning(self):
        with pytest.warns(GridTooCoarseWarning):
            scan_real_roots(poly(1.03, 1.06), ScanConfig(0.0, 2.0, 0.05))

    def test_residual_locally_minimal(self):
        F = poly(1.0, 3.0)
        cfg = ScanConfig(0.0, 4.0, 0.1)
        for r in scan_real_roots(F, cfg):
            s = r.s.real
            neighbors = max(abs(F(np.array([s - cfg.step]))[0]),
                            abs(F(np.array([s + cfg.step]))[0]))
            assert abs(F(np.array([s]))[0]) <= cfg.tol * neighbors
            assert r.residual <= cfg.tol

    def test_each_root_certified_by_its_bracket(self):
        # one grid call plus one call per refinement round, which every open
        # bracket shares: its inverse-cubic estimate and the two guards
        # close it in two rounds
        calls = []
        F = poly(1.03, 2.71, 3.3)

        def counted(s):
            calls.append(s)
            return F(s)

        cfg = ScanConfig(0.0, 4.0, 0.1)
        found = scan_real_roots(counted, cfg)
        assert len(calls) <= 4
        assert [r.s.real for r in found] == pytest.approx(
            [1.03, 2.71, 3.3], abs=cfg.tol)
        assert all(0 <= r.error <= cfg.tol for r in found)

    def test_exact_zero_closes_its_bracket(self):
        # [0.75, 1.5] has one grid neighbour, so its first round takes the
        # midpoint and the quarter points; the second round's inverse
        # interpolation of the linear F lands on 1 exactly
        found = scan_real_roots(poly(1.0), ScanConfig(0.0, 1.5, 0.75))
        assert [(r.s.real, r.residual, r.error) for r in found] == [
            (1.0, 0.0, 0.0)]

    def test_exact_zero_on_a_guard_point(self):
        # F is exp(s) - exp(c) but for 0 at the upper guard of the first
        # round: that zero is a bracket of width 0 and closes it at once
        c = 1.2345678
        smooth = lambda s: np.exp(np.asarray(s, float)) - np.exp(c)  # noqa
        cfg = ScanConfig(0.0, 2.0, 0.05)
        G, points = recording(smooth)
        scan_real_roots(G, cfg)
        x, lower, upper = points[1]
        assert lower < x < upper and abs(upper - c) > cfg.tol
        G, points = recording(lambda s: np.where(np.asarray(s) == upper,
                                                 0.0, smooth(s)))
        assert [(r.s.real, r.residual, r.error)
                for r in scan_real_roots(G, cfg)] == [(upper, 0.0, 0.0)]
        assert len(points) == 2

    def test_root_beside_an_exact_zero_on_a_node(self):
        # F vanishes on the grid node 1.0 exactly, so neither cell beside it
        # showed a sign change and the root at 1.03 was lost without a
        # warning; F at tol either side of the node, in one more call,
        # brackets it.  With no exact zero on a node there is no such call:
        # the grid call, then refinement rounds of three or more points
        cfg = ScanConfig(0.0, 2.0, 0.05)
        G, points = recording(poly(1.0, 1.03))
        with pytest.warns(GridTooCoarseWarning):
            found = scan_real_roots(G, cfg)
        assert [r.s.real for r in found] == pytest.approx([1.0, 1.03],
                                                          abs=cfg.tol)
        assert found[0].s.real == 1.0 and found[0].residual == 0.0
        assert points[1].tolist() == [1.0 - cfg.tol, 1.0 + cfg.tol]
        assert all(len(p) >= 3 for p in points[2:])
        G, points = recording(poly(1.0 - 1e-3, 1.03))
        with pytest.warns(GridTooCoarseWarning):
            assert len(scan_real_roots(G, cfg)) == 2
        assert len(points[0]) == 41 and all(len(p) >= 3 for p in points[1:])

    def test_bracket_beside_an_exact_zero_closes_like_any_other(self):
        # the bracket [1 + tol, 1.05] has its end of least |F| beside the
        # zero at 1.0: interpolation through it modelled that zero and took
        # 15 rounds (17 calls), against 8 calls for (s - 0.999)(s - 1.03);
        # that end now gives only its sign
        cfg = ScanConfig(0.0, 2.0, 0.05)
        G, points = recording(poly(1.0, 1.03))
        with pytest.warns(GridTooCoarseWarning):
            found = scan_real_roots(G, cfg)
        assert [r.s.real for r in found] == pytest.approx([1.0, 1.03],
                                                          abs=cfg.tol)
        assert len(points) <= 9

    @pytest.mark.parametrize("F, roots", [
        (lambda s: np.sign(np.asarray(s) - 1.2345678), [1.2345678]),
        (lambda s: np.cbrt(np.asarray(s) - 1.2345678), [1.2345678]),
        (lambda s: np.asarray(s) - 1.2345678 + 1e-12 * (np.array(
            [zlib.crc32(np.float64(z).tobytes()) for z in np.ravel(s)])
            / 2 ** 31 - 1), [1.2345678]),
        (poly(1.01, 1.07, 1.13), [1.01, 1.07, 1.13]),
    ], ids=["jump", "cube-root-kink", "pseudo-noise-1e-12", "three-cells"])
    def test_bracket_closes_around_a_true_sign_change(self, F, roots):
        # inverse interpolation cannot model these (equal values, an
        # infinite slope, noise, or neighbours across other roots); the
        # midpoint and quarter points still close every bracket below tol
        # within MAX_ITER rounds, at a root of F.  The noise, below 1e-12
        # in size, changes the sign of F only within 1e-12 of its root
        cfg = ScanConfig(0.0, 2.0, 0.05)
        G, calls = counting(F)
        found = scan_real_roots(G, cfg)
        assert len(calls) <= 1 + rootfinder.MAX_ITER
        assert len(found) == len(roots)
        for r, root in zip(found, roots):
            assert 0 <= r.error <= cfg.tol
            assert abs(r.s.real - root) <= cfg.tol + 1e-12

    def test_dedup_spacing(self):
        cfg = ScanConfig(0.0, 4.0, 0.1)
        found = scan_real_roots(poly(1.0, 3.0), cfg)
        gaps = np.diff([r.s.real for r in found])
        assert np.all(gaps > 10 * cfg.tol)

    def test_dedupe_helper(self):
        a = Root(1.0, 1e-12)
        b = Root(1.0 + 1e-12, 1e-14)
        c = Root(2.0, 1e-12)
        out = _dedupe([a, b, c], 1e-9)
        assert len(out) == 2
        assert out[0].residual == 1e-14

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(s_min=-1.0)
        with pytest.raises(ValueError):
            ScanConfig(step=0.0)
        with pytest.raises(ValueError):
            ScanConfig(tol=-1e-10)
        with pytest.raises(ValueError):
            ScanConfig(s_min=2.0, s_max=1.0)
        with pytest.raises(ValueError):
            ScanConfig(s_min=1.0, s_max=1.0)
        with pytest.raises(ValueError):
            ScanConfig(s_min=0.0, s_max=1.0, step=2.0)
        for field in ("s_min", "s_max", "step", "tol"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    ScanConfig(**{field: bad})


def counting(F):
    """F and the list of batch sizes it was called with."""
    calls = []

    def G(s):
        calls.append(np.size(s))
        return F(s)
    return G, calls


def recording(F):
    """F and the list of point arrays it was called with."""
    points = []

    def G(s):
        points.append(np.array(s))
        return F(s)
    return G, points


def recording_refine(monkeypatch, fam):
    """fam wrapped to note the value it was last built at, and the list of
    (value, seeds, roots) of every refine_complex call a trace over it
    makes."""
    value, calls = [None], []
    refine = rootfinder.refine_complex

    def recording(F, seeds, *args, **kwargs):
        roots = refine(F, seeds, *args, **kwargs)
        calls.append((value[0], list(seeds), roots))
        return roots

    def built(t):
        value[0] = t
        return fam(t)

    monkeypatch.setattr(rootfinder, "refine_complex", recording)
    return built, calls


class TestRefineComplex:
    def test_pure_imaginary_pair(self):
        root, = refine_complex(lambda s: np.asarray(s) ** 2 + 1, [0.2 + 0.8j])
        assert root.s == pytest.approx(1j, abs=1e-9)
        assert root.kind == "complex-pair"

    def test_shifted_pair(self):
        F = poly(2 + 1j, 2 - 1j)
        root = refine_complex(F, [2 + 0.5j])[0]
        assert root.s == pytest.approx(2 + 1j, abs=1e-9)

    def test_result_canonicalized(self):
        F = poly(2 + 1j, 2 - 1j)
        root = refine_complex(F, [2 - 0.5j])[0]
        assert root.s.imag > 0

    def test_real_root_classified_real(self):
        root = refine_complex(poly(1.5), [1.4 + 1e-4j])[0]
        assert root.kind == "real"
        assert root.s.real == pytest.approx(1.5, abs=1e-9)

    def test_error_is_the_last_muller_step(self):
        root = refine_complex(poly(2 + 1j, 2 - 1j), [2 + 0.5j], tol=1e-10)[0]
        assert 0 <= root.error < 1e-10
        assert abs(root.s - (2 + 1j)) < 1e-9

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(rootfinder, "MAX_ITER", 10)
        ones = lambda s: np.ones_like(np.asarray(s, complex))
        assert refine_complex(ones, [1.0 + 1.0j]) == [None]
        # F is flat right of Re s = 5: that seed stops on a zero
        # denominator, while its batch mate still converges as it does alone
        F = lambda s: np.where(np.real(s) > 5, 1.0, np.asarray(s) ** 2 + 1)
        alone = refine_complex(F, [0.2 + 0.8j])[0]
        lost, root = refine_complex(F, [6.0 + 1.0j, 0.2 + 0.8j])
        assert lost is None
        assert root == alone and root.s == pytest.approx(1j, abs=1e-9)

    def test_empty_batch_calls_nothing(self):
        F, calls = counting(poly(1.5))
        assert refine_complex(F, []) == [] and calls == []

    def test_batch_matches_single_seeds(self):
        # a complex pair, a seed that collapses onto the real root 1.45 and
        # a slow seed converging only linearly on the double root 5.2+1.1i
        F = poly(2.1 + 0.9j, 2.1 - 0.9j, 1.45, 5.2 + 1.1j, 5.2 + 1.1j)
        seeds = [2 + 0.5j, 1.4 + 1e-4j, 5.5 + 0.6j]
        alone, single_calls = [], []
        for seed in seeds:
            G, calls = counting(F)
            alone += refine_complex(G, [seed])
            single_calls.append(calls)
        G, calls = counting(F)
        batch = refine_complex(G, seeds)
        assert batch == alone
        assert [r.kind for r in batch] == ["complex-pair", "real",
                                           "complex-pair"]
        # one start call, then one call per round of the slowest seed, and
        # no separate probe call: alone a seed makes its rounds plus one
        rounds = [len(c) - 1 for c in single_calls]
        assert rounds[2] > max(rounds[:2])
        assert len(calls) == 1 + max(rounds)
        assert calls[0] == 3 * len(seeds)
        # the slowest seed's last iterate, its circle and its three probes
        assert calls[-1] == 1 + RING + 3

    def test_seed_near_a_simple_root_makes_three_calls(self):
        # the start call, one Muller step to the root, and the step below
        # tol, whose iterate shares its call with its circle and probes
        F = poly(2.1 + 0.9j, 2.1 - 0.9j, 1.45)
        G, points = recording(F)
        tol, probe = 1e-10, 0.05
        root, = refine_complex(G, [2.1 + 0.9j + 1e-4 * (1 - 1j)], tol=tol,
                               probe=probe)
        assert [p.size for p in points] == [3, 1, 1 + RING + 3]
        x, circle, probes = np.split(points[-1], [1, 1 + RING])
        w = np.exp(2j * np.pi * np.arange(RING) / RING)
        assert np.allclose(circle, x + 100 * tol * w, rtol=0, atol=1e-15)
        assert probes.tolist() == (x + [probe, -probe, 1j * probe]).tolist()
        assert root.kind == "complex-pair"
        assert abs(root.s - (2.1 + 0.9j)) < 1e-12
        assert root.residual == abs(F(x)[0]) / np.abs(F(probes)).max()

    def test_root_is_a_newton_step_from_the_last_iterate(self):
        # F has degree 5 < RING, so the circle gives F and F' at the last
        # iterate x up to rounding: the root is x - F(x) / F'(x), which at
        # a loose tol lies well past x
        roots = [2.1 + 0.9j, 2.1 - 0.9j, 1.45, 4.0 + 2.0j, 0.5 - 3.0j]
        coef = np.poly(roots)
        F = lambda s: np.polyval(coef, np.asarray(s, complex))  # noqa: E731
        G, points = recording(F)
        root, = refine_complex(G, [2.1 + 0.9j + 1e-2 * (1 - 1j)], tol=1e-3)
        x = points[-1][0]
        newton = x - F(x) / np.polyval(np.polyder(coef), x)
        assert abs(root.s - newton) < 1e-14
        assert abs(x - roots[0]) > 1e3 * abs(root.s - roots[0])

    def test_double_root_stays_at_the_last_iterate(self):
        # at a double root the circle's second Fourier coefficient outweighs
        # its first, so a Newton step would be rounding noise (it landed
        # 6e-9 away): the root is the last iterate itself
        G, points = recording(poly(5.2 + 1.1j, 5.2 + 1.1j))
        root, = refine_complex(G, [5.5 + 0.6j])
        assert root.s == points[-1][0]
        assert abs(root.s - (5.2 + 1.1j)) < 1e-12

    def test_newton_step_averages_out_noise(self):
        # pairs r, r* under noise of size 1e-10 in F, its phase a hash of s:
        # an evaluated point can be as far as 1e-10 / |F'(r)| = 5e-11 from
        # r and still have |F| at the noise.  Over 40 pairs the averaged
        # Newton step lands less than half that from the root, and at least
        # twice as close as the last iterate
        def noisy(r):
            def F(s):
                s = np.asarray(s, complex)
                turn = [zlib.crc32(z.tobytes()) / 2 ** 32 for z in s.ravel()]
                noise = np.exp(2j * np.pi * np.reshape(turn, s.shape))
                return (s - r) * (s - r.conjugate()) + 1e-10 * noise
            return F
        ours, last = [], []
        for r in 1.5 + 0.07 * np.arange(40) + 1j:
            G, points = recording(noisy(r))
            root, = refine_complex(G, [r + 1e-4 * (1 - 1j)])
            ours.append(abs(root.s - r))
            last.append(abs(points[-1][0] - r))
        assert np.median(ours) < min(2.5e-11, np.median(last) / 2)

    @pytest.mark.parametrize("eps, pairs", [
        (4.0, [3.5958163206 + 0.9862702213j, 6.2739620420 + 1.0939533013j]),
        (9.9, [5.0165908827 + 2.6469096237j, 7.7046906093 + 3.4799975196j]),
    ])
    def test_determinant_pairs_do_not_depend_on_the_batch(self, eps, pairs):
        # the iterates, circles and probes of both live pairs share their
        # calls: each pair's Root is the one it gets alone
        F = det_functional(SpectralParams(k=1, eps=eps, x0=0.9, M=150))
        seeds = [s + 1e-4 * (1 - 1j) for s in pairs]
        alone = [refine_complex(F, [seed])[0] for seed in seeds]
        together = refine_complex(F, seeds)
        assert together == alone
        assert all(r.kind == "complex-pair" and abs(r.s - s) < 1e-9
                   for r, s in zip(together, pairs))


class TestTrace:
    def test_synthetic_pair_merges_into_complex(self):
        # roots +-sqrt(1-t) merge at t = 1 and continue as +-i sqrt(t-1)
        fam = lambda t: (lambda s: np.asarray(s, complex) ** 2 - (1 - t))
        cfg = ScanConfig(-0.45, 2.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", np.arange(0.5, 1.5001, 0.05), cfg)
        events = {(round(e.param, 6), e.branch_ids)
                  for br in branches for e in br.events}
        assert len(events) == 1
        (param, _), = events
        assert param == pytest.approx(1.0, abs=0.05)
        final = [r for br in branches for p, r in br.samples
                 if abs(p - 1.5) < 1e-9 and r.kind == "complex-pair"]
        assert final and final[0].s == pytest.approx(0.7071068j, abs=1e-6)

    def test_branch_enters_window(self):
        # root s = t - 1 enters the scan window during the sweep
        fam = lambda t: (lambda s: np.asarray(s, complex) - (t - 1))
        cfg = ScanConfig(0.0, 2.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", np.arange(0.5, 2.5001, 0.25), cfg)
        assert len(branches) == 1
        first_param = branches[0].samples[0][0]
        assert first_param >= 1.0

    def test_samples_ordered_by_parameter(self):
        fam = lambda t: (lambda s: np.asarray(s, complex) ** 2 - (1 - t))
        cfg = ScanConfig(-0.45, 2.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", np.arange(0.5, 1.5001, 0.05), cfg)
        for br in branches:
            ps = [p for p, _ in br.samples]
            assert ps == sorted(ps)

    def test_requires_two_values(self):
        fam = lambda t: poly(1.0)
        with pytest.raises(ValueError):
            trace_parameter(fam, "t", [1.0], ScanConfig())

    def test_truncation_sweep_descends_to_full_sphere_limit(self):
        # roots decrease monotonically as the layer widens and head toward
        # the full-sphere value (s = 3 for the first k = 3 branch)
        from sphere_spectra import SpectralParams, det_functional
        fam = lambda x0: det_functional(
            SpectralParams(k=3, eps=0.0, x0=float(x0), M=150))
        branches = trace_parameter(fam, "x0", np.arange(0.9, 0.9801, 0.02),
                                   ScanConfig(0.0, 9.0))
        first = branches[0]
        track = [r.s.real for _, r in first.samples]
        assert all(b < a for a, b in zip(track, track[1:]))
        assert track[-1] == pytest.approx(3.006, abs=5e-3)

    def test_lone_loss_is_recorded(self):
        # the root teleports out of reach of its predicted position; the
        # branch is closed with a note and the sweep carries on
        fam = lambda t: (lambda s: np.asarray(s, complex) - (0.5 if t < 1 else 3.0))
        cfg = ScanConfig(0.0, 4.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", np.arange(0.5, 1.4001, 0.1), cfg)
        assert branches[0].note == "no convergence"
        assert branches[0].samples[-1][1].s.real == pytest.approx(0.5)

    def test_fast_first_step_stays_on_sweep_values(self):
        # the root moves 0.137 per step from the first one, when there is
        # no committed movement to predict from
        built = []

        def fam(t):
            built.append(t)
            return lambda s: np.asarray(s, complex) - (1 + 13.7 * (t - 0.95))

        values = [0.95, 0.96, 0.97, 0.98, 0.99]
        branches = trace_parameter(fam, "t", values,
                                   ScanConfig(0.0, 4.5, 0.05, 1e-12))
        assert built == values
        assert len(branches) == 1
        assert [p for p, _ in branches[0].samples] == values
        assert [r.s.real for _, r in branches[0].samples] == pytest.approx(
            [1 + 13.7 * (t - 0.95) for t in values])

    def test_branch_leaving_window_is_recorded(self):
        # s = 1.5 t climbs through s_max = 2 between t = 1.3 and 1.4
        fam = lambda t: (lambda s: np.asarray(s, complex) - 1.5 * t)
        cfg = ScanConfig(0.0, 2.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", np.arange(1.0, 1.6001, 0.1), cfg)
        assert len(branches) == 1
        assert branches[0].note == "left the scan window"
        assert branches[0].samples[-1][0] == pytest.approx(1.3)

    def test_complex_pair_leaving_window_ends_both_members(self):
        # roots c +- sqrt(1 - t) merge at t = 1 and continue as
        # c +- i sqrt(t - 1) with c = 1 + 2 (t - 1) crossing s_max = 2.5
        # after t = 1.75
        def fam(t):
            c = 1 + 2 * max(t - 1, 0.0)
            return lambda s: (np.asarray(s, complex) - c) ** 2 + (t - 1)

        cfg = ScanConfig(0.0, 2.5, 0.05, 1e-12)
        values = np.round(np.arange(0.5, 2.0001, 0.05), 12)
        branches = trace_parameter(fam, "t", values, cfg)
        pair = [br for br in branches if br.events]
        assert len(pair) == 2
        for br in pair:
            assert br.note == "left the scan window"
            assert br.samples[-1][0] == pytest.approx(1.75)
        assert all(cfg.s_min <= r.s.real <= cfg.s_max
                   for br in branches for _, r in br.samples)

    def test_parked_pair_retried_once_per_value(self, monkeypatch):
        # the pair 1 +- 0.2 sqrt(1 - t) closes at t = 1, where the family
        # jumps to real roots 0.8 and 1.2 outside the pair's brackets; every
        # complex seed then refines back onto the real axis
        def fam(t):
            if t < 1.0:
                return lambda s: (np.asarray(s, complex) - 1) ** 2 \
                    - 0.04 * (1 - t)
            return poly(0.8, 1.2)

        fam, calls = recording_refine(monkeypatch, fam)
        cfg = ScanConfig(0.0, 2.0, 0.05, 1e-12)
        values = [0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2]
        branches = trace_parameter(fam, "t", values, cfg)
        # parked at 1.0, then one retry at each of the next three values
        attempts = [t for t, seeds, _ in calls for _ in seeds]
        assert attempts == [1.0, 1.05, 1.1, 1.15]
        assert [br.note for br in branches[:2]] == [
            "coalescence seed rejected"] * 2
        assert not any(br.events for br in branches)
        assert all(r.kind == "real" for br in branches for _, r in br.samples)
        # the roots at 0.8 and 1.2 are picked up by the rescan at t = 1
        assert sorted(round(br.samples[-1][1].s.real, 9)
                      for br in branches[2:]) == [0.8, 1.2]

    def test_coalescence_seed_and_continuation(self, monkeypatch):
        # the pair 1 +- 0.2 sqrt(1 - t) merges at t = 1 and sits at
        # 1 +- 0.2i sqrt(t - 1) at the first value past it
        fam = lambda t: (lambda s: (np.asarray(s, complex) - 1) ** 2
                         + 0.04 * (t - 1))
        fam, calls = recording_refine(monkeypatch, fam)
        cfg = ScanConfig(0.0, 2.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", [0.9, 0.95, 1.05], cfg)
        assert len(branches) == 2
        below = [br.samples[1][1].s.real for br in branches]
        assert [p for p, _ in branches[0].samples] == [0.9, 0.95, 1.05]
        event = branches[0].events[0]
        # the seed is the midpoint of the last real roots plus one step
        assert event.seed == 0.5 * sum(below) + 0.05j
        assert event.seed == pytest.approx(1.0 + 0.05j, abs=1e-12)
        assert event.s_merged == event.seed.real and event.param == 1.05
        assert [(t, seeds) for t, seeds, _ in calls] == [(1.05, [event.seed])]
        for br in branches:
            assert br.events == [event]
            assert br.events[0].branch_ids == (0, 1)
            p, root = br.samples[-1]
            assert p == 1.05
            assert root.kind == "complex-pair"
            assert root.s == pytest.approx(1 + 0.2j * np.sqrt(0.05),
                                           abs=1e-9)

    def test_complex_seeds_predicted_from_the_path(self, monkeypatch):
        # the pair u +- |v| merges at t = 1 and moves on along the quadratic
        # path u + iv = (0.8 - 1i) + 0.3 t + (0.2 + 1i) t^2, v = t^2 - 1
        def fam(t):
            u, v = 0.8 + 0.3 * t + 0.2 * t * t, t * t - 1
            return lambda s: (np.asarray(s, complex) - u) ** 2 \
                + np.sign(v) * v * v

        def path(t):
            return (0.8 - 1j) + 0.3 * t + (0.2 + 1j) * t * t

        fam, calls = recording_refine(monkeypatch, fam)
        cfg = ScanConfig(0.0, 3.0, 0.05, 1e-12)
        values = [0.9, 0.95, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3]
        branches = trace_parameter(fam, "t", values, cfg)
        assert [t for t, _, _ in calls] == values[2:]
        (seed0,), (seed1,), (seed2,), *later = [seeds for _, seeds, _ in calls]
        roots = [r.s for _, _, (r,) in calls]
        # the first complex seed is the midpoint rule, unchanged; then
        # the last root, the line through two, the quadratic through three
        below = [br.samples[1][1].s.real for br in branches]
        assert seed0 == branches[0].events[0].seed == 0.5 * sum(below) + 0.05j
        assert seed1 == roots[0]
        assert seed2 == pytest.approx(2 * roots[1] - roots[0], abs=1e-15)
        assert abs(seed2 - path(1.15)) > 1e-3
        for t, (seed,) in zip(values[5:], later):
            assert abs(seed - path(t)) < 1e-12
        for br in branches:
            assert br.note == "" and len(br.samples) == len(values)
            assert all(abs(r.s - path(p)) < 1e-12 for p, r in br.samples[2:])

    def test_scans_pass_floats_and_muller_complex(self, monkeypatch):
        # a trace through the merge of 1 +- 0.2 sqrt(1 - t)
        inside, dtypes = [False], set()
        refine = rootfinder.refine_complex

        def in_muller(*args, **kwargs):
            inside[0] = True
            try:
                return refine(*args, **kwargs)
            finally:
                inside[0] = False

        def fam(t):
            def F(s):
                dtypes.add((inside[0], np.asarray(s).dtype))
                return (np.asarray(s, complex) - 1) ** 2 + 0.04 * (t - 1)
            return F

        monkeypatch.setattr(rootfinder, "refine_complex", in_muller)
        cfg = ScanConfig(0.0, 2.0, 0.05, 1e-12)
        trace_parameter(fam, "t", [0.9, 0.95, 1.05, 1.1], cfg)
        assert dtypes == {(False, np.dtype(float)),
                          (True, np.dtype(complex))}
        dtypes.clear()
        refine_complex(fam(1.1), [1.0, 2, 1 + 0.1j])
        assert dtypes == {(False, np.dtype(complex))}

    @pytest.mark.parametrize("at_merge, outcome", [
        (lambda s: np.ones_like(np.asarray(s, complex)), None),
        (poly(0.7, 1.3), "real"),    # real roots pull the seed to the axis
    ], ids=["no-convergence", "real-attractor"])
    def test_failed_conversion_parks_pair(self, monkeypatch, at_merge,
                                          outcome):
        # the pair 1 +- 0.2 sqrt(1 - t) closes at t = 1, where the
        # conversion fails; the retry at t = 1.05 meets the complex pair
        def fam(t):
            if t == 1.0:
                return at_merge
            return lambda s: (np.asarray(s, complex) - 1) ** 2 \
                + 0.04 * (t - 1)

        fam, calls = recording_refine(monkeypatch, fam)
        cfg = ScanConfig(0.0, 2.0, 0.05, 1e-12)
        branches = trace_parameter(fam, "t", [0.9, 0.95, 1.0, 1.05], cfg)
        pair = branches[:2]
        seed = 0.5 * sum(br.samples[1][1].s.real for br in pair) + 0.05j
        assert [(t, seeds) for t, seeds, _ in calls] == [
            (1.0, [seed]), (1.05, [seed])]
        failed, = calls[0][2]
        assert getattr(failed, "kind", None) == outcome
        for br in pair:
            assert br.note == ""
            assert [p for p, _ in br.samples] == [0.9, 0.95, 1.05]
            assert br.samples[-1][1].kind == "complex-pair"
            assert [(e.param, e.seed) for e in br.events] == [(1.05, seed)]

    def test_new_pair_root_outside_window_ends_pair(self):
        # the pair 2.4 +- 0.2 sqrt(1 - t) merges at t = 1 and moves off as
        # c +- 0.2i sqrt(t - 1), c = 2.4 + 4 (t - 1): its first complex
        # root, at t = 1.05, has Re s = 2.6 beyond s_max = 2.5
        def fam(t):
            if t < 1.0:
                return lambda s: (np.asarray(s, complex) - 2.4) ** 2 \
                    - 0.04 * (1 - t)
            c = 2.4 + 4 * (t - 1)
            return lambda s: (np.asarray(s, complex) - c) ** 2 \
                + 0.04 * (t - 1)

        cfg = ScanConfig(0.0, 2.5, 0.05, 1e-12)
        values = [0.9, 0.95, 1.0, 1.05, 1.1, 1.15]
        branches = trace_parameter(fam, "t", values, cfg)
        assert len(branches) == 2
        for br in branches:
            assert br.note == "left the scan window"
            assert [e.param for e in br.events] == [1.05]
            assert [p for p, _ in br.samples] == [0.9, 0.95]
        assert all(cfg.s_min <= r.s.real <= cfg.s_max
                   for br in branches for _, r in br.samples)

    @pytest.mark.parametrize("merges", [(0.975, 1.125), (0.975, 0.975)],
                             ids=["while-live", "same-value"])
    def test_one_muller_pass_per_value(self, monkeypatch, merges):
        # pairs 1 +- 0.2 sqrt(ta - t) and 3 +- 0.2 sqrt(tb - t) merge at
        # ta and tb, between sweep values
        ta, tb = merges

        def fam(t):
            return lambda s: (((np.asarray(s, complex) - 1) ** 2
                               + 0.04 * (t - ta))
                              * ((np.asarray(s, complex) - 3) ** 2
                                 + 0.04 * (t - tb)))

        fam, calls = recording_refine(monkeypatch, fam)
        cfg = ScanConfig(0.0, 4.0, 0.05, 1e-12)
        values = np.round(np.arange(0.9, 1.2001, 0.05), 12).tolist()
        branches = trace_parameter(fam, "t", values, cfg)
        events = {e.param for br in branches for e in br.events}
        first = [min(v for v in values if v > m) for m in merges]
        assert events == set(first)
        # one call at each value from the first merge on, holding a seed
        # for each pair merged by then
        assert [t for t, _, _ in calls] == [v for v in values
                                            if v >= min(first)]
        assert [len(seeds) for t, seeds, _ in calls] == [
            sum(t >= f for f in first) for t, _, _ in calls]
        assert all(r.kind == "complex-pair"
                   for _, _, roots in calls for r in roots)
        assert all(br.note == "" for br in branches)

    def test_duplicate_capture_demoted(self):
        # two branches close in on 1.23 and meet there at t = 2, where the
        # family keeps a single simple root: both predicted positions claim
        # it, so neither may take it on the first try
        def fam(t):
            if t < 2.0:
                return poly(1.03 + 0.1 * t, 1.43 - 0.1 * t)
            return poly(1.23, 5.0)

        cfg = ScanConfig(0.0, 3.0, 0.1, 1e-12)
        branches = trace_parameter(fam, "t", [0.0, 1.0, 2.0, 3.0], cfg)
        assert len(branches) == 2
        at = {}
        for br in branches:
            for p, r in br.samples:
                at.setdefault(p, []).append(r.s.real)
        # no parameter value has the root recorded twice
        assert all(len(v) == len(set(np.round(v, 8))) for v in at.values())
        assert at[2.0] == pytest.approx([1.23]) and at[3.0] == at[2.0]
        assert sorted(br.note for br in branches) == ["", "no convergence"]
        lost = next(br for br in branches if br.note)
        assert lost.samples[-1][0] < 2.0
