import numpy as np
import pytest

from sphere_spectra import ScanConfig, SpectralParams, det_functional
from sphere_spectra.contour import TAIL, certify, contour_zeros
from sphere_spectra.core import CountError

from test_boundary import PAIRS


def _poly(zeros):
    """F(s) = prod (mu - z) over the zeros z, mu = -s(s + 1)."""
    return lambda s: np.prod([-s * (s + 1) - z for z in zeros], axis=0)


def test_known_zeros_leave_the_others():
    """Inside the mu-ellipse (0, 5, 10) lie -3, 2 and the pair -1 +- 2i, and
    10 lies outside: the count is 4, and with -3 and 2 known the one zero
    returned is the pair's member with Im mu < 0, as s."""
    F = _poly([-3.0, 2.0, -1 + 2j, -1 - 2j, 10.0])
    count, s, tail = contour_zeros(F, 0.0, 5.0, 10.0, 256, [-3.0, 2.0])
    assert count == 4 and tail < TAIL, tail
    assert s.size == 1
    assert abs(-s[0] * (s[0] + 1) - (-1 - 2j)) < 1e-12
    assert s[0].imag > 0


def test_unresolved_count_gives_no_zeros():
    """Samples with no digits wind at random: the tail is not below TAIL
    (inf where the even half of the points winds otherwise), and no zeros
    come back from the noise."""
    rng = np.random.default_rng(7)
    count, s, tail = contour_zeros(
        lambda s: rng.standard_normal(s.size) + 1j * rng.standard_normal(
            s.size), -36.0, 36.0, 72.0, 256)
    assert not tail < TAIL and s.size == 0


def test_noise_is_refused_by_certify():
    F = det_functional(SpectralParams(k=1, eps=40.0, x0=0.9, M=150))
    with pytest.raises(CountError, match="no count"):
        certify(F, ScanConfig(0.0, 10.0), [])


def test_a_window_of_ten_pairs_is_split():
    """s in [0, 30] at k = 1, eps = 4 holds ten pairs (count 20), more
    than one polynomial takes: the seeds come from split ellipses, and
    every pair is found, the first three within 1e-10 of PAIRS."""
    F = det_functional(SpectralParams(k=1, eps=4.0, x0=0.9, M=150))
    cert, pairs = certify(F, ScanConfig(0.0, 30.0), [])
    assert cert["count"] == cert["found"] == 20
    assert cert["region"] == [-465.0, 465.0, 930.0]
    s = np.array([r.s for r in pairs])
    assert s.size == 10 and np.all(np.diff(s.real) > 2)
    assert np.abs(s[:3] - PAIRS).max() < 1e-10
