"""Eigenvalues counted in a region by the argument principle and found from
the same samples (Delves & Lyness, Math. Comp. 21, 1967)."""

import numpy as np

from .core import CountError
from .rootfinder import _dedupe, refine_complex

NS, TAIL = (256, 512, 1024, 2048, 4096), 1e-6    # points tried; tail bound
DEGREE, DEPTH = 6, 8    # most zeros one polynomial takes; deepest split


def contour_zeros(F, c, a, b, n, known=()):
    """Zeros of G(mu) = F(s), -s(s + 1) = mu, in the mu-ellipse c + a cos t +
    i b sin t from n points: the count is the winding of log G, and the power
    sums of G'/G (its periodic part differentiated by FFT) in u = (mu - c)/a,
    less the known zeros', give the others by Newton's identities.  Returns
    the count, the others with Im mu <= 0 as s (one per conjugate pair: G is
    real on the real axis), and the FFT tail (middle quarter over largest;
    inf where the even points wind otherwise); no zeros unless tail < TAIL."""
    t = 2 * np.pi * np.arange(n) / n
    u = np.cos(t) + 1j * (b / a) * np.sin(t)
    log_g = np.log(F(-0.5 + np.sqrt(0.25 - (c + a * u))))
    phase, half = (np.unwrap(np.append(v, v[0]))
                   for v in (log_g.imag, log_g.imag[::2]))
    count, half = (round((p[-1] - p[0]) / (2 * np.pi)) for p in (phase, half))
    coef = np.fft.fft(log_g.real + 1j * (phase[:-1] - count * t))
    tail = (float(np.abs(coef[3 * n // 8:5 * n // 8]).max() / abs(coef).max())
            if count == half else np.inf)
    if not tail < TAIL:
        return count, np.empty(0, complex), tail
    dlog = np.fft.ifft(1j * np.fft.fftfreq(n, 1 / n) * coef) + 1j * count
    known = (np.asarray(known, float) - c) / a
    p = [np.mean(u ** q * dlog) / 1j - np.sum(known ** q)
         for q in range(1, count - known.size + 1)]
    e = [1.0]                                            # Newton's identities
    for q in range(1, len(p) + 1):
        e.append(sum((-1) ** (i - 1) * e[q - i] * p[i - 1]
                     for i in range(1, q + 1)) / q)
    mu = c + a * np.roots([(-1) ** q * e[q] for q in range(len(e))])
    return count, -0.5 + np.sqrt(0.25 - mu[mu.imag <= 0]), tail


def _seeds(F, lo, hi, known, depth=0):
    """The count of the mu-ellipse over [lo, hi], b = 2a, at the first n of NS
    with tail < TAIL, and seeds for its zeros not in known: over DEGREE, from
    the halves of [lo, hi], each widened by a quarter and keeping its own."""
    c, a = (lo + hi) / 2, (hi - lo) / 2
    own = [m for m in known if lo <= m <= hi]
    for n in NS:
        count, seeds, tail = contour_zeros(F, c, a, 2 * a, n, own)
        if tail < TAIL:
            break
    cert = {"region": [c, a, 2 * a], "n": n, "count": count, "tail": tail}
    if not tail < TAIL or count - len(own) > DEGREE and depth == DEPTH:
        raise CountError(f"no count in the mu-ellipse {cert}")
    if count - len(own) > DEGREE:
        seeds = [z for l, h, right in ((lo, c + a / 2, 0), (c - a / 2, hi, 1))
                 for z in _seeds(F, l, h, known, depth + 1)[1]
                 if right == ((-z * (z + 1)).real >= c)]
    return cert, seeds


def certify(F, scan, reals):
    """Count the zeros in the region R of the scan window: the mu-ellipse
    over [mu(s_max), mu(s_min)] with b = 2a, whose real zeros are the
    scanned roots reals.  Returns R's count (region, n, count, tail, found)
    and its distinct complex pairs, polished by refine_complex; CountError
    unless the real roots and two per pair make up the count."""
    mu = [-s * (s + 1) for s in (scan.s_max, scan.s_min)]
    cert, seeds = _seeds(F, *mu, [r.mu.real for r in reals])
    c, a, b = cert["region"]
    polished = refine_complex(F, seeds, scan.tol, probe=scan.step)
    pairs = _dedupe([r for r in polished if r and r.kind == "complex-pair"
                     and abs((r.mu.real - c) / a + 1j * r.mu.imag / b) < 1],
                    1e-6)
    cert["found"] = len(reals) + 2 * len(pairs)
    if cert["found"] != cert["count"]:
        raise CountError(f"the roots found are not the count: {cert}")
    return cert, pairs
