"""Truncated power-series solutions of the linearized flow equations.

The stream function Psi and vorticity Phi are expanded about the ordinary
point x = 0 with even and odd parts kept separate:

    Psi(x) = sum_m c_m x^(2m) + sum_m d_m x^(2m+1)
    Phi(x) = sum_m a_m x^(2m) + sum_m b_m x^(2m+1)

The coefficient recurrences are exact; the only approximation is the
truncation at index M.  All recurrences depend on s through s*(s+1) only,
and on k through k**2, which is the source of the F(s) = F(-1-s) and
F_k = F_{-k} symmetries checked in the tests.

Internally everything is vectorized over a batch of s values; the public
operations wrap the batch kernels for a single s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpectralParams


@dataclass(frozen=True)
class SeriesCoefficients:
    """The four coefficient sequences, each of length M+1, plus the seeds
    (a0, b0, c0, d0) that generated them.  Coefficients are linear in the
    seeds."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    seeds: tuple

    @property
    def M(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class SeriesTail:
    """Magnitudes of the last retained series terms at x0, used as a
    truncation diagnostic."""

    tail_phi: float
    tail_psi: float


# ---------------------------------------------------------------------------
# batch kernels (s is an array; coefficient arrays have shape (M+1, len(s)))
# ---------------------------------------------------------------------------

def coeffs_k_batch(k2: float, eps: float, s: np.ndarray, seeds, M: int):
    """Coefficient sequences for the k != 0 system, one column per s value.

    seeds = (a0, b0, c0, d0).  The vorticity pair (a, b) is generated first;
    inside the coupled recurrence a[m+2] must be computed before b[m+2]
    because the b update references it.  The stream pair (c, d) follows from
    (a, b).  Initial entries at index 1 are the m = -1 instances of the
    recurrences with all index -1 terms set to zero.
    """
    s = np.asarray(s, dtype=complex)
    n = s.size
    S = s * (s + 1)
    a = np.zeros((M + 1, n), dtype=complex)
    b = np.zeros((M + 1, n), dtype=complex)
    c = np.zeros((M + 1, n), dtype=complex)
    d = np.zeros((M + 1, n), dtype=complex)
    a0, b0, c0, d0 = seeds
    a[0] = a0
    b[0] = b0
    c[0] = c0
    d[0] = d0
    a[1] = ((k2 - S) * a[0] - eps * b[0]) / 2
    b[1] = ((k2 + 2 - S) * b[0] - 2 * eps * a[1]) / 6
    c[1] = (k2 * c[0] + a[0]) / 2
    d[1] = ((k2 + 2) * d[0] + b[0]) / 6
    for m in range(M - 1):
        p, q = 2 * m + 2, 2 * m + 3
        den_even = (2 * m + 4) * (2 * m + 3)
        den_odd = (2 * m + 5) * (2 * m + 4)
        a[m + 2] = ((k2 - S + 2 * p * p) * a[m + 1]
                    + (S - 2 * m * (2 * m + 1)) * a[m]
                    - eps * q * b[m + 1] + eps * (2 * m + 1) * b[m]) / den_even
        b[m + 2] = ((k2 - S + 2 * q * q) * b[m + 1]
                    + (S - (2 * m + 2) * (2 * m + 1)) * b[m]
                    - eps * (2 * m + 4) * a[m + 2] + eps * p * a[m + 1]) / den_odd
        c[m + 2] = ((k2 + 2 * p * p) * c[m + 1]
                    - 2 * m * (2 * m + 1) * c[m]
                    + a[m + 1] - a[m]) / den_even
        d[m + 2] = ((k2 + 2 * q * q) * d[m + 1]
                    - (2 * m + 2) * (2 * m + 1) * d[m]
                    + b[m + 1] - b[m]) / den_odd
    return a, b, c, d


def coeffs_k0_batch(eps: float, s: np.ndarray, seeds, M: int):
    """Coefficient sequences for the k = 0 system, one column per s value.

    seeds = (a0, d0); the remaining starting values are fixed by the
    compatibility conditions b0 = -eps*a0 - s*(s+1)*d0 and c0 = 0 (the
    stream function is defined up to an additive constant).  The (a, b)
    pair is uncoupled from (c, d).
    """
    s = np.asarray(s, dtype=complex)
    n = s.size
    S = s * (s + 1)
    a = np.zeros((M + 1, n), dtype=complex)
    b = np.zeros((M + 1, n), dtype=complex)
    c = np.zeros((M + 1, n), dtype=complex)
    d = np.zeros((M + 1, n), dtype=complex)
    a0, d0 = seeds
    a[0] = a0
    b[0] = -eps * a0 - S * d0
    d[0] = d0
    for m in range(M):
        den_a = (2 * m + 2) * (2 * m + 1)
        den_b = (2 * m + 3) * (2 * m + 2)
        a[m + 1] = ((2 * m * (2 * m + 1) - S) * a[m]
                    - eps * (2 * m + 1) * b[m]) / den_a
        b[m + 1] = (((2 * m + 1) * (2 * m + 2) - S) * b[m]
                    - eps * (2 * m + 2) * a[m + 1]) / den_b
        c[m + 1] = (2 * m * (2 * m + 1) * c[m] + a[m]) / den_a
        d[m + 1] = ((2 * m + 1) * (2 * m + 2) * d[m] + b[m]) / den_b
    return a, b, c, d


# ---------------------------------------------------------------------------
# public operations (single s)
# ---------------------------------------------------------------------------

def coeffs_full_k(params: SpectralParams, s: complex, seeds) -> SeriesCoefficients:
    """All four sequences for k != 0 from the full seed vector
    (a0, b0, c0, d0)."""
    if params.k == 0:
        raise ValueError("coeffs_full_k requires k != 0")
    a, b, c, d = coeffs_k_batch(params.abs_k ** 2, params.eps,
                                np.array([s]), seeds, params.M)
    return SeriesCoefficients(a[:, 0], b[:, 0], c[:, 0], d[:, 0], tuple(seeds))


def coeffs_k0(params: SpectralParams, s: complex,
              a0: complex, d0: complex) -> SeriesCoefficients:
    """All four sequences for k = 0 from the free seeds (a0, d0).

    The trivial eigenvalue mu = 0 (s = 0 or s = -1) is rejected; it is
    handled analytically as the constant mode.
    """
    if params.k != 0:
        raise ValueError("coeffs_k0 requires k = 0")
    if s * (s + 1) == 0:
        raise ValueError("mu = 0 is the trivial eigenvalue; series solver "
                         "requires s*(s+1) != 0")
    a, b, c, d = coeffs_k0_batch(params.eps, np.array([s]), (a0, d0), params.M)
    return SeriesCoefficients(a[:, 0], b[:, 0], c[:, 0], d[:, 0], (a0, d0))


def eval_series(coeffs: SeriesCoefficients, which: str, x):
    """Evaluate the truncated series and its first two derivatives at the
    points x, all |x| < 1.  Returns (value, first, second), each shaped
    like x.

    which selects "psi" (c, d sequences) or "phi" (a, b).  Evaluation is
    Horner in u = x**2 on the even/odd parts separately.
    """
    if which == "psi":
        even, odd = coeffs.c, coeffs.d
    elif which == "phi":
        even, odd = coeffs.a, coeffs.b
    else:
        raise ValueError(f"which must be 'psi' or 'phi', got {which!r}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1):
        raise ValueError(f"series evaluation requires |x| < 1, got x={x}")
    u = x * x
    pv = np.polynomial.polynomial.polyval
    m = np.arange(len(even))
    value = pv(u, even) + x * pv(u, odd)
    # d/dx [E(x^2) + x O(x^2)] = 2x E'(u) + O(u) + 2u O'(u)
    first = x * pv(u, (2 * m * even)[1:]) + pv(u, (2 * m + 1) * odd)
    second = (pv(u, (2 * m * (2 * m - 1) * even)[1:])
              + x * pv(u, ((2 * m + 1) * 2 * m * odd)[1:]))
    return value, first, second


def tail_estimate(coeffs: SeriesCoefficients, x0: float) -> SeriesTail:
    """Magnitude of the last retained term of each series at x0."""
    if not 0 < x0 < 1:
        raise ValueError(f"tail estimate requires 0 < x0 < 1, got {x0}")
    M = coeffs.M
    w_even = x0 ** (2 * M)
    w_odd = x0 ** (2 * M + 1)
    return SeriesTail(
        tail_phi=abs(coeffs.a[M]) * w_even + abs(coeffs.b[M]) * w_odd,
        tail_psi=abs(coeffs.c[M]) * w_even + abs(coeffs.d[M]) * w_odd,
    )
