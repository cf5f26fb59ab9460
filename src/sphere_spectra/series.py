"""Truncated power-series solutions of the linearized flow equations.

The stream function Psi and vorticity Phi are expanded about the ordinary
point x = 0 with even and odd parts kept separate:

    Psi(x) = sum_m c_m x^(2m) + sum_m d_m x^(2m+1)
    Phi(x) = sum_m a_m x^(2m) + sum_m b_m x^(2m+1)

The coefficient recurrences are exact; the only approximation is the
truncation at index M.  All recurrences depend on s through s*(s+1) only,
and on k through k**2, which is the source of the F(s) = F(-1-s) and
F_k = F_{-k} symmetries checked in the tests.  Only the vorticity pair
(a, b) depends on s; the batch kernels run it over a batch of s values.

The coefficients take one step at a time; the boundary rows take the first
PLAIN so and the rest BLOCK at a time, as matrix polynomials in S with the
row weights folded in (fold_blocks).  Early steps have large S terms
(1/(2t)^2 each), whose monomial expansion cancels at large real S: blocks
from t = 1 put the rows 100 times further from long double.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import SpectralParams


@dataclass(frozen=True)
class SeriesCoefficients:
    """The four coefficient sequences, each of length M+1; they are linear
    in the seeds that generated them (see coeffs)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


# ---------------------------------------------------------------------------
# batch kernels (s is an array; coefficient arrays have shape (M+1, len(s)),
# float64 when s and the seeds are real and complex otherwise)
# ---------------------------------------------------------------------------

PLAIN, BLOCK = 16, 8


@functools.lru_cache(maxsize=8)
def _steps(k2: float, eps: float, M: int) -> np.ndarray:
    """Fused vorticity steps, one 4x4 matrix P[t-1] per index t = 1..M.

    a[t] is substituted into the b[t] update, so each step is linear in
    S = s(s+1): [a[t], b[t]] = (P0 + S P1) [a[t-2], b[t-2], a[t-1], b[t-1]]
    with P0 in rows 0-1 and P1 in rows 2-3, and index -1 terms zero.
    k2 = 0 selects the first-order k = 0 recurrence (no t-2 columns).
    """
    n = 2 * np.arange(1.0, M + 1)[:, None]        # 2t
    if k2:
        a0 = [-(n - 4) * (n - 3), eps * (n - 3), k2 + 2 * (n - 2) ** 2,
              -eps * (n - 1)]
        b0 = [0 * n, -(n - 2) * (n - 3), eps * (n - 2), k2 + 2 * (n - 1) ** 2]
        a1, b1 = [1, 0, -1, 0], [0, 1, 0, -1]
    else:
        a0 = [0 * n, 0 * n, (n - 2) * (n - 1), -eps * (n - 1)]
        b0 = [0 * n, 0 * n, 0 * n, (n - 1) * n]
        a1, b1 = [0, 0, -1, 0], [0, 0, 0, -1]
    da, db = n * (n - 1), (n + 1) * n
    a0, a1, b0, b1 = (np.hstack(a0) / da, np.array(a1) / da,
                      np.hstack(b0) / db, np.array(b1) / db)
    f = eps / (n + 1)
    return np.stack([a0, b0 - f * a0, a1, b1 - f * a1], 1)


@functools.lru_cache(maxsize=2)          # one (k, eps, M) in use at a time
def _blocks(k2: float, eps: float, M: int) -> np.ndarray:
    """The steps after PLAIN, BLOCK at a time: [S^j y] @ C[i] (j = 0..BLOCK,
    y the four values before block i) gives its 2*BLOCK values (a, b).
    Composed in long double and rounded once; zero steps pad the last
    block, so C[i] does not depend on M."""
    P = _steps(k2, eps, M)[PLAIN:].astype(np.longdouble)
    P = np.concatenate([P, np.zeros((-len(P) % BLOCK, 4, 4))])
    # Q[i, v, 4j + c]: value v (y, then each step's a, b) in S^j y[c]
    Q = np.zeros((len(P) // BLOCK, 2 * BLOCK + 4, 4 * BLOCK + 4), P.dtype)
    Q[:, range(4), range(4)] = 1
    for t in range(BLOCK):
        w = 4 * t + 4       # step t reads degree <= t in S: w columns
        r = P[t::BLOCK] @ Q[:, 2 * t:2 * t + 4, :w]
        Q[:, 2 * t + 4:2 * t + 6, :w] = r[:, :2]
        Q[:, 2 * t + 4:2 * t + 6, 4:w + 4] += r[:, 2:]
    return Q[:, 4:].transpose(0, 2, 1).astype(float, order="C")


def fold_blocks(k2: float, eps: float, M: int, g: np.ndarray):
    """The weights g (rows, 2, M + 1) folded in: table @ head = [y, rows]
    after the PLAIN steps, [S^j y, y, rows] @ F = [y', rows] after a block."""
    C, n = np.roll(_blocks(k2, eps, M), -4, axis=1), len(g)
    W = np.pad(g.transpose(2, 1, 0), ((1, PLAIN + BLOCK * len(C) - M), (0, 0),
                                      (0, 0))).reshape(-1, n)  # zero past M
    F = np.zeros((len(C), 4 * BLOCK + 4 + n, 4 + n))
    F[:, :-n, :4] = C[:, :, -4:]
    F[:, :-n, 4:] = C @ W[2 * PLAIN + 4:].reshape(len(C), 2 * BLOCK, n)
    F[:, -n:, 4:] = np.eye(n)
    return np.hstack([np.eye(2 * PLAIN + 4)[:, -4:], W[:2 * PLAIN + 4]]), F


def _vorticity(k2: float, eps: float, s, a0, b0, M: int, fold=None):
    """The fused steps from (a0, b0), one column per s: the sequences (a, b)
    or, with a fold, the rows g @ (a, b) it carries."""
    s = np.asarray(s, np.result_type(*map(np.asarray, (s, a0, b0)), float))
    S = s * (s + 1)
    if fold is None:
        Z = np.zeros((M + 2, 2, s.size), s.dtype)
    else:   # two [S^j y (j = 1..BLOCK), y, r]; the second holds the table
        (head, blocks), Sj = fold, S ** np.arange(1, BLOCK + 1)[:, None, None]
        X = np.zeros((2, blocks.shape[1], s.size), s.dtype)
        Z = X[1, :2 * PLAIN + 4].reshape(PLAIN + 2, 2, -1)
    Z[1, 0], Z[1, 1] = a0, b0
    Zr = Z.reshape(-1, s.size).view(float)   # rows 2i, 2i + 1: index i - 1
    r = np.empty((4, Zr.shape[-1]))
    rz = r.view(Z.dtype)
    for t, P in enumerate(_steps(k2, eps, M)[:len(Z) - 2], start=1):
        np.matmul(P, Zr[2 * t - 2:2 * t + 2], out=r)
        np.multiply(S, rz[2:], out=Z[t + 1])
        Z[t + 1] += rz[:2]
    if fold is None:
        return Z[1:, 0], Z[1:, 1]
    k = 4 * BLOCK     # the batch as the rows: no value depends on the batch
    cur, nxt = ((x.view(float).T, x[:k].reshape(BLOCK, 4, -1), x[k:k + 4],
                 x[k:].view(float).T) for x in X)
    np.matmul(Zr.T, head, out=cur[3])      # y: the last four values
    for F in blocks:      # r is last: added once, after the block's terms
        np.multiply(Sj, cur[2], out=cur[1])
        np.matmul(cur[0], F, out=nxt[3])
        cur, nxt = nxt, cur
    return X[len(blocks) % 2, k + 4:]


def coeffs_k_batch(k2: float, eps: float, s, seeds, M: int, fold=None):
    """Vorticity sequences (a, b) for the k != 0 system, one column per s
    value, from seeds = (a0, b0); with a fold, the rows g @ (a, b)."""
    return _vorticity(k2, eps, s, *seeds, M, fold)


def coeffs_k0_batch(eps: float, s: np.ndarray, seeds, M: int, fold=None):
    """Vorticity sequences (a, b) for the k = 0 system, one column per s
    value, from the free seeds (a0, d0): the compatibility condition fixes
    b0 = -eps*a0 - s*(s+1)*d0.  With a fold, the rows g @ (a, b)."""
    s = np.asarray(s)
    a0, d0 = seeds
    return _vorticity(0, eps, s, a0, -eps * a0 - s * (s + 1) * d0, M, fold)


def stream_coeffs(k2: float, a, b, c0, d0):
    """Stream sequences (c, d), shaped like a, from the vorticity sequences
    (a, b) and the seeds (c0, d0); k2 = 0 selects the k = 0 system.  Free
    of s and eps: (c, d) is a fixed linear image of (a, b, c0, d0)."""
    out = []
    for o, (v, x0) in enumerate(((a, c0), (b, d0))):
        v = np.concatenate([np.zeros_like(v[:1]), v])     # index -1 first
        x = np.zeros(v.shape, np.result_type(a, b, c0, d0))
        x[1] = x0
        for t in range(2, len(x)):
            n = 2 * t + o - 2                  # twice the index, plus parity
            if k2:
                x[t] = ((k2 + 2 * (n - 2) ** 2) * x[t - 1]
                        - (n - 4) * (n - 3) * x[t - 2] + v[t - 1] - v[t - 2]
                        ) / (n * (n - 1))
            else:
                x[t] = ((n - 2) * (n - 1) * x[t - 1] + v[t - 1]) / (
                    n * (n - 1))
        out.append(x[1:])
    return tuple(out)


def stream_functional(k2: float, weight, odd: int):
    """(g, h) with weight @ c = g @ a + h * c0, or with odd = 1 weight @ d =
    g @ b + h * d0, for (c, d) from stream_coeffs: the recurrence transposed,
    in differences whose terms are nonnegative, so g is good to a few ulp."""
    g = np.zeros(len(weight))
    u = y = 0.0
    for j in range(len(weight) - 1, 0, -1):
        u = (weight[j] + k2 * y + (2 * j + odd) * (2 * j + odd + 1) * u) / (
            (2 * j + odd) * (2 * j + odd - 1))
        y += u
        g[j - 1] = u
    return g, weight[0] + k2 * y + odd * (odd + 1) * u


# ---------------------------------------------------------------------------
# public operations (single s)
# ---------------------------------------------------------------------------

def coeffs(params: SpectralParams, s: complex, seeds) -> SeriesCoefficients:
    """All four sequences at s from the seeds (a0, b0, c0, d0), or for
    k = 0 from the free seeds (a0, d0)."""
    k2 = params.abs_k ** 2
    if k2:
        a, b = coeffs_k_batch(k2, params.eps, np.array([s]), seeds[:2],
                              params.M)
        c0, d0 = seeds[2:]
    else:
        a, b = coeffs_k0_batch(params.eps, np.array([s]), seeds, params.M)
        c0, d0 = 0, seeds[1]
    c, d = stream_coeffs(k2, a[:, 0], b[:, 0], c0, d0)
    return SeriesCoefficients(a[:, 0], b[:, 0], c, d)


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
