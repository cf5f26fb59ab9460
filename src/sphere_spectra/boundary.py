"""Boundary-condition matrices and the determinant functions whose roots
are the eigenvalues.

For k != 0 the four boundary functionals (even/odd parity separation of
Psi(+-x0) = Psi'(+-x0) = 0) applied to the series generated by the four
unit seeds (a0, b0, c0, d0) give a 4x4 matrix A_k(s); for k = 0 the two
Neumann functionals over the free seeds (a0, d0) give a 2x2 matrix A_0(s).
Eigenvalues are the roots of F(s) = det(A(s)).

The derivative functionals follow the series sums verbatim, i.e. without
the common x0**-1 factor of the literal derivative; root locations are
unaffected.  The recurrence carries the rows of A (series.fold_blocks).
Columns are normalized by their max magnitude before the determinant,
which postpones overflow near x0 -> 1 without moving roots.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import NonFiniteError, SpectralParams
from .series import (SeriesCoefficients, coeffs, coeffs_k0_batch,
                     coeffs_k_batch, fold_blocks, stream_functional)


def _check_series_domain(params: SpectralParams):
    if not params.x0 < 1:
        raise ValueError("series boundary matrix requires x0 < 1; the full "
                         "sphere x0 = 1 is served by the analytic module")


@functools.lru_cache(maxsize=8)
def _stream_rows(k2: float, M: int, x0: float):
    """Row i of A as g[i, 0] @ a + g[i, 1] @ b + h[i] @ (c0, d0)."""
    m = np.arange(M + 1)
    w = x0 ** (2 * m)
    rows = ([(w, 0), (w, 1), (2 * m * w, 0), ((2 * m + 1) * w, 1)] if k2
            else [(2 * m * w, 0), ((2 * m + 1) * w, 1)])
    g, h = np.zeros((len(rows), 2, M + 1)), np.zeros((len(rows), 2))
    for i, (weight, odd) in enumerate(rows):
        g[i, odd], h[i, odd] = stream_functional(k2, weight, odd)
    return g, h


def _matrices(params: SpectralParams, s, fold=None):
    """Stack of boundary matrices over a batch of s values, shape
    (len(s), dim, dim); fold (series.fold_blocks) is made here if None.

    The vorticity recurrence runs on the two free seeds, (a0, b0) for
    k != 0 and (a0, d0) for k = 0, as one batch of 2*len(s) columns that
    carry their rows of A; the c0 and d0 columns of A_k are constants.
    The stack is float64 for real s and complex otherwise.
    """
    s = np.asarray(s)
    n = s.size
    if params.k == 0 and np.any(s * (s + 1) == 0):
        raise ValueError("mu = 0 is the trivial k = 0 eigenvalue; "
                         "A_0(s) requires s*(s+1) != 0")
    k2, sb = params.abs_k ** 2, np.tile(s, 2)
    g, h = _stream_rows(k2, params.M, params.x0)
    fold = fold_blocks(k2, params.eps, params.M, g) if fold is None else fold
    seeds = (np.repeat([1.0, 0.0], n), np.repeat([0.0, 1.0], n))
    if params.k != 0:
        rows = coeffs_k_batch(k2, params.eps, sb, seeds, params.M, fold)
    else:
        rows = coeffs_k0_batch(params.eps, sb, seeds, params.M, fold)
    rows = (np.hstack([rows, np.repeat(h, n, 1)]) if params.k != 0
            else rows + h[:, 1:] * seeds[1])
    stack = rows.reshape(len(h), len(h), n).transpose(2, 0, 1)
    if not np.all(np.isfinite(stack)):
        raise NonFiniteError(
            f"boundary matrix overflowed (M={params.M}, x0={params.x0})")
    return stack


def assemble(params: SpectralParams, s: complex) -> np.ndarray:
    """Boundary matrix at a single s: 4x4 for k != 0, 2x2 for k = 0
    (mu != 0 required); each column is the boundary-residual vector of a
    unit seed."""
    _check_series_domain(params)
    return _matrices(params, np.array([s]))[0]


def _normalized_det(stack: np.ndarray):
    """Determinants of a stack of matrices with each column divided by its
    largest magnitude; roots are those of the raw determinant."""
    norms = np.abs(stack).max(axis=1, keepdims=True)
    return np.linalg.det(stack / np.where(norms == 0, 1.0, norms))


def det_functional(params: SpectralParams):
    """Vectorized F(s): maps an array of s values to normalized determinant
    values, float64 for real s.  This is the functional handed to the root
    finder; it folds the rows into the current blocks once, when made."""
    _check_series_domain(params)
    k2 = params.abs_k ** 2
    fold = fold_blocks(k2, params.eps, params.M,
                       _stream_rows(k2, params.M, params.x0)[0])

    def F(s):
        s = np.atleast_1d(np.asarray(s))
        return _normalized_det(_matrices(params, s, fold))

    return F


def null_seeds(A: np.ndarray) -> np.ndarray:
    """Seed vector spanning the (near-)null space of A at an eigenvalue.

    Computed from the SVD of the column-normalized matrix; the returned
    seeds absorb the normalization so that A @ seeds is (near) zero.
    """
    norms = np.abs(A).max(axis=0)
    norms = np.where(norms == 0, 1.0, norms)
    _, _, vh = np.linalg.svd(A / norms)
    return vh[-1].conj() / norms


def eigenfunction_coeffs(params: SpectralParams, s: complex) -> SeriesCoefficients:
    """Series coefficients of the eigenfunction at a determinant root s,
    built from the null vector of the boundary matrix."""
    return coeffs(params, s, null_seeds(assemble(params, s)))
