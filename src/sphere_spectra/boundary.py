"""Boundary-condition matrices and the determinant functions whose roots
are the eigenvalues.

For k != 0 the four boundary functionals (even/odd parity separation of
Psi(+-x0) = Psi'(+-x0) = 0) applied to the series generated by the four
unit seeds (a0, b0, c0, d0) give a 4x4 matrix A_k(s); for k = 0 the two
Neumann functionals over the free seeds (a0, d0) give a 2x2 matrix A_0(s).
Eigenvalues are the roots of F(s) = det(A(s)).

The derivative functionals follow the series sums verbatim, i.e. without
the common x0**-1 factor of the literal derivative; root locations are
unaffected.  Columns are normalized by their max magnitude before the
determinant, which postpones overflow near x0 -> 1 without moving roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError, SpectralParams
from .series import (SeriesCoefficients, coeffs_full_k, coeffs_k0,
                     coeffs_k0_batch, coeffs_k_batch)


@dataclass(frozen=True)
class BoundaryMatrix:
    """Boundary matrix at one s: 4x4 for k != 0, 2x2 for k = 0.

    Each column is the boundary-residual vector of a unit seed.
    """

    entries: np.ndarray
    params: SpectralParams
    s: complex

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_series_domain(params: SpectralParams):
    if not params.x0 < 1:
        raise ValueError("series boundary matrix requires x0 < 1; the full "
                         "sphere x0 = 1 is served by the analytic module")


def _matrices(params: SpectralParams, s):
    """Stack of boundary matrices over a batch of s values, shape
    (len(s), dim, dim).

    The dim unit seeds are run as one batch of dim*len(s) coefficient
    columns.  k != 0 uses all four functionals; k = 0 only the two
    derivative ones (the free seeds are (a0, d0)).
    """
    s = np.asarray(s, dtype=complex)
    n = s.size
    m = np.arange(params.M + 1)
    w = params.x0 ** (2 * m)
    if params.k == 0 and np.any(s * (s + 1) == 0):
        raise ValueError("mu = 0 is the trivial k = 0 eigenvalue; "
                         "A_0(s) requires s*(s+1) != 0")
    dim = 4 if params.k != 0 else 2
    sb = np.tile(s, dim)
    seeds = tuple(np.repeat(np.eye(dim)[:, comp], n) for comp in range(dim))
    if params.k != 0:
        _, _, c, d = coeffs_k_batch(params.abs_k ** 2, params.eps, sb,
                                    seeds, params.M)
        weighted = ((w, c), (w, d), (2 * m * w, c), ((2 * m + 1) * w, d))
    else:
        _, _, c, d = coeffs_k0_batch(params.eps, sb, seeds, params.M)
        weighted = ((2 * m * w, c), ((2 * m + 1) * w, d))
    rows = np.stack([(wt @ seq).reshape(dim, n) for wt, seq in weighted])
    stack = rows.transpose(2, 0, 1)
    if not np.all(np.isfinite(stack)):
        raise NonFiniteError(
            f"boundary matrix overflowed (M={params.M}, x0={params.x0})")
    return stack


def assemble(params: SpectralParams, s: complex) -> BoundaryMatrix:
    """Boundary matrix at a single s: 4x4 for k != 0, 2x2 for k = 0
    (mu != 0 required)."""
    _check_series_domain(params)
    return BoundaryMatrix(_matrices(params, np.array([s]))[0], params,
                          complex(s))


def _normalized_det(stack: np.ndarray):
    """Column-normalized determinants of a stack of matrices.

    Returns (values, scales): values are det of the normalized matrices,
    scales the log10 of the factored-out column-norm product.  Roots are
    those of the raw determinant.
    """
    norms = np.abs(stack).max(axis=1, keepdims=True)
    safe = np.where(norms == 0, 1.0, norms)
    vals = np.linalg.det(stack / safe)
    scales = np.log10(safe).sum(axis=2)[:, 0]
    return vals, scales


def det_functional(params: SpectralParams):
    """Vectorized F(s): maps an array of s values to normalized determinant
    values.  This is the functional handed to the root finder."""
    _check_series_domain(params)

    def F(s):
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        return _normalized_det(_matrices(params, s))[0]

    return F


def null_seeds(matrix: BoundaryMatrix) -> np.ndarray:
    """Seed vector spanning the (near-)null space of A at an eigenvalue.

    Computed from the SVD of the column-normalized matrix; the returned
    seeds absorb the normalization so that A @ seeds is (near) zero.
    """
    A = matrix.entries
    norms = np.abs(A).max(axis=0)
    norms = np.where(norms == 0, 1.0, norms)
    _, _, vh = np.linalg.svd(A / norms)
    return vh[-1].conj() / norms


def eigenfunction_coeffs(params: SpectralParams, s: complex) -> SeriesCoefficients:
    """Series coefficients of the eigenfunction at a determinant root s,
    built from the null vector of the boundary matrix."""
    seeds = null_seeds(assemble(params, s))
    if params.k == 0:
        return coeffs_k0(params, s, seeds[0], seeds[1])
    return coeffs_full_k(params, s, seeds)
