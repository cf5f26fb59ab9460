"""Problem parameterization, the s <-> mu map and stability-domain tests.

Eigenvalues mu of the linearized flow are parameterized throughout by
mu = -s*(s+1) with s complex; the map is invariant under s -> -1-s, so
the half-plane Re(s) >= -1/2 suffices for root searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NonFiniteError(FloatingPointError):
    """A boundary-matrix entry overflowed (series order M too large for x0)."""


class CountError(ArithmeticError):
    """A contour count did not resolve, or differs from the roots found."""


class GridTooCoarseWarning(UserWarning):
    """Two sign changes landed inside one scan step; roots may be missed."""


@dataclass(frozen=True)
class SpectralParams:
    """Problem instance: azimuthal wavenumber k, Reynolds number eps,
    truncation coordinate x0 = cos(theta0) and series truncation order M.

    k is stored signed but every computation depends on k**2 only.
    The series solver requires x0 < 1; x0 = 1 (full sphere) is served
    by the closed-form spectra in the analytic module.
    """

    k: int
    eps: float
    x0: float
    M: int = 150

    def __post_init__(self):
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and nonnegative, got "
                             f"{self.eps}")
        if not 0 < self.x0 <= 1:
            raise ValueError(f"x0 must lie in (0, 1], got {self.x0}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")

    @property
    def abs_k(self) -> int:
        return abs(self.k)


def mu_of_s(s: complex) -> complex:
    """Eigenvalue mu = -s*(s+1) for spectral coordinate s."""
    return -s * (s + 1)


def canonicalize_s(s: complex) -> complex:
    """Map s to the canonical representative with Re(s) >= -1/2.

    Uses the reflection s -> -1-s, which leaves mu unchanged; complex
    values additionally get a nonnegative imaginary part (roots of the
    real-coefficient determinant come in conjugate pairs and are stored
    once, with the +Im member standing for the pair).
    """
    s = complex(s)
    if s.real < -0.5:
        s = -1 - s
    if s.imag < 0:
        s = s.conjugate()
    return s


def in_stability_domain(s: complex) -> bool:
    """True iff Re(mu) < 0, i.e. the perturbation mode decays.

    In the s-plane this is the region Re(s) > 0,
    |Im(s)| < sqrt(Re(s)*(Re(s)+1)).
    """
    s = complex(s)
    a = s.real
    return a > 0 and abs(s.imag) < math.sqrt(a * (a + 1))


@dataclass(frozen=True)
class Root:
    """An eigenvalue record in s-parameterization with a scaled residual,
    its provenance and an error bound; mu is always derived from s.

    kind is "real" or "complex-pair"; complex pairs are stored once with
    positive imaginary part.  source records which solver produced it.
    error bounds |s - s_true|: the closing bracket width of a scanned real
    root, the last Muller step of a complex refinement.
    """

    s: complex
    residual: float
    kind: str = "real"
    source: str = "series"
    error: float = 0.0

    def __post_init__(self):
        if self.kind not in ("real", "complex-pair"):
            raise ValueError(f"unknown root kind {self.kind!r}")
        if self.source not in ("series", "oracle", "analytic"):
            raise ValueError(f"unknown root source {self.source!r}")

    @property
    def mu(self) -> complex:
        return mu_of_s(self.s)
